"""Continuous dynamics: exact discretization, heating, and moment propagation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levamp.dynamics import (
    CovarianceError,
    DynamicsModel,
    _check_pd,
    _joseph_update,
    _predict,
    base_model,
    propagate,
    soft_model,
    transition,
)
from levamp.params import OscillatorParams
from levamp.state import GaussianState, occupation, quarter_period_map, thermal_state

PARAMS = OscillatorParams()
PERIOD = PARAMS.period_s
R12 = math.sqrt(12.0)

FREE = base_model(PARAMS, measurement_on=False)
MEASURED = base_model(PARAMS)


def rk4_moments(model, mean0, cov0, duration, n_steps):
    """Brute-force moment integration: dm/dt = A m, dV/dt = A V + V A' + D."""
    a = model.drift_matrix()
    d = model.diffusion_matrix()
    dt = duration / n_steps
    m = mean0.copy()
    v = cov0.copy()

    def f_cov(vv):
        return a @ vv + vv @ a.T + d

    for _ in range(n_steps):
        k1 = a @ m
        k2 = a @ (m + 0.5 * dt * k1)
        k3 = a @ (m + 0.5 * dt * k2)
        k4 = a @ (m + dt * k3)
        m = m + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q1 = f_cov(v)
        q2 = f_cov(v + 0.5 * dt * q1)
        q3 = f_cov(v + 0.5 * dt * q2)
        q4 = f_cov(v + dt * q3)
        v = v + dt / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
    return m, v


def test_transition_matches_brute_force_integration():
    model = DynamicsModel(
        omega=PARAMS.omega,
        freq_ratio=0.5,
        diffusion_p=4.0 * PARAMS.gamma_qb * 0.25,
        meas_rate=0.0,
    )
    dt = model.local_period / 200.0
    f, qd = transition(model, dt)
    m0 = np.array([0.8, -0.3])
    v0 = 3.4 * np.eye(2)
    m_ref, v_ref = rk4_moments(model, m0, v0, dt, 400)
    assert np.allclose(f @ m0, m_ref, atol=1e-12)
    assert np.allclose(f @ v0 @ f.T + qd, v_ref, atol=1e-12)


def test_propagate_matches_brute_force_over_partial_periods():
    model = DynamicsModel(
        omega=PARAMS.omega,
        freq_ratio=1.0,
        diffusion_p=4.0 * PARAMS.gamma_qb,
        meas_rate=0.0,
    )
    duration = 340.0 * (PERIOD / 200.0)
    st = GaussianState(np.array([1.0, 0.5]), 3.4 * np.eye(2))
    out = propagate(st, model, duration)
    m_ref, v_ref = rk4_moments(model, st.mean, st.cov, duration, 20000)
    assert np.allclose(out.mean, m_ref, atol=1e-9)
    assert np.allclose(out.cov, v_ref, atol=1e-9)


def test_full_period_returns_the_state():
    st = GaussianState(np.array([1.3, -0.4]), np.diag([2.0, 0.9]))
    out = propagate(st, FREE.noiseless(), PERIOD)
    assert np.allclose(out.mean, st.mean, atol=1e-9)
    assert np.allclose(out.cov, st.cov, atol=1e-9)


@pytest.mark.parametrize("r", [1.0, 2.0, R12])
def test_quarter_of_the_local_period_matches_the_quarter_map(r):
    model = (soft_model(PARAMS, r) if r > 1.0 else FREE).noiseless()
    st = GaussianState(np.array([0.7, -1.1]), 3.4 * np.eye(2))
    quarter = model.local_period / 4.0
    out = propagate(st, model, quarter)
    m = quarter_period_map(r)
    assert np.allclose(out.mean, m @ st.mean, atol=1e-9)
    assert np.allclose(out.cov, m @ st.cov @ m.T, atol=1e-9)


def test_recoil_heating_rate_over_integer_periods():
    """Occupation grows by gamma_qb * t when feedback is off.

    The trace of the covariance is rotation-invariant, so diffusion
    diag(0, 4 gamma_qb) heats at exactly one quantum per 1/gamma_qb.
    Ten base periods give 2 pi 3400 * 10 / 52000 quanta.
    """
    st = thermal_state(1.2)
    duration = 10.0 * PERIOD
    out = propagate(st, FREE, duration)
    gained = occupation(out) - 1.2
    assert gained == pytest.approx(4.10823654700204, rel=1e-9)


@pytest.mark.parametrize("duration_periods", [0.3, 1.0, 2.7])
def test_noiseless_evolution_preserves_covariance_determinant(duration_periods):
    st = GaussianState(np.zeros(2), np.diag([12.0, 1.0 / 12.0]))
    out = propagate(st, FREE.noiseless(), duration_periods * PERIOD)
    assert np.linalg.det(out.cov) == pytest.approx(1.0, abs=1e-9)


def test_splitting_a_duration_reproduces_the_whole():
    dt = PERIOD / 200.0
    duration = 137.0 * dt
    st = GaussianState(np.array([0.2, 0.9]), 3.4 * np.eye(2))
    whole = propagate(st, MEASURED, duration)
    part = propagate(st, MEASURED, 100.0 * dt)
    rest = propagate(part, MEASURED, 37.0 * dt)
    assert np.allclose(rest.mean, whole.mean, atol=1e-12)
    assert np.allclose(rest.cov, whole.cov, atol=1e-12)


def test_zero_duration_is_a_no_op():
    st = thermal_state(1.2)
    out = propagate(st, MEASURED, 0.0)
    assert np.array_equal(out.mean, st.mean)
    assert np.array_equal(out.cov, st.cov)


def test_one_transition_equals_the_explicit_step_chain():
    """Oracle: propagating over 600 steps in one call equals chaining 600
    explicit one-step transitions."""
    dt = PERIOD / 200.0
    st = GaussianState(np.array([0.9, -0.6]), np.diag([3.4, 2.1]))
    f, qd = transition(MEASURED, dt)
    mean, cov = st.mean, st.cov
    for _ in range(600):
        mean = f @ mean
        cov = f @ cov @ f.T + qd
    out = propagate(st, MEASURED, 600 * dt)
    assert np.max(np.abs(out.mean - mean)) < 1e-12
    assert np.max(np.abs(out.cov - cov)) < 1e-12


def test_propagate_rejects_bad_steps():
    st = thermal_state(1.2)
    for bad in (-PERIOD, np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            propagate(st, MEASURED, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pd_check_rejects_any_non_finite_entry(bad):
    good = (2.0, 0.3, 1.5)  # (V_qq, V_qp, V_pp) of a symmetric 2x2
    _check_pd(good, 0.0)
    for i in range(3):
        v = list(good)
        v[i] = bad
        with pytest.raises(CovarianceError, match="positive definiteness"):
            _check_pd(v, 0.0)


VARIANCE = st.floats(1e-3, 1e3)
CORRELATION = st.floats(-0.99, 0.99)


def _pd(qq, pp, rho):
    qp = rho * math.sqrt(qq * pp)
    return np.array([[qq, qp], [qp, pp]])


def _entries(v):
    return float(v[0, 0]), float(v[0, 1]), float(v[1, 1])


@settings(max_examples=200, deadline=None)
@given(VARIANCE, VARIANCE, CORRELATION, st.floats(1e-2, 1e3), st.floats(1e-2, 1e7))
def test_scalar_joseph_update_matches_the_matrix_formula(qq, pp, rho, sqrt_k, inv_dt):
    v = _pd(qq, pp, rho)
    h = np.array([[sqrt_k, 0.0]])
    gain = (v @ h.T / (h @ v @ h.T + inv_dt)).ravel()
    imkh = np.eye(2) - np.outer(gain, h)
    ref = imkh @ v @ imkh.T + inv_dt * np.outer(gain, gain)

    (gq, gp), (vqq, vqp, vpp) = _joseph_update(_entries(v), sqrt_k, inv_dt)
    assert np.max(np.abs(np.array([gq, gp]) - gain)) <= 1e-12 * np.max(np.abs(gain))
    got = np.array([[vqq, vqp], [vqp, vpp]])
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(v)), np.max(np.abs(ref)))


@settings(max_examples=200, deadline=None)
@given(VARIANCE, VARIANCE, CORRELATION, VARIANCE, VARIANCE, CORRELATION,
       st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_scalar_prediction_matches_the_matrix_formula(qq, pp, rho, q_qq, q_pp, q_rho, f):
    v = _pd(qq, pp, rho)
    q = _pd(q_qq, q_pp, q_rho)
    f_mat = np.array(f).reshape(2, 2)
    ref = f_mat @ v @ f_mat.T + q

    vqq, vqp, vpp = _predict(_entries(v), tuple(f), _entries(q))
    got = np.array([[vqq, vqp], [vqp, vpp]])
    scale = np.max(np.abs(f_mat)) ** 2 * np.max(np.abs(v)) + np.max(np.abs(q))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_base_and_soft_model_rates():
    assert MEASURED.diffusion_p == pytest.approx(4.0 * PARAMS.gamma_qb, rel=1e-15)
    assert MEASURED.meas_rate == pytest.approx(
        4.0 * PARAMS.eta * PARAMS.gamma_qb, rel=1e-15
    )
    soft = soft_model(PARAMS, 2.0)
    assert soft.freq_ratio == 0.5
    assert soft.diffusion_p == pytest.approx(PARAMS.gamma_qb, rel=1e-15)
    assert soft.meas_rate == 0.0
    with pytest.raises(ValueError):
        soft_model(PARAMS, 0.5)


def test_drift_matrix_layout():
    model = DynamicsModel(
        omega=PARAMS.omega,
        freq_ratio=0.25,
        diffusion_p=0.0,
        meas_rate=0.0,
    )
    expected = np.array(
        [[0.0, PARAMS.omega], [-PARAMS.omega * 0.0625, 0.0]]
    )
    assert np.allclose(model.drift_matrix(), expected, rtol=1e-15)
