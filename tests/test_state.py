"""Gaussian state container, thermal preparation, and the quarter-period map."""

import math

import numpy as np
import pytest

from levamp.state import (
    GaussianState,
    apply_impulse,
    occupation,
    quarter_period_map,
    thermal_state,
)

R12 = math.sqrt(12.0)


def test_thermal_state_covariance():
    st = thermal_state(1.2)
    assert np.allclose(st.mean, 0.0)
    assert np.allclose(st.cov, 3.4 * np.eye(2))


def test_ground_state_is_identity_covariance():
    assert np.allclose(thermal_state(0.0).cov, np.eye(2))


@pytest.mark.parametrize("n", [0.0, 0.3, 1.2, 12.0])
def test_occupation_round_trip(n):
    assert occupation(thermal_state(n)) == pytest.approx(n, abs=1e-12)


def test_occupation_of_squeezed_covariance():
    # (12 + 1/12 - 2) / 4, exact in rationals: 121/48
    st = GaussianState(np.zeros(2), np.diag([12.0, 1.0 / 12.0]))
    assert occupation(st) == pytest.approx(2.5208333333333333, abs=1e-12)


def test_thermal_state_rejects_negative_occupation():
    with pytest.raises(ValueError):
        thermal_state(-0.5)


def test_quarter_period_map_swaps_and_scales():
    m = quarter_period_map(2.0)
    assert np.allclose(m, [[0.0, 2.0], [-0.5, 0.0]])
    assert np.allclose(m @ [0.0, 1.0], [2.0, 0.0])


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, R12, 6.0])
def test_quarter_period_map_squares_to_minus_identity(r):
    m = quarter_period_map(r)
    assert np.allclose(m @ m, -np.eye(2), atol=1e-12)


@pytest.mark.parametrize("r", [1.0, 2.0, R12])
def test_quarter_period_map_is_symplectic(r):
    assert np.linalg.det(quarter_period_map(r)) == pytest.approx(1.0, abs=1e-12)


def test_quarter_map_amplifies_ground_covariance():
    m = quarter_period_map(R12)
    cov = m @ thermal_state(0.0).cov @ m.T
    assert np.allclose(cov, np.diag([12.0, 1.0 / 12.0]), atol=1e-12)


def test_quarter_map_at_unity_is_plain_rotation():
    st = GaussianState(np.array([1.0, 0.5]), 3.4 * np.eye(2))
    m = quarter_period_map(1.0)
    assert np.allclose(m @ st.mean, [0.5, -1.0])
    assert np.allclose(m @ st.cov @ m.T, st.cov)


def test_quarter_period_map_rejects_r_below_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        quarter_period_map(0.8)


def test_apply_impulse_shifts_momentum_only():
    st = GaussianState(np.array([0.4, -0.2]), np.diag([12.0, 1.0 / 12.0]))
    out = apply_impulse(st, 1.2)
    assert np.allclose(out.mean, [0.4, 1.0])
    assert np.allclose(out.cov, st.cov)


def test_apply_impulse_is_additive():
    st = thermal_state(1.2)
    a = apply_impulse(apply_impulse(st, 0.7), 0.5)
    b = apply_impulse(st, 1.2)
    assert np.allclose(a.mean, b.mean, atol=1e-15)


def test_apply_impulse_rejects_non_finite():
    with pytest.raises(ValueError):
        apply_impulse(thermal_state(0.0), float("inf"))


def test_q_and_p_accessors():
    st = GaussianState(np.array([0.25, -1.5]), np.eye(2))
    assert st.q == 0.25
    assert st.p == -1.5


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        GaussianState(np.array([np.nan, 0.0]), np.eye(2))
