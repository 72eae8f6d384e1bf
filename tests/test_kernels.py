"""Batched trajectory kernels: per-trial recursions and record statistics."""

import math

import numpy as np
import pytest

from levamp._kernels import BLOCK, chol2x2, filter_backward, roll, roll_record
from levamp.config import R_MAX
from levamp.dynamics import base_model, soft_model, transition
from levamp.estimation import PRIOR_SCALE, readout_model, retrodiction_schedule
from levamp.params import OscillatorParams
from levamp.records import MeasurementRecord
from reference_filter import backward_filter

RNG = np.random.default_rng(7321)

M, N = 192, 310
ANGLE = 2.0 * math.pi / 97.0
F_STEP = np.array(
    [[math.cos(ANGLE), math.sin(ANGLE)], [-math.sin(ANGLE), math.cos(ANGLE)]]
)
L_STEP = chol2x2(np.array([[4e-4, 1e-4], [1e-4, 9e-4]]))
X0 = np.ascontiguousarray(RNG.standard_normal((M, 2)))
W = np.ascontiguousarray(RNG.standard_normal((M, N, 2)))
V = np.ascontiguousarray(RNG.standard_normal((M, N)))
WEIGHTS = np.ascontiguousarray(0.05 * RNG.standard_normal((N, 2)))
SQRT_K = 23.7
NOISE_SCALE = 104.5


def test_chol2x2_factors_random_spd_matrices():
    for _ in range(40):
        a = RNG.standard_normal((2, 2))
        q = a @ a.T + 0.1 * np.eye(2)
        c = chol2x2(q)
        assert c[0, 1] == 0.0
        assert np.allclose(c @ c.T, q, rtol=0.0, atol=1e-12)
        assert np.allclose(c, np.linalg.cholesky(q), rtol=0.0, atol=1e-12)


def test_chol2x2_handles_semidefinite_corners():
    assert np.array_equal(chol2x2(np.zeros((2, 2))), np.zeros((2, 2)))
    c = chol2x2(np.diag([0.0, 4.0]))
    assert np.allclose(c, [[0.0, 0.0], [0.0, 2.0]], rtol=0.0)
    c = chol2x2(np.diag([9.0, 0.0]))
    assert np.allclose(c, [[3.0, 0.0], [0.0, 0.0]], rtol=0.0)


def test_roll_matches_per_trial_recursion():
    out = roll(X0, F_STEP, L_STEP, W)
    for i in (0, M // 2, M - 1):
        x = X0[i].copy()
        for k in range(N):
            x = F_STEP @ x + L_STEP @ W[i, k]
        assert np.allclose(out[i], x, rtol=0.0, atol=1e-12)


def test_roll_record_reads_state_before_each_step():
    out, y = roll_record(X0, F_STEP, L_STEP, W, V, SQRT_K, NOISE_SCALE)
    i = 3
    x = X0[i].copy()
    for k in range(N):
        assert y[i, k] == pytest.approx(
            SQRT_K * x[0] + NOISE_SCALE * V[i, k], abs=1e-12
        )
        x = F_STEP @ x + L_STEP @ W[i, k]
    assert np.allclose(out[i], x, rtol=0.0, atol=1e-12)


def _per_step(x, f, l, w, v, sqrt_k, noise_scale):
    """Reference: the recursion one step at a time, record read before each step."""
    x = x.copy()
    y = np.empty(v.shape)
    for k in range(w.shape[1]):
        y[:, k] = sqrt_k * x[:, 0] + noise_scale * v[:, k]
        x = x @ f.T + w[:, k] @ l.T
    return x, y


_PARAMS = OscillatorParams()
SCAN_MODELS = {
    "readout": base_model(_PARAMS),
    "soft at R_MAX": soft_model(_PARAMS, R_MAX),
}


@pytest.mark.parametrize("name", SCAN_MODELS)
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37, 2400])
def test_blocked_scan_matches_the_per_step_recursion(name, n):
    """The rotating readout F and the non-orthogonal soft F, over
    partial, whole and several blocks, agree with the step-by-step
    recursion to 1e-12 of the largest value (a few thousand ulp)."""
    model = SCAN_MODELS[name]
    f, qd = transition(model, model.local_period / 200.0)
    l = chol2x2(qd)
    rng = np.random.default_rng(n)
    x0 = rng.standard_normal((6, 2))
    w = rng.standard_normal((6, n, 2))
    v = rng.standard_normal((6, n))
    x_ref, y_ref = _per_step(x0, f, l, w, v, SQRT_K, NOISE_SCALE)
    x_out, y = roll_record(x0, f, l, w, v, SQRT_K, NOISE_SCALE)
    assert np.max(np.abs(x_out - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
    assert np.array_equal(roll(x0, f, l, w), x_out)


def test_roll_over_zero_steps_returns_a_copy_of_the_state():
    out = roll(X0, F_STEP, L_STEP, np.empty((M, 0, 2)))
    assert np.array_equal(out, X0)
    assert out is not X0
    out, y = roll_record(X0, F_STEP, L_STEP, np.empty((M, 0, 2)), np.empty((M, 0)),
                         SQRT_K, NOISE_SCALE)
    assert np.array_equal(out, X0)
    assert y.shape == (M, 0)


def test_filter_backward_matches_per_trial_recursion():
    """With the weights of the readout model, every batch row equals the
    per-sample backward filter run on that trial's record alone."""
    params = OscillatorParams()
    model = readout_model(params)
    dt = params.period_s / 200.0
    weights, _ = retrodiction_schedule(model, dt, N)
    y = 30.0 * V
    est = filter_backward(y, weights)
    for i in (0, M - 1):
        record = MeasurementRecord(0.0, dt, y[i], np.ones(N, dtype=bool))
        ref, _ = backward_filter(record, model, PRIOR_SCALE)
        assert np.max(np.abs(est[i] - ref)) < 1e-12 * np.max(np.abs(ref))


def test_chunked_batches_reproduce_the_full_batch():
    """Trials are independent, so splitting the batch cannot change bits."""
    whole = roll(X0, F_STEP, L_STEP, W)
    split = np.vstack(
        [roll(X0[:70], F_STEP, L_STEP, W[:70]),
         roll(X0[70:], F_STEP, L_STEP, W[70:])]
    )
    assert np.array_equal(whole, split)


def test_chunked_record_batches_reproduce_the_full_batch():
    """Rows one at a time and split batches give the full batch's states
    and records bit for bit, so a replayed trial equals its ensemble row."""
    whole_x, whole_y = roll_record(X0, F_STEP, L_STEP, W, V, SQRT_K, NOISE_SCALE)
    for parts in ([slice(i, i + 1) for i in range(M)],
                  [slice(0, 1), slice(1, 70), slice(70, M)]):
        runs = [roll_record(X0[p], F_STEP, L_STEP, W[p], V[p], SQRT_K, NOISE_SCALE)
                for p in parts]
        assert np.array_equal(np.vstack([x for x, _ in runs]), whole_x)
        assert np.array_equal(np.vstack([y for _, y in runs]), whole_y)


def test_chunked_records_retrodict_to_the_same_bits():
    """A 256-row batch, its rows one at a time and split batches give
    identical means: each row sums over the record in one fixed order."""
    y = np.ascontiguousarray(np.random.default_rng(11).standard_normal((256, N)))
    whole = filter_backward(y, WEIGHTS)
    singles = np.vstack([filter_backward(y[i:i + 1], WEIGHTS) for i in range(256)])
    split = np.vstack(
        [filter_backward(y[:1], WEIGHTS), filter_backward(y[1:70], WEIGHTS),
         filter_backward(y[70:], WEIGHTS)]
    )
    assert np.array_equal(whole, singles)
    assert np.array_equal(whole, split)


def test_all_noise_off_collapses_the_ensemble():
    """With every noise source zeroed and one shared initial state, all
    trials trace the same trajectory, produce the same record, and are
    filtered to the same estimate."""
    x0 = np.tile([0.9, -0.4], (M, 1))
    wz = np.zeros((M, N, 2))
    vz = np.zeros((M, N))
    xs, ys = roll_record(x0, F_STEP, L_STEP, wz, vz, SQRT_K, NOISE_SCALE)
    assert np.all(xs == xs[0])
    assert np.all(ys == ys[0])
    est = filter_backward(ys, WEIGHTS)
    assert np.all(est == est[0])


def test_record_gain_regression_recovers_sqrt_meas_rate():
    """Regressing one-step records against the true position recovers the
    sqrt(meas_rate) gain to better than 3 percent at 1e5 trials."""
    meas_rate = 4.0 * 0.14 * 2.0 * math.pi * 3.4e3
    dt = (1.0 / 52e3) / 200.0
    n_trials = 100000
    rng = np.random.default_rng(2026)
    x0 = np.zeros((n_trials, 2))
    x0[:, 0] = 10.0 * rng.standard_normal(n_trials)
    q_true = x0[:, 0].copy()
    v = rng.standard_normal((n_trials, 1))
    _, y = roll_record(
        x0, np.eye(2), np.zeros((2, 2)), np.zeros((n_trials, 1, 2)),
        v, math.sqrt(meas_rate), 1.0 / math.sqrt(dt),
    )
    slope = float(np.sum(y[:, 0] * q_true) / np.sum(q_true * q_true))
    assert slope == pytest.approx(math.sqrt(meas_rate), rel=0.03)
