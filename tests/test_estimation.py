"""Retrodiction and the conditioned steady state."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levamp import estimation
from levamp._kernels import filter_backward
from levamp.dynamics import (
    CovarianceError,
    _check_pd,
    _flat,
    _joseph_update,
    _predict,
    _sym,
    base_model,
    transition,
)
from levamp.estimation import (
    PRIOR_SCALE,
    _fold_schedule,
    estimate_trial_outcome,
    readout_model,
    retrodict,
    retrodiction_schedule,
    riccati_steady_state,
)
from levamp.params import OscillatorParams
from levamp.protocol import build_amplified, build_conventional
from levamp.records import MeasurementRecord
from reference_filter import backward_filter
from reference_steady_state import continuous_steady_state

PARAMS = OscillatorParams()
MODEL = readout_model(PARAMS)
PERIOD = PARAMS.period_s
DT = PERIOD / 200.0
R12 = math.sqrt(12.0)

# Post-update position variance of the conditioned steady state at the
# default parameters, frozen from this implementation and cross-checked
# against the fixed-point recursions below.
V11_STEADY = 2.665332263674396
V11_STEADY_IDEAL = 0.98766638490526


def flat_record(n, dt=DT, t0=0.0, value=0.0):
    return MeasurementRecord(t0, dt, np.full(n, value), np.ones(n, dtype=bool))


def period_map_average(model, steps):
    """Brute-force fixed point: iterate predict/update over whole periods
    until the period-averaged post-update covariance stops moving."""
    dt = model.local_period / steps
    f, qd = transition(model, dt)
    sqrt_k = math.sqrt(model.meas_rate)
    v = 100.0 * np.eye(2)
    prev = None
    for _ in range(200):
        acc = np.zeros((2, 2))
        for _ in range(steps):
            s = model.meas_rate * v[0, 0] + 1.0 / dt
            gain = (sqrt_k / s) * v[:, 0]
            imkh = np.eye(2) - sqrt_k * np.outer(gain, [1.0, 0.0])
            v = imkh @ v @ imkh.T + np.outer(gain, gain) / dt
            v = 0.5 * (v + v.T)
            acc += v
            v = f @ v @ f.T + qd
        avg = acc / steps
        if prev is not None and np.max(np.abs(avg - prev)) < 1e-12:
            return avg
        prev = avg
    return avg


def float_steps(model, steps):
    """One measure-and-predict step at ``steps`` per period, on three floats."""
    dt = model.local_period / steps
    f, qd = transition(model, dt)
    f, q = _flat(f), _sym(qd)
    sqrt_k = math.sqrt(model.meas_rate)

    def step(v):
        return _joseph_update(_predict(v, f, q), sqrt_k, 1.0 / dt)[1]

    return step


def period_residual(model, steps, v):
    """Largest change one local period of steps makes to the post-update
    covariance v, relative to its largest diagonal entry."""
    step = float_steps(model, steps)
    start = w = _sym(v)
    for _ in range(steps):
        w = step(w)
    return max(abs(a - b) for a, b in zip(w, start)) / max(start[0], start[2])


def test_steady_state_position_variance():
    v = riccati_steady_state(MODEL)
    assert v[0, 0] == pytest.approx(V11_STEADY, abs=1e-9)
    assert abs(v[0, 0] / 2.673 - 1.0) < 0.03


def test_steady_state_matches_fixed_point_recursion():
    v = riccati_steady_state(MODEL, steps_per_period=120)
    ref = period_map_average(MODEL, 120)
    assert np.allclose(v, ref, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("steps", [100, 200, 400])
@pytest.mark.parametrize("eta", [0.14, 1.0])
def test_steady_state_is_a_fixed_point_of_one_period(eta, steps):
    model = readout_model(PARAMS.with_(eta=eta))
    assert period_residual(model, steps, riccati_steady_state(model, steps)) <= 1e-12


@pytest.mark.parametrize("eta", [0.14, 1.0])
def test_steady_state_matches_the_forward_iteration_where_it_stops(eta):
    """Step the float recursion from V = I until it revisits a covariance
    it has held before, its rounding-level cycle."""
    model = readout_model(PARAMS.with_(eta=eta))
    step = float_steps(model, 200)
    v, seen = (1.0, 0.0, 1.0), set()
    while v not in seen:
        seen.add(v)
        v = step(v)
    assert riccati_steady_state(model)[0, 0] == pytest.approx(v[0], rel=1e-13, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.05, 1.0),
    st.floats(0.25, 4.0),
    st.integers(50, 800),
)
def test_steady_state_is_a_positive_definite_fixed_point(eta, backaction, steps):
    model = readout_model(PARAMS.with_(eta=eta, gamma_qb_hz=backaction * PARAMS.gamma_qb_hz))
    v = riccati_steady_state(model, steps)
    assert v[0, 1] == v[1, 0]
    _check_pd(_sym(v), 0.0)
    assert period_residual(model, steps, v) <= 1e-12


def test_steady_state_takes_a_whole_admissible_step_count():
    """Fifty steps per period is the coarsest step the estimator accepts."""
    for steps in (0, 49):
        with pytest.raises(ValueError):
            riccati_steady_state(MODEL, steps)
    with pytest.raises(TypeError):
        riccati_steady_state(MODEL, 2.5)
    assert riccati_steady_state(MODEL, 50)[0, 0] > 0.0


def test_steady_state_with_ideal_detection():
    """Lossless detection conditions the oscillator to an almost pure
    state; the first-order update leaves the steady-state determinant
    a fraction of a percent from the floor at the default step size."""
    v = riccati_steady_state(readout_model(PARAMS.with_(eta=1.0)))
    assert v[0, 0] == pytest.approx(V11_STEADY_IDEAL, abs=1e-9)
    assert v[0, 0] < 1.0
    assert np.linalg.det(v) == pytest.approx(1.0, abs=0.005)


def test_steady_state_tracks_the_backaction_rate():
    """Quadrupling the backaction rate moves the plateau by a few percent
    at fixed efficiency; it must stay within 3 percent of the base value."""
    v4 = riccati_steady_state(readout_model(PARAMS.with_(gamma_qb_hz=4 * 3400.0)))
    assert abs(v4[0, 0] / V11_STEADY - 1.0) < 0.03
    assert v4[0, 0] != pytest.approx(V11_STEADY, abs=1e-6)


def test_steady_state_is_scale_invariant():
    scaled = PARAMS.with_(gamma_qb_hz=4 * 3400.0, freq_hz=4 * 52e3)
    v = riccati_steady_state(readout_model(scaled))
    assert v[0, 0] == pytest.approx(V11_STEADY, rel=1e-12)


def test_steady_state_step_refinement_contracts():
    """The discrete update converges first order in dt: each halving of
    the step roughly halves the remaining change, comfortably inside the
    factor-of-four contraction bound."""
    vs = [
        riccati_steady_state(MODEL, steps_per_period=s)[0, 0]
        for s in (100, 200, 400)
    ]
    c1 = abs(vs[1] - vs[0])
    c2 = abs(vs[2] - vs[1])
    assert c2 < 4.0 * c1
    assert c2 <= 0.6 * c1


@pytest.mark.parametrize("eta", [0.14, 1.0])
def test_steady_position_variance_approaches_the_closed_form_first_order(eta):
    """Each halving of the step halves the gap of V_qq to the
    continuous-time steady state, to within 0.5 %."""
    model = readout_model(PARAMS.with_(eta=eta))
    exact = continuous_steady_state(model)[0, 0]
    gaps = [riccati_steady_state(model, n)[0, 0] - exact for n in (200, 400, 800)]
    assert 1.99 <= gaps[0] / gaps[1] <= 2.01
    assert 1.99 <= gaps[1] / gaps[2] <= 2.01


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("eta", [0.14, 1.0])
def test_richardson_extrapolated_steady_state_meets_the_closed_form(eta, n):
    """2 V(2n) - V(n) cancels the first-order term, leaving V_qq and
    V_pp within 1e-5 relative of the continuous-time steady state."""
    model = readout_model(PARAMS.with_(eta=eta))
    exact = continuous_steady_state(model)
    coarse, fine = riccati_steady_state(model, n), riccati_steady_state(model, 2 * n)
    for i in (0, 1):
        assert abs((2.0 * fine[i, i] - coarse[i, i]) / exact[i, i] - 1.0) <= 1e-5


def test_smoother_step_refinement_contracts():
    covs = []
    for div in (100, 200, 400):
        rec = flat_record(6 * div, dt=PERIOD / div)
        covs.append(retrodict(rec, MODEL).cov)
    c1 = np.max(np.abs(covs[1] - covs[0]))
    c2 = np.max(np.abs(covs[2] - covs[1]))
    assert c2 < 4.0 * c1
    assert c2 <= 0.6 * c1


def test_retrodiction_plateau_matches_the_steady_state():
    """Thirty periods back from the last sample the backward covariance
    has settled on the forward filter's steady state, time-reversed:
    V_qp changes sign under A -> -A."""
    _, cov = retrodiction_schedule(MODEL, DT, 30 * 200)
    cov[0, 1] = cov[1, 0] = -cov[0, 1]
    steady = riccati_steady_state(MODEL)
    assert np.max(np.abs(cov - steady) / np.abs(np.diag(steady)).max()) < 1e-6


def test_retrodiction_respects_the_uncertainty_floor():
    """Conditioning on a record never takes the state below the
    Heisenberg floor det V = 1, for readouts of 1 to 12 periods."""
    for periods in range(1, 13):
        _, cov = retrodiction_schedule(MODEL, DT, periods * 200)
        assert np.linalg.det(cov) >= 1.0 - 1e-9


def test_ideal_detection_floor_deficit_is_first_order_in_the_step():
    """At eta = 1 the post-update covariance sits below det V = 1 by a
    discretization term: 1 - det halves, within 1 %, with each halving of
    the step, for the steady state and for a 30-period retrodiction."""
    ideal = readout_model(PARAMS.with_(eta=1.0))
    for deficit in (
        lambda s: 1.0 - np.linalg.det(riccati_steady_state(ideal, steps_per_period=s)),
        lambda s: 1.0 - np.linalg.det(retrodiction_schedule(ideal, PERIOD / s, 30 * s)[1]),
    ):
        d200, d400, d800 = map(deficit, (200, 400, 800))
        assert d800 > 0.0
        assert d200 / d400 == pytest.approx(2.0, rel=0.01)
        assert d400 / d800 == pytest.approx(2.0, rel=0.01)


def test_retrodiction_recovers_a_noiseless_trajectory():
    """A record drawn with every noise source at zero pins the state that
    generated it; the prior pull at scale 1e6 is far below 1e-3."""
    f, _ = transition(MODEL, DT)
    x0 = np.array([4.156921938165306, 0.0])
    n = 600
    x = x0.copy()
    samples = np.empty(n)
    for k in range(n):
        samples[k] = math.sqrt(MODEL.meas_rate) * x[0]
        x = f @ x
    rec = MeasurementRecord(0.0, DT, samples, np.ones(n, dtype=bool))
    out = retrodict(rec, MODEL)
    assert np.max(np.abs(out.estimate - x0)) < 1e-3
    assert out.t == 0.0


def test_retrodiction_matches_a_joint_gaussian_oracle():
    """Brute-force check: stack the state at every sample time into one
    joint Gaussian with the prior, condition on the gated-on samples, and
    compare the conditional mean and covariance, for a fully gated-on
    record and for one with a gated-off NaN stretch in the middle."""
    dt = PERIOD / 50.0
    n = 60
    f, qd = transition(MODEL, dt)
    k = MODEL.meas_rate
    prior = 1e6 * np.eye(2)
    powers = [np.eye(2)]
    for _ in range(n):
        powers.append(f @ powers[-1])

    def cov_x(a, b):
        c = powers[a] @ prior @ powers[b].T
        for i in range(min(a, b)):
            c = c + powers[a - 1 - i] @ qd @ powers[b - 1 - i].T
        return c

    h = np.array([1.0, 0.0])
    c_yy = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            c_yy[a, b] = k * (h @ cov_x(a, b) @ h)
    c_yy[np.diag_indices(n)] += 1.0 / dt
    c_xy = np.column_stack(
        [math.sqrt(k) * (prior @ powers[b].T @ h) for b in range(n)]
    )
    rng = np.random.default_rng(77)
    y = 3.0 * rng.standard_normal(n)
    gapped = np.ones(n, dtype=bool)
    gapped[20:35] = False
    for gate in (np.ones(n, dtype=bool), gapped):
        samples = np.where(gate, y, np.nan)
        on = np.flatnonzero(gate)
        gain = c_xy[:, on] @ np.linalg.inv(c_yy[np.ix_(on, on)])
        mean_ref = gain @ samples[on]
        cov_ref = prior - gain @ c_xy[:, on].T

        out = retrodict(MeasurementRecord(0.0, dt, samples, gate), MODEL)
        assert np.max(np.abs(out.estimate - mean_ref)) < 1e-7
        assert np.max(np.abs(out.cov - cov_ref)) / np.max(np.abs(cov_ref)) < 1e-5


def test_retrodicted_covariance_ignores_the_record_values():
    rng = np.random.default_rng(12)
    n = 5 * 200
    rec_a = MeasurementRecord(0.0, DT, rng.standard_normal(n), np.ones(n, dtype=bool))
    rec_b = MeasurementRecord(0.0, DT, 5.0 + rng.standard_normal(n), np.ones(n, dtype=bool))
    cov_a = retrodict(rec_a, MODEL).cov
    cov_b = retrodict(rec_b, MODEL).cov
    assert np.max(np.abs(cov_a - cov_b)) < 1e-12


def test_retrodiction_is_insensitive_to_the_prior_scale():
    """The reference filter from much narrower and much wider priors
    lands where retrodict does from PRIOR_SCALE."""
    rng = np.random.default_rng(5)
    n = 12 * 200
    rec = MeasurementRecord(0.0, DT, rng.standard_normal(n), np.ones(n, dtype=bool))
    out = retrodict(rec, MODEL)
    for prior_scale in (1e4, 1e8):
        ref_mean, ref_cov = backward_filter(rec, MODEL, prior_scale)
        assert np.max(np.abs(out.cov - ref_cov) / np.abs(ref_cov)) < 1e-3
        assert np.max(np.abs(out.estimate - ref_mean)) < 1e-3


def test_ideal_detection_retrodicts_to_the_uncertainty_floor():
    ideal = readout_model(PARAMS.with_(eta=1.0))
    out = retrodict(flat_record(10 * 200), ideal)
    assert out.cov[0, 0] == pytest.approx(1.0, rel=0.03)


def test_retrodict_rejects_short_records_coarse_steps_and_no_detection():
    with pytest.raises(ValueError, match="record too short"):
        retrodict(flat_record(50), MODEL)
    with pytest.raises(ValueError, match="dt too coarse"):
        retrodict(flat_record(40, dt=PERIOD / 10.0), MODEL)
    blind = base_model(PARAMS, measurement_on=False)
    with pytest.raises(ValueError, match="meas_rate"):
        retrodict(flat_record(400), blind)
    with pytest.raises(ValueError, match="meas_rate"):
        retrodiction_schedule(blind, DT, 400)
    with pytest.raises(ValueError, match="^riccati_steady_state needs meas_rate > 0$"):
        riccati_steady_state(blind)


@pytest.mark.parametrize("dt", [0.0, -1e-7, np.nan, np.inf])
def test_a_schedule_needs_a_positive_finite_step(dt):
    with pytest.raises(ValueError, match="^dt must be positive and finite$"):
        retrodiction_schedule(MODEL, dt, 400)


@pytest.mark.parametrize("entry", ["retrodict", "retrodiction_schedule"])
def test_a_spacing_just_past_the_step_bound_is_refused_and_just_inside_accepted(entry):
    """The bound is local_period / MIN_STEPS_PER_PERIOD with a 1e-9 margin:
    2e-9 inside it is one step of ``dynamics.steps``, 2e-9 past it two."""
    limit = MODEL.local_period / 50

    def fold(dt):
        if entry == "retrodict":
            return retrodict(flat_record(51, dt=dt), MODEL)
        return retrodiction_schedule(MODEL, dt, 51)

    fold(limit * (1.0 - 2e-9))
    for dt in (limit * (1.0 + 2e-9), 1e305):  # 1e305 s: a step count past float range
        with pytest.raises(ValueError, match=r"^dt too coarse: require dt <= 3\.846154e-07 s "
                                             r"\(50 steps per local period\)"):
            fold(dt)


def test_a_refused_fold_is_refused_again_and_never_cached():
    """The fold checks its own inputs on every miss, and a call that
    raises leaves nothing in the cache, so a hit never skips a check."""
    off = MeasurementRecord(0.0, DT, np.full(400, np.nan), np.zeros(400, dtype=bool))
    calls = [
        lambda: retrodiction_schedule(MODEL, PERIOD / 10.0, 400),
        lambda: retrodiction_schedule(MODEL, DT, 0),
        lambda: retrodiction_schedule(base_model(PARAMS, measurement_on=False), DT, 400),
        lambda: retrodict(off, MODEL),
    ]
    _fold_schedule.cache_clear()  # a full cache would hide an insertion
    for call in calls:
        for _ in range(2):
            with pytest.raises(ValueError):
                call()
    assert _fold_schedule.cache_info().currsize == 0


def test_a_record_with_no_sample_gated_on_is_refused():
    """With nothing gated on the fold would return the prior's mean and
    covariance as if it were an estimate."""
    off = MeasurementRecord(0.0, DT, np.full(400, np.nan), np.zeros(400, dtype=bool))
    with pytest.raises(ValueError, match="^need at least one gated-on sample$"):
        retrodict(off, MODEL)


def test_an_overflowing_prior_names_a_sample_time_inside_the_record(monkeypatch):
    """A finite prior so broad that the covariance overflows fails as a
    CovarianceError at the time of a sample of the record, without warnings."""
    n = 400
    t0 = 3.0 * PERIOD
    monkeypatch.setattr(estimation, "PRIOR_SCALE", 1e300)
    _fold_schedule.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CovarianceError, match="positive definiteness") as info:
                retrodict(flat_record(n, t0=t0), MODEL)
    finally:
        _fold_schedule.cache_clear()
    named = float(re.search(r"at t = (\S+) s", str(info.value)).group(1))
    assert info.value.t == pytest.approx(named, rel=1e-6)
    k = (info.value.t - t0) / DT
    assert 0 <= round(k) < n and k == pytest.approx(round(k), abs=1e-6)


def test_precomputed_schedule_reproduces_retrodiction():
    """The record weights used by the batched harness, and retrodict on
    gated-on and NaN-gapped records, agree with the per-sample
    reference filter."""
    n = 600
    rng = np.random.default_rng(99)
    y = 2.0 * rng.standard_normal(n)
    rec = MeasurementRecord(0.0, DT, y, np.ones(n, dtype=bool))
    ref_mean, ref_cov = backward_filter(rec, MODEL, PRIOR_SCALE)
    weights, cov_target = retrodiction_schedule(MODEL, DT, n)
    assert weights.shape == (n, 2)
    fast = filter_backward(y[None, :], weights)[0]
    assert np.max(np.abs(fast - ref_mean)) < 1e-12
    assert np.max(np.abs(cov_target - ref_cov)) < 1e-12

    gapped = np.ones(n, dtype=bool)
    gapped[150:260] = False
    for gate in (np.ones(n, dtype=bool), gapped):
        rec = MeasurementRecord(0.0, DT, np.where(gate, y, np.nan), gate)
        ref_mean, ref_cov = backward_filter(rec, MODEL, PRIOR_SCALE)
        out = retrodict(rec, MODEL)
        assert np.max(np.abs(out.estimate - ref_mean)) < 1e-12
        assert np.max(np.abs(out.cov - ref_cov)) < 1e-12


def test_writing_into_a_schedule_leaves_the_cache_intact():
    first_weights, first_cov = retrodiction_schedule(MODEL, DT, 400)
    weights, cov = retrodiction_schedule(MODEL, DT, 400)
    weights[:] = np.nan
    cov[:] = np.nan
    again = retrodiction_schedule(MODEL, DT, 400)
    assert np.array_equal(again[0], first_weights)
    assert np.array_equal(again[1], first_cov)


def test_each_cached_key_equals_its_own_cold_fold_bit_for_bit():
    cases = [
        (MODEL, DT, 300),
        (MODEL, DT / 2.0, 600),
        (MODEL, DT, 301),
        (readout_model(PARAMS.with_(eta=0.5)), DT, 300),
    ]
    cold = []
    for args in cases:
        _fold_schedule.cache_clear()
        cold.append(retrodiction_schedule(*args))
    _fold_schedule.cache_clear()
    for args in cases:
        retrodiction_schedule(*args)
    for args, (weights, cov) in zip(cases, cold):
        hit = retrodiction_schedule(*args)
        assert np.array_equal(hit[0], weights) and np.array_equal(hit[1], cov)
    assert _fold_schedule.cache_info().hits == len(cases)
    assert not np.array_equal(cold[0][0], cold[3][0])


def test_a_non_integer_sample_count_is_rejected():
    with pytest.raises(TypeError):
        retrodiction_schedule(MODEL, DT, 2.5)
    with pytest.raises(ValueError, match="at least one sample"):
        retrodiction_schedule(MODEL, DT, 0)


def make_readout_record(mean_at_zero, n=5 * 200):
    f, _ = transition(MODEL, DT)
    x = np.asarray(mean_at_zero, dtype=float).copy()
    samples = np.empty(n)
    for k in range(n):
        samples[k] = math.sqrt(MODEL.meas_rate) * x[0]
        x = f @ x
    return MeasurementRecord(0.0, DT, samples, np.ones(n, dtype=bool))


def test_trial_outcome_reads_the_amplified_displacement():
    """After the amplified sequence a kick dP = 1.2 at r = sqrt(12)
    appears as a position displacement of sqrt(12) * 1.2."""
    sched = build_amplified(PARAMS, R12, 100e-9)
    expected_q = R12 * 1.2
    rec = make_readout_record([expected_q, 0.0])
    out = estimate_trial_outcome(rec, MODEL, sched)
    assert out.estimate[0] == pytest.approx(expected_q, abs=1e-3)
    assert abs(out.estimate[1]) < 1e-3


def test_trial_outcome_accepts_iterables_and_picks_the_readout_record():
    sched = build_conventional(PARAMS, 1000e-9)
    rec = make_readout_record([0.0, 12.0])
    pre = MeasurementRecord(-2.0 * PERIOD, DT, np.zeros(400), np.ones(400, dtype=bool))
    single = estimate_trial_outcome(rec, MODEL, sched)
    from_list = estimate_trial_outcome([pre, rec], MODEL, sched)
    assert np.array_equal(single.estimate, from_list.estimate)
    assert single.estimate[1] == pytest.approx(12.0, abs=1e-2)


def test_trial_outcome_requires_a_valid_schedule_and_a_readout_record():
    import dataclasses

    sched = build_conventional(PARAMS, 1000e-9)
    amp = build_amplified(PARAMS, R12, 100e-9)
    hold, soft, kick, _, readout = amp.segments
    early = dataclasses.replace(soft, duration_s=0.5 * soft.duration_s)
    late = dataclasses.replace(soft, duration_s=1.5 * soft.duration_s)
    off_centre = dataclasses.replace(amp, segments=(hold, early, kick, late, readout))
    rec = make_readout_record([0.0, 12.0])
    with pytest.raises(ValueError, match="invalid schedule: kick not at maximum squeezing"):
        estimate_trial_outcome(rec, MODEL, off_centre)
    pre_only = MeasurementRecord(
        -6.0 * PERIOD, DT, np.zeros(400), np.ones(400, dtype=bool)
    )
    with pytest.raises(ValueError, match="no post-protocol record"):
        estimate_trial_outcome(pre_only, MODEL, sched)

