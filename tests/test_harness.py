"""Ensemble simulation, statistics, scaling fits, and the noise budget."""

import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levamp.harness as harness
from levamp.dynamics import MIN_STEPS_PER_PERIOD, base_model, propagate, steps
from levamp.estimation import (
    estimate_trial_outcome, readout_model, retrodiction_schedule, riccati_steady_state,
)
from levamp.harness import (
    DisplacementFit,
    Ensemble,
    SensitivityPoint,
    _jackknife_std_se,
    derive_seed,
    ensemble_stats,
    fit_displacement_vs_tau,
    fit_k1,
    noise_budget,
    run_ensemble,
    run_schedule_noiseless,
    scaling_rows,
    sensitivity_curve,
    simulate_trial,
    write_ensemble_csv,
    write_scaling_csv,
    write_sensitivity_csv,
)
from levamp.params import OscillatorParams
from levamp.protocol import Segment, build_amplified, build_conventional, build_for_ratio
from levamp.state import GaussianState, thermal_state

PARAMS = OscillatorParams()
PERIOD = PARAMS.period_s
R12 = math.sqrt(12.0)
MODEL = readout_model(PARAMS)

AMP = build_amplified(PARAMS, R12, 100e-9)
CONV = build_conventional(PARAMS, 1000e-9)


def synthetic_ensemble(outcomes, r=R12, tau_s=1e-7, mode="amplified"):
    outcomes = np.asarray(outcomes, dtype=float)
    return Ensemble(
        r=r,
        tau_s=tau_s,
        mode=mode,
        outcomes=outcomes,
        truths=outcomes.copy(),
        est_cov=np.eye(2),
    )


def test_same_seed_reproduces_the_ensemble_exactly():
    a = run_ensemble(AMP, PARAMS, 40, 123, workers=1)
    b = run_ensemble(AMP, PARAMS, 40, 123, workers=1)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.truths, b.truths)
    c = run_ensemble(AMP, PARAMS, 40, 124, workers=1)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_worker_count_does_not_change_results():
    """Trials own independent seeded streams, so the thread layout is
    invisible in the numbers (300 trials also crosses a batch boundary)."""
    serial = run_ensemble(AMP, PARAMS, 300, 777, workers=1)
    threaded = run_ensemble(AMP, PARAMS, 300, 777, workers=4)
    assert np.array_equal(serial.outcomes, threaded.outcomes)
    assert np.array_equal(serial.truths, threaded.truths)


# run_ensemble(..., 3, 20260819) rows, frozen to pin the per-trial draw
# order of the determinism contract; CONV also draws a pre-kick record.
FROZEN_DRAWS = {
    "amplified": (
        AMP,
        [[3.0283541299319277, 2.450510875847823],
         [-0.8772806240478016, 2.2690376994552395],
         [6.421615143724224, -5.64529861749843]],
        [[3.6175804195322905, 3.4503738837298417],
         [3.3991117463657545, 2.008320178705025],
         [5.838969679108459, -3.3038645969155596]],
    ),
    "conventional": (
        CONV,
        [[-2.03067979884781, 12.047584064504978],
         [-0.12981405739463298, 8.203328200049103],
         [1.3843955279622597, 16.280887469893845]],
        [[-2.800000897660719, 9.968590899908824],
         [-1.3122670033870196, 10.32195148212229],
         [2.4767559659522282, 14.902495580030463]],
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DRAWS))
def test_draw_order_reproduces_the_frozen_trials(name):
    schedule, outcomes, truths = FROZEN_DRAWS[name]
    ens = run_ensemble(schedule, PARAMS, 3, 20260819)
    assert np.allclose(ens.outcomes, outcomes, rtol=1e-12, atol=0.0)
    assert np.allclose(ens.truths, truths, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "schedule",
    [CONV, AMP, build_amplified(PARAMS, 5.0, 100e-9)],
    ids=["conventional", "amplified-sqrt12", "amplified-r5"],
)
def test_single_trial_replay_matches_the_ensemble_row(schedule):
    """The readout record starts exactly at t_zero, so the replay needs no
    bridging step and agrees with the batched filter to rounding."""
    ens = run_ensemble(schedule, PARAMS, 8, 314, workers=1)
    for i in (0, 3, 7):
        truth, records = simulate_trial(schedule, PARAMS, 314, i)
        est = estimate_trial_outcome(records, MODEL, schedule)
        assert np.max(np.abs(est.estimate - ens.outcomes[i])) < 1e-12
        assert np.array_equal(est.cov, ens.est_cov)
        assert np.array_equal(truth, ens.truths[i])


@pytest.mark.parametrize("r", [1.0, 2.0, R12], ids=["r1", "r2", "sqrt12"])
def test_replayed_trials_equal_their_ensemble_rows_bit_for_bit(r):
    """Replay and ensemble share one cached fold and one einsum row sum,
    so the estimate and its covariance equal the ensemble's exactly."""
    schedule = build_for_ratio(PARAMS, r, 300e-9)
    ens = run_ensemble(schedule, PARAMS, 20, 2718, workers=1)
    for i in (0, 9, 19):
        truth, records = simulate_trial(schedule, PARAMS, 2718, i)
        est = estimate_trial_outcome(records, MODEL, schedule)
        assert np.array_equal(est.estimate, ens.outcomes[i])
        assert np.array_equal(est.cov, ens.est_cov)
        assert np.array_equal(truth, ens.truths[i])


def test_ensemble_estimation_covariance_matches_the_schedule():
    ens = run_ensemble(AMP, PARAMS, 10, 9, workers=1)
    n = round(AMP.readout_duration / (PERIOD / 200.0))
    _, cov_target = retrodiction_schedule(MODEL, PERIOD / 200.0, n)
    assert np.allclose(ens.est_cov, cov_target, rtol=0.0, atol=1e-12)


def test_default_workers_count_the_cpus_this_process_may_use(monkeypatch):
    """Under a one-CPU affinity mask on a 64-CPU host, one worker; where
    the platform has no affinity mask, the host's count, or 1 unknown."""
    assert harness.DEFAULT_WORKERS == harness._usable_cpus()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert harness._usable_cpus() == 1
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness._usable_cpus() == 64
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1


def test_run_ensemble_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_trials"):
        run_ensemble(AMP, PARAMS, 0, 1)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_ensemble(AMP, PARAMS, 10, 1, workers=workers)
    # numpy's own seeding rejects these, on the first trial of a batch
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        run_ensemble(AMP, PARAMS, 10, -1)
    for seed in (1.5, np.float64(2.0)):
        with pytest.raises(TypeError, match="^seed must be integer$"):
            run_ensemble(AMP, PARAMS, 10, seed)


def test_simulate_trial_rejects_bad_seeds():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        simulate_trial(AMP, PARAMS, 1, -1)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        simulate_trial(AMP, PARAMS, -1, 0)
    with pytest.raises(TypeError, match="^seed must be integer$"):
        simulate_trial(AMP, PARAMS, 1.5, 0)


# Masters of one to seven 32-bit words, around each word boundary.
EDGE_MASTERS = [0, 1, 20260819, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1, 3**60,
                2**96, 2**127 + 5, 2**128 - 1, 2**200 + 3]


@settings(max_examples=80, deadline=None)
@given(
    master=st.one_of(st.sampled_from(EDGE_MASTERS), st.integers(0, 2**128 - 1)),
    start=st.one_of(st.integers(0, 40), st.integers(2**32 - 40, 2**32 + 4)),
    m=st.integers(1, 9),
)
@example(master=20260819, start=2**32 - 4, m=9)  # straddles trial index 2**32
@example(master=np.uint64(2**64 - 1), start=0, m=3)
def test_batched_seeding_draws_numpys_own_streams(master, start, m):
    """Every row of a batch is the stream of default_rng([master, i]), also
    for batches that reach past trial index 2**32 (one 32-bit word)."""
    z = np.empty((m, 7))
    harness._fill_normals(master, start, z)
    for i in range(m):
        want = np.random.default_rng([master, start + i]).standard_normal(7)
        assert np.array_equal(z[i], want)


def test_seeding_that_disagrees_with_numpy_stops_the_run(monkeypatch):
    """A changed hash constant (as a numpy that reseeds differently would
    cause) fails on a batch's first trial, not silently."""
    monkeypatch.setattr(harness, "_MULT_B", harness._MULT_B ^ 2)
    with pytest.raises(RuntimeError, match="disagrees with numpy's default_rng at trial 0$"):
        run_ensemble(AMP, PARAMS, 4, 1)


@pytest.mark.parametrize("entry", ["simulate_trial", "run_ensemble", "riccati_steady_state"])
def test_both_entry_points_refuse_the_same_step_counts(entry):
    """Fewer than MIN_STEPS_PER_PERIOD steps, or a step count that is not
    an int, is refused by the one step rule, ``dynamics.steps``: by the
    two trial entry points when the segments are planned (200.0 also
    where 200 has been planned and cached), and by the steady state."""
    schedule = build_for_ratio(PARAMS, 2.0, 0.0, 2.0 * PERIOD)

    def call(dt_per_period):
        if entry == "simulate_trial":
            return simulate_trial(schedule, PARAMS, 1, 0, dt_per_period=dt_per_period)
        if entry == "riccati_steady_state":
            return riccati_steady_state(MODEL, dt_per_period)
        return run_ensemble(schedule, PARAMS, 2, 1, dt_per_period=dt_per_period)

    call(MIN_STEPS_PER_PERIOD)
    call(200)
    for d in (-3, 0, 10, 49):
        with pytest.raises(ValueError, match=f"^dt_per_period must be at least 50, got {d}$"):
            call(d)
    for d in (2.5, 200.0):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(d)


def test_every_entry_point_refuses_a_readout_shorter_than_a_period():
    """The builders refuse a half-period readout, but a hand-built schedule
    carries one to the retrodiction fold, which refuses it for the ensemble,
    for the replay of a trial's record and for the schedule alike."""
    built = build_for_ratio(PARAMS, 2.0, 0.0)
    schedule = dataclasses.replace(
        built, segments=built.segments[:-1] + (Segment("readout", 0.5 * PERIOD),)
    )
    _, records = simulate_trial(schedule, PARAMS, 1, 0)
    (record,) = records
    messages = []
    for call in (
        lambda: run_ensemble(schedule, PARAMS, 10, 1),
        lambda: estimate_trial_outcome(records, MODEL, schedule),
        lambda: retrodiction_schedule(MODEL, record.dt, len(record)),
    ):
        with pytest.raises(ValueError, match="^record too short for retrodiction: ") as info:
            call()
        messages.append(str(info.value))
    assert messages == [messages[0]] * 3
    assert messages[0].endswith(f"need at least one base period ({PERIOD:.6e} s)")


@pytest.mark.parametrize("readout", [1e300, 1400.0 * PERIOD], ids=["1e300s", "1400-periods"])
@pytest.mark.parametrize("entry", ["run_ensemble", "simulate_trial"])
def test_a_trial_past_the_batch_budget_is_refused_before_allocating(entry, readout):
    """Draws and readout record past BATCH_BYTES are refused when the
    schedule is planned, with a ValueError naming the readout's steps and
    the bytes needed: a step count past float range does not surface as
    numpy's OverflowError, and nothing the size of the trial is allocated."""
    schedule = build_for_ratio(PARAMS, 2.0, 0.0, readout)
    tracemalloc.start()
    try:
        with pytest.raises(harness.TrialBudgetError) as info:
            if entry == "run_ensemble":
                run_ensemble(schedule, PARAMS, 2, 1)
            else:
                simulate_trial(schedule, PARAMS, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_readout, _ = steps(MODEL, readout, harness.DEFAULT_DT_PER_PERIOD)
    head = f"a trial with a readout of {n_readout:.4g} steps needs "
    message = str(info.value)
    assert message.startswith(head)
    need, tail = message[len(head):].split(" ", 1)
    assert float(need) > harness.BATCH_BYTES
    assert tail == f"bytes of draws and readout record, past BATCH_BYTES = {harness.BATCH_BYTES}"
    assert peak < 1 << 20


def test_non_finite_trials_abort_the_run(monkeypatch):
    real = retrodiction_schedule

    def poisoned(*args, **kwargs):
        weights, cov = real(*args, **kwargs)
        return np.full_like(weights, np.nan), cov

    monkeypatch.setattr(harness, "retrodiction_schedule", poisoned)
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match=r"^trial 0 produced a non-finite result"):
            run_ensemble(AMP, PARAMS, 512, 1, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_bad_batch_stops_the_run(monkeypatch, workers):
    """Trials 300 and 600 go bad; the run names 300 for any worker count
    and, on one worker, simulates nothing past the batch that holds it."""
    real = harness._simulate_batch
    spans = []

    def poisoned(start, stop, *args):
        spans.append((start, stop))
        truths, records = real(start, stop, *args)
        for bad in (300, 600):
            if start <= bad < stop:
                truths[bad - start, 1] = np.inf
        return truths, records

    monkeypatch.setattr(harness, "_simulate_batch", poisoned)
    with pytest.raises(RuntimeError, match=r"^trial 300 produced a non-finite result"):
        run_ensemble(AMP, PARAMS, 1024, 1, workers=workers)
    if workers == 1:
        assert spans[0][0] == 0
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
        assert spans[-1][0] <= 300 < spans[-1][1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bad_trials_in_different_lanes_name_the_lowest(monkeypatch, workers):
    """Trials 60 and 150 of a 200-trial ensemble go bad; on 2 and 3
    workers they sit in different lanes, and every worker count names 60."""
    real = harness._simulate_batch

    def poisoned(start, stop, *args):
        truths, records = real(start, stop, *args)
        for bad in (60, 150):
            if start <= bad < stop:
                records[bad - start, 0] = np.nan
        return truths, records

    monkeypatch.setattr(harness, "_simulate_batch", poisoned)
    with pytest.raises(RuntimeError, match=r"^trial 60 produced a non-finite result"):
        run_ensemble(AMP, PARAMS, 200, 1, workers=workers)


@pytest.mark.parametrize("late", [1, 0])
def test_no_lane_runs_a_batch_past_the_least_bad_trial(monkeypatch, late):
    """2048 trials at 12 periods on 2 workers: lane 0 runs the 106-trial
    batches at 0, 212, ..., lane 1 those at 106, 318, ....  Trials 0 and
    1000 (batch 954, lane 1) go bad.  Held back until the other lane has
    found its bad trial, lane 1 runs at most its batch at 106; lane 0
    still runs its batch at 0, below 1000, and the run names trial 0."""
    real = harness._simulate_batch
    started = []
    found = threading.Event()
    leader_bad = 0 if late == 1 else 954

    def spy(start, stop, *args):
        started.append(start)
        if (start // 106) % 2 == late:
            assert found.wait(timeout=30)
            time.sleep(0.1)  # for the leader's filter and check
        truths, records = real(start, stop, *args)
        for bad in (0, 1000):
            if start <= bad < stop:
                records[bad - start, 0] = np.nan
        if start == leader_bad:
            found.set()
        return truths, records

    monkeypatch.setattr(harness, "_simulate_batch", spy)
    schedule = build_for_ratio(PARAMS, R12, 0.0, 12.0 * PERIOD)
    with pytest.raises(RuntimeError, match=r"^trial 0 produced a non-finite result"):
        run_ensemble(schedule, PARAMS, 2048, 5, workers=2)
    if late == 1:
        assert 0 in started and set(started) <= {0, 106}
    else:
        assert sorted(started) == [0, 106, 318, 530, 742, 954]


@pytest.mark.parametrize("r", [2.0, 1.0])
def test_every_worker_count_splits_a_preset_ensemble_to_the_same_bits(r):
    """A 200-trial, 5-period ensemble, one batch on one worker, runs as
    2, 3 and 8 batches at once and keeps every bit."""
    schedule = build_for_ratio(PARAMS, r, 0.0, 5.0 * PERIOD)
    serial = run_ensemble(schedule, PARAMS, 200, 4711, workers=1)
    for workers in (2, 3, 8):
        split = run_ensemble(schedule, PARAMS, 200, 4711, workers=workers)
        assert np.array_equal(split.outcomes, serial.outcomes)
        assert np.array_equal(split.truths, serial.truths)


def test_eight_lanes_switching_threads_often_keep_every_bit(monkeypatch):
    """300 trials in batches of 7 over 8 lanes on fewer cores, with the
    interpreter switching threads every microsecond: each lane writes only
    its own rows, so the result is still the serial run's."""
    serial = run_ensemble(AMP, PARAMS, 300, 777, workers=1)
    plans, total = harness._plan_segments(AMP, PARAMS, harness.DEFAULT_DT_PER_PERIOD)
    monkeypatch.setattr(harness, "BATCH_BYTES", 7 * 8 * (total + plans[-1].n_steps))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = run_ensemble(AMP, PARAMS, 300, 777, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(split.outcomes, serial.outcomes)
    assert np.array_equal(split.truths, serial.truths)


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_no_lane_outlives_the_call(monkeypatch, workers, poisoned):
    """A 200-trial call runs one batch per lane; when it returns, or raises
    because lane 0's first batch did, no ``levamp`` thread is alive and
    every batch that started has returned."""
    real = harness._simulate_batch
    started, returned = [], []

    def spy(start, *args):
        started.append(start)
        try:
            if poisoned and start == 0:
                raise RuntimeError("poisoned batch")
            return real(start, *args)
        finally:
            returned.append(start)

    monkeypatch.setattr(harness, "_simulate_batch", spy)
    if poisoned:
        with pytest.raises(RuntimeError, match="^poisoned batch$"):
            run_ensemble(AMP, PARAMS, 200, 1, workers=workers)
    else:
        run_ensemble(AMP, PARAMS, 200, 1, workers=workers)
        assert len(started) == workers
    assert [t.name for t in threading.enumerate() if t.name.startswith("levamp")] == []
    assert sorted(returned) == sorted(started)


def _run_two_lanes():
    run_ensemble(AMP, PARAMS, 200, 1, workers=2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_its_own_lanes():
    """A process that has run lanes can fork: the child inherits no lane
    thread to wait on, and its call starts and joins its own."""
    _run_two_lanes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        child = multiprocessing.get_context("fork").Process(target=_run_two_lanes)
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_each_lane_draws_into_one_buffer_pair_for_all_its_batches(monkeypatch):
    """2048 trials at 12 periods on 2 workers make 20 batches of at most
    106 trials; lane k gets batches k, k + 2, ... and always the same
    draw and record buffers, which no other lane shares."""
    real = harness._simulate_batch
    seen = {}

    def spy(start, stop, plans, master_seed, init_std, z, y):
        seen[start] = (z, y)
        return real(start, stop, plans, master_seed, init_std, z, y)

    monkeypatch.setattr(harness, "_simulate_batch", spy)
    run_ensemble(build_for_ratio(PARAMS, R12, 0.0, 12.0 * PERIOD), PARAMS, 2048, 5, workers=2)
    starts = sorted(seen)
    assert len(starts) == 20
    lanes = [seen[starts[0]], seen[starts[1]]]
    for j, start in enumerate(starts):
        z, y = seen[start]
        assert z is lanes[j % 2][0] and y is lanes[j % 2][1]
    buffers = [buf for pair in lanes for buf in pair]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[i + 1:])


def test_two_lanes_hold_no_more_than_one():
    """Splitting a 200-trial ensemble over two lanes halves each lane's
    buffers, so the traced peak stays within 0.5 MiB of one lane's."""
    schedule = build_for_ratio(PARAMS, 2.0, 0.0, 5.0 * PERIOD)
    peaks = {}
    for workers in (1, 2):
        run_ensemble(schedule, PARAMS, 200, 5, workers=workers)  # pool and caches, untraced
        tracemalloc.start()
        try:
            run_ensemble(schedule, PARAMS, 200, 5, workers=workers)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + (1 << 19)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("size", [1, 7])
def test_batch_size_does_not_change_results(monkeypatch, size, workers):
    """Batches of 1 and 7 trials over 300 trials give the default run's
    bits, and the run splits into exactly those batches."""
    default = run_ensemble(AMP, PARAMS, 300, 777, workers=1)
    real = harness._simulate_batch
    spans = []

    def spy(start, stop, *args):
        spans.append((start, stop))
        return real(start, stop, *args)

    plans, total = harness._plan_segments(AMP, PARAMS, harness.DEFAULT_DT_PER_PERIOD)
    monkeypatch.setattr(harness, "BATCH_BYTES", size * 8 * (total + plans[-1].n_steps))
    monkeypatch.setattr(harness, "_simulate_batch", spy)
    small = run_ensemble(AMP, PARAMS, 300, 777, workers=workers)
    assert np.array_equal(small.outcomes, default.outcomes)
    assert np.array_equal(small.truths, default.truths)
    assert sorted(spans) == [(a, min(a + size, 300)) for a in range(0, 300, size)]


def test_a_batch_holds_at_most_its_byte_budget():
    """A 256-trial, r = sqrt 12, 12-period ensemble on one worker peaks
    within BATCH_BYTES of draws and records plus 1 MiB of the rest, though
    all 256 trials held at once would need about 20 MiB."""
    schedule = build_for_ratio(PARAMS, R12, 0.0, 12.0 * PERIOD)
    run_ensemble(schedule, PARAMS, 1, 5, workers=1)  # lazy imports and caches, untraced
    tracemalloc.start()
    try:
        run_ensemble(schedule, PARAMS, 256, 5, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness.BATCH_BYTES + (1 << 20)


@pytest.mark.parametrize(
    "r,dp,q0,p0",
    [
        (2.0, 0.3, 1.0, 0.5),
        (R12, 1.2, 0.0, 0.0),
        (1.5, 0.8, -0.2, 0.7),
    ],
)
def test_noiseless_protocol_map(r, dp, q0, p0):
    """Kick dP at maximum squeezing emerges as mean (-Q0 + r dP, -P0)
    with the covariance restored by the reversal."""
    tau = dp / (PARAMS.kappa_imp * PARAMS.pulse_voltage_v)
    sched = build_amplified(PARAMS, r, tau)
    state = GaussianState(np.array([q0, p0]), 3.4 * np.eye(2))
    out = run_schedule_noiseless(sched, PARAMS, state)
    assert np.allclose(out.mean, [-q0 + r * dp, -p0], rtol=0.0, atol=1e-9)
    assert np.allclose(out.cov, state.cov, rtol=0.0, atol=1e-9)


def test_noiseless_conventional_map_is_just_the_kick():
    out = run_schedule_noiseless(CONV, PARAMS, thermal_state(1.2))
    assert np.allclose(out.mean, [0.0, 12.0], rtol=0.0, atol=1e-12)
    assert np.allclose(out.cov, thermal_state(1.2).cov, rtol=0.0, atol=1e-9)


def test_noiseless_readout_rotation_is_periodic():
    at_zero = run_schedule_noiseless(AMP, PARAMS, thermal_state(0.0))
    full = propagate(at_zero, MODEL.noiseless(), AMP.readout_duration)
    assert np.allclose(full.mean, at_zero.mean, rtol=0.0, atol=1e-9)
    assert np.allclose(full.cov, at_zero.cov, rtol=0.0, atol=1e-9)


def test_the_amplified_walk_is_soft_soft_carrying_the_kick_readout():
    """The feedback hold is skipped; the kick rides on the second soft
    half, and each soft half runs at r with its recoil diffusion scaled
    by 1/r^2 and detection off."""
    hold, soft, kick, _, readout = AMP.segments
    walk = list(harness._walk(AMP, PARAMS))
    assert [(dp, d) for dp, _, d in walk] == [
        (None, soft.duration_s), (kick.kick_dp, soft.duration_s), (None, readout.duration_s)
    ]
    for _, model, _ in walk[:2]:
        assert model.freq_ratio == pytest.approx(1.0 / R12, rel=1e-15)
        assert model.meas_rate == 0.0
        assert model.diffusion_p == pytest.approx(4.0 * PARAMS.gamma_qb / 12.0, rel=1e-15)
    assert walk[2][1] == base_model(PARAMS) == MODEL
    assert MODEL.meas_rate == pytest.approx(4.0 * PARAMS.eta * PARAMS.gamma_qb)
    assert MODEL.diffusion_p == pytest.approx(4.0 * PARAMS.gamma_qb)


def test_the_conventional_walk_is_the_base_lead_then_the_readout_carrying_the_kick():
    """The 3.6 us lead after the feedback hold runs in the stiff trap and
    measures (without feedback), so it has the readout's model."""
    hold, lead, kick, readout = CONV.segments
    assert list(harness._walk(CONV, PARAMS)) == [
        (None, MODEL, lead.duration_s),
        (kick.kick_dp, MODEL, readout.duration_s),
    ]


def test_the_walk_skips_zero_length_segments_and_the_kick_rides_past_them():
    hold, lead, kick, readout = CONV.segments
    for segments in (
        (hold, dataclasses.replace(lead, duration_s=0.0), kick, readout),
        (dataclasses.replace(hold, duration_s=0.0), kick, dataclasses.replace(lead, duration_s=0.0),
         readout),
    ):
        schedule = dataclasses.replace(CONV, segments=segments)
        assert list(harness._walk(schedule, PARAMS)) == [
            (kick.kick_dp, MODEL, readout.duration_s)
        ]


def test_the_walk_refuses_a_softened_non_soft_segment():
    hold, lead, kick, readout = CONV.segments
    softened = dataclasses.replace(
        CONV, segments=(hold, Segment("free_base", lead.duration_s, 0.5), kick, readout)
    )
    with pytest.raises(ValueError, match="free_base segment must run at the base frequency"):
        list(harness._walk(softened, PARAMS))


@pytest.mark.parametrize("schedule", [AMP, CONV], ids=["amplified", "conventional"])
def test_the_plans_and_the_noiseless_map_see_the_same_kicks_and_models(schedule):
    """Each plan takes its walk segment's kick, detection and the steps of
    ``dynamics.steps``; stepping a mean through the plans' F with their
    kicks, up to the readout, lands where the noiseless map does."""
    walk = list(harness._walk(schedule, PARAMS))
    plans, _ = harness._plan_segments(schedule, PARAMS, harness.DEFAULT_DT_PER_PERIOD)
    assert [(p.kick_dp, p.model, p.n_steps, p.dt) for p in plans] == [
        (dp, model, *steps(model, d, harness.DEFAULT_DT_PER_PERIOD))
        for dp, model, d in walk
    ]
    start = GaussianState(np.array([0.7, -0.4]), np.eye(2))
    x = start.mean.copy()
    for plan in plans:
        if plan.kick_dp is not None:
            x[1] += plan.kick_dp
        if plan is not plans[-1]:
            x = np.linalg.matrix_power(plan.fwd[1], plan.n_steps) @ x
    out = run_schedule_noiseless(schedule, PARAMS, start)
    assert np.allclose(out.mean, x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("schedule", [AMP, CONV], ids=["amplified", "conventional"])
def test_each_plan_starts_its_draws_where_the_plans_before_it_end(schedule):
    """Plan j's draws start after the 2 initial-state normals and the
    2 n process and, where a plan measures, n record normals of each plan
    before it; the measured readout's record normals end the row.  The
    readout plans the model that retrodicts it."""
    plans, total = harness._plan_segments(schedule, PARAMS, harness.DEFAULT_DT_PER_PERIOD)
    at = 2
    for plan in plans:
        assert plan.at == at
        at += (3 if plan.model.meas_rate > 0.0 else 2) * plan.n_steps
    assert plans[-1].at + 3 * plans[-1].n_steps == at == total
    assert plans[-1].model == readout_model(PARAMS)


def test_an_off_centre_kick_is_rejected_before_any_simulation():
    """Soft halves of 0.5 and 1.5 quarter periods would amplify dP = 1.2
    to 2.94 zp instead of r dP = 4.16 zp; every entry point refuses."""
    hold, soft, kick, _, readout = AMP.segments
    segments = (
        hold,
        dataclasses.replace(soft, duration_s=0.5 * soft.duration_s),
        kick,
        dataclasses.replace(soft, duration_s=1.5 * soft.duration_s),
        readout,
    )
    shifted = dataclasses.replace(AMP, segments=segments)
    match = "kick not at maximum squeezing"
    with pytest.raises(ValueError, match=match):
        run_ensemble(shifted, PARAMS, 16, 1)
    with pytest.raises(ValueError, match=match):
        simulate_trial(shifted, PARAMS, 1, 0)
    with pytest.raises(ValueError, match=match):
        run_schedule_noiseless(shifted, PARAMS, thermal_state(0.0))


def test_statistical_honesty_of_the_reported_covariance():
    """The scatter of (estimate - truth) must match the covariance the
    retrodiction claims for itself."""
    ens = run_ensemble(AMP, PARAMS, 1000, 4242, workers=4)
    err = ens.outcomes - ens.truths
    for axis in (0, 1):
        ratio = err[:, axis].var(ddof=1) / ens.est_cov[axis, axis]
        assert 0.8 < ratio < 1.25


def test_conventional_ensemble_recovers_the_momentum_transfer():
    stats = ensemble_stats(run_ensemble(CONV, PARAMS, 200, 2202, workers=4))
    assert stats.axis == "P"
    assert abs(stats.signal_mean - 12.0) < 3.0 * stats.signal_mean_se


def test_amplified_ensemble_recovers_the_amplified_displacement():
    stats = ensemble_stats(run_ensemble(AMP, PARAMS, 200, 2202, workers=4))
    assert stats.axis == "Q"
    assert abs(stats.signal_mean - R12 * 1.2) < 3.0 * stats.signal_mean_se


def test_jackknife_matches_the_leave_one_out_loop():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(37) * 2.5 + 1.0
    n = x.size
    loo = np.array([np.delete(x, i).std(ddof=1) for i in range(n)])
    ref = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    assert _jackknife_std_se(x) == pytest.approx(ref, rel=1e-12)


def test_stats_of_a_degenerate_ensemble_are_all_zero():
    stats = ensemble_stats(synthetic_ensemble(np.tile([1.5, -2.0], (20, 1))))
    assert stats.sigma == 0.0
    assert stats.sigma_se == 0.0
    assert stats.signal_mean_se == 0.0
    assert np.all(stats.cov == 0.0)
    assert stats.signal_mean == 1.5


def test_stats_recover_an_isotropic_cloud():
    rng = np.random.default_rng(808)
    stats = ensemble_stats(synthetic_ensemble(rng.standard_normal((10000, 2))))
    axes = np.sqrt(np.linalg.eigvalsh(stats.cov))
    assert axes[0] == pytest.approx(1.0, rel=0.03)
    assert axes[1] == pytest.approx(1.0, rel=0.03)


def test_stats_require_a_minimum_ensemble():
    with pytest.raises(ValueError, match="at least"):
        ensemble_stats(synthetic_ensemble(np.zeros((5, 2))))


def alternating_ensemble(r, tau_s, mean, spread=0.05, n=30):
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    outcomes = np.zeros((n, 2))
    outcomes[:, 0] = mean + spread * signs
    return synthetic_ensemble(outcomes, r=r, tau_s=tau_s)


def test_displacement_fit_recovers_an_exact_slope():
    k_true = 2.4e7
    taus = (1e-7, 3e-7, 1e-6)
    ensembles = [alternating_ensemble(2.0, t, k_true * t) for t in taus]
    fit = fit_displacement_vs_tau(ensembles)
    assert fit.r == 2.0
    assert fit.k == pytest.approx(k_true, rel=1e-12)


def test_displacement_fit_input_checks():
    with pytest.raises(ValueError, match="three distinct pulse lengths"):
        fit_displacement_vs_tau(
            [alternating_ensemble(2.0, 1e-7, 1.0), alternating_ensemble(2.0, 2e-7, 2.0)]
        )
    mixed = [
        alternating_ensemble(2.0, 1e-7, 1.0),
        alternating_ensemble(3.0, 2e-7, 2.0),
        alternating_ensemble(2.0, 3e-7, 3.0),
    ]
    with pytest.raises(ValueError, match="share one squeeze ratio"):
        fit_displacement_vs_tau(mixed)


def test_k1_reduction_recovers_the_bare_rate():
    k1_true = 5.0
    fits = [
        DisplacementFit(r=r, k=k1_true * r, k_se=0.1)
        for r in (1.0, 2.0, R12)
    ]
    k1, k1_se = fit_k1(fits)
    assert k1 == pytest.approx(k1_true, rel=1e-12)
    assert k1_se > 0.0
    with pytest.raises(ValueError, match="two distinct squeeze ratios"):
        fit_k1(fits[:1])


def test_scaling_of_the_simulated_displacement_with_pulse_length():
    """Mean displacement grows linearly with tau and the slope reduces
    to kappa times the drive voltage once the gain r is divided out."""
    taus = (100e-9, 300e-9, 1000e-9)
    ensembles = [
        run_ensemble(build_amplified(PARAMS, 2.0, t), PARAMS, 300, 91 + j, workers=4)
        for j, t in enumerate(taus)
    ]
    fit = fit_displacement_vs_tau(ensembles)
    k1, _ = fit_k1(
        [fit, fit_displacement_vs_tau(
            [run_ensemble(build_amplified(PARAMS, R12, t), PARAMS, 300, 191 + j, workers=4)
             for j, t in enumerate(taus)]
        )]
    )
    assert fit.k == pytest.approx(2.0 * 1.2e7, rel=0.05)
    assert k1 == pytest.approx(1.2e7, rel=0.05)


FROZEN_BUDGET = [
    # r, recoil term, total sigma, via 50-digit arithmetic
    (1.0, 0.0, 2.464267116025421),
    (1.01, 0.4149318912472058, 2.547065823721768),
    (2.0, 0.8216473094004075, 2.625692237967857),
    (R12, 1.423134885783771, 2.737836245086257),
]


@pytest.mark.parametrize("r,recoil,sigma", FROZEN_BUDGET)
def test_noise_budget_values(r, recoil, sigma):
    budget = noise_budget(PARAMS, r)
    assert budget.sigma_qi_sq == pytest.approx(3.4, rel=1e-12)
    assert budget.sigma_qf_sq == pytest.approx(2.6726124191242438, rel=1e-12)
    assert budget.recoil_term == pytest.approx(recoil, rel=1e-12, abs=1e-15)
    assert budget.sigma_tot == pytest.approx(sigma, rel=1e-12)


def test_noise_budget_rejects_r_below_one():
    with pytest.raises(ValueError):
        noise_budget(PARAMS, 0.99)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_noise_budget_rejects_a_non_finite_r(r):
    # nan used to give the r = 1 budget (nan > 1 is False), inf sigma_tot = inf
    with pytest.raises(ValueError, match=f"^squeeze ratio r must be >= 1 and finite, got {r}$"):
        noise_budget(PARAMS, r)


@pytest.mark.parametrize(
    "periods, sigma_excess, var_excess",
    [(5, (0.016, 0.018), (0.093, 0.095)), (12, (-0.001, 0.0), (-0.002, -0.001))],
)
def test_finite_readout_excess_over_the_noise_budget(periods, sigma_excess, var_excess):
    """The budget's 1/sqrt(eta) vs the exact retrodicted Q variance of a
    finite readout, at r = sqrt(12): sigma_Q is 1.7 % above the budget at
    5 periods and within 0.1 % at 12, where the variance is below
    1/sqrt(eta), not above it."""
    budget = noise_budget(PARAMS, R12)
    _, cov = retrodiction_schedule(MODEL, PERIOD / 200, periods * 200)
    sigma = math.sqrt(budget.sigma_qi_sq + budget.recoil_term + cov[0, 0])
    assert sigma_excess[0] < sigma / budget.sigma_tot - 1.0 < sigma_excess[1]
    assert var_excess[0] < cov[0, 0] / budget.sigma_qf_sq - 1.0 < var_excess[1]


def test_sensitivity_curve_improves_with_amplification():
    curve = sensitivity_curve(PARAMS, (1.0, 2.0, R12), 200, 606, workers=4)
    assert [pt.r for pt in curve] == [1.0, 2.0, R12]
    dps = [pt.dp_min_zp for pt in curve]
    assert dps[0] > dps[1] > dps[2]
    for pt in curve:
        assert pt.db_vs_pzp - pt.db_vs_sqrt2pzp == pytest.approx(
            10.0 * math.log10(math.sqrt(2.0)), abs=1e-9
        )
        assert pt.dp_min_kev_c == pytest.approx(pt.dp_min_zp * 7.92, rel=1e-12)
    with pytest.raises(ValueError, match=">= 1"):
        sensitivity_curve(PARAMS, (0.5,), 200, 1)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_sensitivity_curve_names_a_non_finite_ratio(r):
    with pytest.raises(ValueError, match=f"^squeeze ratio r must be >= 1 and finite, got {r}$"):
        sensitivity_curve(PARAMS, (2.0, r), 12, 1)


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(20260819, 3) == derive_seed(20260819, 3)
    seeds = {derive_seed(20260819, i) for i in range(64)}
    assert len(seeds) == 64
    expected = np.random.SeedSequence([20260819, 3]).generate_state(1, np.uint64)[0]
    assert derive_seed(20260819, 3) == int(expected)


def test_ensemble_csv(tmp_path):
    ens = run_ensemble(CONV, PARAMS, 12, 5, workers=1)
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(ens, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial_index,q_est,p_est,q_true,p_true"
    assert len(lines) == 13
    row = lines[4].split(",")
    assert int(row[0]) == 3
    assert float(row[1]) == pytest.approx(ens.outcomes[3, 0], rel=1e-8)
    assert float(row[4]) == pytest.approx(ens.truths[3, 1], rel=1e-8)


def test_scaling_csv(tmp_path):
    ensembles = [alternating_ensemble(2.0, t, 2.4e7 * t) for t in (1e-6, 1e-7, 3e-7)]
    rows = scaling_rows(ensembles)
    assert [row[1] for row in rows] == [1e-7, 3e-7, 1e-6]
    for row, e in zip(rows, [ensembles[1], ensembles[2], ensembles[0]]):
        stats = ensemble_stats(e)
        assert row == (2.0, e.tau_s, stats.signal_mean, stats.signal_mean_se)
    path = tmp_path / "scaling.csv"
    write_scaling_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,tau_s,dq_mean,dq_se"
    assert len(lines) == 4


def test_scaling_rows_sort_stably_by_pulse_length():
    first, second = alternating_ensemble(2.0, 2e-7, 1.0), alternating_ensemble(2.0, 2e-7, 2.0)
    rows = scaling_rows([first, alternating_ensemble(2.0, 1e-7, 3.0), second])
    assert [(row[1], row[2]) for row in rows] == [(1e-7, 3.0), (2e-7, 1.0), (2e-7, 2.0)]


def test_sensitivity_csv(tmp_path):
    curve = sensitivity_curve(PARAMS, (1.0, R12), 50, 11, workers=2)
    path = tmp_path / "sensitivity.csv"
    write_sensitivity_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,sigma_tot,dp_min_zp,dp_min_kev_c,db_vs_ideal,db_vs_pzp"
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[0]) == pytest.approx(R12, rel=1e-8)
    assert float(row[2]) == pytest.approx(curve[1].dp_min_zp, rel=1e-8)


def test_csv_writers_write_this_exact_text(tmp_path):
    """Floats get 9 significant digits (signed zero, tiny values, a tie
    at the ninth digit rounded to even), the trial index integer text."""
    outcomes = np.column_stack([np.arange(11) * 0.25, -np.arange(11.0)])
    outcomes[0] = -0.0, 1e-300
    outcomes[1] = 123456789.5, 1.0 / 3.0
    truths = np.column_stack([np.arange(11) / 8.0, np.full(11, 0.1)])
    ens = dataclasses.replace(synthetic_ensemble(outcomes), truths=truths)
    write_ensemble_csv(ens, tmp_path / "ensemble.csv")
    assert (tmp_path / "ensemble.csv").read_bytes().decode() == (
        "trial_index,q_est,p_est,q_true,p_true\n"
        "0,-0,1e-300,0,0.1\n"
        "1,123456790,0.333333333,0.125,0.1\n"
        "2,0.5,-2,0.25,0.1\n"
        "3,0.75,-3,0.375,0.1\n"
        "4,1,-4,0.5,0.1\n"
        "5,1.25,-5,0.625,0.1\n"
        "6,1.5,-6,0.75,0.1\n"
        "7,1.75,-7,0.875,0.1\n"
        "8,2,-8,1,0.1\n"
        "9,2.25,-9,1.125,0.1\n"
        "10,2.5,-10,1.25,0.1\n"
    )

    write_scaling_csv(
        [(1.0, 1e-7, 2.5, 0.0125), (R12, 1.77827941e-7, -0.0, 1e-300),
         (2.0, 1e-6, 123456789.5, 2.0 / 3.0)],
        tmp_path / "scaling.csv",
    )
    assert (tmp_path / "scaling.csv").read_bytes().decode() == (
        "r,tau_s,dq_mean,dq_se\n"
        "1,1e-07,2.5,0.0125\n"
        "3.46410162,1.77827941e-07,-0,1e-300\n"
        "2,1e-06,123456790,0.666666667\n"
    )

    curve = (
        SensitivityPoint(r=1.0, sigma_tot=2.5, dp_min_zp=2.5, dp_min_kev_c=19.8,
                         db_vs_sqrt2pzp=-0.0, db_vs_pzp=1e-300),
        SensitivityPoint(r=R12, sigma_tot=123456789.5, dp_min_zp=1.0 / 3.0,
                         dp_min_kev_c=6.25, db_vs_sqrt2pzp=-2.53, db_vs_pzp=-1.02),
    )
    write_sensitivity_csv(curve, tmp_path / "sensitivity.csv")
    assert (tmp_path / "sensitivity.csv").read_bytes().decode() == (
        "r,sigma_tot,dp_min_zp,dp_min_kev_c,db_vs_ideal,db_vs_pzp\n"
        "1,2.5,2.5,19.8,-0,1e-300\n"
        "3.46410162,123456790,0.333333333,6.25,-2.53,-1.02\n"
    )
