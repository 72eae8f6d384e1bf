"""Monte-Carlo trial ensembles, scaling fits, and sensitivity curves.

A trial is one full protocol execution: draw a thermal initial state,
evolve it through the schedule's segments with recoil diffusion, add
the kick, generate the readout record, and retrodict the state at the
protocol reference time.  The harness runs ensembles of such trials
with deterministic seeding and reduces them to the quantities of
interest: displacement means, total position noise, minimum resolvable
impulse, and their standard errors.

Determinism contract: trial i of a run draws all of its randomness
from ``numpy.random.default_rng([master_seed, i])`` in a fixed order
set by the schedule alone.  A batch computes those generators' seeds
in one vectorized pass, bit-identical to ``default_rng``, and checks
the pass against ``default_rng`` on its first trial.  An ensemble is
split once, into batches whose draws and readout records fit in
BATCH_BYTES and that spread the trials over the workers.  The batches
are dealt round-robin to lanes, at most one per worker, and each lane
runs its batches in order through one draw buffer and one record buffer
that the caller allocates: lane 0 on the calling thread, the others on
a thread pool that lives for the call.  The kernels give a trial the
same bits in any batch and the reduction is an ordered write by trial
index, so results are bit-identical for any worker count.

The per-trial noise sources and their budget: the thermal preparation
contributes variance 2 n + 1 to the amplified position, the finite
detection efficiency sets the retrodiction variance near 1/sqrt(eta)
(9.4 % above it at the default 5-period readout, 0.15 % below at 12
periods; see ``selftest``), and recoil heating during the soft phases
adds 2 pi gamma_qb r / Omega.
The minimum resolvable impulse is the quadrature sum divided by r.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .dynamics import (
    DEFAULT_DT_PER_PERIOD, DynamicsModel, base_model, propagate, soft_model, steps, transition,
)
from .estimation import retrodiction_schedule
from .params import OscillatorParams, db_ratio
from .protocol import (
    DEFAULT_READOUT_PERIODS, MEASURED_KINDS, ProtocolSchedule, build_for_ratio, require_valid,
)
from .records import MeasurementRecord
from .state import GaussianState, _check_ratio, apply_impulse

# The bytes a batch of trials may hold in normal draws and readout
# records; a lane's buffers hold one batch, and a trial past it is refused.
BATCH_BYTES = 8 << 20
MIN_STATS_TRIALS = 10


class TrialBudgetError(ValueError):
    """A trial's draws and readout record would not fit in BATCH_BYTES."""


def _usable_cpus() -> int:
    """CPUs this process may use: its affinity mask (a cpuset or taskset narrows it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


DEFAULT_WORKERS = _usable_cpus()


def _walk(schedule: ProtocolSchedule, params: OscillatorParams):
    """Yield (kick_dp, model, duration_s) for each segment a trial runs, readout last.

    Skips the feedback hold, which prepares the state a trial draws, and
    zero-length segments; a kick rides on the segment after it (else
    ``kick_dp`` is None).  Recoil diffusion scales with the square of the
    local frequency ratio; detection is on where the segment's kind measures.
    """
    require_valid(schedule)
    kick_dp = None
    for seg in schedule.segments:
        if seg.kind == "kick":
            kick_dp = seg.kick_dp
        elif seg.kind != "feedback_hold" and seg.duration_s > 0.0:
            if seg.kind == "soft":
                model = soft_model(params, 1.0 / seg.freq_ratio)
            else:
                model = base_model(params, measurement_on=seg.kind in MEASURED_KINDS)
            yield kick_dp, model, seg.duration_s
            kick_dp = None


@dataclass(frozen=True)
class Ensemble:
    """All trials of one (schedule, params, seed) configuration.

    ``outcomes`` holds the retrodicted (Q, P) at t_zero per trial,
    ``truths`` the simulator's hidden true state at the same instant.
    ``est_cov`` is the shared retrodiction covariance (it is
    record-independent for a linear Gaussian model).
    """

    r: float
    tau_s: float
    mode: str
    outcomes: np.ndarray = field(repr=False)
    truths: np.ndarray = field(repr=False)
    est_cov: np.ndarray = field(repr=False)

    @property
    def n_trials(self) -> int:
        return self.outcomes.shape[0]

    @property
    def signal_axis(self) -> int:
        """0 (Q) for amplified runs, 1 (P) for conventional ones.

        Amplification rotates the kick into position; without it the
        kick stays on the momentum axis.
        """
        return 0 if self.mode == "amplified" else 1


@dataclass(frozen=True, eq=False)
class _SegmentPlan:
    """One simulated segment: add ``kick_dp`` to P unless it is None, then
    take ``n_steps`` steps x -> F x + L w under ``model``, measuring where
    its meas_rate > 0.  ``fwd`` and ``g`` are ``_kernels.powers(F, L,
    n_steps)``; the segment's draws start at column ``at`` of a trial's."""

    kick_dp: float | None
    n_steps: int
    dt: float
    fwd: np.ndarray
    g: np.ndarray
    model: DynamicsModel
    at: int


@lru_cache(maxsize=32, typed=True)
def _plan_segments(
    schedule: ProtocolSchedule,
    params: OscillatorParams,
    dt_per_period: int,
) -> tuple[tuple[_SegmentPlan, ...], int]:
    """Plan each segment of :func:`_walk` in ``dynamics.steps``; returns (plans, draws).

    Each trial draws all of its normals in one call, laid out as 2 for
    the initial state, then per plan 2 n process normals, then n record
    normals where it measures; a plan's ``at`` is where its draws start.
    The layout depends only on the schedule, never on data.  A trial
    whose draws and readout record exceed BATCH_BYTES, or whose step
    count leaves float range, raises TrialBudgetError before any array
    is built.  Cached, as every replayed trial and every config check
    plans the same schedule again; the plans' arrays are read-only.
    The cache keys on the type of ``dt_per_period``, so 200.0 is refused
    by ``dynamics.steps`` even where 200 is held.
    """
    walked = []
    for kick_dp, model, duration in _walk(schedule, params):
        try:
            n_steps, dt = steps(model, duration, dt_per_period)
        except OverflowError:  # a step count or step length past float range
            n_steps, dt = math.inf, 0.0
        walked.append((kick_dp, model, n_steps, dt))
    n_readout = walked[-1][2]  # a valid schedule ends with a measured readout
    draws = sum((3 if model.meas_rate > 0.0 else 2) * float(n) for _, model, n, _ in walked)
    need = 8.0 * (2 + draws + n_readout)
    if not need <= BATCH_BYTES:
        raise TrialBudgetError(
            f"a trial with a readout of {n_readout:.4g} steps needs {need:.4g} bytes of "
            f"draws and readout record, past BATCH_BYTES = {BATCH_BYTES}"
        )
    plans: list[_SegmentPlan] = []
    total = 2
    for kick_dp, model, n_steps, dt in walked:
        f, qd = transition(model, dt)
        fwd, g = _kernels.powers(f, _kernels.chol2x2(qd), n_steps)
        fwd.flags.writeable = g.flags.writeable = False
        plans.append(_SegmentPlan(kick_dp, n_steps, dt, fwd, g, model, total))
        total += (3 if model.meas_rate > 0.0 else 2) * n_steps
    return tuple(plans), total


def _trial_init_std(params: OscillatorParams) -> float:
    return math.sqrt(2.0 * params.n_init + 1.0)


# numpy's SeedSequence hash (``hashmix`` and ``mix`` in its
# bit_generator.pyx, pool size 4) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD, _WORD128 = (1 << 32) - 1, (1 << 128) - 1


def _pcg64_states(master_seed: int, start: int, m: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``default_rng([master_seed, i])``, i in [start, start + m).

    SeedSequence hashes the entropy words (master_seed's 32-bit words,
    low first, then i) into a pool of four.  Its hash constants never
    depend on the data, so the pass runs on uint32 arrays over all m
    trials at once.  PCG64 then seeds from the pool's first four uint64
    words with two 128-bit LCG steps.  Needs 0 <= master_seed and
    0 <= start <= start + m <= 2**32, so that i is a single word.
    """
    words = [np.full(m, master_seed & _WORD, dtype=np.uint32)]
    while master_seed := master_seed >> 32:
        words.append(np.full(m, master_seed & _WORD, dtype=np.uint32))
    words.append(np.arange(start, start + m).astype(np.uint32))
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _WORD
        v = v * h
        return v ^ v >> 16

    def mix(x, y):
        v = x * _MIX_L - y * _MIX_R
        return v ^ v >> 16

    pool = [hashmix(words[j] if j < len(words) else np.zeros(m, np.uint32)) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []  # generate_state(4, np.uint64): eight words, paired low first
    for j in range(8):
        v = pool[j % 4] ^ h
        h = h * _MULT_B & _WORD
        v = v * h
        out.append((v ^ v >> 16).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[j] | out[j + 1] << 32).tolist() for j in (0, 2, 4, 6))
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (c << 65 | d << 1 | 1) & _WORD128
        states.append(((((a << 64 | b) + inc) * _PCG64_MULT + inc) & _WORD128, inc))
    return states


def _fill_normals(master_seed, start: int, z: np.ndarray) -> None:
    """Fill z[i] with ``default_rng([master_seed, start + i]).standard_normal``.

    Trial ``start`` draws from ``default_rng`` itself, which rejects a
    bad seed as numpy does.  The other trials draw from the same
    generator with its state set to :func:`_pcg64_states`' value, after
    that value for trial ``start`` is checked against numpy's own;
    trials from index 2**32 on, or under a master seed that is not an
    integer, build their own ``default_rng``.
    """
    gen = np.random.default_rng([master_seed, start])
    m = z.shape[0]
    fast = min(m, (1 << 32) - start) if isinstance(master_seed, (int, np.integer)) else 0
    if fast > 1:
        states = _pcg64_states(int(master_seed), start, fast)
        if gen.bit_generator.state["state"] != dict(zip(("state", "inc"), states[0])):
            raise RuntimeError(
                f"vectorized seeding disagrees with numpy's default_rng at trial {start}"
            )
    gen.standard_normal(out=z[0])
    for i in range(1, fast):
        state, inc = states[i]
        gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        gen.standard_normal(out=z[i])
    for i in range(max(fast, 1), m):
        np.random.default_rng([master_seed, start + i]).standard_normal(out=z[i])


def _simulate_batch(start, stop, plans, master_seed, init_std, z, y):
    """Simulate trials [start, stop) into the rows of the buffers z and y.

    z holds at least m = stop - start rows of each trial's normals, y as
    many rows of readout samples.  Returns the true states at t_zero,
    (m, 2), and the readout record, y[:m].  A segment before the readout
    that measures still steps over its n record normals, so every trial
    keeps its draw layout.
    """
    m = stop - start
    z = z[:m]
    _fill_normals(master_seed, start, z)

    x = init_std * z[:, :2]
    for plan in plans:
        if plan.kick_dp is not None:
            x[:, 1] += plan.kick_dp
        n, at = plan.n_steps, plan.at
        w = z[:, at:at + 2 * n].reshape(m, n, 2)
        if plan is plans[-1]:
            v = z[:, at + 2 * n:at + 3 * n]
            return x, _kernels.roll_record(
                x, plan.fwd, plan.g, w, v, math.sqrt(plan.model.meas_rate),
                1.0 / math.sqrt(plan.dt), out=y[:m],
            )[1]
        x = _kernels.roll(x, plan.fwd, plan.g, w)


def run_ensemble(
    schedule: ProtocolSchedule,
    params: OscillatorParams,
    n_trials: int,
    master_seed: int,
    *,
    dt_per_period: int = DEFAULT_DT_PER_PERIOD,
    workers: int = 1,
) -> Ensemble:
    """Run n_trials of the schedule and retrodict every outcome.

    Each trial starts from the thermal preparation at the end of the
    feedback hold.  The result is bit-identical for any ``workers`` >= 1.
    A batch holds at most BATCH_BYTES of draws and readout record, which
    planning ensures a trial fits, and at most ceil(n_trials / workers)
    trials, so a 200-trial ensemble on two workers runs as two batches
    at once.  Lane k of min(workers, batches) runs batches k, k + lanes,
    ... through its own draw and record buffers, made once per call.
    Lane 0 runs on the calling thread, the others on a pool of lanes - 1
    threads that the call makes and shuts down, so no lane outlives it.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    plans, total = _plan_segments(schedule, params, dt_per_period)
    ro = plans[-1]  # a valid schedule ends with a measured readout

    weights, est_cov = retrodiction_schedule(ro.model, ro.dt, ro.n_steps)
    init_std = _trial_init_std(params)
    batch = min(BATCH_BYTES // (8 * (total + ro.n_steps)), -(-n_trials // workers))
    starts = range(0, n_trials, batch)
    lanes = min(workers, len(starts))

    outcomes = np.empty((n_trials, 2))
    truths = np.empty((n_trials, 2))
    bad: list[int] = []  # each lane's first trial with a non-finite result

    def lane(k: int, z: np.ndarray, y: np.ndarray) -> None:
        """Run batches k, k + lanes, ... in order, up to the first that
        holds a bad trial or starts past the least bad trial found.  A
        batch that starts below it still runs, so the least of ``bad`` is
        the run's lowest bad trial."""
        for start in starts[k::lanes]:
            if bad and start > min(bad):
                return
            stop = min(start + batch, n_trials)
            batch_truths, record = _simulate_batch(start, stop, plans, master_seed, init_std, z, y)
            est = _kernels.filter_backward(record, weights)
            rows = np.flatnonzero(~np.isfinite(np.hstack([est, batch_truths])).all(axis=1))
            if rows.size:
                bad.append(start + int(rows[0]))
                return
            outcomes[start:stop] = est
            truths[start:stop] = batch_truths

    # Lane k draws into draws[k] and records into records[k].  One array
    # of each for all lanes, not one per lane: a preset ensemble then
    # allocates what a one-lane call does, and glibc hands the next call
    # the heap this one frees.  Per-lane arrays half that size were
    # trimmed from the heap after each call and faulted in again, 1700
    # pages per ensemble.
    draws = np.empty((lanes, batch, total))
    records = np.empty((lanes, batch, ro.n_steps))
    # Leaving the block waits for every lane, also when lane 0 raises.
    with ThreadPoolExecutor(max(lanes - 1, 1), thread_name_prefix="levamp") as pool:
        futures = [pool.submit(lane, k, draws[k], records[k]) for k in range(1, lanes)]
        lane(0, draws[0], records[0])
    for future in futures:
        future.result()
    if bad:
        raise RuntimeError(f"trial {min(bad)} produced a non-finite result; ensemble aborted")

    return Ensemble(
        r=schedule.squeeze_ratio,
        tau_s=schedule.tau_s,
        mode=schedule.mode,
        outcomes=outcomes,
        truths=truths,
        est_cov=est_cov,
    )


def simulate_trial(
    schedule: ProtocolSchedule,
    params: OscillatorParams,
    master_seed: int,
    trial_index: int,
    *,
    dt_per_period: int = DEFAULT_DT_PER_PERIOD,
) -> tuple[np.ndarray, list[MeasurementRecord]]:
    """Re-run one trial, returning its true state at t_zero and its readout record.

    This is :func:`run_ensemble`'s simulation at a batch of one, so the
    truth equals that trial's ensemble row bit for bit.  The list holds
    the readout record alone, which starts exactly at t_zero, so feeding
    it through :func:`levamp.estimation.estimate_trial_outcome`
    reproduces the outcome's mean and covariance bit for bit: the replay
    reads the same cached retrodiction weights and sums the record in
    the same order.
    """
    plans, total = _plan_segments(schedule, params, dt_per_period)
    ro = plans[-1]
    truths, y = _simulate_batch(
        trial_index, trial_index + 1, plans, master_seed, _trial_init_std(params),
        np.empty((1, total)), np.empty((1, ro.n_steps)),
    )
    record = MeasurementRecord(
        t0=schedule.t_zero, dt=ro.dt, samples=y[0], gate=np.ones(ro.n_steps, dtype=bool)
    )
    return truths[0], [record]


def run_schedule_noiseless(
    schedule: ProtocolSchedule,
    params: OscillatorParams,
    state: GaussianState,
) -> GaussianState:
    """Deterministic protocol map with diffusion and detection off.

    Runs the segments of :func:`_walk` up to t_zero: a kick riding on the
    readout is applied last, and the readout rotation is left out.  The
    amplified map sends mean (Q0, P0) with kick dP to (-Q0 + r dP, -P0)
    and returns the covariance to its initial value.
    """
    *before, (kick_dp, _, _) = _walk(schedule, params)  # the readout is last
    for dp, model, duration in before:
        if dp is not None:
            state = apply_impulse(state, dp)
        state = propagate(state, model.noiseless(), duration)
    return state if kick_dp is None else apply_impulse(state, kick_dp)


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class EnsembleStats:
    """Signal-axis summary of an ensemble with jackknife errors.

    ``cov`` is the 2x2 sample covariance of the outcomes, the matrix
    behind the phase-space scatter ellipse; its eigenvalue square roots
    are the ellipse semi-axes.
    """

    n: int
    axis: str
    signal_mean: float
    signal_mean_se: float
    sigma: float
    sigma_se: float
    cov: np.ndarray


def _jackknife_std_se(x: np.ndarray) -> float:
    """Standard error of the sample std via leave-one-out jackknife.

    Uses the closed-form O(n) update of the leave-one-out sum of
    squares instead of n full recomputations.
    """
    n = x.size
    mean = x.mean()
    dev = x - mean
    ss = float(dev @ dev)
    loo_ss = ss - dev**2 * (n / (n - 1.0))
    loo_std = np.sqrt(np.maximum(loo_ss, 0.0) / (n - 2.0))
    return float(np.sqrt((n - 1.0) / n * np.sum((loo_std - loo_std.mean()) ** 2)))


def ensemble_stats(ensemble: Ensemble) -> EnsembleStats:
    """Means and spreads along the signal axis, with standard errors.

    The signal axis is Q for amplified ensembles (the kick emerges as
    a position displacement) and P for conventional ones.
    """
    n = ensemble.n_trials
    if n < MIN_STATS_TRIALS:
        raise ValueError(f"need at least {MIN_STATS_TRIALS} trials for ensemble statistics")
    axis = ensemble.signal_axis
    signal = ensemble.outcomes[:, axis]
    sigma = float(signal.std(ddof=1))
    centered = ensemble.outcomes - ensemble.outcomes.mean(axis=0)
    return EnsembleStats(
        n=n,
        axis="Q" if axis == 0 else "P",
        signal_mean=float(signal.mean()),
        signal_mean_se=sigma / math.sqrt(n),
        sigma=sigma,
        sigma_se=_jackknife_std_se(signal),
        cov=centered.T @ centered / (n - 1.0),
    )


@dataclass(frozen=True)
class DisplacementFit:
    """Weighted straight-line-through-origin fit of displacement vs tau."""

    r: float
    k: float
    k_se: float


def fit_displacement_vs_tau(ensembles) -> DisplacementFit:
    """Fit signal displacement = k * tau across pulse lengths.

    Expects ensembles sharing one squeeze ratio and differing in tau;
    at least three distinct pulse lengths are required for a
    meaningful slope and residual check.
    """
    ensembles = list(ensembles)
    taus = np.array([e.tau_s for e in ensembles])
    if np.unique(taus).size < 3:
        raise ValueError("need at least three distinct pulse lengths to fit the scaling")
    rs = {round(e.r, 12) for e in ensembles}
    if len(rs) != 1:
        raise ValueError("all ensembles in a scaling fit must share one squeeze ratio")
    stats = [ensemble_stats(e) for e in ensembles]
    y = np.array([s.signal_mean for s in stats])
    se = np.array([s.signal_mean_se for s in stats])
    k, k_se = _fit_through_origin(taus, y, se)
    return DisplacementFit(r=ensembles[0].r, k=k, k_se=k_se)


def fit_k1(fits) -> tuple[float, float]:
    """Reduce per-ratio slopes k(r) to the bare impulse rate k1.

    The amplified displacement is r times the transferred momentum, so
    k(r) = k1 * r with k1 = kappa_imp * U_p.  Weighted fit through the
    origin over at least two distinct ratios.
    """
    fits = list(fits)
    rs = np.array([f.r for f in fits])
    if np.unique(rs).size < 2:
        raise ValueError("need at least two distinct squeeze ratios to fit k1")
    ks = np.array([f.k for f in fits])
    ses = np.array([f.k_se for f in fits])
    return _fit_through_origin(rs, ks, ses)


def _fit_through_origin(x, y, se) -> tuple[float, float]:
    """Slope and its standard error of y = slope * x, weighted by 1/se²."""
    w = 1.0 / se**2
    denom = float(np.sum(w * x**2))
    return float(np.sum(w * x * y) / denom), 1.0 / math.sqrt(denom)


# ---------------------------------------------------------------------------
# noise budget, ensemble grids and sensitivity


@dataclass(frozen=True)
class NoiseBudget:
    """Closed-form variance budget of the amplified position signal."""

    sigma_qi_sq: float
    sigma_qf_sq: float
    recoil_term: float
    sigma_tot: float


def noise_budget(params: OscillatorParams, r: float) -> NoiseBudget:
    """Predicted total position noise after amplification by r.

    Thermal preparation contributes 2 n + 1, retrodiction with
    efficiency eta contributes 1/sqrt(eta), and recoil heating over
    the soft span adds 2 pi gamma_qb r / Omega.  A conventional run
    (r = 1) has no soft span and hence no recoil term.
    """
    _check_ratio(r)
    sigma_qi_sq = 2.0 * params.n_init + 1.0
    sigma_qf_sq = 1.0 / math.sqrt(params.eta)
    recoil = 2.0 * math.pi * params.gamma_qb * r / params.omega if r > 1.0 else 0.0
    return NoiseBudget(
        sigma_qi_sq=sigma_qi_sq,
        sigma_qf_sq=sigma_qf_sq,
        recoil_term=recoil,
        sigma_tot=math.sqrt(sigma_qi_sq + sigma_qf_sq + recoil),
    )


@dataclass(frozen=True)
class SensitivityPoint:
    r: float
    sigma_tot: float
    dp_min_zp: float
    dp_min_kev_c: float
    db_vs_sqrt2pzp: float
    db_vs_pzp: float


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-ensemble seed derived from the master seed.

    Uses the splitting guarantees of numpy's SeedSequence, so derived
    streams never collide with each other or with the per-trial
    streams of any run, on any platform.
    """
    seq = np.random.SeedSequence([int(master_seed), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


def run_grid(
    params: OscillatorParams,
    points,
    n_trials: int,
    master_seed: int,
    *,
    readout_periods: float = DEFAULT_READOUT_PERIODS,
    dt_per_period: int = DEFAULT_DT_PER_PERIOD,
    workers: int = 1,
) -> list[Ensemble]:
    """One ensemble per (r, tau_s) point, in the order given.

    Point j runs the :func:`build_for_ratio` schedule with a readout of
    ``readout_periods`` base periods, seeded by
    ``derive_seed(master_seed, j)``.  The ensembles run one after
    another, each on ``workers`` threads.
    """
    readout = readout_periods * params.period_s
    return [
        run_ensemble(
            build_for_ratio(params, r, tau_s, readout), params, n_trials,
            derive_seed(master_seed, j), dt_per_period=dt_per_period, workers=workers,
        )
        for j, (r, tau_s) in enumerate(points)
    ]


def sensitivity_curve(
    params: OscillatorParams,
    r_grid,
    n_trials: int,
    master_seed: int,
    *,
    readout_periods: float = DEFAULT_READOUT_PERIODS,
    dt_per_period: int = DEFAULT_DT_PER_PERIOD,
    workers: int = 1,
) -> tuple[SensitivityPoint, ...]:
    """Monte-Carlo minimum resolvable impulse across squeeze ratios.

    Runs a null (dP = 0) ensemble per ratio; the spread of the
    retrodicted signal divided by r is the single-trial impulse
    resolution.  r = 1 entries use the conventional schedule, which
    has no soft span.  Reported in zp units, in keV/c through the
    configured zero-point momentum, and in dB relative to both the
    ideal-system resolution sqrt(2) p_zp and to p_zp itself.
    """
    rs = [float(r) for r in r_grid]
    for r in rs:
        _check_ratio(r)
    ensembles = run_grid(
        params, [(r, 0.0) for r in rs], n_trials, master_seed,
        readout_periods=readout_periods, dt_per_period=dt_per_period, workers=workers,
    )
    p_zp_kev = params.p_zp_report_kev_c()
    points = []
    for r, ensemble in zip(rs, ensembles):
        sigma = ensemble_stats(ensemble).sigma
        dp_zp = sigma / r
        dp_kev = dp_zp * p_zp_kev
        points.append(
            SensitivityPoint(
                r=r,
                sigma_tot=sigma,
                dp_min_zp=dp_zp,
                dp_min_kev_c=dp_kev,
                db_vs_sqrt2pzp=db_ratio(dp_kev, math.sqrt(2.0) * p_zp_kev),
                db_vs_pzp=db_ratio(dp_kev, p_zp_kev),
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# CSV emission (9 significant digits throughout)


def _write_csv(path, header: str, rows) -> None:
    """Write the header and one line per row: a str cell as it is (the
    trial index, integer text for any n), any other cell as a float."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else format(float(c), ".9g")
                              for c in row) + "\n")


def write_ensemble_csv(ensemble: Ensemble, path) -> None:
    """One row per trial: its index, retrodicted (Q, P) and true (Q, P)."""
    table = np.hstack([ensemble.outcomes, ensemble.truths]).tolist()
    _write_csv(path, "trial_index,q_est,p_est,q_true,p_true",
               ([str(i), *row] for i, row in enumerate(table)))


def scaling_rows(ensembles) -> list[tuple[float, float, float, float]]:
    """One (r, tau_s, dq_mean, dq_se) row per ensemble, stably sorted by tau_s."""
    rows = []
    for e in sorted(ensembles, key=lambda e: e.tau_s):
        stats = ensemble_stats(e)
        rows.append((e.r, e.tau_s, stats.signal_mean, stats.signal_mean_se))
    return rows


def write_scaling_csv(rows, path) -> None:
    """One row per (r, tau) ensemble: mean displacement and its SE."""
    _write_csv(path, "r,tau_s,dq_mean,dq_se", rows)


def write_sensitivity_csv(curve: tuple[SensitivityPoint, ...], path) -> None:
    """One row per squeeze ratio of a :func:`sensitivity_curve`."""
    _write_csv(
        path, "r,sigma_tot,dp_min_zp,dp_min_kev_c,db_vs_ideal,db_vs_pzp",
        ((pt.r, pt.sigma_tot, pt.dp_min_zp, pt.dp_min_kev_c, pt.db_vs_sqrt2pzp, pt.db_vs_pzp)
         for pt in curve),
    )
