"""State estimation from position records: retrodiction and the steady state.

The estimator shares its discrete-time transition matrices with the
simulator, so there is no model mismatch between data generation and
inference.  Two entry points matter:

* :func:`retrodict` runs a backward filter under the time-reversed
  dynamics (A -> -A, same diffusion, same readout) from an effectively
  flat prior, the backward half of the two-filter smoother (Fraser &
  Potter, IEEE TAC 14, 387 (1969)).  It yields the best estimate of the
  state at a past time conditioned only on later data, which is exactly
  what a kick experiment needs: the state right after the protocol,
  inferred from the readout that follows it.
* :func:`riccati_steady_state` gives the conditional-covariance floor
  a forward filter settles to; with detection efficiency eta its
  position entry approaches 1/sqrt(eta) in zp units.

The covariance of both follows a Riccati recursion that never reads
the record.  So :func:`retrodict` is a cached fold: per (backward step,
gate, prior scale) the recursion runs once and yields weights with
mean = record · weights, which :func:`retrodiction_schedule` also hands
to the batched ensemble.  The recursion itself steps the three Python
floats of the symmetric 2x2 covariance through
``dynamics._joseph_update`` and ``dynamics._predict``.

Measurement convention, shared with the simulator: a record sample
y_k = sqrt(meas_rate) Q(t_k) + xi_k / sqrt(dt) refers to the state at
t_k before the step to t_k + dt.  Updates therefore happen on arrival
at a sample time, prediction bridges between sample times.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import filter_backward
from .dynamics import (
    CovarianceError,
    DynamicsModel,
    _check_dt,
    _check_pd,
    _flat,
    _joseph_update,
    _mat,
    _predict,
    _sym,
    base_model,
    transition,
)
from .protocol import require_valid
from .records import MeasurementRecord
from .state import _as_cov, _as_mean

# The retrodiction prior is nearly flat: covariance PRIOR_SCALE times
# identity. The scale still shows in the results: on 1000-sample
# simulated readouts (r = sqrt 12, 5 periods), going from 1e6 to 1e12
# moves the estimate by 3e-7 to 1.3e-6 relative and the covariance by
# 5.0e-7, both visible in 9-digit CSVs. ROADMAP item 9 (an exactly flat
# prior in information form) would remove it.
PRIOR_SCALE = 1e6


def readout_model(params) -> DynamicsModel:
    """Estimation model for the readout: stiff trap, detection on.

    meas_rate = 4 eta gamma_qb, momentum diffusion 4 gamma_qb.
    """
    return base_model(params, measurement_on=True)


@dataclass(frozen=True)
class FilterState:
    """A conditional Gaussian estimate at one instant."""

    estimate: np.ndarray
    cov: np.ndarray
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimate", _as_mean(self.estimate))
        object.__setattr__(self, "cov", _as_cov(self.cov))


def _backward_ops(model: DynamicsModel, dt: float):
    """Transition and process noise for one time-reversed step, as floats."""
    f, qd = transition(model, dt)
    finv = _flat(np.linalg.inv(f))
    return finv, _predict(_sym(qd), finv, (0.0, 0.0, 0.0))


def retrodict(
    record: MeasurementRecord,
    model: DynamicsModel,
    target_time: float,
    prior_scale: float = PRIOR_SCALE,
) -> FilterState:
    """Estimate the state at ``target_time`` from a later record.

    The backward filter from the last sample down to the first is the
    cached fold of :func:`retrodiction_schedule`, keyed also by the
    record's gate and ``prior_scale``: the mean at the first sample is
    record · weights, gated-off samples weighing zero.  Any remaining
    gap to ``target_time`` is bridged under the time-reversed dynamics.
    """
    if not (prior_scale > 0.0 and math.isfinite(prior_scale)):
        raise ValueError(f"prior_scale must be positive and finite, got {prior_scale!r}")
    if len(record) == 0:
        raise ValueError("empty record")
    _check_dt(model, record.dt)
    min_span = model.local_period
    if record.duration < min_span * (1.0 - 1e-9):
        raise ValueError(
            f"record too short for retrodiction: spans {record.duration:.6e} s, "
            f"need at least one base period ({min_span:.6e} s)"
        )
    if target_time > record.t0 + 1e-12 * record.dt:
        raise ValueError("target_time must not be later than the record start")

    finv, qrev = _backward_ops(model, record.dt)
    try:
        weights, cov = _fold_schedule(
            finv, qrev, math.sqrt(model.meas_rate), record.dt,
            record.gate.tobytes(), float(prior_scale),
        )
    except CovarianceError as err:
        t = record.t0 + err.t
        raise CovarianceError(
            f"retrodiction lost positive definiteness at t = {t:.6e} s", t
        ) from err
    mean = filter_backward(np.where(record.gate, record.samples, 0.0)[None], weights)[0]

    gap = record.t0 - target_time
    if gap > 1e-12 * record.dt:
        finv_gap, qrev_gap = _backward_ops(model, gap)
        mean = np.reshape(finv_gap, (2, 2)) @ mean
        cov = _predict(cov, finv_gap, qrev_gap)

    return FilterState(estimate=mean, cov=_mat(cov), t=float(target_time))


def retrodiction_schedule(
    model: DynamicsModel, dt: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, cov_target) of :func:`retrodict` on any fully gated-on record.

    For n samples spaced dt the mean at the first sample time is
    mean = record · weights, weights being (n, 2); cov_target does not
    depend on the record.  Every call returns fresh arrays.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one sample")
    if model.meas_rate <= 0.0:
        raise ValueError("retrodiction schedule needs meas_rate > 0")
    _check_dt(model, dt)
    finv, qrev = _backward_ops(model, dt)
    weights, cov = _fold_schedule(
        finv, qrev, math.sqrt(model.meas_rate), dt,
        np.ones(n, dtype=bool).tobytes(), PRIOR_SCALE,
    )
    return weights.copy(), _mat(cov)


@lru_cache(maxsize=16)
def _fold_schedule(finv, qrev, sqrt_k, dt, gate, prior_scale):
    """Backward filter over samples spaced dt, folded into record weights.

    ``gate`` holds the bytes of the record's bool gate.  Runs the
    covariance from prior_scale * I at the last sample down to the
    first, checking it after every update (times counted from the first
    sample), then folds the maps the mean goes through: with gain g_k at
    sample k, mean = sum_k phi_k g_k y_k, where phi_0 = I and
    phi_{k+1} = phi_k (I - sqrt_k g_k e0ᵀ) finv.  Returns read-only
    weights (n, 2) and the covariance at the first sample as
    (V_qq, V_qp, V_pp); neither depends on the record's values.
    """
    on = np.frombuffer(gate, dtype=bool).tolist()
    n = len(on)
    inv_dt = 1.0 / dt
    gains = [(0.0, 0.0)] * n  # a gated-off sample gets zero gain
    cov = (prior_scale, 0.0, prior_scale)
    for k in range(n - 1, -1, -1):
        if on[k]:
            gains[k], cov = _joseph_update(cov, sqrt_k, inv_dt)
            _check_pd(cov, k * dt)
        if k > 0:
            cov = _predict(cov, finv, qrev)

    f00, f01, f10, f11 = finv
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    weights = []
    for gq, gp in gains:
        weights.append((p00 * gq + p01 * gp, p10 * gq + p11 * gp))
        # (I - sqrt_k g e0ᵀ) finv = [[a f00, a f01], [b f00 + f10, b f01 + f11]]
        a = 1.0 - sqrt_k * gq
        b = -sqrt_k * gp
        s00, s01, s10, s11 = a * f00, a * f01, b * f00 + f10, b * f01 + f11
        p00, p01, p10, p11 = (
            p00 * s00 + p01 * s10, p00 * s01 + p01 * s11,
            p10 * s00 + p11 * s10, p10 * s01 + p11 * s11,
        )
    weights = np.array(weights)
    weights.flags.writeable = False
    return weights, cov


def riccati_steady_state(model: DynamicsModel, steps_per_period: int = 200) -> np.ndarray:
    """Period-averaged steady conditional covariance of the filter.

    Iterates the discrete measure-and-predict recursion from V = I
    and averages the post-update covariance over each local period
    until the average moves by less than 1e-10 per period.
    """
    if model.meas_rate <= 0.0:
        raise ValueError("riccati_steady_state needs meas_rate > 0")
    dt = model.local_period / steps_per_period
    sqrt_k = math.sqrt(model.meas_rate)
    inv_dt = 1.0 / dt
    f, qd = transition(model, dt)
    f, q = _flat(f), _sym(qd)

    cov = (1.0, 0.0, 1.0)
    previous = None
    for _ in range(100_000):
        acc_qq = acc_qp = acc_pp = 0.0
        for _ in range(steps_per_period):
            _, cov = _joseph_update(cov, sqrt_k, inv_dt)
            acc_qq += cov[0]
            acc_qp += cov[1]
            acc_pp += cov[2]
            cov = _predict(cov, f, q)
        avg = tuple(acc / steps_per_period for acc in (acc_qq, acc_qp, acc_pp))
        if not all(map(math.isfinite, avg)) or avg[0] > 1e12:
            raise RuntimeError("steady-state covariance iteration diverged")
        if previous is not None and max(abs(a - b) for a, b in zip(avg, previous)) < 1e-10:
            return _mat(avg)
        previous = avg
    raise RuntimeError(
        "steady-state covariance iteration did not converge; "
        "is the model detectable?"
    )


def estimate_trial_outcome(
    records, model: DynamicsModel, schedule
) -> FilterState:
    """Best (Q, P) estimate right after the protocol, with covariance.

    Retrodicts from the post-protocol record back to the schedule's
    reference time t_zero (which for the conventional sequence is the
    kick time itself). ``records`` may be a single record or any
    iterable containing the trial's records; the one starting at or
    after t_zero is used.
    """
    require_valid(schedule)
    if isinstance(records, MeasurementRecord):
        candidates = [records]
    else:
        candidates = list(records)
    tol = 1e-9 * schedule.readout_duration
    post = [r for r in candidates if r.t0 >= schedule.t_zero - tol]
    if not post:
        raise ValueError("no post-protocol record found (need one starting at t_zero)")
    post.sort(key=lambda r: r.t0)
    return retrodict(post[0], model, schedule.t_zero)
