"""State estimation from position records: filtering and retrodiction.

The estimator shares its discrete-time transition matrices with the
simulator, so there is no model mismatch between data generation and
inference.  Three entry points matter:

* :func:`kalman_forward` runs the standard forward filter and is used
  for steady-state diagnostics and filtered traces.
* :func:`retrodict` runs a backward information-form filter under the
  time-reversed dynamics (A -> -A, same diffusion, same readout) from
  an uninformative prior.  It yields the best estimate of the state at
  a past time conditioned only on later data, which is exactly what a
  kick experiment needs: the state right after the protocol, inferred
  from the readout that follows it.
* :func:`riccati_steady_state` gives the conditional-covariance floor
  the forward filter settles to; with detection efficiency eta its
  position entry approaches 1/sqrt(eta) in zp units.

Measurement convention, shared with the simulator: a record sample
y_k = sqrt(meas_rate) Q(t_k) + xi_k / sqrt(dt) refers to the state at
t_k before the step to t_k + dt.  Updates therefore happen on arrival
at a sample time, prediction bridges between sample times.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import (
    DynamicsModel,
    _check_dt,
    _check_pd,
    _joseph_update,
    base_model,
    transition,
)
from .protocol import require_valid
from .records import MeasurementRecord
from .state import _as_cov, _as_mean

# The retrodiction prior is effectively flat: covariance PRIOR_SCALE
# times identity. Results are insensitive to the scale over several
# orders of magnitude because the information filter forgets it within
# a few measurement time constants.
PRIOR_SCALE = 1e6

# EstimationModel mirrors DynamicsModel entry for entry (drift,
# diffusion, readout gain), so a single type serves both roles.
EstimationModel = DynamicsModel


def readout_model(params) -> EstimationModel:
    """Estimation model for the readout: stiff trap, detection on.

    meas_rate = 4 eta gamma_qb, momentum diffusion 4 gamma_qb, no
    feedback.
    """
    return base_model(params, measurement_on=True, feedback_on=False)


@dataclass(frozen=True)
class FilterState:
    """A conditional Gaussian estimate at one instant."""

    estimate: np.ndarray
    cov: np.ndarray
    t: float
    direction: str = "forward"

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimate", _as_mean(self.estimate))
        object.__setattr__(self, "cov", _as_cov(self.cov))
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")


@dataclass(frozen=True)
class FilterTrajectory:
    """Filter output at every sample time (post-update values)."""

    t: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    covs: np.ndarray = field(repr=False)
    direction: str = "forward"

    def __len__(self) -> int:
        return self.t.size

    @property
    def final(self) -> FilterState:
        return FilterState(
            estimate=self.means[-1],
            cov=self.covs[-1],
            t=float(self.t[-1]),
            direction=self.direction,
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "q_hat", "p_hat", "v_qq", "v_qp", "v_pp"])
            for k in range(len(self)):
                writer.writerow(
                    format(x, ".9g")
                    for x in (
                        self.t[k],
                        self.means[k, 0],
                        self.means[k, 1],
                        self.covs[k, 0, 0],
                        self.covs[k, 0, 1],
                        self.covs[k, 1, 1],
                    )
                )


def _measurement_update(mean, cov, y, sqrt_k, inv_dt):
    """Exact conditional update of (mean, cov) on one record sample."""
    gain, _, cov = _joseph_update(cov, sqrt_k, inv_dt)
    return mean + gain * (y - sqrt_k * mean[0]), cov


def kalman_forward(
    record: MeasurementRecord, model: EstimationModel, init: FilterState
) -> FilterTrajectory:
    """Run the forward filter across a record.

    The trajectory holds the post-update estimate at each sample time.
    The final covariance approaches the steady Riccati solution
    whatever the (positive definite) initial covariance.
    """
    if not record.all_gated_on():
        raise ValueError("forward filtering requires a fully gated-on record")
    if len(record) == 0:
        raise ValueError("empty record")
    _check_dt(model, record.dt)
    if init.t > record.t0 + 1e-12 * record.dt:
        raise ValueError("init time must not be later than the record start")

    n = len(record)
    sqrt_k = math.sqrt(model.meas_rate)
    inv_dt = 1.0 / record.dt
    f, qd = transition(model, record.dt)

    mean = init.estimate.copy()
    cov = init.cov.copy()
    gap = record.t0 - init.t
    if gap > 1e-12 * record.dt:
        f_gap, qd_gap = transition(model, gap)
        mean = f_gap @ mean
        cov = f_gap @ cov @ f_gap.T + qd_gap

    times = record.times
    means = np.empty((n, 2))
    covs = np.empty((n, 2, 2))
    for k in range(n):
        if k > 0:
            mean = f @ mean
            cov = f @ cov @ f.T + qd
        if model.meas_rate > 0.0:
            mean, cov = _measurement_update(mean, cov, record.samples[k], sqrt_k, inv_dt)
        _check_pd(cov, times[k])
        means[k] = mean
        covs[k] = cov
    return FilterTrajectory(t=times, means=means, covs=covs, direction="forward")


def _backward_ops(model: DynamicsModel, dt: float):
    """Transition and process noise for one time-reversed step."""
    f, qd = transition(model, dt)
    finv = np.linalg.inv(f)
    qrev = finv @ qd @ finv.T
    return finv, 0.5 * (qrev + qrev.T)


def retrodict(
    record: MeasurementRecord,
    model: EstimationModel,
    target_time: float,
    prior_scale: float = PRIOR_SCALE,
) -> FilterState:
    """Estimate the state at ``target_time`` from a later record.

    Runs the backward filter from the last sample down to the first,
    then bridges any remaining gap to ``target_time`` under the
    time-reversed dynamics.  Gated-off samples contribute no update
    but still advance the (backward) prediction.
    """
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

    n = len(record)
    sqrt_k = math.sqrt(model.meas_rate)
    inv_dt = 1.0 / record.dt
    finv, qrev = _backward_ops(model, record.dt)

    mean = np.zeros(2)
    cov = prior_scale * np.eye(2)
    for k in range(n - 1, -1, -1):
        if record.gate[k] and model.meas_rate > 0.0:
            mean, cov = _measurement_update(mean, cov, record.samples[k], sqrt_k, inv_dt)
            _check_pd(cov, record.t0 + k * record.dt)
        if k > 0:
            mean = finv @ mean
            cov = finv @ cov @ finv.T + qrev

    gap = record.t0 - target_time
    if gap > 1e-12 * record.dt:
        finv_gap, qrev_gap = _backward_ops(model, gap)
        mean = finv_gap @ mean
        cov = finv_gap @ cov @ finv_gap.T + qrev_gap

    return FilterState(estimate=mean, cov=cov, t=float(target_time), direction="backward")


def retrodiction_schedule(
    model: EstimationModel, dt: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, cov_target) of :func:`retrodict` on any fully gated-on record.

    For n samples spaced dt the mean at the first sample time is
    mean = record · weights, weights being (n, 2); cov_target does not
    depend on the record.  With gains g_j counted from the last sample,
    each update-then-step maps the mean by (I - sqrt_k g_j e0ᵀ) finv;
    one backward fold of those maps gives every sample's weight.

    The fold is computed once per backward step (finv, qrev, sqrt_k,
    dt, n) and cached; every call returns fresh arrays.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one sample")
    if model.meas_rate <= 0.0:
        raise ValueError("retrodiction schedule needs meas_rate > 0")
    _check_dt(model, dt)
    finv, qrev = _backward_ops(model, dt)
    weights, cov = _fold_schedule(
        tuple(finv.ravel().tolist()),
        tuple(qrev.ravel().tolist()),
        math.sqrt(model.meas_rate),
        1.0 / dt,
        n,
    )
    return weights.copy(), cov.copy()


@lru_cache(maxsize=16)
def _fold_schedule(finv_flat, qrev_flat, sqrt_k, inv_dt, n):
    finv = np.array(finv_flat).reshape(2, 2)
    qrev = np.array(qrev_flat).reshape(2, 2)
    gains = np.empty((n, 2))
    cov = PRIOR_SCALE * np.eye(2)
    for j in range(n):
        gains[j], _, cov = _joseph_update(cov, sqrt_k, inv_dt)
        if j < n - 1:
            cov = finv @ cov @ finv.T + qrev

    steps = finv - sqrt_k * gains[:, :, None] * finv[0]
    phis = np.empty((n, 2, 2))
    phi = np.eye(2)
    for j in range(n - 1, -1, -1):
        phis[j] = phi
        phi = phi @ steps[j]
    return np.einsum("jab,jb->ja", phis[::-1], gains[::-1]), cov


def riccati_steady_state(model: EstimationModel, steps_per_period: int = 200) -> np.ndarray:
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

    cov = np.eye(2)
    previous = None
    for _ in range(100_000):
        acc = np.zeros((2, 2))
        for _ in range(steps_per_period):
            _, _, cov = _joseph_update(cov, sqrt_k, inv_dt)
            acc += cov
            cov = f @ cov @ f.T + qd
        avg = acc / steps_per_period
        if not np.all(np.isfinite(avg)) or avg[0, 0] > 1e12:
            raise RuntimeError("steady-state covariance iteration diverged")
        if previous is not None and np.max(np.abs(avg - previous)) < 1e-10:
            return avg
        previous = avg
    raise RuntimeError(
        "steady-state covariance iteration did not converge; "
        "is the model detectable?"
    )


def estimate_trial_outcome(
    records, model: EstimationModel, schedule
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
