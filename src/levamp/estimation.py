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
gate) the recursion runs once and yields weights with
mean = record · weights, which :func:`retrodiction_schedule` also hands
to the batched ensemble.  The recursion itself steps the three Python
floats of the symmetric 2x2 covariance through
``dynamics._joseph_update`` and ``dynamics._predict``.  The steady state
is that recursion's fixed point, which :func:`riccati_steady_state`
reaches by doubling: k doublings cover 2^k steps.

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


def retrodict(record: MeasurementRecord, model: DynamicsModel) -> FilterState:
    """Estimate the state at the record's first sample from the record.

    The backward filter from the last sample down to the first is the
    cached fold of :func:`retrodiction_schedule`, keyed also by the
    record's gate: the mean at ``record.t0`` is record · weights,
    gated-off samples weighing zero.  The record must span at least one
    base period.
    """
    min_span = model.local_period
    if record.duration < min_span * (1.0 - 1e-9):
        raise ValueError(
            f"record too short for retrodiction: spans {record.duration:.6e} s, "
            f"need at least one base period ({min_span:.6e} s)"
        )
    weights, cov = _checked_fold(model, record.dt, record.gate.tobytes(), record.t0)
    mean = filter_backward(np.where(record.gate, record.samples, 0.0)[None], weights)[0]
    return FilterState(estimate=mean, cov=_mat(cov), t=float(record.t0))


def retrodiction_schedule(
    model: DynamicsModel, dt: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, cov_target) of :func:`retrodict` on any fully gated-on record.

    For n samples spaced dt the mean at the first sample time is
    mean = record · weights, weights being (n, 2); cov_target does not
    depend on the record.  Every call returns fresh arrays.
    """
    # n gated-on samples, as the bytes of a bool gate (none if n < 1)
    weights, cov = _checked_fold(model, dt, b"\x01" * operator.index(n))
    return weights.copy(), _mat(cov)


def _checked_fold(model: DynamicsModel, dt: float, gate: bytes, t0: float = 0.0):
    """The cached fold for samples spaced dt from t0, after checking its inputs.

    A covariance that loses positive definiteness is reported at its
    sample's time, counted from ``t0``.
    """
    if len(gate) < 1:
        raise ValueError("need at least one sample")
    if model.meas_rate <= 0.0:
        raise ValueError("retrodiction needs meas_rate > 0")
    _check_dt(model, dt)
    finv, qrev = _backward_ops(model, dt)
    try:
        return _fold_schedule(finv, qrev, math.sqrt(model.meas_rate), dt, gate)
    except CovarianceError as err:
        t = t0 + err.t
        raise CovarianceError(
            f"retrodiction lost positive definiteness at t = {t:.6e} s", t
        ) from err


@lru_cache(maxsize=16)
def _fold_schedule(finv, qrev, sqrt_k, dt, gate):
    """Backward filter over samples spaced dt, folded into record weights.

    ``gate`` holds the bytes of the record's bool gate.  Runs the
    covariance from PRIOR_SCALE * I at the last sample down to the
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
    cov = (PRIOR_SCALE, 0.0, PRIOR_SCALE)
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
    """Steady conditional covariance of the filter, just after an update.

    The fixed point of the measure-and-predict recursion at
    ``steps_per_period`` samples per local period, found by doubling
    (Anderson & Moore, *Optimal Filtering*, 1979): with A = Fᵀ,
    G = diag(meas_rate dt, 0) and H = Q_d, each doubling sets
    W = (I + G H)⁻¹, then A <- A W A, G <- G + A W G Aᵀ and
    H <- H + Aᵀ H W A, so that after k doublings H is the prior
    covariance 2^k steps on from zero.  H stops changing after a dozen
    or so doublings; its Joseph update is returned.
    """
    steps_per_period = operator.index(steps_per_period)
    if steps_per_period < 1:
        raise ValueError("need at least one step per period")
    if model.meas_rate <= 0.0:
        raise ValueError("riccati_steady_state needs meas_rate > 0")
    dt = model.local_period / steps_per_period
    _check_dt(model, dt)
    f, qd = transition(model, dt)
    f00, f01, f10, f11 = _flat(f)
    a = (f00, f10, f01, f11)
    g = (model.meas_rate * dt, 0.0, 0.0)
    h = _sym(qd)
    for _ in range(64):  # 2^64 steps: an H still moving by then never settles
        gf, hf = _full(g), _full(h)
        m00, m01, m10, m11 = _product(gf, hf)  # G H
        m00 += 1.0
        m11 += 1.0
        det = m00 * m11 - m01 * m10
        w = (m11 / det, -m01 / det, -m10 / det, m00 / det)
        a00, a01, a10, a11 = a
        g = _predict(_symmetrized(_product(w, gf)), a, g)
        h_next = _predict(_symmetrized(_product(hf, w)), (a00, a10, a01, a11), h)
        a = _product(_product(a, w), a)
        if not all(map(math.isfinite, h_next)):
            raise RuntimeError("steady-state covariance doubling diverged")
        if h_next == h:
            _, cov = _joseph_update(h, math.sqrt(model.meas_rate), 1.0 / dt)
            return _mat(cov)
        h = h_next
    raise RuntimeError(
        "steady-state covariance doubling did not converge; "
        "is the model detectable?"
    )


def _full(v):
    """A symmetric (V_qq, V_qp, V_pp) as a general 2x2 of four floats."""
    return v[0], v[1], v[1], v[2]


def _symmetrized(x):
    """A 2x2 of four floats that is symmetric up to rounding, as three."""
    return x[0], 0.5 * (x[1] + x[2]), x[3]


def _product(x, y):
    """Product of two general 2x2 matrices, each four floats."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (
        x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
        x10 * y00 + x11 * y10, x10 * y01 + x11 * y11,
    )


def estimate_trial_outcome(
    records, model: DynamicsModel, schedule
) -> FilterState:
    """Best (Q, P) estimate right after the protocol, with covariance.

    Retrodicts the post-protocol record back to its start, the
    schedule's reference time t_zero (which for the conventional
    sequence is the kick time itself). ``records`` may be a single
    record or any iterable containing the trial's records; the one
    starting at t_zero is used.
    """
    require_valid(schedule)
    if isinstance(records, MeasurementRecord):
        records = (records,)
    tol = 1e-9 * schedule.readout_duration
    for record in records:
        if abs(record.t0 - schedule.t_zero) <= tol:
            return retrodict(record, model)
    raise ValueError("no post-protocol record found (need one starting at t_zero)")
