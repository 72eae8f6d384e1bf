"""Piecewise-constant linear Gaussian dynamics of the trapped particle.

The oscillator is described in dimensionless quadratures (Q, P)
normalized to the zero-point spread of the trap at its base frequency.
That normalization is frozen for all times: when the trap is softened
from Omega to Omega/r the drift becomes [[0, Omega], [-Omega/r^2, 0]]
rather than a rescaled rotation, which is what turns a momentum kick
into an r-fold larger position displacement after half a soft period.

Each model is constant over a call to :func:`propagate`, so the
transition over any duration has a closed form and the moments need no
time step: one transition covers the whole duration to machine
rounding.  Every model is undamped, so the transition is an elliptic
rotation at the local frequency whose process noise integrates in
sines and cosines.  The tests check it against a Van Loan block
exponential (IEEE TAC 23, 395 (1978)).

Conventions for the stochastic part:

* ``diffusion_p`` is the momentum diffusion rate in zp units^2 per
  second.  The base value ``4 * gamma_qb`` makes the free heating law
  d<n>/dt = gamma_qb hold exactly.
* ``meas_rate`` is the information rate of the position record,
  ``4 * eta * gamma_qb`` with detection on.  It enters only where a
  record is generated or conditioned on (the trial simulator and the
  filters); :func:`propagate` returns the unconditional moments.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import operator

import numpy as np

from .state import GaussianState, _check_ratio, _is_pd

MIN_STEPS_PER_PERIOD = 50
DEFAULT_DT_PER_PERIOD = 200


class CovarianceError(RuntimeError):
    """Covariance lost positive definiteness during integration.

    Raised instead of clamping: a non positive definite covariance
    signals an integrator bug or an unstable model, and silently
    repairing it would corrupt every downstream statistic.  ``t`` is
    the time the failing check named.
    """

    def __init__(self, message: str, t: float | None = None) -> None:
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class DynamicsModel:
    """Constant-coefficient model for one protocol segment.

    Parameters
    ----------
    omega : float
        Base angular trap frequency in rad/s. Also the normalization
        frequency of the zp units.
    freq_ratio : float
        Local frequency over base frequency; 1 in the stiff trap and
        1/r during a soft phase. Must lie in (0, 1].
    diffusion_p : float
        Momentum diffusion in zp units^2 / s.
    meas_rate : float
        Measurement information rate in 1/s (0 with detection off).
    """

    omega: float
    freq_ratio: float = 1.0
    diffusion_p: float = 0.0
    meas_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive and finite")
        if not (0.0 < self.freq_ratio <= 1.0):
            raise ValueError("freq_ratio must be in (0, 1]")
        for name in ("diffusion_p", "meas_rate"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be nonnegative and finite")

    @property
    def local_period(self) -> float:
        """Oscillation period at the current stiffness, seconds."""
        return 2.0 * math.pi / (self.omega * self.freq_ratio)

    def noiseless(self) -> "DynamicsModel":
        """Copy with diffusion and measurement switched off."""
        return DynamicsModel(self.omega, self.freq_ratio)


def base_model(params, *, measurement_on: bool = True) -> DynamicsModel:
    """Model for the stiff trap, optionally with detection."""
    return DynamicsModel(
        omega=params.omega,
        freq_ratio=1.0,
        diffusion_p=4.0 * params.gamma_qb,
        meas_rate=4.0 * params.eta * params.gamma_qb if measurement_on else 0.0,
    )


def soft_model(params, r: float) -> DynamicsModel:
    """Model for the softened trap at squeeze ratio r >= 1.

    Soft power scales as 1/r^2, so the recoil diffusion drops by the
    same factor while detection is gated off entirely.
    """
    _check_ratio(r)
    return DynamicsModel(
        omega=params.omega,
        freq_ratio=1.0 / r,
        diffusion_p=4.0 * params.gamma_qb / r**2,
        meas_rate=0.0,
    )


# Taylor coefficients of (y - sin y) / y^3, used below y = 1, where the
# difference loses a digit or more; eight terms leave 5e-17.
_SIN_REMAINDER = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))


def _x_minus_sin_cos(x: float, s: float, c: float) -> float:
    """x - sin x cos x = (y - sin y) / 2 with y = 2x, for x >= 0."""
    y = 2.0 * x
    if y >= 1.0:
        return x - s * c
    y2 = y * y
    acc = 0.0
    for coef in reversed(_SIN_REMAINDER):
        acc = acc * y2 + coef
    return 0.5 * y * y2 * acc


def _undamped(model: DynamicsModel, dt: float):
    """Rotation at omega f and its noise integral."""
    f, d = model.freq_ratio, model.diffusion_p
    w = model.omega * f
    x = w * dt
    s, c = math.sin(x), math.cos(x)
    k = d / (2.0 * w)
    return (c, s / f, -f * s, c), (
        k * _x_minus_sin_cos(x, s, c) / (f * f),
        k * s * s / f,
        k * (x + s * c),
    )


def transition(model: DynamicsModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition matrix and process-noise covariance.

    Returns fresh arrays (F, Qd) with F = expm(A dt) and
    Qd = int_0^dt expm(A s) D expm(A s)^T ds, in closed form.  With
    x = omega f dt and d = ``diffusion_p``::

        F  = [[cos x, sin x / f], [-f sin x, cos x]]
        Qd = d / (2 omega f) [[(x - sin x cos x) / f^2, sin^2 x / f],
                              [sin^2 x / f,             x + sin x cos x]]

    ``dt = 0`` gives (I, 0).  Nothing is cached.

    Raises
    ------
    ValueError
        If dt is negative or not finite.
    """
    dt = float(dt)
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be nonnegative and finite, got {dt!r}")
    f, qd = _undamped(model, dt)
    return np.array(f).reshape(2, 2), _mat(qd)


def steps(model: DynamicsModel, duration: float, steps_per_period: int) -> tuple[int, float]:
    """(n, dt): the fewest (at least one) equal steps over ``duration`` no
    longer than local_period / ``steps_per_period``, an integer of at least
    MIN_STEPS_PER_PERIOD.  The package's one step-count rule: a record's
    spacing dt is fine where ``steps(model, dt, MIN_STEPS_PER_PERIOD)``
    takes it as one step."""
    if operator.index(steps_per_period) < MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"dt_per_period must be at least {MIN_STEPS_PER_PERIOD}, got {steps_per_period}"
        )
    n = max(1, math.ceil(duration / (model.local_period / steps_per_period) - 1e-9))
    return n, duration / n


def _check_pd(v, t: float) -> None:
    """Raise CovarianceError unless the symmetric 2x2 ``v`` is positive definite.

    ``v`` is (V_qq, V_qp, V_pp), judged by the package's one rule,
    ``state._is_pd``.
    """
    qq, qp, pp = v
    if not _is_pd(qq, qp, pp):
        raise CovarianceError(
            f"covariance lost positive definiteness at t = {t:.6e} s: "
            f"diag = ({qq:.3e}, {pp:.3e}), det = {qq * pp - qp * qp:.3e}",
            t,
        )


# The filters carry a symmetric 2x2 covariance as the Python floats
# (V_qq, V_qp, V_pp) and a 2x2 matrix F as (F_qq, F_qp, F_pq, F_pp):
# at this size a numpy call costs more than the arithmetic it does.


def _sym(a: np.ndarray) -> tuple[float, float, float]:
    return float(a[0, 0]), float(a[0, 1]), float(a[1, 1])


def _mat(v) -> np.ndarray:
    return np.array((v[0], v[1], v[1], v[2])).reshape(2, 2)


def _flat(f: np.ndarray) -> tuple[float, float, float, float]:
    return tuple(f.ravel().tolist())


def _joseph_update(v, sqrt_k: float, inv_dt: float):
    """Condition a covariance on one record sample, in Joseph form.

    For y = sqrt_k Q + xi / sqrt(dt) returns (gain, posterior), the
    posterior being (I - g h) V (I - g h)^T + g g^T / dt with
    h = (sqrt_k, 0); the caller moves the mean by gain times the
    innovation.
    """
    qq, qp, pp = v
    c = sqrt_k / (sqrt_k * sqrt_k * qq + inv_dt)
    gq = c * qq
    gp = c * qp
    a = 1.0 - sqrt_k * gq  # (I - g h) = [[a, 0], [b, 1]]
    b = -sqrt_k * gp
    bq = b * qq + qp
    return (gq, gp), (
        a * a * qq + inv_dt * gq * gq,
        a * bq + inv_dt * gq * gp,
        b * bq + (b * qp + pp) + inv_dt * gp * gp,
    )


def _predict(v, f, q):
    """F V F^T + Q for symmetric V and Q, with F as four floats."""
    qq, qp, pp = v
    f00, f01, f10, f11 = f
    aq = f00 * qq + f01 * qp  # row 0 of F V
    ap = f00 * qp + f01 * pp
    bq = f10 * qq + f11 * qp  # row 1 of F V
    bp = f10 * qp + f11 * pp
    return (
        aq * f00 + ap * f01 + q[0],
        aq * f10 + ap * f11 + q[1],
        bq * f10 + bp * f11 + q[2],
    )


def propagate(state: GaussianState, model: DynamicsModel, duration: float) -> GaussianState:
    """Exact unconditional moments after ``duration`` seconds under ``model``.

    Raises
    ------
    ValueError
        If duration is negative or not finite.
    CovarianceError
        If the covariance stops being positive definite.
    """
    if duration == 0.0:
        return state
    f, qd = transition(model, duration)  # checks the duration
    cov = _predict(_sym(state.cov), _flat(f), _sym(qd))
    _check_pd(cov, duration)
    return GaussianState(mean=f @ state.mean, cov=_mat(cov))
