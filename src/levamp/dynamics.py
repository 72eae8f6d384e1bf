"""Piecewise-constant linear Gaussian dynamics of the trapped particle.

The oscillator is described in dimensionless quadratures (Q, P)
normalized to the zero-point spread of the trap at its base frequency.
That normalization is frozen for all times: when the trap is softened
from Omega to Omega/r the drift becomes [[0, Omega], [-Omega/r^2, 0]]
rather than a rescaled rotation, which is what turns a momentum kick
into an r-fold larger position displacement after half a soft period.

Each model is constant over a call to :func:`propagate`.  The stepper
uses the exact matrix exponential of the drift together with the
exactly integrated process-noise covariance (a Van Loan block
exponential), so noiseless evolution is exact to machine rounding and
step size only matters for the measurement-conditioning terms.

Conventions for the stochastic part:

* ``diffusion_p`` is the momentum diffusion rate in zp units^2 per
  second.  The base value ``4 * gamma_qb`` makes the free heating law
  d<n>/dt = gamma_qb hold exactly.
* ``meas_rate`` is the information rate of the position record,
  ``4 * eta * gamma_qb`` with detection on.
* With an rng supplied and ``meas_rate > 0`` the state undergoes the
  conditional (quantum trajectory) evolution: the mean is driven by
  the measurement innovations and the covariance contracts through
  the Riccati conditioning term.  The realized record is returned.
  Without an rng the unconditional evolution is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
import math

import numpy as np
from scipy.linalg import expm

from .records import MeasurementRecord
from .state import GaussianState

MIN_STEPS_PER_PERIOD = 50


class CovarianceError(RuntimeError):
    """Covariance lost positive definiteness during integration.

    Raised instead of clamping: a non positive definite covariance
    signals an integrator bug or an unstable model, and silently
    repairing it would corrupt every downstream statistic.
    """


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
    gamma_fb : float
        Angular cold-damping rate in rad/s (0 with feedback off).
    diffusion_p : float
        Momentum diffusion in zp units^2 / s.
    meas_rate : float
        Measurement information rate in 1/s (0 with detection off).
    """

    omega: float
    freq_ratio: float = 1.0
    gamma_fb: float = 0.0
    diffusion_p: float = 0.0
    meas_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive and finite")
        if not (0.0 < self.freq_ratio <= 1.0):
            raise ValueError("freq_ratio must be in (0, 1]")
        for name in ("gamma_fb", "diffusion_p", "meas_rate"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be nonnegative and finite")

    @property
    def local_period(self) -> float:
        """Oscillation period at the current stiffness, seconds."""
        return 2.0 * math.pi / (self.omega * self.freq_ratio)

    @property
    def max_dt(self) -> float:
        """Coarsest admissible integration step for this model."""
        return self.local_period / MIN_STEPS_PER_PERIOD

    def drift_matrix(self) -> np.ndarray:
        return np.array(
            [
                [0.0, self.omega],
                [-self.omega * self.freq_ratio**2, -self.gamma_fb],
            ]
        )

    def diffusion_matrix(self) -> np.ndarray:
        return np.diag([0.0, self.diffusion_p])

    def noiseless(self) -> "DynamicsModel":
        """Copy with diffusion and measurement switched off."""
        return replace(self, diffusion_p=0.0, meas_rate=0.0)


def base_model(params, *, measurement_on: bool = True, feedback_on: bool = False) -> DynamicsModel:
    """Model for the stiff trap, optionally with detection and feedback."""
    return DynamicsModel(
        omega=params.omega,
        freq_ratio=1.0,
        gamma_fb=params.gamma_fb if feedback_on else 0.0,
        diffusion_p=4.0 * params.gamma_qb,
        meas_rate=4.0 * params.eta * params.gamma_qb if measurement_on else 0.0,
    )


def soft_model(params, r: float) -> DynamicsModel:
    """Model for the softened trap at squeeze ratio r >= 1.

    Soft power scales as 1/r^2, so the recoil diffusion drops by the
    same factor while detection is gated off entirely.
    """
    if r < 1.0:
        raise ValueError("squeeze ratio r must be >= 1")
    return DynamicsModel(
        omega=params.omega,
        freq_ratio=1.0 / r,
        gamma_fb=0.0,
        diffusion_p=4.0 * params.gamma_qb / r**2,
        meas_rate=0.0,
    )


@lru_cache(maxsize=512)
def _discretize_cached(model: DynamicsModel, dt: float):
    a = model.drift_matrix()
    d = model.diffusion_matrix()
    block = np.zeros((4, 4))
    block[:2, :2] = -a * dt
    block[:2, 2:] = d * dt
    block[2:, 2:] = a.T * dt
    phi = expm(block)
    f = phi[2:, 2:].T
    qd = f @ phi[:2, 2:]
    qd = 0.5 * (qd + qd.T)
    return f, qd


def transition(model: DynamicsModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition matrix and process-noise covariance.

    Returns (F, Qd) with F = expm(A dt) and
    Qd = int_0^dt expm(A s) D expm(A s)^T ds, both exact up to the
    matrix-exponential rounding floor.
    """
    f, qd = _discretize_cached(model, float(dt))
    return f.copy(), qd.copy()


def _check_dt(model: DynamicsModel, dt: float) -> None:
    limit = model.max_dt
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(
            f"dt too coarse: require dt <= {limit:.6e} s "
            f"({MIN_STEPS_PER_PERIOD} steps per local period), got {dt:.6e} s"
        )
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")


def _check_pd(v: np.ndarray, t: float) -> None:
    # A NaN or infinite entry makes det NaN or infinite, so one scalar
    # test covers all four entries; it also rejects a det that overflows.
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if not (v[0, 0] > 0.0 and v[1, 1] > 0.0 and det > 0.0 and math.isfinite(det)):
        raise CovarianceError(
            f"covariance lost positive definiteness at t = {t:.6e} s: "
            f"diag = ({v[0, 0]:.3e}, {v[1, 1]:.3e}), det = {det:.3e}"
        )


def _joseph_update(cov: np.ndarray, sqrt_k: float, inv_dt: float):
    """Condition a covariance on one record sample, in Joseph form.

    For y = sqrt_k Q + xi / sqrt(dt) returns (gain, innovation
    variance, symmetrized posterior covariance); the caller moves the
    mean by gain times the innovation.
    """
    s_var = sqrt_k * sqrt_k * cov[0, 0] + inv_dt
    gain = (sqrt_k / s_var) * cov[:, 0]
    imkc = np.eye(2)
    imkc[:, 0] -= gain * sqrt_k
    cov = imkc @ cov @ imkc.T + inv_dt * np.outer(gain, gain)
    # 0.5 (C + C^T) keeps C's diagonal, so only the off-diagonal is averaged.
    cov[0, 1] = cov[1, 0] = 0.5 * (cov[0, 1] + cov[1, 0])
    return gain, s_var, cov


def propagate(
    state: GaussianState,
    model: DynamicsModel,
    duration: float,
    dt: float,
    rng: np.random.Generator | None = None,
    t0: float = 0.0,
) -> tuple[GaussianState, MeasurementRecord | None]:
    """Evolve a Gaussian state under a constant model.

    Without ``rng`` the unconditional (no-measurement) evolution is
    returned and the record slot is None.  With ``rng`` and
    ``meas_rate > 0`` the conditional evolution is simulated: each
    step measures y_k = sqrt(meas_rate) Q(t_k) + xi_k / sqrt(dt),
    applies the optimal Gaussian update, then advances by the exact
    transition.  With ``rng`` but detection gated off, a placeholder
    record of NaN samples with gate = False is emitted so record
    bookkeeping stays aligned with the timeline.

    ``t0`` only timestamps the emitted record.

    Raises
    ------
    ValueError
        If duration is negative, dt violates the 50-steps-per-period
        floor, or a record is requested for a duration that is not an
        integer number of steps.
    CovarianceError
        If the covariance stops being positive definite.
    """
    if duration < 0.0 or not math.isfinite(duration):
        raise ValueError("duration must be nonnegative and finite")
    if duration == 0.0:
        if rng is None:
            return state, None
        empty = MeasurementRecord(
            t0=t0, dt=dt, samples=np.empty(0), gate=np.empty(0, dtype=bool)
        )
        return state, empty
    _check_dt(model, dt)

    n_exact = duration / dt
    n = int(round(n_exact))
    remainder = duration - n * dt
    if abs(remainder) > 1e-9 * max(dt, duration):
        if rng is not None:
            raise ValueError(
                "duration must be an integer number of steps when a record "
                f"is generated: duration/dt = {n_exact:.6f}"
            )
        n = int(math.floor(n_exact))
        remainder = duration - n * dt
    else:
        remainder = 0.0

    f, qd = _discretize_cached(model, dt)
    mean = state.mean.copy()
    cov = state.cov.copy()

    measured = rng is not None and model.meas_rate > 0.0
    samples = np.full(n, np.nan) if rng is not None else None
    sqrt_k = math.sqrt(model.meas_rate)
    inv_dt = 1.0 / dt

    for k in range(n):
        if measured:
            gain, s_var, cov = _joseph_update(cov, sqrt_k, inv_dt)
            nu = math.sqrt(s_var) * rng.standard_normal()
            samples[k] = sqrt_k * mean[0] + nu
            mean = mean + gain * nu
        mean = f @ mean
        cov = f @ cov @ f.T + qd
        _check_pd(cov, t0 + (k + 1) * dt)

    if remainder > 1e-15 * duration:
        f_rem, qd_rem = _discretize_cached(model, remainder)
        mean = f_rem @ mean
        cov = f_rem @ cov @ f_rem.T + qd_rem
        _check_pd(cov, t0 + duration)

    out = GaussianState(mean=mean, cov=cov)
    if rng is None:
        return out, None
    gate = np.full(n, measured, dtype=bool)
    record = MeasurementRecord(t0=t0, dt=dt, samples=samples, gate=gate)
    return out, record
