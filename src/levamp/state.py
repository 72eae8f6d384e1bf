"""Gaussian motional states in zero-point units of the base trap.

A state is a mean vector (Q, P) and a 2x2 symmetric covariance V.
Ground state: V = identity. Thermal state of occupation n: V = (2n+1) I.
Physical states satisfy det V >= 1 (Heisenberg).  Exact propagation
keeps that, but the filters' discrete measurement update only comes
close: at detection efficiency 1 its post-update covariance falls
below det V = 1 by a first-order discretization deficit, 0.4 % at 200
steps per period, that halves with the step.  So the container only
requires symmetry and positive definiteness, which also lets filter
intermediates (very broad priors) use the same type.

Positive definiteness has one rule in the package, :func:`_is_pd`: for
the symmetric 2x2 (V_qq, V_qp, V_pp) as floats, V_qq > 0, V_pp > 0 and
det = V_qq V_pp - V_qp^2 > 0 and finite.  A det that overflows is
refused.  :class:`GaussianState` and ``estimation.FilterState`` apply it
to their covariance; ``dynamics.propagate`` and the retrodiction fold
apply it to every covariance they compute.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

_SYM_TOL = 1e-9


def _is_pd(qq: float, qp: float, pp: float) -> bool:
    """Whether the symmetric 2x2 [[qq, qp], [qp, pp]] is positive definite.

    A NaN or infinite entry makes det NaN or infinite, so the finite
    test on det also covers the entries; it also refuses a det that
    overflows.
    """
    det = qq * pp - qp * qp
    return qq > 0.0 and pp > 0.0 and det > 0.0 and math.isfinite(det)


def _as_mean(mean) -> np.ndarray:
    arr = np.asarray(mean, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"mean must have shape (2,), got {arr.shape}")
    q, p = arr.tolist()
    if not (math.isfinite(q) and math.isfinite(p)):
        raise ValueError(f"mean must be finite, got {arr}")
    return arr


def _as_cov(cov) -> np.ndarray:
    """``cov`` as the symmetric part 0.5 (a + a^T) of a checked 2x2 float array.

    The checks run on Python floats: at this size a numpy call costs
    more than the arithmetic it does.
    """
    arr = np.asarray(cov, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError(f"cov must have shape (2, 2), got {arr.shape}")
    (a, b), (c, d) = arr.tolist()
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ValueError(f"cov must be finite, got {arr}")
    if abs(b - c) > _SYM_TOL * max(1.0, abs(a), abs(b), abs(c), abs(d)):
        raise ValueError(f"cov must be symmetric, got {arr}")
    # the entries of 0.5 * (arr + arr.T), by the same IEEE operations
    qq, qp, pp = 0.5 * (a + a), 0.5 * (b + c), 0.5 * (d + d)
    arr = np.array([[qq, qp], [qp, pp]])
    if not _is_pd(qq, qp, pp):
        raise ValueError(f"cov must be positive definite, got {arr}")
    return arr


@dataclass(frozen=True)
class GaussianState:
    """Mean (Q, P) and covariance of a Gaussian motional state, zp units."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _as_mean(self.mean))
        object.__setattr__(self, "cov", _as_cov(self.cov))


def _check_ratio(r: float) -> None:
    """The package's one check of a squeeze ratio: r >= 1 and finite."""
    if not (r >= 1.0 and math.isfinite(r)):
        raise ValueError(f"squeeze ratio r must be >= 1 and finite, got {r}")


def thermal_state(n: float) -> GaussianState:
    """Zero-mean thermal state of occupation n: V = (2n + 1) I."""
    if not (n >= 0.0 and math.isfinite(n)):
        raise ValueError(f"occupation n must be >= 0 and finite, got {n}")
    return GaussianState(np.zeros(2), (2.0 * n + 1.0) * np.eye(2))


def occupation(state: GaussianState) -> float:
    """Thermal phonon occupation (V11 + V22 - 2) / 4.

    Computed from the covariance alone, whatever the mean; the coherent
    energy of a displaced mean is reported separately by callers that
    need it.
    """
    return float(state.cov[0, 0] + state.cov[1, 1] - 2.0) / 4.0


def apply_impulse(state: GaussianState, dp: float) -> GaussianState:
    """Instantaneous momentum kick: P -> P + dp, covariance unchanged."""
    if not np.isfinite(dp):
        raise ValueError(f"dp must be finite, got {dp}")
    mean = state.mean.copy()
    mean[1] += dp
    return GaussianState(mean, state.cov)


def quarter_period_map(r: float) -> np.ndarray:
    """Symplectic map of one quarter period in the softened trap.

    Stepping the trap frequency from Omega to Omega / r and waiting a
    quarter of the soft period rotates phase space by 90 degrees while
    the frozen base-trap normalization stretches the quadratures:

        S(r) = [[0, r], [-1/r, 0]]

    so an initial (Q, P) maps to (r P, -Q / r). Two applications give
    S(r)^2 = -I. r = 1 is the plain quarter-period rotation.
    """
    _check_ratio(r)
    return np.array([[0.0, r], [-1.0 / r, 0.0]])

