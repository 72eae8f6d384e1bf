"""The numpy state checks, an oracle for the scalar ones in ``levamp.state``.

These are ``_as_mean`` and ``_as_cov`` as they stood before the checks
moved onto Python floats: ``np.isfinite``, ``np.max`` and
``np.linalg.det`` on the array itself.  Every accepted input must come
back with the same bits, and every refused one with the same exception.
The one verdict they may differ on is definiteness, where LAPACK's
det and the scalar qq pp - qp^2 differ in sign or where det overflows.
"""

import numpy as np

_SYM_TOL = 1e-9


def _as_mean(mean) -> np.ndarray:
    arr = np.asarray(mean, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"mean must have shape (2,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"mean must be finite, got {arr}")
    return arr


def _as_cov(cov) -> np.ndarray:
    arr = np.asarray(cov, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError(f"cov must have shape (2, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"cov must be finite, got {arr}")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if abs(arr[0, 1] - arr[1, 0]) > _SYM_TOL * scale:
        raise ValueError(f"cov must be symmetric, got {arr}")
    arr = 0.5 * (arr + arr.T)
    # positive definite: both leading minors positive
    if arr[0, 0] <= 0.0 or np.linalg.det(arr) <= 0.0:
        raise ValueError(f"cov must be positive definite, got {arr}")
    return arr
