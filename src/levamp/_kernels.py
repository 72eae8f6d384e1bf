"""Batched trial kernels, vectorized over trials with numpy.

The simulation hot loops are tiny 2x2 affine recursions repeated for
thousands of steps across hundreds of trials; each sweeps all trials
of a batch per time step.  Retrodiction needs no recursion per trial:
its mean is a fixed linear functional of the record, mean = record ·
weights.  A batch of one serves single-trial replay.

Array layout is trial-major: states ``x`` are (m, 2), per-step noise
``w`` is (m, n, 2), records ``y`` are (m, n).  All kernels return new
arrays and never mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np


def chol2x2(q: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD 2x2 matrix.

    Tolerates exact zeros (noiseless segments) where
    ``numpy.linalg.cholesky`` would reject the singular matrix.
    """
    q00 = float(q[0, 0])
    q10 = float(q[1, 0])
    q11 = float(q[1, 1])
    l00 = math.sqrt(q00) if q00 > 0.0 else 0.0
    l10 = q10 / l00 if l00 > 0.0 else 0.0
    l11_sq = q11 - l10 * l10
    l11 = math.sqrt(l11_sq) if l11_sq > 0.0 else 0.0
    return np.array([[l00, 0.0], [l10, l11]])


def roll(x: np.ndarray, f: np.ndarray, l: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evolve x_{k+1} = F x_k + L w_k for every trial.

    x: (m, 2) states, w: (m, n, 2) standard normals for n steps.
    """
    f00, f01, f10, f11 = f[0, 0], f[0, 1], f[1, 0], f[1, 1]
    l00, l10, l11 = l[0, 0], l[1, 0], l[1, 1]
    x0 = x[:, 0].copy()
    x1 = x[:, 1].copy()
    for k in range(w.shape[1]):
        w0 = w[:, k, 0]
        w1 = w[:, k, 1]
        new0 = f00 * x0 + f01 * x1 + l00 * w0
        new1 = f10 * x0 + f11 * x1 + (l10 * w0 + l11 * w1)
        x0 = new0
        x1 = new1
    return np.stack([x0, x1], axis=1)


def roll_record(
    x: np.ndarray,
    f: np.ndarray,
    l: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    sqrt_k: float,
    noise_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Same recursion as :func:`roll` plus a position record.

    Sample k reads the state before step k:
    y_k = sqrt_k * Q_k + noise_scale * v_k with v: (m, n) normals.
    Returns (final states (m, 2), record (m, n)).
    """
    m, n = v.shape
    f00, f01, f10, f11 = f[0, 0], f[0, 1], f[1, 0], f[1, 1]
    l00, l10, l11 = l[0, 0], l[1, 0], l[1, 1]
    x0 = x[:, 0].copy()
    x1 = x[:, 1].copy()
    y = np.empty((m, n))
    for k in range(n):
        y[:, k] = sqrt_k * x0 + noise_scale * v[:, k]
        w0 = w[:, k, 0]
        w1 = w[:, k, 1]
        new0 = f00 * x0 + f01 * x1 + l00 * w0
        new1 = f10 * x0 + f11 * x1 + (l10 * w0 + l11 * w1)
        x0 = new0
        x1 = new1
    return np.stack([x0, x1], axis=1), y


def filter_backward(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Retrodicted means of a batch of records: mean = record · weights.

    y: (m, n) records in forward time order; weights: (n, 2) from
    :func:`levamp.estimation.retrodiction_schedule`.  einsum sums each
    row over n in the same order for any batch size, without BLAS, so
    chunking and thread count never change a bit.
    """
    return np.einsum("mn,nk->mk", y, weights)
