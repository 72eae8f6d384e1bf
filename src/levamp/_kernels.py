"""Batched trial kernels, vectorized over trials with numpy.

The simulation is a tiny 2x2 affine recursion x_{k+1} = F x_k + L w_k
repeated for thousands of steps across hundreds of trials.  It runs as
a blocked prefix sum (Blelloch, CMU-CS-90-190, 1990): within a block of
up to BLOCK steps, each trial's noise is moved into the frame of the
block's first step, summed with one cumsum along the step axis and
moved back, so Python loops over blocks, not steps; the cumsum is over
complex numbers whose real and imaginary parts are the frame's two
components, so it runs both chains at once.  Retrodiction needs no
recursion per trial: its mean is a fixed linear functional of the
record, mean = record · weights, summed per row against contiguous
weight rows in a fixed order.  A batch of one serves single-trial
replay with the same bits.

Array layout is trial-major: states ``x`` are (m, 2), per-step noise
``w`` is (m, n, 2), records ``y`` are (m, n).  The kernels never mutate
their inputs; they return new arrays, except that :func:`roll_record`
writes its record into a caller's buffer where it is given one.
"""

from __future__ import annotations

import math

import numpy as np

# Steps per scan block.  64 to 512 time the same; the scan's scratch is
# 4 m BLOCK doubles (a complex (m, BLOCK + 1) frame sum and (m, BLOCK, 2)
# lanes), so the smallest keeps a 256-trial batch's at 0.5 MiB.
BLOCK = 64


def chol2x2(q: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite 2x2 matrix.

    Raises ValueError on a non-finite entry or a pivot that is not
    positive, rather than return a factor that silently drops a noise
    axis.
    """
    q00 = float(q[0, 0])
    q10 = float(q[1, 0])
    q11 = float(q[1, 1])
    if not (math.isfinite(q00) and math.isfinite(q10) and math.isfinite(q11)):
        raise ValueError(f"chol2x2 needs finite entries, got {q.tolist()}")
    if not q00 > 0.0:
        raise ValueError(f"chol2x2 needs a positive definite matrix, first pivot {q00!r}")
    l00 = math.sqrt(q00)
    l10 = q10 / l00
    l11_sq = q11 - l10 * l10
    if not l11_sq > 0.0:
        raise ValueError(f"chol2x2 needs a positive definite matrix, second pivot {l11_sq!r}")
    return np.array([[l00, 0.0], [l10, math.sqrt(l11_sq)]])


def powers(f: np.ndarray, l: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Block powers of the recursion x -> F x + L w for a scan of n >= 1 steps.

    Returns ``fwd``, F^j for j = 0..b, (b+1, 2, 2), and ``g``, (2, b, 2)
    with g[c, j] row c of F^-(j+1) L, where b = min(n, BLOCK) is the
    scan's block length.  Built by doubling; compute them once per
    (F, L, n) and pass them to every :func:`roll` or :func:`roll_record`.
    """
    b = min(n, BLOCK)
    fwd = np.empty((b + 1, 2, 2))
    back = np.empty((b + 1, 2, 2))
    fwd[0] = back[0] = np.eye(2)
    fwd[1], back[1] = f, np.linalg.inv(f)
    k = 1
    while k < b:
        hi = min(2 * k, b)
        fwd[k + 1:hi + 1] = fwd[k] @ fwd[1:hi - k + 1]
        back[k + 1:hi + 1] = back[k] @ back[1:hi - k + 1]
        k = hi
    return fwd, np.ascontiguousarray((back[1:] @ l).transpose(1, 0, 2))


def _scan(x, fwd, g, w, y=None, q=None):
    """Evolve x_{k+1} = F x_k + L w_k for every trial, one block at a time.

    ``fwd`` and ``g`` come from :func:`powers`; the block length b is
    g's second axis.  Within a block starting at step k0, in the frame
    of F^-j,

        x_{k0+j} = F^j (x_{k0} + sum_{i<j} F^-(i+1) L w_{k0+i}),

    so each block is one complex cumsum along the step axis (its real
    and imaginary parts are the frame's two components) and only its
    final state is carried in Python.  Where the record ``y``, (m, n),
    is given, sqrt_k Q_k is added to y[:, k], with Q_k the position
    before step k and q[j] = sqrt_k F^j[0].  Every operation is
    elementwise or a cumsum along a row, so a row's bits never depend on
    the batch.  Needs F^-j finite for j <= BLOCK, as it is for every
    model's F, whose determinant is 1.  Returns the final states.
    """
    m, n = w.shape[0], w.shape[1]
    b = g.shape[1]
    # s[:, j] is x_{k0} + sum_{i<j} F^-(i+1) L w_{k0+i}, component c in
    # float lane c of s2; column 0 carries the state from block to block.
    s = np.empty((m, b + 1), dtype=complex)
    s2 = s.view(np.float64).reshape(m, b + 1, 2)
    s2[:, 0] = x
    lanes = np.empty((m, b, 2))
    for k0 in range(0, n, b):
        nb = min(b, n - k0)
        steps = slice(k0, k0 + nb)
        for c in (0, 1):
            np.multiply(w[:, steps], g[c, :nb], out=lanes[:, :nb])
            np.add(lanes[:, :nb, 0], lanes[:, :nb, 1], out=s2[:, 1:nb + 1, c])
        np.cumsum(s[:, :nb + 1], axis=1, out=s[:, :nb + 1])
        if y is not None:
            t = np.multiply(s2[:, :nb], q[:nb], out=lanes[:, :nb])
            y[:, steps] += np.add(t[:, :, 0], t[:, :, 1], out=t[:, :, 0])
        p, end = fwd[nb], s2[:, nb]
        s2[:, 0, 0] = p[0, 0] * end[:, 0] + p[0, 1] * end[:, 1]
        s2[:, 0, 1] = p[1, 0] * end[:, 0] + p[1, 1] * end[:, 1]
    return s2[:, 0].copy()


def roll(x: np.ndarray, fwd: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evolve x_{k+1} = F x_k + L w_k for every trial.

    x: (m, 2) states, (fwd, g): :func:`powers` of (F, L), w: (m, n, 2)
    standard normals for n steps.
    """
    return _scan(x, fwd, g, w)


def roll_record(
    x: np.ndarray,
    fwd: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    sqrt_k: float,
    noise_scale: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Same recursion as :func:`roll` plus a position record.

    Sample k reads the state before step k:
    y_k = sqrt_k * Q_k + noise_scale * v_k with v: (m, n) normals.
    Returns (final states (m, 2), record (m, n)); the record is written
    into ``out``, (m, n), where it is given.
    """
    y = np.multiply(noise_scale, v, out=out)
    return _scan(x, fwd, g, w, y, sqrt_k * fwd[:, 0]), y


def filter_backward(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Retrodicted means of a batch of records: mean = record · weights.

    y: (m, n) records in forward time order; weights: (n, 2) from
    :func:`levamp.estimation.retrodiction_schedule`.  Each record row is
    summed against a contiguous (2, n) copy of the weight rows; einsum
    sums over n in one fixed order per row, for any batch size and any
    row address, without BLAS, so batching and thread count never
    change a bit.
    """
    return np.einsum("mn,kn->mk", y, np.ascontiguousarray(weights.T))
