"""The two-real-array blocked scan, an oracle for the complex one.

This is the scan as it stood before the frame's two components became
one complex row: a (2, m, b+1) array per block, the end state stacked
into a new (m, 2) array, and the record's noise term multiplied into
each block.  IEEE addition and multiplication are commutative, so the
complex scan must give every state and record sample the same bits.
"""

import numpy as np


def _scan(x, fwd, g, w, record=None):
    """Evolve x_{k+1} = F x_k + L w_k for every trial, one block at a time.

    ``fwd`` and ``g`` come from :func:`powers`; the block length b is
    g's second axis.  Within a block starting at step k0, in the frame
    of F^-j,

        x_{k0+j} = F^j (x_{k0} + sum_{i<j} F^-(i+1) L w_{k0+i}),

    so the block is one cumsum along the step axis and only its final
    state is carried in Python.  ``record`` is None or (y, v, sqrt_k,
    noise_scale), and then y[:, k] = sqrt_k Q_k + noise_scale v[:, k] is
    written with Q_k the position before step k.  Every operation is
    elementwise or a cumsum along a row, so a row's bits never depend on
    the batch.  Needs F^-j finite for j <= BLOCK, as it is for every
    model's F, whose determinant is 1.  Returns the final states.
    """
    m, n = w.shape[0], w.shape[1]
    if n == 0:
        return x.copy()
    b = g.shape[1]
    if record is not None:
        y, v, sqrt_k, noise_scale = record
        q0, q1 = sqrt_k * fwd[:, 0, 0], sqrt_k * fwd[:, 0, 1]
    # s[c, :, j] is component c of x_{k0} + sum_{i<j} F^-(i+1) L w_{k0+i}.
    s = np.empty((2, m, b + 1))
    wg = np.empty((m, b, 2))
    tmp = wg.reshape(m, 2 * b)  # the record's scratch, once wg is summed into s
    for k0 in range(0, n, b):
        nb = min(b, n - k0)
        steps = slice(k0, k0 + nb)
        sb = s[:, :, :nb + 1]
        t = tmp[:, :nb]
        lanes = wg[:, :nb]
        sb[:, :, 0] = x.T
        for c in (0, 1):
            np.multiply(w[:, steps], g[c, :nb], out=lanes)
            np.add(lanes[:, :, 0], lanes[:, :, 1], out=sb[c, :, 1:])
        np.cumsum(sb, axis=2, out=sb)
        p = fwd[nb]
        x = np.stack(
            [p[0, 0] * sb[0, :, nb] + p[0, 1] * sb[1, :, nb],
             p[1, 0] * sb[0, :, nb] + p[1, 1] * sb[1, :, nb]],
            axis=1,
        )
        if record is not None:
            out = np.multiply(sb[0, :, :nb], q0[:nb], out=y[:, steps])
            out += np.multiply(sb[1, :, :nb], q1[:nb], out=t)
            out += np.multiply(v[:, steps], noise_scale, out=t)
    return x


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
) -> tuple[np.ndarray, np.ndarray]:
    """Same recursion as :func:`roll` plus a position record.

    Sample k reads the state before step k:
    y_k = sqrt_k * Q_k + noise_scale * v_k with v: (m, n) normals.
    Returns (final states (m, 2), record (m, n)).
    """
    y = np.empty(v.shape)
    return _scan(x, fwd, g, w, (y, v, sqrt_k, noise_scale)), y
