"""Per-sample backward filter, an oracle for the cached retrodiction fold.

Numpy 2x2 matrices throughout: one Joseph-form update per gated-on
sample, from the last sample down to the first, and the time-reversed
step between samples, with the mean carried alongside.  It shares only
``transition`` with the package, so it checks the fold's arithmetic
rather than reusing the package's own Riccati step.
"""

import math

import numpy as np

from levamp.dynamics import transition


def backward_filter(record, model, prior_scale):
    """(mean, cov) at the record's first sample from the samples at and after it."""
    sqrt_k = math.sqrt(model.meas_rate)
    inv_dt = 1.0 / record.dt
    f, qd = transition(model, record.dt)
    finv = np.linalg.inv(f)
    qrev = finv @ qd @ finv.T
    qrev = 0.5 * (qrev + qrev.T)

    mean = np.zeros(2)
    cov = prior_scale * np.eye(2)
    for k in range(len(record) - 1, -1, -1):
        if record.gate[k]:
            s_var = sqrt_k * sqrt_k * cov[0, 0] + inv_dt
            gain = (sqrt_k / s_var) * cov[:, 0]
            imkc = np.eye(2)
            imkc[:, 0] -= gain * sqrt_k
            cov = imkc @ cov @ imkc.T + inv_dt * np.outer(gain, gain)
            cov = 0.5 * (cov + cov.T)
            mean = mean + gain * (record.samples[k] - sqrt_k * mean[0])
        if k > 0:
            mean = finv @ mean
            cov = finv @ cov @ finv.T + qrev
    return mean, cov
