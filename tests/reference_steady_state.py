"""Closed-form continuous-time steady state, an oracle for the discrete one.

With local angular frequency w, momentum diffusion d and measurement
rate k on Q, the filter covariance obeys
dV/dt = A V + V Aᵀ + diag(0, d) - k V e0 e0ᵀ V, A = [[0, w], [-w, 0]].
Setting it to zero entry by entry gives, from the PP, QQ and QP
entries in turn,
V_qp = (sqrt(w² + k d) - w) / k, V_qq = sqrt(2 w V_qp / k) and
V_pp = V_qq + k V_qq V_qp / w.  The discrete recursion at n steps per
period approaches this first order in 1/n.
"""

import math

import numpy as np


def continuous_steady_state(model):
    """Steady filter covariance of ``model`` in continuous time, as a 2x2."""
    w = model.omega * model.freq_ratio
    k, d = model.meas_rate, model.diffusion_p
    v_qp = (math.sqrt(w * w + k * d) - w) / k
    v_qq = math.sqrt(2.0 * w * v_qp / k)
    v_pp = v_qq + k * v_qq * v_qp / w
    return np.array([[v_qq, v_qp], [v_qp, v_pp]])
