"""Closed-form transition: the Van Loan oracle, argument checks, and a
runtime that loads no scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from levamp.dynamics import base_model, soft_model, transition
from levamp.params import OscillatorParams

PARAMS = OscillatorParams()
SRC = Path(__file__).resolve().parents[1] / "src"

MODELS = {
    "readout": base_model(PARAMS),
    "free": base_model(PARAMS, measurement_on=False),
    **{f"soft r={r:.4g}": soft_model(PARAMS, r) for r in (2.0, math.sqrt(12.0), 6.0)},
}
# Steps in local periods: from a tenth of the record step, through the
# coarsest admissible step and the quarter and half periods, to ten periods.
PERIODS = [1 / 2000, 1 / 200, 1 / 50, 1 / 4, 1 / 2, 1.0, 2.7, 10.0]


def van_loan(model, dt):
    """(F, Qd) from one 4x4 block exponential (Van Loan, IEEE TAC 23, 395 (1978))."""
    a = model.drift_matrix()
    block = np.zeros((4, 4))
    block[:2, :2] = -a * dt
    block[:2, 2:] = model.diffusion_matrix() * dt
    block[2:, 2:] = a.T * dt
    phi = expm(block)
    f = phi[2:, 2:].T
    qd = f @ phi[:2, 2:]
    return f, 0.5 * (qd + qd.T)


def scaled_error(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("periods", PERIODS)
@pytest.mark.parametrize("name", MODELS)
def test_undamped_transition_matches_the_van_loan_oracle(name, periods):
    """F and Qd agree with expm to 1e-13 of their largest entry.

    Past a period expm is the less exact of the two: its error grows with
    the step and jumps just below each doubling of its squaring count
    (1e-12 at 9.75 periods), while the closed form stays within a few
    1e-15 of a 40-digit evaluation.  The long-step exactness is pinned
    by the 1234.5-period test below instead.
    """
    model = MODELS[name]
    dt = periods * model.local_period
    f, qd = transition(model, dt)
    f_ref, qd_ref = van_loan(model, dt)
    assert scaled_error(f, f_ref) <= 1e-13
    assert scaled_error(qd, qd_ref) <= 1e-13


@pytest.mark.parametrize("name", ["readout", "soft r=3.464", "soft r=6"])
def test_a_long_half_integer_step_is_an_exact_inversion(name):
    """After 1234.5 local periods the rotation is -I to the last bit."""
    model = MODELS[name]
    f, _ = transition(model, 1234.5 * model.local_period)
    assert f[0, 0] == -1.0
    assert f[1, 1] == -1.0
    assert f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0] == 1.0


def test_the_noise_integral_is_exact_at_short_steps():
    """Below x = 1/2 the Q-Q entry comes from a series: at x = 1e-6 it is
    d x^3 / (3 omega) to rounding, where x - sin x cos x keeps four
    digits."""
    model = MODELS["readout"]
    x = 1e-6
    _, qd = transition(model, x / model.omega)
    ref = model.diffusion_p * x**3 / (3.0 * model.omega)
    assert abs(qd[0, 0] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("model", [MODELS["readout"]])
def test_zero_step_is_the_identity_without_noise(model):
    f, qd = transition(model, 0.0)
    assert np.array_equal(f, np.eye(2))
    assert np.array_equal(qd, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [-1e-7, -np.inf, np.inf, np.nan])
def test_transition_rejects_negative_and_non_finite_steps(bad):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        transition(MODELS["readout"], bad)


def test_the_runtime_loads_no_scipy(tmp_path):
    """Neither the import nor a whole preset run pulls in scipy."""
    script = (
        "import sys\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import levamp\n"
        "from levamp import cli\n"
        "assert scipy() == [], scipy()\n"
        f"rc = cli.main(['run', 'fig3-amplified', '--trials', '20', '--out', {str(tmp_path)!r}])\n"
        "assert rc == 0, rc\n"
        "assert scipy() == [], scipy()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "ensemble.csv").is_file()
