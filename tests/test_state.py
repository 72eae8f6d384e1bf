"""Gaussian state container, thermal preparation, and the quarter-period map."""

import math

import numpy as np
import pytest
import reference_state
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levamp.dynamics import CovarianceError, _check_pd, _sym
from levamp.estimation import FilterState
from levamp.state import (
    _SYM_TOL,
    GaussianState,
    _as_cov,
    _as_mean,
    apply_impulse,
    occupation,
    quarter_period_map,
    thermal_state,
)

R12 = math.sqrt(12.0)


def test_thermal_state_covariance():
    st = thermal_state(1.2)
    assert np.allclose(st.mean, 0.0, rtol=0.0)
    assert np.allclose(st.cov, 3.4 * np.eye(2), rtol=0.0)


def test_ground_state_is_identity_covariance():
    assert np.allclose(thermal_state(0.0).cov, np.eye(2), rtol=0.0)


@pytest.mark.parametrize("n", [0.0, 0.3, 1.2, 12.0])
def test_occupation_round_trip(n):
    assert occupation(thermal_state(n)) == pytest.approx(n, abs=1e-12)


def test_occupation_of_squeezed_covariance():
    # (12 + 1/12 - 2) / 4, exact in rationals: 121/48
    st = GaussianState(np.zeros(2), np.diag([12.0, 1.0 / 12.0]))
    assert occupation(st) == pytest.approx(2.5208333333333333, abs=1e-12)


def test_thermal_state_rejects_negative_occupation():
    with pytest.raises(ValueError):
        thermal_state(-0.5)


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_thermal_state_names_a_non_finite_occupation(n):
    with pytest.raises(ValueError, match=f"^occupation n must be >= 0 and finite, got {n}$"):
        thermal_state(n)


def test_quarter_period_map_swaps_and_scales():
    m = quarter_period_map(2.0)
    assert np.allclose(m, [[0.0, 2.0], [-0.5, 0.0]], rtol=0.0)
    assert np.allclose(m @ [0.0, 1.0], [2.0, 0.0], rtol=0.0)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, R12, 6.0])
def test_quarter_period_map_squares_to_minus_identity(r):
    m = quarter_period_map(r)
    assert np.allclose(m @ m, -np.eye(2), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("r", [1.0, 2.0, R12])
def test_quarter_period_map_is_symplectic(r):
    assert np.linalg.det(quarter_period_map(r)) == pytest.approx(1.0, abs=1e-12)


def test_quarter_map_amplifies_ground_covariance():
    m = quarter_period_map(R12)
    cov = m @ thermal_state(0.0).cov @ m.T
    assert np.allclose(cov, np.diag([12.0, 1.0 / 12.0]), rtol=0.0, atol=1e-12)


def test_quarter_map_at_unity_is_plain_rotation():
    st = GaussianState(np.array([1.0, 0.5]), 3.4 * np.eye(2))
    m = quarter_period_map(1.0)
    assert np.allclose(m @ st.mean, [0.5, -1.0], rtol=0.0)
    assert np.allclose(m @ st.cov @ m.T, st.cov, rtol=0.0)


def test_quarter_period_map_rejects_r_below_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        quarter_period_map(0.8)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_quarter_period_map_rejects_a_non_finite_r(r):
    with pytest.raises(ValueError, match=f"^squeeze ratio r must be >= 1 and finite, got {r}$"):
        quarter_period_map(r)


def test_apply_impulse_shifts_momentum_only():
    st = GaussianState(np.array([0.4, -0.2]), np.diag([12.0, 1.0 / 12.0]))
    out = apply_impulse(st, 1.2)
    assert np.allclose(out.mean, [0.4, 1.0], rtol=0.0)
    assert np.allclose(out.cov, st.cov, rtol=0.0)


def test_apply_impulse_is_additive():
    st = thermal_state(1.2)
    a = apply_impulse(apply_impulse(st, 0.7), 0.5)
    b = apply_impulse(st, 1.2)
    assert np.allclose(a.mean, b.mean, rtol=0.0, atol=1e-15)


def test_apply_impulse_rejects_non_finite():
    with pytest.raises(ValueError):
        apply_impulse(thermal_state(0.0), float("inf"))


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        GaussianState(np.array([np.nan, 0.0]), np.eye(2))
    with pytest.raises(ValueError, match=r"cov must have shape \(2, 2\)"):
        GaussianState(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="cov must be finite"):
        GaussianState(np.zeros(2), np.diag([1.0, np.inf]))


# Each covariance is judged by the same rule whether it builds a state or
# comes out of propagation or the retrodiction fold (``_check_pd``).
SHARED_RULE = {
    "identity": np.eye(2),
    "squeezed": np.diag([12.0, 1.0 / 12.0]),
    "broad-prior": 1e6 * np.eye(2),
    "correlated": np.array([[2.0, 1.9], [1.9, 2.0]]),
    "singular": np.array([[1.0, 1.0], [1.0, 1.0]]),
    "indefinite": np.diag([1.0, -2.0]),
    "negative-qq": np.diag([-1.0, -2.0]),
    # det = 1e400 overflows; LAPACK's det is inf > 0, so the state used to pass
    "overflowing-det": 1e200 * np.eye(2),
    # det = 1e-400 underflows to 0
    "underflowing-det": 1e-200 * np.eye(2),
}


def _refuses(build) -> bool:
    try:
        build()
    except (ValueError, CovarianceError):
        return True
    return False


@pytest.mark.parametrize("cov", SHARED_RULE.values(), ids=SHARED_RULE.keys())
def test_states_and_the_propagation_check_share_one_pd_rule(cov):
    refused = _refuses(lambda: _check_pd(_sym(cov), 0.0))
    assert _refuses(lambda: GaussianState(np.zeros(2), cov)) == refused
    assert _refuses(lambda: FilterState(np.zeros(2), cov, 0.0)) == refused
    if refused:
        with pytest.raises(ValueError, match=r"^cov must be positive definite, got \["):
            GaussianState(np.zeros(2), cov)


# Entries that probe the checks' edges: non-finite, signed zero,
# subnormal, and values whose products or sums overflow.
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300,
           1e154, 1e200, 1e300, 1.7e308]
ENTRY = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0), st.floats())
POSITIVE = st.one_of(st.sampled_from([1e-300, 1e-154, 1.0, 1e154, 1e300]),
                     st.floats(1e-300, 1e300))
SHAPES = [(), (1,), (2,), (3,), (4,), (0, 2), (1, 2), (2, 1), (2, 3), (3, 3),
          (1, 2, 2), (2, 2, 1)]


def _asymmetric(draw):
    """qp and qp + k tol scale on the off-diagonal, k close to the limit 1."""
    qq, pp, qp = draw(POSITIVE), draw(POSITIVE), draw(st.floats(-4.0, 4.0))
    scale = max(1.0, qq, pp, abs(qp))
    k = draw(st.one_of(st.sampled_from([0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0]),
                       st.floats(0.0, 2.0)))
    c = qp + draw(st.sampled_from([1.0, -1.0])) * k * _SYM_TOL * scale
    c = np.nextafter(c, draw(st.sampled_from([-np.inf, c, np.inf])))
    return np.array([[qq, qp], [c, pp]])


def _near_singular(draw):
    """qp^2 within a few ulps of qq pp, either side."""
    qq, pp = draw(POSITIVE), draw(POSITIVE)
    rho = 1.0 + draw(st.sampled_from([-1e-15, -2.2e-16, -1.1e-16, 0.0, 1.1e-16, 2.2e-16]))
    qp = draw(st.sampled_from([1.0, -1.0])) * rho * math.sqrt(qq) * math.sqrt(pp)
    return np.array([[qq, qp], [qp, pp]])


@st.composite
def cov_inputs(draw):
    kind = draw(st.sampled_from(["entries", "asymmetric", "near-singular", "shape"]))
    if kind == "entries":
        arr = np.array(draw(st.lists(ENTRY, min_size=4, max_size=4))).reshape(2, 2)
    elif kind == "asymmetric":
        arr = _asymmetric(draw)
    elif kind == "near-singular":
        arr = _near_singular(draw)
    else:
        arr = np.full(draw(st.sampled_from(SHAPES)), draw(ENTRY))
    return arr.tolist() if draw(st.booleans()) else arr


@st.composite
def mean_inputs(draw):
    shape = draw(st.sampled_from([(2,)] * 4 + SHAPES))
    size = math.prod(shape)
    return np.array(draw(st.lists(ENTRY, min_size=size, max_size=size))).reshape(shape)


def _outcome(check, x):
    """(result, None) or (None, exception) of ``check(x)``, numpy quiet."""
    with np.errstate(all="ignore"):
        try:
            return check(x), None
        except Exception as err:  # the oracle's own exception is the expectation
            return None, err


def _in_definiteness_band(cov) -> bool:
    """Where LAPACK's det and qq pp - qp^2 differ in sign, or either overflows.

    Only there may the scalar rule and the numpy oracle reach different
    definiteness verdicts on a finite, symmetric 2x2.
    """
    with np.errstate(all="ignore"):
        arr = np.asarray(cov, dtype=float)
        sym = 0.5 * (arr + arr.T)
        lapack = float(np.linalg.det(sym))
    qq, qp, pp = _sym(sym)
    scalar = qq * pp - qp * qp
    return ((lapack > 0.0) != (scalar > 0.0)
            or not math.isfinite(lapack) or not math.isfinite(scalar))


def _same_outcome(got, want):
    (got_value, got_err), (want_value, want_err) = got, want
    if want_err is None and got_err is None:
        assert np.array_equal(got_value, want_value)
        assert got_value.dtype == want_value.dtype
    else:
        assert type(got_err) is type(want_err)
        assert str(got_err) == str(want_err)


@settings(max_examples=600)
@given(cov=cov_inputs())
@example(cov=np.array([[2.0, 0.5 + 0.5e-9], [0.5, 3.0]]))  # symmetrized, not kept
@example(cov=np.diag([1.0, np.inf]))
@example(cov=np.array([[np.nan, 0.0], [0.0, 1.0]]))
@example(cov=np.eye(3))
@example(cov=1e200 * np.eye(2))
def test_cov_check_matches_the_numpy_oracle(cov):
    got = _outcome(_as_cov, cov)
    want = _outcome(reference_state._as_cov, cov)
    if (got[1] is None) != (want[1] is None):
        # one accepted what the other refused: only definiteness may do that
        assert _in_definiteness_band(cov), (got, want)
        refusal = got[1] if got[1] is not None else want[1]
        assert str(refusal).startswith("cov must be positive definite, got")
        return
    _same_outcome(got, want)


@settings(max_examples=300)
@given(mean=mean_inputs())
@example(mean=np.array([0.0, np.nan]))
@example(mean=np.array([-np.inf, 1.0]))
def test_mean_check_matches_the_numpy_oracle(mean):
    _same_outcome(_outcome(_as_mean, mean), _outcome(reference_state._as_mean, mean))
