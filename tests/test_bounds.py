"""Worst-case finite-sample corrections and network gaps."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibplane.bounds import BoundCurve, bound_curve, network_gaps, worst_case_correction
from ibplane.curve import InfoCurve


def make_curve(points):
    """points: iterable of (beta, R, I_Y) with I_XY inferred as 1.0."""
    i_xy = 1.0
    beta, R, I_Y = zip(*points)
    return InfoCurve(beta, R, I_Y, [i_xy - i for i in I_Y], [1] * len(beta))


STAIRCASE = make_curve([
    (0.5, 0.0, 0.0),
    (2.0, 1.0, 0.6),
    (5.0, 2.0, 0.85),
    (20.0, 3.0, 1.0),
])


# --- correction -------------------------------------------------------------

def test_correction_vanishes_at_huge_n():
    assert worst_case_correction(2, 2, 10 ** 12, 1.0) == pytest.approx(4e-6, rel=1e-12)


def test_correction_arithmetic():
    assert worst_case_correction(4, 2, 10_000, 1.0) == pytest.approx(0.08, abs=1e-15)


def test_correction_linear_in_k():
    a = worst_case_correction(3, 2, 500, 1.0)
    b = worst_case_correction(6, 2, 500, 1.0)
    assert b == pytest.approx(2 * a, rel=1e-15)


def test_correction_monotonicity():
    ks = [1, 2, 4, 8]
    ns = [10, 100, 1000]
    for k1, k2 in zip(ks, ks[1:]):
        assert worst_case_correction(k2, 2, 100) > worst_case_correction(k1, 2, 100)
    for n1, n2 in zip(ns, ns[1:]):
        assert worst_case_correction(2, 2, n2) < worst_case_correction(2, 2, n1)


def test_correction_validates():
    with pytest.raises(ValueError):
        worst_case_correction(2, 2, 0)
    with pytest.raises(ValueError):
        worst_case_correction(0.5, 2, 10)


# --- bound curve -------------------------------------------------------------

def test_bound_large_n_equals_empirical():
    b = bound_curve(STAIRCASE, 10 ** 14, 1.0, y_card=2)
    np.testing.assert_allclose(b.I_Y_worst, STAIRCASE.I_Y, rtol=0, atol=1e-5)
    np.testing.assert_allclose(b.D_worst, STAIRCASE.D_IB, rtol=0, atol=1e-5)
    # optimum sits at the maximal-relevance point
    assert b.R_star == STAIRCASE.R[-1]


def test_bound_small_n_forces_compression():
    b = bound_curve(STAIRCASE, 50, 1.0, y_card=2)
    assert b.R_star < STAIRCASE.R[-1]


def test_bound_single_point_curve():
    single = make_curve([(1.0, 0.5, 0.3)])
    b = bound_curve(single, 100, 1.0, y_card=2)
    assert (b.R_star, b.D_star) == (0.5, b.D_worst[0])


def test_bound_pointwise_ordering_exact():
    for n in (10, 100, 10_000):
        b = bound_curve(STAIRCASE, n, 1.0, y_card=2)
        assert np.all(b.D_worst >= STAIRCASE.D_IB)  # exact float comparison
        assert np.all(b.I_Y_worst <= STAIRCASE.I_Y)


def test_bound_optimum_dominates_grid():
    b = bound_curve(STAIRCASE, 200, 1.0, y_card=2)
    assert np.all(b.D_worst >= b.D_star)


def test_bound_rstar_monotone_in_n():
    stars = [bound_curve(STAIRCASE, n, 1.0, y_card=2).R_star
             for n in (10 ** 6, 10 ** 4, 10 ** 3, 10 ** 2)]
    assert all(b <= a for a, b in zip(stars, stars[1:]))


def test_bound_clamps_at_zero():
    b = bound_curve(STAIRCASE, 2, 1.0, y_card=2)
    assert np.all(b.I_Y_worst >= 0.0)


def test_bound_rejects_empty():
    with pytest.raises(ValueError):
        bound_curve(InfoCurve([], [], [], [], []), 10, 1.0, y_card=2)


def test_rate_corrections_reported():
    b = bound_curve(STAIRCASE, 100, 1.0, y_card=2)
    for i, R in enumerate(STAIRCASE.R.tolist()):
        assert b.rate_correction(i) == pytest.approx(2.0 ** R / math.sqrt(100), rel=1e-12)


def test_rate_past_the_float_range_is_refused():
    # 2^R overflows from R = 1024: a ValueError naming R, not an OverflowError
    huge = InfoCurve([1.0, 2.0], [1023.0, 2000.0], [0.0, 0.0], [0.0, 0.0], [1, 1])
    with pytest.raises(ValueError, match=r"^R = 2000\.0 bits gives 2\^R beyond the float range$"):
        bound_curve(huge, 100, 1.0, y_card=2)
    # a bound row's R_hat keeps its rate correction finite, up to the last float below 1024
    with pytest.raises(ValueError, match=r"^bound point R_hat = 1024\.0 bits: 2\^R_hat overflows$"):
        BoundCurve([1024.0], [0.0], [0.0], [0.0], 100, 1.0)
    top = BoundCurve([math.nextafter(1024.0, 0.0)], [0.0], [0.0], [0.0], 100, 1.0)
    assert math.isfinite(top.rate_correction(0))


def test_slack_past_the_float_range_is_refused():
    # c * K * |Y| / sqrt(n) = 1e308 * 2 * 2 / 1 overflows; so would the rate
    # correction the bounds summary reports, which JSON cannot hold
    one = InfoCurve([1.0], [1.0], [0.5], [0.5], [2])
    message = "^{}$".format(re.escape(
        "c_bound = 1e+308 gives a slack c * K * |Y| / sqrt(n) beyond the float range"))
    with pytest.raises(ValueError, match=message):
        bound_curve(one, 1, 1e308, y_card=2)
    with pytest.raises(ValueError, match=message):
        worst_case_correction(2.0, 2, 1, 1e308)
    assert worst_case_correction(2.0, 1, 1, 1e308 / 2) == 1e308


# one-row tables, each with one fault, and the message that refuses it: a
# field that is not finite and >= 0 (fields checked in column order), then
# I_Y_worst above I_Y_hat, then an R_hat whose 2^R_hat overflows
GOOD_ROW = {"R_hat": 0.5, "I_Y_hat": 0.3, "I_Y_worst": 0.1, "D_worst": 0.4}
BAD_ROWS = {
    **{f"{k}={v}": ({**GOOD_ROW, k: v}, f"bound point has {what} {k}")
       for k in GOOD_ROW for v, what in ((math.nan, "non-finite"), (math.inf, "non-finite"),
                                         (-math.inf, "non-finite"), (-0.5, "negative"))},
    "I_Y_worst-above-I_Y_hat": ({**GOOD_ROW, "I_Y_worst": 0.4},
                                "bound point has I_Y_worst above I_Y_hat"),
    "R_hat=1024": ({**GOOD_ROW, "R_hat": 1024.0},
                   "bound point R_hat = 1024.0 bits: 2^R_hat overflows"),
    "R_hat=2000": ({**GOOD_ROW, "R_hat": 2000.0},
                   "bound point R_hat = 2000.0 bits: 2^R_hat overflows"),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_bound_curve_refuses_a_bad_row(case):
    row, message = BAD_ROWS[case]
    BoundCurve(*([v] for v in GOOD_ROW.values()), 100, 1.0)
    with pytest.raises(ValueError) as caught:
        BoundCurve(*([v] for v in row.values()), 100, 1.0)
    assert str(caught.value) == message


@st.composite
def curves(draw):
    """Monotone curves with R up to about 20 bits and I(X;Y) up to 4 bits."""
    n_pts = draw(st.integers(1, 12))
    steps = st.lists(st.floats(0.0, 2.0), min_size=n_pts, max_size=n_pts)
    beta = np.cumsum(np.array(draw(steps)) + 0.01)
    R = np.minimum(np.cumsum(draw(steps)), 20.0)
    i_xy = draw(st.floats(0.0, 4.0))
    I_Y = np.minimum(np.cumsum(draw(steps)) / 10.0, i_xy)
    return InfoCurve(beta, R, I_Y, np.maximum(0.0, i_xy - I_Y), [1] * n_pts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curves(), st.integers(1, 10 ** 9), st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e308)),
       st.integers(1, 50))
def test_bound_columns_match_the_per_point_formula(c, n, c_bound, y_card):
    # bit for bit, Python's 2.0 ** R and max(0, .) per point included; a
    # slack past the float range is refused, naming c_bound, with no warning
    slacks = [c_bound * 2.0 ** R * y_card / math.sqrt(n) for R in c.R.tolist()]
    if not all(map(math.isfinite, slacks)):
        with pytest.raises(ValueError, match=r"^c_bound = .* beyond the float range$"):
            bound_curve(c, n, c_bound, y_card=y_card)
        return
    b = bound_curve(c, n, c_bound, y_card=y_card)
    want = []
    for R, I_Y, D_IB in zip(c.R.tolist(), c.I_Y.tolist(), c.D_IB.tolist()):
        i_worst = max(0.0, I_Y - c_bound * 2.0 ** R * y_card / math.sqrt(n))
        want.append((R, I_Y, i_worst, D_IB + (I_Y - i_worst)))
    got = list(zip(b.R_hat.tolist(), b.I_Y_hat.tolist(), b.I_Y_worst.tolist(),
                   b.D_worst.tolist()))
    assert [tuple(map(float.hex, w)) for w in want] == [tuple(map(float.hex, g)) for g in got]
    star = min(range(len(want)), key=lambda i: (want[i][3], want[i][0]))
    assert b.star_index == star
    assert (b.R_star, b.D_star) == (want[star][0], want[star][3])
    assert b.rate_correction(star) == c_bound * 2.0 ** want[star][0] / math.sqrt(n)


def test_bound_star_ties_go_to_the_first_of_the_smaller_rate():
    b = BoundCurve([0.5, 0.2, 0.2, 0.1], [0.3] * 4, [0.1] * 4, [0.4, 0.3, 0.3, 0.35], 100, 1.0)
    assert b.star_index == 1
    assert [b.R_hat[1], b.I_Y_hat[1], b.I_Y_worst[1], b.D_worst[1]] == [0.2, 0.3, 0.1, 0.3]


# --- network gaps ------------------------------------------------------------

def test_gaps_zero_at_optimum():
    b = bound_curve(STAIRCASE, 1000, 1.0, y_card=2)
    g = network_gaps(b, b.R_star, b.D_star)
    assert g.delta_G == 0.0
    assert g.delta_C == 0.0


def test_gaps_definition_arithmetic():
    b = bound_curve(STAIRCASE, 1000, 1.0, y_card=2)
    g = network_gaps(b, b.R_star, b.D_star + 0.1)
    assert g.delta_G == pytest.approx(0.1, abs=1e-15)
    assert g.delta_C == 0.0
    # identities hold exactly
    assert g.delta_G == g.D_N - b.D_star
    assert g.delta_C == g.R_N - b.R_star
