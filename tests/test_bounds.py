"""Worst-case finite-sample corrections and network gaps."""

import math

import pytest

from ibplane.bounds import BoundCurve, BoundPoint, bound_curve, network_gaps, worst_case_correction
from ibplane.curve import CurvePoint, InfoCurve


def make_curve(points):
    """points: iterable of (beta, R, I_Y) with I_XY inferred as 1.0."""
    i_xy = 1.0
    pts = tuple(
        CurvePoint(beta=b, R=r, I_Y=i, D_IB=i_xy - i, eff_card=1)
        for b, r, i in points
    )
    return InfoCurve(pts)


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
    for raw, pt in zip(STAIRCASE.points, b.points):
        assert pt.I_Y_worst == pytest.approx(raw.I_Y, abs=1e-5)
        assert pt.D_worst == pytest.approx(raw.D_IB, abs=1e-5)
    # optimum sits at the maximal-relevance point
    assert b.R_star == STAIRCASE.points[-1].R


def test_bound_small_n_forces_compression():
    b = bound_curve(STAIRCASE, 50, 1.0, y_card=2)
    assert b.R_star < STAIRCASE.points[-1].R


def test_bound_single_point_curve():
    single = make_curve([(1.0, 0.5, 0.3)])
    b = bound_curve(single, 100, 1.0, y_card=2)
    assert (b.R_star, b.D_star) == (0.5, b.points[0].D_worst)


def test_bound_pointwise_ordering_exact():
    for n in (10, 100, 10_000):
        b = bound_curve(STAIRCASE, n, 1.0, y_card=2)
        for raw, pt in zip(STAIRCASE.points, b.points):
            assert pt.D_worst >= raw.D_IB  # exact float comparison
            assert pt.I_Y_worst <= raw.I_Y


def test_bound_optimum_dominates_grid():
    b = bound_curve(STAIRCASE, 200, 1.0, y_card=2)
    assert all(p.D_worst >= b.D_star for p in b.points)


def test_bound_rstar_monotone_in_n():
    stars = [bound_curve(STAIRCASE, n, 1.0, y_card=2).R_star
             for n in (10 ** 6, 10 ** 4, 10 ** 3, 10 ** 2)]
    assert all(b <= a for a, b in zip(stars, stars[1:]))


def test_bound_clamps_at_zero():
    b = bound_curve(STAIRCASE, 2, 1.0, y_card=2)
    assert all(p.I_Y_worst >= 0.0 for p in b.points)


def test_bound_rejects_empty():
    with pytest.raises(ValueError):
        bound_curve(InfoCurve(()), 10, 1.0, y_card=2)


def test_rate_corrections_reported():
    b = bound_curve(STAIRCASE, 100, 1.0, y_card=2)
    for raw, corr in zip(STAIRCASE.points, b.rate_corrections):
        assert corr == pytest.approx(2.0 ** raw.R / math.sqrt(100), rel=1e-12)


def test_rate_past_the_float_range_is_refused():
    # 2^R overflows from R = 1024: a ValueError naming R, not an OverflowError
    huge = InfoCurve((CurvePoint(1.0, 1023.0, 0.0, 0.0, 1), CurvePoint(2.0, 2000.0, 0.0, 0.0, 1)))
    with pytest.raises(ValueError, match=r"^R = 2000\.0 bits gives 2\^R beyond the float range$"):
        bound_curve(huge, 100, 1.0, y_card=2)
    # a bound point's R_hat keeps its rate correction finite, up to the last float below 1024
    with pytest.raises(ValueError, match=r"^bound point R_hat = 1024\.0 bits: 2\^R_hat overflows$"):
        BoundPoint(1024.0, 0.0, 0.0, 0.0)
    top = BoundCurve((BoundPoint(math.nextafter(1024.0, 0.0), 0.0, 0.0, 0.0),), 100, 1.0)
    assert math.isfinite(top.rate_corrections[0])


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
