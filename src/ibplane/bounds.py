"""Finite-sample worst-case correction of an empirical tradeoff curve.

With only n samples, the empirical relevance of a representation with
effective description length K = 2^R can overshoot the true value by up to
c * K * |Y| / sqrt(n) (the constant is not pinned down by theory, so it is an
explicit parameter surfaced in all outputs). Subtracting that slack gives a
worst-case curve whose minimum-distortion point is the best defensible
operating point at sample size n; networks are scored by their distance from
it on both axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import InfoCurve
from .solver import _check_fields


@dataclass(frozen=True)
class BoundPoint:
    R_hat: float
    I_Y_hat: float
    I_Y_worst: float
    D_worst: float

    def __post_init__(self):
        _check_fields(self, "bound point", vars(self))  # every field, in order


@dataclass(frozen=True)
class BoundCurve:
    """Worst-case corrected curve plus its optimum (R_star, D_star), the
    point at star_index.

    rate_corrections carries the companion c*K/sqrt(n) slack on the rate
    axis per point; it is reported but plays no role in the optimum search,
    which happens on the distortion axis.
    """

    points: tuple[BoundPoint, ...]
    n: int
    c_bound: float
    R_star: float
    D_star: float
    rate_corrections: tuple[float, ...]
    star_index: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "rate_corrections", tuple(self.rate_corrections))

    @property
    def optimum(self) -> tuple[float, float]:
        return (self.R_star, self.D_star)


@dataclass(frozen=True)
class NetworkGaps:
    """Distortion and rate excess of a network over the worst-case optimum."""

    R_N: float
    D_N: float
    delta_G: float
    delta_C: float


def worst_case_correction(K: float, y_card: int, n: int, c_bound: float = 1.0) -> float:
    """Additive worst-case slack c * K * |Y| / sqrt(n) on empirical relevance."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if K < 1:
        raise ValueError(f"effective cardinality must be >= 1, got {K}")
    if not (math.isfinite(c_bound) and c_bound >= 0):
        raise ValueError(f"c_bound must be finite and >= 0, got {c_bound}")
    if y_card < 1:
        raise ValueError(f"y_card must be >= 1, got {y_card}")
    return c_bound * K * y_card / math.sqrt(n)


def bound_curve(curve: InfoCurve, n: int, c_bound: float = 1.0, *,
                y_card: int) -> BoundCurve:
    """Correct every curve point and pick the minimum worst-case distortion.

    K is the effective description length 2^R of each point (the nominal
    cluster count is not what the finite-sample penalty scales with). The
    empirical I(X;Y) is recovered from any point as D_IB + I_Y; the output
    alphabet size is not derivable from the curve, so it is an explicit
    argument. Ties on the distortion axis break toward the smaller rate.
    """
    if not curve.points:
        raise ValueError("cannot bound an empty curve")
    pts = []
    corrections = []
    for p in curve.points:
        K = 2.0 ** p.R
        corr = worst_case_correction(K, y_card, n, c_bound)
        i_worst = max(0.0, p.I_Y - corr)
        # written as D_IB plus a nonnegative term so the pointwise ordering
        # D_worst >= D_IB holds exactly in floating point
        d_worst = p.D_IB + (p.I_Y - i_worst)
        pts.append(BoundPoint(R_hat=p.R, I_Y_hat=p.I_Y, I_Y_worst=i_worst,
                              D_worst=d_worst))
        corrections.append(c_bound * K / math.sqrt(n))
    star = min(range(len(pts)), key=lambda i: (pts[i].D_worst, pts[i].R_hat))
    return BoundCurve(
        points=tuple(pts), n=n, c_bound=c_bound,
        R_star=pts[star].R_hat, D_star=pts[star].D_worst,
        rate_corrections=tuple(corrections), star_index=star,
    )


def network_gaps(b: BoundCurve, R_N: float, D_N: float) -> NetworkGaps:
    """Generalization gap D_N - D_star and complexity gap R_N - R_star."""
    return NetworkGaps(R_N=R_N, D_N=D_N,
                       delta_G=D_N - b.D_star, delta_C=R_N - b.R_star)
