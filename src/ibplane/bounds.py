"""Finite-sample worst-case correction of an empirical tradeoff curve.

With only n samples, the empirical relevance of a representation with
effective description length K = 2^R can overshoot the true value by up to
c * K * |Y| / sqrt(n) (the constant is not pinned down by theory, so it is an
explicit parameter surfaced in all outputs). Subtracting that slack gives a
worst-case curve whose minimum-distortion point is the best defensible
operating point at sample size n; networks are scored by their distance from
it on both axes. A BoundCurve computes that optimum from its points on read.
"""

from __future__ import annotations

import functools
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
        if self.I_Y_worst > self.I_Y_hat:
            raise ValueError("bound point has I_Y_worst above I_Y_hat")


@dataclass(frozen=True)
class BoundCurve:
    """Worst-case corrected curve; its optimum (R_star, D_star) is the point
    at star_index.

    rate_corrections carries the companion c*K/sqrt(n) slack on the rate
    axis per point; it is reported but plays no role in the optimum search,
    which happens on the distortion axis. star_index, R_star, D_star and
    rate_corrections are computed from the points on read.
    """

    points: tuple[BoundPoint, ...]
    n: int
    c_bound: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @functools.cached_property
    def star_index(self) -> int:
        """The first point of least D_worst; ties break toward the smaller rate."""
        return min(range(len(self.points)),
                   key=lambda i: (self.points[i].D_worst, self.points[i].R_hat))

    R_star = property(lambda self: self.points[self.star_index].R_hat)
    D_star = property(lambda self: self.points[self.star_index].D_worst)
    rate_corrections = property(lambda self: tuple(
        self.c_bound * 2.0 ** p.R_hat / math.sqrt(self.n) for p in self.points))


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
    """Correct every curve point; the BoundCurve finds the minimum worst-case
    distortion (`BoundCurve.star_index`).

    K is the effective description length 2^R of each point (the nominal
    cluster count is not what the finite-sample penalty scales with). The
    empirical I(X;Y) is recovered from any point as D_IB + I_Y; the output
    alphabet size is not derivable from the curve, so it is an explicit
    argument.
    """
    if not curve.points:
        raise ValueError("cannot bound an empty curve")
    pts = []
    for p in curve.points:
        i_worst = max(0.0, p.I_Y - worst_case_correction(2.0 ** p.R, y_card, n, c_bound))
        # written as D_IB plus a nonnegative term so the pointwise ordering
        # D_worst >= D_IB holds exactly in floating point
        pts.append(BoundPoint(p.R, p.I_Y, i_worst, p.D_IB + (p.I_Y - i_worst)))
    return BoundCurve(tuple(pts), n, c_bound)


def network_gaps(b: BoundCurve, R_N: float, D_N: float) -> NetworkGaps:
    """Generalization gap D_N - D_star and complexity gap R_N - R_star."""
    return NetworkGaps(R_N=R_N, D_N=D_N,
                       delta_G=D_N - b.D_star, delta_C=R_N - b.R_star)
