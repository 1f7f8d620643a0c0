"""Finite-sample worst-case correction of an empirical tradeoff curve.

With only n samples, the empirical relevance of a representation with
effective description length K = 2^R can overshoot the true value by up to
c * K * |Y| / sqrt(n) (the constant is not pinned down by theory, so it is an
explicit parameter surfaced in all outputs). Subtracting that slack gives a
worst-case curve whose minimum-distortion point is the best defensible
operating point at sample size n; networks are scored by their distance from
it on both axes. A BoundCurve holds the corrected curve as columns, corrected
and checked a column at a time, and computes that optimum from them on read.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .curve import InfoCurve
from .errors import DimensionError
from .prob import _frozen_array
from .solver import _field_faults, _raise_first


def _bound_faults(R_hat, I_Y_hat, I_Y_worst, D_worst) -> list:
    """The rules of a bound row, on columns, as `_raise_first` takes them:
    every field finite and >= 0, I_Y_worst at most I_Y_hat, and R_hat below
    1024, so that the row's rate correction never overflows."""
    return [*_field_faults("bound point", R_hat=R_hat, I_Y_hat=I_Y_hat, I_Y_worst=I_Y_worst,
                           D_worst=D_worst),
            (I_Y_worst > I_Y_hat, lambda i: "bound point has I_Y_worst above I_Y_hat"),
            (R_hat >= 1024, lambda i: f"bound point R_hat = {R_hat[i].item()!r} bits: "
                                      "2^R_hat overflows")]


_BOUND_COLUMNS = ("R_hat", "I_Y_hat", "I_Y_worst", "D_worst")


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """Worst-case corrected curve as read-only arrays, one entry per point;
    its optimum (R_star, D_star) is the point at star_index.

    rate_correction(i) is the companion c*K/sqrt(n) slack on the rate axis at
    point i, reported but playing no role in the optimum search, which happens
    on the distortion axis. star_index, R_star, D_star and the rate
    corrections are computed on read.
    """

    R_hat: np.ndarray
    I_Y_hat: np.ndarray
    I_Y_worst: np.ndarray
    D_worst: np.ndarray
    n: int
    c_bound: float

    def __post_init__(self):
        columns = [_frozen_array(getattr(self, k)) for k in _BOUND_COLUMNS]
        for k, v in zip(_BOUND_COLUMNS, columns):
            object.__setattr__(self, k, v)
        if self.R_hat.ndim != 1 or any(c.shape != self.R_hat.shape for c in columns):
            raise DimensionError("bound arrays must have one entry per point")
        _raise_first(_bound_faults(*columns))

    @functools.cached_property
    def star_index(self) -> int:
        """The first point of least D_worst; ties break toward the smaller rate."""
        return int(np.lexsort((self.R_hat, self.D_worst))[0])

    R_star = property(lambda self: self.R_hat[self.star_index].item())
    D_star = property(lambda self: self.D_worst[self.star_index].item())

    def rate_correction(self, i: int) -> float:
        return self.c_bound * 2.0 ** self.R_hat[i].item() / math.sqrt(self.n)


@dataclass(frozen=True)
class NetworkGaps:
    """Distortion and rate excess of a network over the worst-case optimum."""

    R_N: float
    D_N: float
    delta_G: float
    delta_C: float


def worst_case_correction(K, y_card: int, n: int, c_bound: float = 1.0):
    """Additive worst-case slack c * K * |Y| / sqrt(n) on empirical relevance,
    for one K or an array of them; n and y_card are ints that must fit a float,
    and every slack must be finite."""
    if not 1 <= n <= sys.float_info.max:
        raise ValueError(f"sample size must be >= 1 and at most the largest float, got {n}")
    if np.min(K) < 1:
        raise ValueError(f"effective cardinality must be >= 1, got {np.min(K)}")
    if not (math.isfinite(c_bound) and c_bound >= 0):
        raise ValueError(f"c_bound must be finite and >= 0, got {c_bound}")
    if not 1 <= y_card <= sys.float_info.max:
        raise ValueError(f"y_card must be >= 1 and at most the largest float, got {y_card}")
    with np.errstate(over="ignore"):
        slack = c_bound * K * y_card / math.sqrt(n)
    if not np.all(np.isfinite(slack)):
        raise ValueError(f"c_bound = {c_bound!r} gives a slack c * K * |Y| / sqrt(n) "
                         "beyond the float range")
    return slack


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
    if not curve.R.size:
        raise ValueError("cannot bound an empty curve")
    _raise_first([(curve.R >= 1024,  # the least R whose 2.0 ** R overflows
                   lambda i: f"R = {curve.R[i].item()!r} bits gives 2^R beyond the float range")])
    # Python's 2.0 ** R per point: numpy's power can differ in the last bit
    slack = worst_case_correction(np.array([2.0 ** r for r in curve.R.tolist()]), y_card, n,
                                  c_bound)
    i_worst = curve.I_Y - slack
    i_worst = np.where(i_worst > 0.0, i_worst, 0.0)  # max(0.0, .) per point
    # written as D_IB plus a nonnegative term so the pointwise ordering
    # D_worst >= D_IB holds exactly in floating point
    return BoundCurve(curve.R, curve.I_Y, i_worst, curve.D_IB + (curve.I_Y - i_worst), n, c_bound)


def network_gaps(b: BoundCurve, R_N: float, D_N: float) -> NetworkGaps:
    """Generalization gap D_N - D_star and complexity gap R_N - R_star."""
    return NetworkGaps(R_N=R_N, D_N=D_N,
                       delta_G=D_N - b.D_star, delta_C=R_N - b.R_star)
