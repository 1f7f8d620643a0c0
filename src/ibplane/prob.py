"""Exact discrete probability primitives.

Joints, marginals, conditionals, entropies, divergences, i.i.d. sampling and
empirical estimation over finite alphabets. All information quantities are in
bits (log base 2), 0*log(0) counts as 0, and conditioning on a zero-mass row
yields a uniform row. Values are immutable after construction and every
operation is pure. A table takes its dimensions from its array: a joint's
x_card and y_card, a conditional matrix's rows and cols and a sample set's n
are read from the shape, never passed beside it. One function,
`_check_table`, checks every table: each distribution, joint and conditional
matrix (the solver's `Encoder` is one) and the solver's encoder stacks. One
function, `pushforward_bits`, pushes a joint through deterministic codes of
X: the analyzer's layer codes and the oracle's maps. A joint computes its
constants p(x), p(y|x), I(X;Y) and H(X) on first use, once per object, and
hands out the same read-only values to every later caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, EmptySampleError

PROB_TOL = 1e-9  # normalization tolerance at construction


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_table(p, what: str, axes: int, rows: bool = False) -> np.ndarray:
    """p as a read-only float array, checked as a probability table: `axes`
    axes, none of them empty, every entry finite and >= 0, and summing to 1
    within PROB_TOL, in total or, with rows, along the last axis."""
    p = _frozen_array(p)
    if p.ndim != axes or 0 in p.shape:
        want = ", ".join("n" * axes)
        raise DimensionError(f"{what} has shape {p.shape}, not a nonempty ({want})")
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError(f"negative or non-finite {what} entry")
    sums = p.sum(axis=-1 if rows else None)
    off = np.abs(sums - 1.0) > PROB_TOL
    if off.any():
        raise ValueError(f"{what}{' row' if rows else ''} sums to "
                         f"{float(np.extract(off, sums)[0])!r}, not 1")
    return p


# ---------------------------------------------------------------------------
# Array-level kernels. These carry the actual math; the typed wrappers below
# delegate to them, and the solver modules call them directly on raw arrays.
# ---------------------------------------------------------------------------

def entropy_bits(p) -> float:
    """Shannon entropy -sum p log2 p of a probability vector, in bits, >= 0."""
    p = np.asarray(p, dtype=float)
    pos = p > 0
    return max(0.0, float(-(p[pos] * np.log2(p[pos])).sum()))


def kl_bits(p, q) -> float:
    """KL divergence sum p log2(p/q) in bits; +inf when q misses p's support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionError(f"KL operands differ in shape: {p.shape} vs {q.shape}")
    pos = p > 0
    if np.any(q[pos] == 0):
        return math.inf
    return float((p[pos] * np.log2(p[pos] / q[pos])).sum())


def js_bits(p, q):
    """Jensen-Shannon divergence in bits over the last axis, broadcast over
    the others; always finite and symmetric."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape[-1:]:
        raise DimensionError(f"JS operands differ in length: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)  # > 0 wherever p or q is: 0.5 KL(p || m) + 0.5 KL(q || m)
    return sum(0.5 * (a * np.log2(np.where(a > 0, a, 1.0) / np.where(a > 0, m, 1.0))).sum(axis=-1)
               for a in (p, q))


def mi_bits_stack(p: np.ndarray) -> np.ndarray:
    """Mutual information in bits, >= 0, of every joint of a (B, M, N) stack."""
    outer = np.add.reduce(p, axis=2, keepdims=True) * np.add.reduce(p, axis=1, keepdims=True)
    q = np.divide(p, outer, out=np.ones_like(p), where=p > 0)
    return np.maximum(0.0, np.add.reduce(p * np.log2(q), axis=(1, 2)))


def pushforward_bits(j: JointDistribution, codes) -> tuple[np.ndarray, np.ndarray]:
    """(H(T), I(T;Y)) in bits, as (B,) arrays, of every deterministic code
    T = codes[b][X] of a (B, X) stack of codes >= 0; H(T) = I(X;T), since T
    is a function of X. One bincount pushes p(x) and each column of p(x, y)
    through every code, adding each code's masses in x order."""
    codes = np.asarray(codes)
    w = np.column_stack((j.px, j.p))  # (X, 1 + Y)
    b, n, k = len(codes), int(codes.max()) + 1, w.shape[1]
    cells = (codes + n * np.arange(b)[:, None])[:, :, None] * k + np.arange(k)
    pushed = np.bincount(cells.ravel(), weights=np.broadcast_to(w, cells.shape).ravel(),
                         minlength=b * n * k).reshape(b, n, k)
    pt = pushed[:, :, 0]
    # 0.0 - s, not -s: a one-symbol code has H(T) = +0.0, never -0.0
    h = np.maximum(0.0, 0.0 - (pt * np.log2(np.where(pt > 0, pt, 1.0))).sum(axis=1))
    return h, mi_bits_stack(pushed[:, :, 1:])


def mi_bits(joint) -> float:
    """Mutual information of a joint probability matrix, in bits, >= 0."""
    return float(mi_bits_stack(np.asarray(joint, dtype=float)[None])[0])


def conditional_rows(joint) -> tuple[np.ndarray, np.ndarray]:
    """Split a joint matrix into the row marginal and row-conditional matrix.

    Rows with zero marginal mass get a uniform conditional row; they carry no
    probability, so downstream expectations are unaffected.
    """
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    cond = np.empty_like(joint)
    pos = px > 0
    cond[pos] = joint[pos] / px[pos, None]
    cond[~pos] = 1.0 / joint.shape[1]
    return px, cond


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over a finite alphabet."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_table(self.p, "DiscreteDistribution", 1))


@dataclass(frozen=True)
class JointDistribution:
    """Joint p(X, Y) over finite alphabets as an x_card by y_card matrix."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_table(self.p, "JointDistribution", 2))

    x_card = property(lambda self: self.p.shape[0])
    y_card = property(lambda self: self.p.shape[1])

    @cached_property
    def px(self) -> np.ndarray:
        """Row marginal p(x), read-only, as `conditional_rows` gives it."""
        return _frozen_array(conditional_rows(self.p)[0])

    @cached_property
    def pygx(self) -> np.ndarray:
        """Row conditionals p(y|x), read-only, as `conditional_rows` gives them."""
        return _frozen_array(conditional_rows(self.p)[1])

    @cached_property
    def i_xy(self) -> float:
        """I(X;Y) in bits."""
        return mi_bits(self.p)

    @cached_property
    def h_x(self) -> float:
        """H(X) in bits."""
        return entropy_bits(self.px)


@dataclass(frozen=True)
class ConditionalMatrix:
    """Row-stochastic matrix: one distribution per conditioning symbol."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_table(self.p, type(self).__name__, 2, rows=True))

    rows = property(lambda self: self.p.shape[0])
    cols = property(lambda self: self.p.shape[1])


@dataclass(frozen=True)
class SampleSet:
    """Sequence of n (x_index, y_index) pairs drawn from a joint."""

    pairs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pairs", _frozen_array(self.pairs, dtype=np.int64))
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise DimensionError("pairs must be an (n, 2) integer array")
        if np.any(self.pairs < 0):
            raise ValueError("negative sample index")

    n = property(lambda self: len(self.pairs))

    @classmethod
    def from_pairs(cls, pairs) -> "SampleSet":
        return cls(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def entropy(d: DiscreteDistribution) -> float:
    """Entropy of a distribution in bits; lies in [0, log2 |support|]."""
    return entropy_bits(d.p)


def mutual_information(j: JointDistribution) -> float:
    """Mutual information I(X;Y) of a joint, in bits."""
    return j.i_xy


def sample_pairs(j: JointDistribution, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. pairs from the joint; fully determined by the seed."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    flat = j.p.ravel()
    flat = flat / flat.sum()
    cells = rng.choice(flat.size, size=n, p=flat)
    pairs = np.stack([cells // j.y_card, cells % j.y_card], axis=1)
    return SampleSet(pairs)


def empirical_joint(s: SampleSet, x_card: int, y_card: int) -> JointDistribution:
    """Plug-in estimate count(x,y)/n of the joint from a sample."""
    if s.n == 0:
        raise EmptySampleError("cannot estimate a joint from zero samples")
    xs = s.pairs[:, 0]
    ys = s.pairs[:, 1]
    if np.any(xs >= x_card) or np.any(ys >= y_card):
        raise DimensionError("sample index outside the declared alphabets")
    counts = np.bincount(xs * y_card + ys, minlength=x_card * y_card)
    p = counts.reshape(x_card, y_card) / float(s.n)
    return JointDistribution(p)
