"""Exact discrete probability primitives.

Joints, marginals, conditionals, entropies, divergences, i.i.d. sampling and
empirical estimation over finite alphabets. All information quantities are in
bits (log base 2), 0*log(0) counts as 0, and conditioning on a zero-mass row
yields a uniform row. Values are immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptySampleError

PROB_TOL = 1e-9  # normalization tolerance at construction


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


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


def js_bits(p, q) -> float:
    """Jensen-Shannon divergence in bits; always finite and symmetric."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)
    return 0.5 * kl_bits(p, m) + 0.5 * kl_bits(q, m)


def mi_bits(joint) -> float:
    """Mutual information of a joint probability matrix, in bits, >= 0."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    outer = np.outer(px, py)
    pos = joint > 0
    return max(0.0, float((joint[pos] * np.log2(joint[pos] / outer[pos])).sum()))


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
        object.__setattr__(self, "p", _frozen_array(self.p))
        if self.p.ndim != 1 or self.p.size < 1:
            raise DimensionError("distribution must be a nonempty vector")
        if not np.all(np.isfinite(self.p)) or np.any(self.p < 0):
            raise ValueError("negative or non-finite probability entry")
        if abs(float(self.p.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {self.p.sum()!r}, not 1")

    def __len__(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class JointDistribution:
    """Joint p(X, Y) over finite alphabets as an x_card by y_card matrix."""

    x_card: int
    y_card: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p))
        if self.x_card < 1 or self.y_card < 1:
            raise DimensionError("alphabet cardinalities must be >= 1")
        if self.p.shape != (self.x_card, self.y_card):
            raise DimensionError(
                f"joint matrix shape {self.p.shape} does not match "
                f"({self.x_card}, {self.y_card})"
            )
        if not np.all(np.isfinite(self.p)) or np.any(self.p < 0):
            raise ValueError("negative or non-finite joint entry")
        if abs(float(self.p.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"joint sums to {self.p.sum()!r}, not 1")

    @classmethod
    def from_matrix(cls, p) -> "JointDistribution":
        p = np.asarray(p, dtype=float)
        if p.ndim != 2:
            raise DimensionError("joint must be a 2-D matrix")
        return cls(p.shape[0], p.shape[1], p)


@dataclass(frozen=True)
class ConditionalMatrix:
    """Row-stochastic matrix: one distribution per conditioning symbol."""

    rows: int
    cols: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p))
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("conditional matrix needs at least one row and column")
        if self.p.shape != (self.rows, self.cols):
            raise DimensionError(
                f"conditional shape {self.p.shape} does not match ({self.rows}, {self.cols})"
            )
        if not np.all(np.isfinite(self.p)) or np.any(self.p < 0):
            raise ValueError("negative or non-finite conditional entry")
        sums = self.p.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            raise ValueError("every conditional row must sum to 1")

    @classmethod
    def from_matrix(cls, p) -> "ConditionalMatrix":
        p = np.asarray(p, dtype=float)
        if p.ndim != 2:
            raise DimensionError("conditional must be a 2-D matrix")
        return cls(p.shape[0], p.shape[1], p)


@dataclass(frozen=True)
class SampleSet:
    """Sequence of (x_index, y_index) pairs drawn from a joint."""

    pairs: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", _frozen_array(self.pairs, dtype=np.int64))
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise DimensionError("pairs must be an (n, 2) integer array")
        if self.n != self.pairs.shape[0]:
            raise DimensionError(f"n={self.n} does not match {self.pairs.shape[0]} pairs")
        if self.n > 0 and np.any(self.pairs < 0):
            raise ValueError("negative sample index")

    @classmethod
    def from_pairs(cls, pairs) -> "SampleSet":
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(arr, arr.shape[0])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def entropy(d: DiscreteDistribution) -> float:
    """Entropy of a distribution in bits; lies in [0, log2 |support|]."""
    return entropy_bits(d.p)


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL divergence D(p||q) in bits; +inf when q misses mass where p has it."""
    return kl_bits(p.p, q.p)


def mutual_information(j: JointDistribution) -> float:
    """Mutual information I(X;Y) of a joint, in bits."""
    return mi_bits(j.p)


def decompose(j: JointDistribution) -> tuple[DiscreteDistribution, ConditionalMatrix]:
    """Split a joint into p(x) and p(y|x); p(x)*p(y|x) reconstructs the joint."""
    px, cond = conditional_rows(j.p)
    return DiscreteDistribution(px), ConditionalMatrix(j.x_card, j.y_card, cond)


def sample_pairs(j: JointDistribution, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. pairs from the joint; fully determined by the seed."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    flat = j.p.ravel()
    flat = flat / flat.sum()
    cells = rng.choice(flat.size, size=n, p=flat)
    pairs = np.stack([cells // j.y_card, cells % j.y_card], axis=1)
    return SampleSet(pairs, n)


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
    return JointDistribution(x_card, y_card, p)
