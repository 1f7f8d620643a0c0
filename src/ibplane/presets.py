"""Canonical test joints used by the command-line tool and the test suite."""

from __future__ import annotations

import numpy as np

from .prob import JointDistribution

MAX_CELLS = 10**6  # largest joint a preset builds, in cells


def _check_cells(x_card: int, y_card: int) -> None:
    """Refuse an x_card by y_card joint of more than MAX_CELLS cells before it is built."""
    if x_card * y_card > MAX_CELLS:
        raise ValueError(f"{x_card} x {y_card} = {x_card * y_card} cells exceeds "
                         f"MAX_CELLS = {MAX_CELLS}")


def _bit_strings(bits: int) -> int:
    """2**bits, the x_card of a preset over bit strings with binary Y, once
    its 2**bits by 2 joint is known to fit in MAX_CELLS."""
    # the exponent is capped where 2**bits alone exceeds MAX_CELLS, so that a
    # huge bits never forms its power
    if 2 ** min(bits, MAX_CELLS.bit_length()) * 2 > MAX_CELLS:
        raise ValueError(f"2^{bits} x 2 cells exceeds MAX_CELLS = {MAX_CELLS}")
    return 2 ** bits


def symmetric_joint(eps: float = 0.2) -> JointDistribution:
    """Binary symmetric channel with uniform input: rows [1-eps, eps] / [eps, 1-eps]."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    rows = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    return JointDistribution(0.5 * rows)


def product_joint(x_card: int = 2, y_card: int = 2) -> JointDistribution:
    """Independent uniform X and Y; zero mutual information."""
    if x_card < 1 or y_card < 1:
        raise ValueError("cardinalities must be >= 1")
    _check_cells(x_card, y_card)
    return JointDistribution(np.full((x_card, y_card), 1.0 / (x_card * y_card)))


def deterministic_joint(k: int = 2) -> JointDistribution:
    """Uniform X with Y = X over k symbols; I(X;Y) = log2 k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_cells(k, k)
    return JointDistribution(np.eye(k) / k)


def hierarchical_joint(eps1: float = 0.2, eps2: float = 0.05,
                       levels: int = 2) -> JointDistribution:
    """Nested noisy splits over binary Y with separated critical betas.

    Leaf x carries p(y=0|x) = 0.5 + sum_l o_l * (+-1) over its binary digits,
    with offsets o_1 = 0.5 - eps1 and o_l shrinking geometrically by
    eps2 / (0.5 - eps1); levels=1 reduces to the symmetric preset. The strong
    level-1 contrast splits first, the weaker nested contrasts split later.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not 0 < eps1 < 0.5:
        raise ValueError(f"eps1 must be in (0, 0.5), got {eps1}")
    o1 = 0.5 - eps1
    if not 0 < eps2 < o1:
        raise ValueError(f"eps2 must be in (0, 0.5 - eps1), got {eps2}")
    x_card = _bit_strings(levels)
    ratio = eps2 / o1
    x, p0 = np.arange(x_card), np.full(x_card, 0.5)
    for level in range(levels):  # level 1 is the leading binary digit
        offset = o1 * ratio ** level
        p0 += np.where((x >> (levels - 1 - level)) & 1, -offset, offset)
    if not np.all((0 < p0) & (p0 < 1)):
        raise ValueError("offsets leave the probability simplex; shrink eps2")
    return JointDistribution(np.stack([p0, 1.0 - p0], axis=1) / x_card)


def xor_joint(d: int = 2) -> JointDistribution:
    """Uniform d-bit strings labeled by their parity."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    x_card = _bit_strings(d)
    x, p = np.arange(x_card), np.zeros((x_card, 2))
    p[x, np.bitwise_count(x) % 2] = 1.0 / x_card
    return JointDistribution(p)


def random_joint(x_card: int = 3, y_card: int = 2, seed: int = 0) -> JointDistribution:
    """Flat-Dirichlet draw over all cells (seeded unit-rate gammas, normalized)."""
    if x_card < 1 or y_card < 1:
        raise ValueError("cardinalities must be >= 1")
    _check_cells(x_card, y_card)
    rng = np.random.default_rng(seed)
    g = rng.gamma(1.0, size=(x_card, y_card))
    return JointDistribution(g / g.sum())


_PRESETS = {"symmetric": symmetric_joint, "product": product_joint,
            "deterministic": deterministic_joint, "hierarchical": hierarchical_joint,
            "random": random_joint, "xor": xor_joint}
PRESET_NAMES = tuple(_PRESETS)


def gen_preset(name: str, seed: int = 0, **params) -> JointDistribution:
    """Build a preset joint by name; unknown names raise ValueError. Only
    the random preset reads the seed."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name == "random":
        params["seed"] = seed
    return _PRESETS[name](**params)
