"""Placement of a trained network's layers on the information plane.

Every layer is reduced to a discrete code per input symbol: `layer_codes`
numbers the distinct rows of a hidden layer's (X, width) activation array,
binned uniformly on (0,1) or kept as exact activation tuples, and the output
layer becomes its argmax prediction. Since each code is then a deterministic
function of X, all mutual informations are computed exactly by pushing the
joint through the code maps with `prob.pushforward_bits`; no sample-based
estimation is involved. A path makes two such calls: one on the stack of
every layer's code, one on the codes of adjacent layer pairs. As every layer
is a function of X, I(prev; cur) = H(prev) + H(cur) - H(prev, cur).

With exact activation tuples each layer is also a deterministic function of
the previous one, so relevance can only fall with depth. Binned codes are
functions of X but not necessarily of the previous binned layer, so the chain
check reports any increase with its magnitude instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .mlp import NetworkParams, forward_all
from .prob import JointDistribution, pushforward_bits

DPI_TOL = 1e-9


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform binning of sigmoidal activations on (0, 1)."""

    bins: int = 8

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")


def relevance_lost(whole: float, kept: float) -> float:
    """whole - kept, clamped at 0: kept is never more, so a negative
    difference is rounding, and information is never reported negative."""
    return max(0.0, whole - kept)


def _weigh(i_prev: float, i_y_lost: float, beta: float) -> float:
    if not math.isfinite(beta):
        raise ValueError(f"layer criterion beta must be finite, got {beta}")
    return i_prev + beta * i_y_lost


@dataclass(frozen=True)
class InfoPlanePoint:
    """One layer's position: index 0 is the input X, m+1 the prediction.

    I_prev = I(h_prev; h) and I_Y_lost = I(Y; h_prev | h) are the terms of the
    layer criterion I_prev + beta * I_Y_lost; layer_criterion holds it at the
    beta the path was computed with, and `criterion` at any other, so a beta
    sweep needs no second pass. The input layer has no predecessor and carries
    0 in all three. The first four fields are the info-plane CSV row.
    """

    layer_index: int
    I_X: float
    I_Y: float
    layer_criterion: float
    I_prev: float
    I_Y_lost: float

    def criterion(self, beta: float) -> float:
        return _weigh(self.I_prev, self.I_Y_lost, beta)


@dataclass(frozen=True)
class LayerPath:
    points: tuple[InfoPlanePoint, ...]
    dpi_violations: tuple[tuple[tuple[int, int], float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dpi_violations", tuple(self.dpi_violations))
        indices = [p.layer_index for p in self.points]
        if indices != list(range(len(indices))):
            raise DimensionError("path must cover layers 0..m+1 in order")


def layer_codes(acts, q: QuantizerConfig | None) -> np.ndarray:
    """One integer code per row of an (X, width) activation array, numbered in
    first-seen order; rows share a code when their units fall in the same
    uniform bins, or, for q=None (the lossless variant used for exact chain
    checks), when they are equal."""
    acts = np.asarray(acts, dtype=float)
    if q is not None:
        acts = np.minimum((acts * q.bins).astype(int), q.bins - 1)
    _, first, inverse = np.unique(acts, axis=0, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)]


def info_plane_path(j: JointDistribution, net: NetworkParams,
                    q: QuantizerConfig | None, beta: float = 1.0) -> LayerPath:
    """Information-plane points for X, every hidden layer, and the prediction.

    beta weights the conditional-relevance term of each layer's criterion;
    there is no principled per-layer choice, so it is caller-supplied (the
    command-line tool sweeps it).
    """
    hiddens, probs = forward_all(net, j.x_card)
    codes = np.stack([np.arange(j.x_card), *(layer_codes(h, q) for h in hiddens),
                      probs.argmax(axis=1)])
    i_x, i_y = pushforward_bits(j, codes)
    h_pair, i_y_pair = pushforward_bits(j, codes[:-1] * (int(codes.max()) + 1) + codes[1:])
    # each layer is a function of X: I(prev; cur) = H(prev) + H(cur) - H(prev, cur)
    i_prev = [0.0, *np.maximum(0.0, i_x[:-1] + i_x[1:] - h_pair).tolist()]
    # I(Y; prev | cur) = I(Y; prev, cur) - I(Y; cur)
    i_y_lost = [0.0, *map(relevance_lost, i_y_pair.tolist(), i_y[1:].tolist())]
    points = tuple(InfoPlanePoint(i, x, y, _weigh(p, lost, beta), p, lost) for i, (x, y, p, lost)
                   in enumerate(zip(i_x.tolist(), i_y.tolist(), i_prev, i_y_lost)))
    return LayerPath(points, _dpi_violations(i_y))


def _dpi_violations(i_y: np.ndarray) -> tuple[tuple[tuple[int, int], float], ...]:
    """Adjacent layer pairs where relevance I_Y rises with depth beyond DPI_TOL."""
    rise = np.diff(i_y)
    return tuple(((i, i + 1), float(rise[i])) for i in np.flatnonzero(rise > DPI_TOL).tolist())


def network_distortion_rate(j: JointDistribution, net: NetworkParams,
                            q: QuantizerConfig | None) -> tuple[float, float]:
    """(R_N, D_N) of the output layer: rate I(X;Yhat) and residual relevance
    I(X;Y) - I(Yhat;Y), clamped by `relevance_lost`. The prediction is the
    exact argmax symbol, so the quantizer plays no role here; it is accepted
    for signature symmetry with the path computation."""
    del q
    _, probs = forward_all(net, j.x_card)
    # stacked under X's own code as in info_plane_path, so its sums match the path's
    i_x, i_y = pushforward_bits(j, [np.arange(j.x_card), probs.argmax(axis=1)])
    return float(i_x[1]), relevance_lost(j.i_xy, float(i_y[1]))
