"""Placement of a trained network's layers on the information plane.

Every layer is reduced to a discrete code per input symbol: `layer_codes`
numbers the distinct rows of a hidden layer's (X, width) activation array,
binned uniformly on (0,1) or kept as exact activation tuples, and the output
layer becomes its argmax prediction. Since each code is then a deterministic
function of X, all mutual informations are computed exactly by pushing the
joint through the code maps (`_push`); no sample-based estimation is involved.

With exact activation tuples each layer is also a deterministic function of
the previous one, so relevance can only fall with depth. Binned codes are
functions of X but not necessarily of the previous binned layer, so the chain
check reports any increase with its magnitude instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DimensionError
from .mlp import NetworkParams, forward_all
from .prob import JointDistribution, entropy_bits, mi_bits

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


def _push(codes: np.ndarray, w: np.ndarray, n_codes: int) -> np.ndarray:
    """Pushforward of per-symbol masses w through a code: out[c] is the sum of
    w[x] over the x with codes[x] = c, added in x order."""
    out = np.zeros((n_codes, *w.shape[1:]))
    np.add.at(out, codes, w)
    return out


def _check_coverage(j: JointDistribution, codes) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.shape != (j.x_card,):
        raise CoverageError(
            f"need one code per input symbol ({j.x_card}), got shape {codes.shape}"
        )
    bad = (codes < 0) & (j.px > 0)
    if np.any(bad):
        raise CoverageError(
            f"missing code for supported symbol x={int(np.argmax(bad))}"
        )
    return codes.astype(int)


def layer_mutual_information(j: JointDistribution, codes) -> tuple[float, float]:
    """(I(X;T), I(T;Y)) for a deterministic layer code T of X.

    I(X;T) equals H(T) because T is a function of X; both quantities come
    from the exact pushforward of the joint.
    """
    codes = _check_coverage(j, codes)
    safe = np.where(codes >= 0, codes, 0)
    n_codes = int(safe.max()) + 1
    pt = _push(safe, j.px, n_codes)
    pty = _push(safe, j.p, n_codes)
    return entropy_bits(pt), mi_bits(pty)


def info_plane_path(j: JointDistribution, net: NetworkParams,
                    q: QuantizerConfig | None, beta: float = 1.0) -> LayerPath:
    """Information-plane points for X, every hidden layer, and the prediction.

    beta weights the conditional-relevance term of each layer's criterion;
    there is no principled per-layer choice, so it is caller-supplied (the
    command-line tool sweeps it).
    """
    hiddens, probs = forward_all(net, j.x_card)
    codes = [np.arange(j.x_card), *(layer_codes(h, q) for h in hiddens),
             probs.argmax(axis=1)]
    points = []
    for i, cur in enumerate(codes):
        i_x, i_y = layer_mutual_information(j, cur)
        i_prev = i_y_lost = 0.0
        if i > 0:
            n_cur = int(cur.max()) + 1
            pair = codes[i - 1] * n_cur + cur
            n_pairs = (int(codes[i - 1].max()) + 1) * n_cur
            i_prev = mi_bits(_push(pair, j.px, n_pairs).reshape(-1, n_cur))
            # I(Y; prev | cur) = I(Y; prev, cur) - I(Y; cur)
            i_y_lost = relevance_lost(mi_bits(_push(pair, j.p, n_pairs)), i_y)
        points.append(InfoPlanePoint(i, i_x, i_y, _weigh(i_prev, i_y_lost, beta),
                                     i_prev, i_y_lost))
    return LayerPath(tuple(points), _dpi_violations(points))


def _dpi_violations(points) -> tuple[tuple[tuple[int, int], float], ...]:
    """Adjacent layer pairs where relevance rises with depth beyond DPI_TOL."""
    out = []
    for prev, cur in zip(points, points[1:]):
        rise = cur.I_Y - prev.I_Y
        if rise > DPI_TOL:
            out.append(((prev.layer_index, cur.layer_index), float(rise)))
    return tuple(out)


def network_distortion_rate(j: JointDistribution, net: NetworkParams,
                            q: QuantizerConfig | None) -> tuple[float, float]:
    """(R_N, D_N) of the output layer: rate I(X;Yhat) and residual relevance
    I(X;Y) - I(Yhat;Y), clamped by `relevance_lost`. The prediction is the
    exact argmax symbol, so the quantizer plays no role here; it is accepted
    for signature symmetry with the path computation."""
    del q
    _, probs = forward_all(net, j.x_card)
    r_n, i_y = layer_mutual_information(j, probs.argmax(axis=1))
    return r_n, relevance_lost(j.i_xy, i_y)
