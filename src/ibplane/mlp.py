"""Minimal sigmoidal feedforward classifier over one-hot encoded symbols.

Hidden layers apply the standard sigmoid to affine maps; the output layer is
a normalized exponential over the label alphabet (a single output unit is
treated as the binary case, where the sigmoid itself is the class-1
probability). Training is plain seeded SGD on the average cross-entropy,
measured in bits to match the rest of the package. One raw-array kernel
computes the forward pass, the loss and the backprop gradients for every
caller. Training updates mutable copies of the parameters in place, freezes
them into a `NetworkParams` once, at the end, and raises `DivergenceError`
naming the epoch once the loss or a parameter turns non-finite. Everything is
deterministic given the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, UnsupportedDegenerateError
from .prob import SampleSet, _frozen_array

LN2 = math.log(2.0)

# saturated sigmoids overflow exp, log2(0) makes an infinite loss and a
# diverging run makes inf - inf; train_sgd checks for the non-finite results
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def _logistic(u):
    return 1.0 / (1.0 + np.exp(-u))


def sigmoid(u):
    with np.errstate(over="ignore"):
        return _logistic(u)


def _softmax_rows(u):
    z = u - u.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class NetworkParams:
    """Layer sizes plus per-layer weight matrices (out, in) and bias vectors."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "weights", tuple(_frozen_array(w) for w in self.weights))
        object.__setattr__(self, "biases", tuple(_frozen_array(b) for b in self.biases))
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise DimensionError("a network needs at least input and output layers")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionError("one weight matrix and bias per layer transition")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[k + 1], sizes[k]) or b.shape != (sizes[k + 1],):
                raise DimensionError(f"layer {k} shapes do not chain: {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"non-finite parameter in layer {k}")

    @property
    def n_hidden(self) -> int:
        return len(self.layer_sizes) - 2


@dataclass(frozen=True)
class LayerActivations:
    """Hidden activation vectors and the output label distribution for one input."""

    hidden: tuple[np.ndarray, ...]
    output: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(_frozen_array(h) for h in self.hidden))
        object.__setattr__(self, "output", _frozen_array(self.output))
        for h in self.hidden:
            # sigmoid lands in (0,1) mathematically; float saturation can
            # round to the endpoints, which downstream binning tolerates
            if np.any(h < 0) or np.any(h > 1):
                raise ValueError("hidden activation outside [0, 1]")
        if abs(float(self.output.sum()) - 1.0) > 1e-9:
            raise ValueError("output distribution must sum to 1")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


def init_network(layer_sizes, seed: int) -> NetworkParams:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise DimensionError("layer_sizes needs at least two entries")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(sizes, tuple(weights), tuple(biases))


def _kernel(weights, biases, binary_head: bool, x: np.ndarray, y=None):
    """Forward pass of the input rows x; with labels y, also backprop.

    Without y returns (hidden activations, one (B, width) array per layer;
    output probabilities (B, labels)). With y returns (bit-valued mean
    cross-entropy, weight gradients, bias gradients). Callers hold the
    numpy error state (`_QUIET`).
    """
    hiddens = []
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = _logistic(h @ w.T + b)
        hiddens.append(h)
    u = h @ weights[-1].T + biases[-1]
    if binary_head:
        p1 = _logistic(u)
        probs = np.concatenate([1.0 - p1, p1], axis=1)
    else:
        probs = _softmax_rows(u)
    if y is None:
        return hiddens, probs

    n = y.size
    rows = np.arange(n)
    loss = float(-np.log2(probs[rows, y]).mean())
    if binary_head:
        delta = (p1 - y[:, None]) / (n * LN2)
    else:
        target = np.zeros_like(probs)
        target[rows, y] = 1.0
        delta = (probs - target) / (n * LN2)
    grads_w, grads_b = [None] * len(weights), [None] * len(biases)
    inputs = [x] + hiddens
    for k in range(len(weights) - 1, -1, -1):
        grads_w[k] = delta.T @ inputs[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            h = hiddens[k - 1]
            delta = (delta @ weights[k]) * h * (1.0 - h)
    return loss, grads_w, grads_b


def _run(net: NetworkParams, x_indices, y_indices=None):
    """`_kernel` on one-hot rows of the given symbols, under `_QUIET`."""
    x = np.eye(net.layer_sizes[0])[np.asarray(x_indices, dtype=int)]
    y = None if y_indices is None else np.asarray(y_indices, dtype=int)
    with np.errstate(**_QUIET):
        return _kernel(net.weights, net.biases, net.layer_sizes[-1] == 1, x, y)


def forward_all(net: NetworkParams, x_card: int) -> list[LayerActivations]:
    """Activations for every symbol of the input alphabet."""
    if net.layer_sizes[0] != x_card:
        raise DimensionError(
            f"network input width {net.layer_sizes[0]} does not match x_card {x_card}"
        )
    hiddens, probs = _run(net, range(x_card))
    return [
        LayerActivations(tuple(h[i] for h in hiddens), probs[i])
        for i in range(x_card)
    ]


def forward(net: NetworkParams, x_index: int, x_card: int) -> LayerActivations:
    """Run one symbol through the network (one-hot input of width x_card);
    the result is exactly entry x_index of `forward_all`."""
    if not 0 <= x_index < x_card:
        raise DimensionError(f"x_index {x_index} out of range")
    return forward_all(net, x_card)[x_index]


def batch_gradients(net: NetworkParams, x_indices, y_indices):
    """Backprop gradients of the bit-valued batch loss.

    Returns (weight grads, bias grads, loss).
    """
    loss, grads_w, grads_b = _run(net, x_indices, y_indices)
    return grads_w, grads_b, loss


def batch_loss(net: NetworkParams, x_indices, y_indices) -> float:
    """Average cross-entropy -log2 p(y|x) over a batch, in bits."""
    return _run(net, x_indices, y_indices)[0]


def train_sgd(net: NetworkParams, samples: SampleSet,
              cfg: TrainConfig) -> tuple[NetworkParams, list[float]]:
    """Seeded mini-batch SGD on cross-entropy; returns the trained parameters
    and the per-epoch loss trace (bits). Zero epochs return the input net
    untouched with an empty trace. Raises DivergenceError naming the epoch
    after which the loss or any parameter is non-finite."""
    if samples.n == 0:
        raise DimensionError("cannot train on an empty sample set")
    xs = samples.pairs[:, 0]
    ys = samples.pairs[:, 1]
    if np.any(xs >= net.layer_sizes[0]):
        raise DimensionError("sample x index exceeds the network input width")
    binary_head = net.layer_sizes[-1] == 1
    if np.any(ys >= (2 if binary_head else net.layer_sizes[-1])):
        raise DimensionError("sample y index exceeds the network output width")
    if cfg.epochs == 0:
        return net, []

    rng = np.random.default_rng(cfg.seed)
    eye = np.eye(net.layer_sizes[0])
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    params = weights + biases
    lr = cfg.learning_rate
    trace = []
    with np.errstate(**_QUIET):
        for epoch in range(cfg.epochs):
            order = rng.permutation(samples.n)
            x_epoch = eye[xs[order]]
            y_epoch = ys[order]
            running = 0.0
            for start in range(0, samples.n, cfg.batch_size):
                y = y_epoch[start:start + cfg.batch_size]
                loss, gw, gb = _kernel(weights, biases, binary_head,
                                       x_epoch[start:start + cfg.batch_size], y)
                running += loss * y.size
                for p, g in zip(params, gw + gb):
                    p -= lr * g
            epoch_loss = running / samples.n
            if not (math.isfinite(epoch_loss) and all(np.isfinite(p).all() for p in params)):
                raise DivergenceError(f"non-finite loss or parameter at epoch {epoch}")
            trace.append(epoch_loss)
    return NetworkParams(net.layer_sizes, tuple(weights), tuple(biases)), trace


def accuracy(net: NetworkParams, samples: SampleSet) -> float:
    """Fraction of samples whose label matches the argmax prediction."""
    if samples.n == 0:
        raise DimensionError("cannot score an empty sample set")
    acts = forward_all(net, net.layer_sizes[0])
    pred = np.array([int(np.argmax(a.output)) for a in acts])
    return float((pred[samples.pairs[:, 0]] == samples.pairs[:, 1]).mean())


def naive_bayes_neuron(p_active_pos, p_active_neg,
                       prior_pos: float) -> tuple[np.ndarray, float]:
    """Sigmoid weights and bias that compute the exact Bayes posterior for
    conditionally independent binary features.

    p_active_pos[j] = p(x_j = 1 | class 1) and p_active_neg[j] = p(x_j = 1 |
    class 0); prior_pos = p(class 1). On a raw binary feature vector x the
    returned parameters satisfy sigmoid(w . x + b) = p(class 1 | x): each
    weight is the log odds-ratio of the feature being active versus inactive,
    and the inactive-feature contributions are folded into the bias together
    with the prior log-odds.
    """
    p1 = np.asarray(p_active_pos, dtype=float)
    p0 = np.asarray(p_active_neg, dtype=float)
    if p1.shape != p0.shape or p1.ndim != 1:
        raise DimensionError("feature probability vectors must share one shape")
    probs = np.concatenate([p1, p0, [prior_pos]])
    if np.any(probs <= 0) or np.any(probs >= 1):
        raise UnsupportedDegenerateError(
            "all probabilities must lie strictly inside (0, 1)"
        )
    w = np.log(p1 / p0) - np.log((1.0 - p1) / (1.0 - p0))
    b = math.log(prior_pos / (1.0 - prior_pos)) + float(
        np.log((1.0 - p1) / (1.0 - p0)).sum()
    )
    return w, b
