"""Minimal sigmoidal feedforward classifier over one-hot encoded symbols.

Hidden layers apply the standard sigmoid to affine maps; the output layer is
a normalized exponential over the label alphabet (a single output unit is
treated as the binary case, where the sigmoid itself is the class-1
probability). Training is plain seeded SGD on the average cross-entropy,
measured in bits to match the rest of the package. Every layer is a function
of the symbol alone, so one raw-array kernel runs a minibatch as its distinct
symbols with their label counts; it computes the forward pass and the backprop
gradients for every caller. `forward_all` returns its arrays for the whole
input alphabet as they are (one (X, width) array per hidden layer, and the (X,
labels) outputs) for the analyzer and `accuracy` to read. Training updates one
flat parameter buffer in place and computes an epoch's minibatch losses once,
after it, from the probabilities its steps wrote. It returns a `NetworkParams`
and raises `DivergenceError` naming the epoch once the loss or a parameter
turns non-finite. Everything is deterministic given the seeds.
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


def _layer_sizes(layer_sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise DimensionError("a network needs at least input and output layers")
    if min(sizes) < 1:
        raise ValueError(f"every layer needs at least one unit, got sizes {list(sizes)}")
    return sizes


@dataclass(frozen=True)
class NetworkParams:
    """Layer sizes plus per-layer weight matrices (out, in) and bias vectors."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        sizes = _layer_sizes(self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", tuple(_frozen_array(w) for w in self.weights))
        object.__setattr__(self, "biases", tuple(_frozen_array(b) for b in self.biases))
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
    sizes = _layer_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(sizes, tuple(weights), tuple(biases))


def _buffer(layer_sizes):
    """A zeroed flat buffer and its views: (out, in) weights, (out,) biases."""
    pairs = list(zip(layer_sizes, layer_sizes[1:]))
    shapes = [(o, i) for i, o in pairs] + [(o,) for _, o in pairs]
    sizes = [math.prod(s) for s in shapes]
    flat = np.zeros(sum(sizes))
    views = [v.reshape(s) for v, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    return flat, views[:len(pairs)], views[len(pairs):]


def _n_labels(net: NetworkParams, xs, ys) -> int:
    """The label count of the output head; checks the non-empty sample indices."""
    n_labels = 2 if net.layer_sizes[-1] == 1 else net.layer_sizes[-1]
    if xs.min() < 0 or xs.max() >= net.layer_sizes[0]:
        raise DimensionError("sample x index exceeds the network input width")
    if ys.min() < 0 or ys.max() >= n_labels:
        raise DimensionError("sample y index exceeds the network output width")
    return n_labels


def _count_table(keys, ys, n_labels: int, n_keys: int):
    """Sorted distinct keys in [0, n_keys), their (keys, labels) float label
    counts and row totals. A table of all n_keys * n_labels cells is counted
    by one bincount, without a sort, while it has at most two cells per
    sample; past that, np.unique numbers the keys so memory stays O(n)."""
    if n_keys * n_labels <= 2 * keys.size:
        uniq, inv = np.arange(n_keys), keys
    else:
        uniq, inv = np.unique(keys, return_inverse=True)
    table = np.bincount(inv * n_labels + ys, minlength=uniq.size * n_labels)
    table = table.reshape(uniq.size, n_labels)
    totals = table.sum(axis=1)
    live = np.flatnonzero(totals)
    return uniq[live], table[live].astype(float), totals[live, None].astype(float)


def _bind(weights, biases, grads=None):
    """What _kernel reads, bound once per run: whether the head is one unit, each
    layer's (in, out) weights and bias and, given grads = (weight views, bias
    views), each layer's (weight, grad weight, grad bias) in backward order."""
    layers = [(w.T, b) for w, b in zip(weights, biases)]
    back = None if grads is None else list(zip(weights, *grads))[::-1]
    return biases[-1].size == 1, layers[0], layers[1:], back


def _kernel(bound, sym, batch=None):
    """Forward pass of the distinct input symbols sym through `_bind` views:
    (hidden activations, one (R, width) array per layer; output probabilities
    (R, labels)). Given batch = (counts, row totals, m), the (R, labels) label
    counts of a minibatch's m samples, writes instead the backprop gradients of
    their bit-valued mean cross-entropy into the bound grad views and returns
    the output probabilities. Callers hold the numpy error state (`_QUIET`)."""
    binary_head, (w0, b0), layers, back = bound
    u = w0.take(sym, axis=0) + b0
    hiddens = []
    for w, b in layers:
        hiddens.append(_logistic(u))
        u = hiddens[-1].dot(w) + b
    if binary_head:
        head = _logistic(u)
        probs = np.concatenate([1.0 - head, head], axis=1)
    else:
        probs = head = np.exp(u - np.maximum.reduce(u, 1, keepdims=True))
        probs /= np.add.reduce(probs, 1, keepdims=True)
    if batch is None:
        return hiddens, probs

    counts, rowcount, m = batch
    # the labels the output units stand for: label 1 alone for a binary head
    delta = (rowcount * head - counts[:, -head.shape[1]:]) / (m * LN2)
    for (w, grad_w, grad_b), h in zip(back, hiddens[::-1]):
        delta.T.dot(h, out=grad_w)
        np.add.reduce(delta, 0, out=grad_b)
        delta = delta.dot(w) * h * (1.0 - h)
    _, grad_w, grad_b = back[-1]
    grad_w.fill(0.0)  # a one-hot input feeds only the columns of sym
    grad_w[:, sym] = delta.T
    np.add.reduce(delta, 0, out=grad_b)
    return probs


def _losses(counts, probs, edges, sizes) -> list[float]:
    """Bit-valued mean cross-entropy of each minibatch i, rows edges[i]:edges[i+1]
    of a (rows, labels) count table and its probabilities, with sizes[i] samples:
    one log2 over the observed cells, one dot per minibatch over its cells."""
    seen = counts > 0  # an unobserved label adds nothing, even at p = 0
    c, logp = counts[seen], np.log2(probs[seen])
    cuts = np.searchsorted(np.flatnonzero(seen), np.multiply(edges, counts.shape[1])).tolist()
    return [-float(c[a:b].dot(logp[a:b])) / m for a, b, m in zip(cuts, cuts[1:], sizes)]


def forward_all(net: NetworkParams, x_card: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Every symbol of the input alphabet through the network: one (X, width)
    array per hidden layer, each entry in [0, 1], and the (X, labels) output
    distributions."""
    if net.layer_sizes[0] != x_card:
        raise DimensionError(f"network input width {net.layer_sizes[0]} "
                             f"does not match x_card {x_card}")
    with np.errstate(**_QUIET):
        return _kernel(_bind(net.weights, net.biases), np.arange(x_card))


def batch_gradients(net: NetworkParams, x_indices, y_indices):
    """Backprop gradients of the bit-valued batch loss: (weight grads, bias grads, loss)."""
    xs, ys = (np.asarray(a, dtype=np.int64) for a in (x_indices, y_indices))
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
        raise DimensionError("a batch needs equally long, non-empty x and y index vectors")
    sym, counts, rowcount = _count_table(xs, ys, _n_labels(net, xs, ys), net.layer_sizes[0])
    grads = _buffer(net.layer_sizes)[1:]
    with np.errstate(**_QUIET):
        probs = _kernel(_bind(net.weights, net.biases, grads), sym, (counts, rowcount, xs.size))
        return *grads, _losses(counts, probs, [0, sym.size], [xs.size])[0]


def batch_loss(net: NetworkParams, x_indices, y_indices) -> float:
    """Average cross-entropy -log2 p(y|x) over a batch, in bits."""
    return batch_gradients(net, x_indices, y_indices)[2]


def train_sgd(net: NetworkParams, samples: SampleSet,
              cfg: TrainConfig) -> tuple[NetworkParams, list[float]]:
    """Seeded mini-batch SGD on cross-entropy; returns the trained parameters
    and the per-epoch loss trace (bits). Zero epochs return the input net
    untouched with an empty trace. Raises DivergenceError naming the epoch
    after which the loss or any parameter is non-finite."""
    if samples.n == 0:
        raise DimensionError("cannot train on an empty sample set")
    xs, ys = samples.pairs.T
    n_labels = _n_labels(net, xs, ys)
    if cfg.epochs == 0:
        return net, []

    rng = np.random.default_rng(cfg.seed)
    x_card = net.layer_sizes[0]
    flat, weights, biases = _buffer(net.layer_sizes)
    flat[:] = np.concatenate([a.ravel() for a in net.weights + net.biases])
    grad, *grads = _buffer(net.layer_sizes)
    bound = _bind(weights, biases, grads)
    sizes = [min(cfg.batch_size, samples.n - s) for s in range(0, samples.n, cfg.batch_size)]
    # sorted (minibatch, symbol) keys put each minibatch's rows in one run
    batch_key = np.arange(samples.n) // cfg.batch_size * x_card
    trace = []
    with np.errstate(**_QUIET):
        for epoch in range(cfg.epochs):
            order = rng.permutation(samples.n)
            keys, counts, rowcount = _count_table(batch_key + xs[order], ys[order], n_labels,
                                                  len(sizes) * x_card)
            sym = keys % x_card
            edges = np.searchsorted(keys, np.arange(len(sizes) + 1) * x_card).tolist()
            probs = []
            for r0, r1, m in zip(edges, edges[1:], sizes):
                probs.append(_kernel(bound, sym[r0:r1], (counts[r0:r1], rowcount[r0:r1], m)))
                grad *= cfg.learning_rate
                flat -= grad
            running = 0.0
            for loss, m in zip(_losses(counts, np.concatenate(probs), edges, sizes), sizes):
                running += loss * m
            epoch_loss = running / samples.n
            if not (math.isfinite(epoch_loss) and np.isfinite(flat).all()):
                raise DivergenceError(f"non-finite loss or parameter at epoch {epoch}")
            trace.append(epoch_loss)
    return NetworkParams(net.layer_sizes, tuple(weights), tuple(biases)), trace


def accuracy(net: NetworkParams, samples: SampleSet) -> float:
    """Fraction of samples whose label matches the argmax prediction."""
    if samples.n == 0:
        raise DimensionError("cannot score an empty sample set")
    pred = forward_all(net, net.layer_sizes[0])[1].argmax(axis=1)
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
