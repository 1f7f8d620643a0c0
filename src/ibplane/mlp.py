"""Minimal sigmoidal feedforward classifier over one-hot encoded symbols.

Hidden layers apply the standard sigmoid to affine maps; the output layer is
a normalized exponential over the label alphabet (a single output unit is
treated as the binary case, where the sigmoid itself is the class-1
probability). Training is plain seeded SGD on the average cross-entropy,
measured in bits to match the rest of the package. Every layer is a function
of the symbol alone, so one raw-array kernel runs a minibatch as its distinct
symbols with their label counts, forward and backprop, for every caller. It
holds each layer as an augmented block [W.T; b] fed rows ending in 1 (inputs
[e_x, 1]; each hidden layer adds a unit fixed at 1), so a layer and its weight
and bias gradient are one `dot` each. A block that feeds a hidden layer, and
the error backprop carries to it, are held negated; each negation is exact, so
every bit is that of the plain form. `NetworkParams`, `batch_gradients` and
`forward_all`'s fresh arrays are not negated. Training updates one flat buffer
in place, computes an epoch's losses after its steps from the probabilities
they wrote, and raises `DivergenceError` naming the epoch once the loss or a
parameter turns non-finite. All is deterministic given the seeds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, UnsupportedDegenerateError
from .prob import SampleSet, _frozen_array

LN2 = math.log(2.0)

_SATURATED = 40.0  # its logistic, like that of any u >= 53 ln 2, rounds to 1.0
_ONE = _frozen_array(1.0)  # numpy takes a 0-d operand faster than a Python float

# saturated sigmoids overflow exp, log2(0) makes an infinite loss and a
# diverging run makes inf - inf; train_sgd checks for the non-finite results
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def sigmoid(u):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def _layer_sizes(layer_sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise DimensionError("a network needs at least input and output layers")
    if min(sizes) < 1:
        raise ValueError(f"every layer needs at least one unit, got sizes {list(sizes)}")
    return sizes


@dataclass(frozen=True, eq=False)
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


def _buffer(net: NetworkParams):
    """A flat copy of net's parameters and its per-layer views, (in + 1, out)
    blocks [W.T; b], negated, with a column [0; -_SATURATED], where they feed a
    hidden layer: that unit is exactly 1, the next one's bias input, with zero gradient."""
    blocks = [np.vstack([w.T, b]) for w, b in zip(net.weights, net.biases)]
    blocks[:-1] = [-np.hstack([a, np.eye(len(a), 1, 1 - len(a)) * _SATURATED]) for a in blocks[:-1]]
    flat = np.concatenate([a.ravel() for a in blocks])
    cuts = np.cumsum([a.size for a in blocks])[:-1]
    return flat, [v.reshape(a.shape) for v, a in zip(np.split(flat, cuts), blocks)]


def _params(blocks, layer_sizes):
    """The weights and biases of `_buffer` blocks, or of their gradients, sign restored."""
    pairs = [(-b, m) for b, m in zip(blocks, layer_sizes[1:-1])] + [(blocks[-1], layer_sizes[-1])]
    return tuple(b[:-1, :m].T for b, m in pairs), tuple(b[-1, :m] for b, m in pairs)


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


def _errors(counts, rowcount, m, k: int):
    """The two terms of the output error of the k head units (label 1 alone
    for a binary head), row totals and label counts over m * ln 2 at (rows, k),
    where m is each row's minibatch sample count."""
    scale = m * LN2
    return np.repeat(rowcount / scale, k, axis=1), counts[:, -k:] / scale


def _bind(layer_sizes, blocks, grads=None):
    """The (X, X + 1) input rows [e_x, 1] and what _kernel reads, bound once per
    call: the first block, the later ones, a softmax head's (k, k) ones and, given
    grad blocks, the first's and, backward, each later one with its block.T."""
    x_card, k = layer_sizes[0], layer_sizes[-1]
    inputs = np.hstack([np.eye(x_card), np.ones((x_card, 1))])
    back = None if grads is None else (
        grads[0], list(zip(grads[:0:-1], [b.T for b in blocks[:0:-1]])))
    return inputs, (blocks[0], blocks[1:], None if k == 1 else np.ones((k, k)), back)


def _kernel(bound, a0, probs, errs=None):
    """Forward pass of distinct symbols' input rows a0 through `_bind` blocks:
    writes the output probabilities into probs and returns the hidden layers'
    activations. Given a minibatch's `_errors` rows, writes the gradients of its
    bit-valued mean cross-entropy, signed as the blocks are. Callers hold `_QUIET`."""
    first, layers, ones, back = bound
    acts, v = [a0], a0.dot(first)
    for block in layers:  # v = -u, so the logistic is 1 / (1 + exp(v)), in v's buffer
        acts.append(np.divide(_ONE, np.add(np.exp(v, out=v), _ONE, out=v), out=v))
        v = v.dot(block)
    if ones is None:  # one unit: its sigmoid is the label-1 probability
        head = probs[:, 1:]
        np.divide(_ONE, _ONE + np.exp(-v), out=head)
        np.subtract(_ONE, head, out=probs[:, :1])
    else:
        v -= np.maximum.reduce(v, 1, keepdims=True)
        head = np.divide(np.exp(v, out=v), v.dot(ones), out=probs)
    if errs is None:
        return acts[1:]
    delta = errs[0] * head
    delta -= errs[1]
    for (grad, w), a in zip(back[1], acts[:0:-1]):
        a.T.dot(delta, out=grad)
        delta = delta.dot(w) * a
        delta *= np.subtract(a, _ONE, out=a)  # a - 1 in a's buffer; 0 at the constant unit
    a0.T.dot(delta, out=back[0])  # exact zeros in the rows of symbols not in a0


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
    inputs, bound = _bind(net.layer_sizes, _buffer(net)[1])
    probs = np.empty((x_card, max(net.layer_sizes[-1], 2)))
    with np.errstate(**_QUIET):
        return [a[:, :-1].copy() for a in _kernel(bound, inputs, probs)], probs


def batch_gradients(net: NetworkParams, x_indices, y_indices):
    """(weight grads, bias grads, loss): backprop on the batch's mean cross-entropy in bits."""
    xs, ys = (np.asarray(a, dtype=np.int64) for a in (x_indices, y_indices))
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
        raise DimensionError("a batch needs equally long, non-empty x and y index vectors")
    sym, counts, rowcount = _count_table(xs, ys, _n_labels(net, xs, ys), net.layer_sizes[0])
    grads = _buffer(net)[1]  # the kernel overwrites every entry
    inputs, bound = _bind(net.layer_sizes, _buffer(net)[1], grads)
    probs = np.empty_like(counts)
    with np.errstate(**_QUIET):
        _kernel(bound, inputs.take(sym, axis=0), probs,
                _errors(counts, rowcount, xs.size, net.layer_sizes[-1]))
        loss = _losses(counts, probs, [0, sym.size], [xs.size])[0]
    return (*map(list, _params(grads, net.layer_sizes)), loss)


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
    flat, blocks = _buffer(net)
    grad, grads = _buffer(net)  # each step overwrites every entry
    inputs, bound = _bind(net.layer_sizes, blocks, grads)
    sizes = [min(cfg.batch_size, samples.n - s) for s in range(0, samples.n, cfg.batch_size)]
    # sorted (minibatch, symbol) keys put each minibatch's rows in one run
    batch_key = np.arange(samples.n) // cfg.batch_size * x_card
    trace, lr = [], np.array(cfg.learning_rate)
    with np.errstate(**_QUIET):
        for epoch in range(cfg.epochs):
            order = rng.permutation(samples.n)
            keys, counts, rowcount = _count_table(batch_key + xs[order], ys[order], n_labels,
                                                  len(sizes) * x_card)
            edges = np.searchsorted(keys, np.arange(len(sizes) + 1) * x_card).tolist()
            a0 = inputs.take(keys % x_card, axis=0)
            totals, labels = _errors(counts, rowcount, np.take(sizes, keys // x_card)[:, None],
                                     net.layer_sizes[-1])
            probs = np.empty_like(counts)
            for r0, r1 in zip(edges, edges[1:]):
                _kernel(bound, a0[r0:r1], probs[r0:r1], (totals[r0:r1], labels[r0:r1]))
                grad *= lr
                flat -= grad
            running = 0.0
            for loss, m in zip(_losses(counts, probs, edges, sizes), sizes):
                running += loss * m
            epoch_loss = running / samples.n
            if not (math.isfinite(epoch_loss) and np.isfinite(flat).all()):
                raise DivergenceError(f"non-finite loss or parameter at epoch {epoch}")
            trace.append(epoch_loss)
    return NetworkParams(net.layer_sizes, *_params(blocks, net.layer_sizes)), trace


def accuracy(net: NetworkParams, samples: SampleSet) -> float:
    """Fraction of samples whose label matches the argmax prediction."""
    if samples.n == 0:
        raise DimensionError("cannot score an empty sample set")
    xs, ys = samples.pairs.T
    _n_labels(net, xs, ys)
    return float((forward_all(net, net.layer_sizes[0])[1].argmax(axis=1)[xs] == ys).mean())


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
