"""Network init, forward, SGD training, gradients, exact posterior neuron."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibplane.errors import DimensionError, DivergenceError, UnsupportedDegenerateError
from ibplane.mlp import (
    NetworkParams,
    _count_table,
    TrainConfig,
    accuracy,
    batch_gradients,
    forward_all,
    init_network,
    naive_bayes_neuron,
    sigmoid,
    train_sgd,
)
from ibplane.presets import random_joint, symmetric_joint, xor_joint
from ibplane.prob import JointDistribution, SampleSet, entropy_bits, sample_pairs

# x = 2 has no mass, so no sample ever shows it
NO_X2 = JointDistribution(np.array([[0.2, 0.1], [0.1, 0.2], [0.0, 0.0], [0.3, 0.1]]))


def balanced_samples(j, n):
    """Sample set whose empirical distribution equals the joint exactly."""
    pairs = []
    for x in range(j.x_card):
        for y in range(j.y_card):
            pairs += [(x, y)] * round(j.p[x, y] * n)
    return SampleSet.from_pairs(pairs)


def bayes_posterior(p1, p0, prior, x):
    """Brute-force conditional-independence posterior for class 1."""
    like1 = prior
    like0 = 1.0 - prior
    for j, v in enumerate(x):
        like1 *= p1[j] if v else (1.0 - p1[j])
        like0 *= p0[j] if v else (1.0 - p0[j])
    return like1 / (like1 + like0)


# --- init -----------------------------------------------------------------------

def test_init_deterministic():
    a = init_network([4, 3, 1], seed=7)
    b = init_network([4, 3, 1], seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_shapes():
    net = init_network([4, 3, 1], seed=0)
    assert net.weights[0].shape == (3, 4)
    assert net.weights[1].shape == (1, 3)
    assert all(np.all(b == 0) for b in net.biases)


def test_init_uniform_bounds_statistics():
    net = init_network([100, 1000], seed=3)
    w = net.weights[0].ravel()  # 1e5 draws
    bound = 1.0 / math.sqrt(100)
    assert np.all(np.abs(w) <= bound)
    assert abs(w.mean()) < 0.005 * bound * 10
    # a uniform distribution fills its range: both tails occupied
    assert w.min() < -0.98 * bound and w.max() > 0.98 * bound
    assert np.std(w) == pytest.approx(bound / math.sqrt(3), rel=0.02)


def test_init_needs_two_layers():
    with pytest.raises(DimensionError):
        init_network([4], seed=0)


def test_layer_sizes_below_one_rejected():
    with pytest.raises(ValueError, match="at least one unit"):
        init_network([2, 0, 2], seed=0)
    with pytest.raises(ValueError, match="at least one unit"):
        NetworkParams((2, 0, 2), (np.zeros((0, 2)), np.zeros((2, 0))), (np.zeros(0), np.zeros(2)))


# --- forward --------------------------------------------------------------------

def test_forward_all_zero_params():
    net = NetworkParams((2, 3, 2),
                        (np.zeros((3, 2)), np.zeros((2, 3))),
                        (np.zeros(3), np.zeros(2)))
    hiddens, probs = forward_all(net, 2)
    assert np.allclose(hiddens[0], 0.5)
    assert np.allclose(probs, 0.5)


def test_forward_deterministic():
    net = init_network([3, 4, 2], seed=1)
    a = forward_all(net, 3)
    b = forward_all(net, 3)
    assert np.array_equal(a[1], b[1])


def test_forward_hand_computed_unit():
    # single hidden unit with weights [1, -1]: one-hot index 0 gives sigmoid(1)
    net = NetworkParams((2, 1, 2),
                        (np.array([[1.0, -1.0]]), np.zeros((2, 1))),
                        (np.zeros(1), np.zeros(2)))
    hiddens, _ = forward_all(net, 2)
    assert hiddens[0].shape == (2, 1)
    assert hiddens[0][0, 0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_forward_binary_output_unit():
    net = NetworkParams((2, 1), (np.array([[2.0, 0.0]]),), (np.zeros(1),))
    hiddens, probs = forward_all(net, 2)
    assert hiddens == [] and probs.shape == (2, 2)
    assert probs[0, 1] == pytest.approx(float(sigmoid(2.0)), abs=1e-12)
    assert probs[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_validates_width():
    net = init_network([3, 2], seed=0)
    with pytest.raises(DimensionError):
        forward_all(net, 4)


def plain_forward(net):
    """forward_all spelled out: sigmoid layers on the identity, then the head."""
    h = np.eye(net.layer_sizes[0])
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = 1 / (1 + np.exp(-(h @ w.T + b)))
        yield h
    u = h @ net.weights[-1].T + net.biases[-1]
    if u.shape[1] == 1:
        p1 = 1 / (1 + np.exp(-u))
        yield np.hstack([1 - p1, p1])
    else:
        e = np.exp(u - u.max(axis=1, keepdims=True))
        yield e / e.sum(axis=1, keepdims=True)


@st.composite
def nets_and_samples(draw):
    # no hidden layer, a single-unit binary head and X larger than the batch
    # are all in range
    hidden = draw(st.lists(st.integers(1, 5), min_size=0, max_size=3))
    x_card, out = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    sizes = [x_card, *hidden, out]
    nets = [init_network(sizes, seed=draw(st.integers(0, 2**16))) for _ in range(2)]
    gain = draw(st.floats(0.5, 4.0))
    net = NetworkParams(sizes, tuple(gain * w for w in nets[0].weights),
                        tuple(gain * np.linspace(-1, 1, b.size) for b in nets[0].biases))
    pairs = draw(st.lists(st.tuples(st.integers(0, x_card - 1), st.integers(0, max(out, 2) - 1)),
                          min_size=1, max_size=30))
    return net, nets[1], SampleSet.from_pairs(pairs), draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nets_and_samples())
def test_forward_all_matches_plain_numpy_and_keeps_its_arrays(case):
    net, other, samples, batch_size = case
    hiddens, probs = forward_all(net, net.layer_sizes[0])
    *want_hiddens, want_probs = plain_forward(net)
    assert len(hiddens) == len(want_hiddens)
    for got, want in zip(hiddens + [probs], want_hiddens + [want_probs]):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= 1e-12)
    # no later forward pass or training run may write into the returned arrays
    kept = [a.copy() for a in hiddens + [probs]]
    forward_all(other, other.layer_sizes[0])
    train_sgd(net, samples, TrainConfig(0.5, 2, batch_size, seed=0))
    forward_all(net, net.layer_sizes[0])
    for got, want in zip(hiddens + [probs], kept):
        assert np.array_equal(got, want)


# --- training --------------------------------------------------------------------

def test_train_zero_epochs_noop():
    net = init_network([2, 2], seed=0)
    samples = SampleSet.from_pairs([(0, 0), (1, 1)])
    out, trace = train_sgd(net, samples, TrainConfig(0.1, 0, 4, seed=0))
    assert trace == []
    assert out is net


def test_train_reaches_bayes_cross_entropy():
    # one-hot input with a single sigmoid output can represent any p(y|x),
    # so the loss floor is the conditional entropy of the joint
    j = symmetric_joint(0.2)
    samples = balanced_samples(j, 1000)
    net = init_network([2, 1], seed=0)
    cfg = TrainConfig(learning_rate=2.0, epochs=2000, batch_size=1000, seed=0)
    _, trace = train_sgd(net, samples, cfg)
    h_y_given_x = entropy_bits(j.p.ravel()) - entropy_bits(j.p.sum(axis=1))
    assert trace[-1] == pytest.approx(h_y_given_x, abs=1e-2)


def test_train_xor_accuracy():
    j = xor_joint(2)
    samples = sample_pairs(j, 400, seed=0)
    net = init_network([4, 4, 2], seed=1)
    cfg = TrainConfig(learning_rate=0.5, epochs=2000, batch_size=32, seed=1)
    trained, _ = train_sgd(net, samples, cfg)
    assert accuracy(trained, samples) >= 0.99


def test_train_loss_descent_full_batch():
    j = symmetric_joint(0.2)
    samples = balanced_samples(j, 200)
    net = init_network([2, 3, 2], seed=2)
    cfg = TrainConfig(learning_rate=0.01, epochs=50, batch_size=200, seed=0)
    _, trace = train_sgd(net, samples, cfg)
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9


def test_train_deterministic_trajectories():
    j = symmetric_joint(0.2)
    samples = sample_pairs(j, 300, seed=5)
    cfg = TrainConfig(learning_rate=0.3, epochs=40, batch_size=16, seed=9)
    n1, t1 = train_sgd(init_network([2, 4, 2], seed=3), samples, cfg)
    n2, t2 = train_sgd(init_network([2, 4, 2], seed=3), samples, cfg)
    assert t1 == t2
    for a, b in zip(n1.weights, n2.weights):
        assert np.array_equal(a, b)


def test_train_divergence_raises_with_epoch():
    j = symmetric_joint(0.2)
    samples = balanced_samples(j, 100)
    net = init_network([2, 3, 2], seed=0)
    cfg = TrainConfig(learning_rate=1e9, epochs=10, batch_size=100, seed=0)
    with pytest.raises(DivergenceError, match="epoch"):
        train_sgd(net, samples, cfg)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_train_overflowing_step_raises_divergence_error(batch_size):
    samples = balanced_samples(symmetric_joint(0.2), 100)
    net = init_network([2, 3, 2], seed=0)
    with pytest.raises(DivergenceError, match="at epoch 0"):
        train_sgd(net, samples, TrainConfig(1e308, 5, batch_size, 0))


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_train_config_rejects_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(lr, 5, 1, 0)


def reference_sgd(net, samples, cfg):
    """train_sgd spelled out through the public API: gradients of a freshly
    built NetworkParams for every minibatch, then w - lr * g."""
    rng = np.random.default_rng(cfg.seed)
    xs, ys = samples.pairs[:, 0], samples.pairs[:, 1]
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(samples.n)
        running = 0.0
        for start in range(0, samples.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            gw, gb, loss = batch_gradients(net, xs[idx], ys[idx])
            running += loss * idx.size
            net = NetworkParams(
                net.layer_sizes,
                tuple(w - cfg.learning_rate * g for w, g in zip(net.weights, gw)),
                tuple(b - cfg.learning_rate * g for b, g in zip(net.biases, gb)))
        trace.append(running / samples.n)
    return net, trace


@pytest.mark.parametrize("joint, sizes, n, batch_size", [
    (xor_joint(2), [4, 5, 3, 2], 240, 16),        # softmax head, two hidden layers
    (symmetric_joint(0.2), [2, 3, 1], 200, 8),    # single-unit binary head
    (xor_joint(2), [4, 3, 2], 203, 32),           # ragged last minibatch
    (random_joint(64, 3, seed=1), [64, 5, 3], 100, 8),  # alphabet larger than a batch
    (NO_X2, [4, 3, 2], 120, 16),                  # a symbol that never occurs
    (xor_joint(2), [4, 2], 160, 16),              # no hidden layer: the first is the output
    (symmetric_joint(0.2), [2, 3, 2], 50, 64),    # batch larger than n: one step per epoch
    (symmetric_joint(0.2), [2, 1], 200, 16),      # binary head, no hidden layer
    (random_joint(64, 2, seed=2), [64, 3, 1], 100, 8),  # binary head, alphabet larger than a batch
    (random_joint(8, 3, seed=1), [8, 6, 5, 4, 3], 400, 32),  # three hidden layers
], ids=["softmax-two-hidden", "binary-head", "ragged-last-batch",
        "alphabet-larger-than-batch", "unseen-symbol", "no-hidden-layer",
        "one-minibatch-per-epoch", "binary-head-no-hidden-layer",
        "binary-head-alphabet-larger-than-batch", "three-hidden-layers"])
def test_train_matches_reference_loop_bit_for_bit(joint, sizes, n, batch_size):
    samples = sample_pairs(joint, n, seed=4)
    net = init_network(sizes, seed=5)
    cfg = TrainConfig(learning_rate=0.7, epochs=12, batch_size=batch_size, seed=6)
    got, got_trace = train_sgd(net, samples, cfg)
    want, want_trace = reference_sgd(net, samples, cfg)
    assert got_trace == want_trace
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(a, b)
    # no gradient ever reaches the first-layer column of an unseen symbol
    for x in set(range(sizes[0])) - set(samples.pairs[:, 0].tolist()):
        assert np.array_equal(got.weights[0][:, x], net.weights[0][:, x])


@pytest.mark.parametrize("batch_size", [1, 7, 512], ids=["sorted", "sorted-ragged", "dense"])
def test_count_table_memory_stays_linear_in_the_sample_count(batch_size):
    # 64 symbols and 8 labels: at batch 1 a table of every (minibatch, symbol,
    # label) cell would hold 512 int64 counts, 4 KiB, per sample
    rng = np.random.default_rng(0)
    n, x_card, n_labels = 20_000, 64, 8
    xs, ys = rng.integers(0, x_card, n), rng.integers(0, n_labels, n)
    keys = np.arange(n) // batch_size * x_card + xs
    tracemalloc.start()
    try:
        uniq, counts, totals = _count_table(keys, ys, n_labels, -(-n // batch_size) * x_card)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_labels * keys.nbytes  # a few (n, labels) arrays
    want, inv = np.unique(keys, return_inverse=True)
    want_counts = np.zeros((want.size, n_labels))
    np.add.at(want_counts, (inv, ys), 1.0)
    assert np.array_equal(uniq, want) and np.array_equal(counts, want_counts)
    assert np.array_equal(totals, want_counts.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("pairs, match", [([(0, 5), (1, 0)], "y index"), ([(7, 0)], "x index")],
                         ids=["label-beyond-the-head", "symbol-beyond-the-input"])
def test_accuracy_rejects_samples_outside_the_network(pairs, match):
    net = init_network([2, 3, 2], seed=0)
    with pytest.raises(DimensionError, match=match):
        accuracy(net, SampleSet.from_pairs(pairs))


# --- gradients ---------------------------------------------------------------------

def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(0)
    net = init_network([4, 3, 2], seed=4)
    xs = rng.integers(0, 4, size=32)
    ys = rng.integers(0, 2, size=32)
    gw, gb, _ = batch_gradients(net, xs, ys)
    h = 1e-5

    def loss(weights):
        return batch_gradients(NetworkParams(net.layer_sizes, weights, net.biases), xs, ys)[2]

    for layer in range(2):
        for (r, c) in [(0, 0), (1, 2) if layer == 0 else (1, 1)]:
            w_plus = [w.copy() for w in net.weights]
            w_minus = [w.copy() for w in net.weights]
            w_plus[layer][r, c] += h
            w_minus[layer][r, c] -= h
            fd = (loss(tuple(w_plus)) - loss(tuple(w_minus))) / (2 * h)
            bp = gw[layer][r, c]
            assert abs(bp - fd) <= 1e-4 * max(abs(bp), abs(fd), 1e-10)


def test_backprop_matches_finite_differences_at_depth():
    # three hidden layers: a sign slip anywhere down the backprop chain flips
    # the gradients of the layers below it
    rng = np.random.default_rng(3)
    net = init_network([8, 6, 5, 4, 3], seed=6)
    net = NetworkParams(net.layer_sizes, net.weights,
                        tuple(rng.uniform(-0.5, 0.5, b.size) for b in net.biases))
    xs, ys = rng.integers(0, 8, size=64), rng.integers(0, 3, size=64)
    gw, gb, _ = batch_gradients(net, xs, ys)
    h = 1e-5

    def loss_at(kind, layer, entry, step):
        params = [list(net.weights), list(net.biases)]
        params[kind][layer] = params[kind][layer].copy()
        params[kind][layer][entry] += step
        return batch_gradients(NetworkParams(net.layer_sizes, *map(tuple, params)), xs, ys)[2]

    for layer in range(4):
        for kind, grads, entry in [(0, gw, (1, 2)), (1, gb, (1,))]:
            fd = (loss_at(kind, layer, entry, h) - loss_at(kind, layer, entry, -h)) / (2 * h)
            bp = grads[layer][entry]
            assert abs(bp - fd) <= 1e-4 * max(abs(bp), abs(fd), 1e-10)


def test_backprop_binary_head_matches_finite_differences():
    rng = np.random.default_rng(1)
    net = init_network([3, 2, 1], seed=5)
    xs = rng.integers(0, 3, size=16)
    ys = rng.integers(0, 2, size=16)
    gw, gb, _ = batch_gradients(net, xs, ys)
    h = 1e-5
    b_plus = [b.copy() for b in net.biases]
    b_minus = [b.copy() for b in net.biases]
    b_plus[1][0] += h
    b_minus[1][0] -= h
    lp = batch_gradients(NetworkParams(net.layer_sizes, net.weights, tuple(b_plus)), xs, ys)[2]
    lm = batch_gradients(NetworkParams(net.layer_sizes, net.weights, tuple(b_minus)), xs, ys)[2]
    fd = (lp - lm) / (2 * h)
    assert abs(gb[1][0] - fd) <= 1e-4 * max(abs(gb[1][0]), abs(fd), 1e-10)


def per_sample_backprop(net, xs, ys):
    """Loss and gradients one one-hot sample at a time, plus for each gradient
    entry the sum of the absolute values of its terms (its rounding scale)."""
    m, binary = len(xs), net.layer_sizes[-1] == 1
    gw = [np.zeros_like(w) for w in net.weights]
    gb = [np.zeros_like(b) for b in net.biases]
    scale_w = [np.zeros_like(w) for w in net.weights]
    scale_b = [np.zeros_like(b) for b in net.biases]
    loss = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for x, y in zip(xs, ys):
            acts = [np.eye(net.layer_sizes[0])[x]]
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                acts.append(1.0 / (1.0 + np.exp(-(w @ acts[-1] + b))))
            u = net.weights[-1] @ acts[-1] + net.biases[-1]
            if binary:
                p1 = 1.0 / (1.0 + np.exp(-u))
                p, d = np.array([1.0 - p1[0], p1[0]]), p1 - y
            else:
                e = np.exp(u - u.max())
                p = e / e.sum()
                d = p - np.eye(p.size)[y]
            loss += -math.log2(p[y]) / m if p[y] > 0 else math.inf
            d = d / (m * math.log(2.0))
            for k in range(len(net.weights) - 1, -1, -1):
                gw[k] += np.outer(d, acts[k])
                gb[k] += d
                scale_w[k] += np.abs(np.outer(d, acts[k]))
                scale_b[k] += np.abs(d)
                d = (net.weights[k].T @ d) * acts[k] * (1.0 - acts[k])
    return gw, gb, loss, scale_w, scale_b


@st.composite
def nets_and_batches(draw):
    hidden = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
    x_card, out = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 4]))
    net = init_network([x_card, *hidden, out], seed=draw(st.integers(0, 2**16)))
    gain = draw(st.floats(0.5, 4.0))
    net = NetworkParams(net.layer_sizes, tuple(gain * w for w in net.weights),
                        tuple(gain * np.linspace(-1, 1, b.size) for b in net.biases))
    # few distinct symbols and labels: repeats, and labels that never occur
    symbols = draw(st.lists(st.integers(0, x_card - 1), min_size=1, max_size=3))
    labels = draw(st.lists(st.integers(0, max(out, 2) - 1), min_size=1, max_size=2))
    m = draw(st.integers(1, 12))
    xs = [draw(st.sampled_from(symbols)) for _ in range(m)]
    ys = [draw(st.sampled_from(labels)) for _ in range(m)]
    return net, xs, ys


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nets_and_batches())
def test_count_table_kernel_matches_per_sample_backprop(case):
    net, xs, ys = case
    gw, gb, loss = batch_gradients(net, xs, ys)
    want_w, want_b, want_loss, scale_w, scale_b = per_sample_backprop(net, xs, ys)
    assert abs(loss - want_loss) <= 1e-12 * want_loss
    assert batch_gradients(net, xs, ys)[2] == loss
    for got, want, scale in zip(gw + gb, want_w + want_b, scale_w + scale_b):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


# symbol 0 puts p = 0 exactly on label 1 while every parameter is finite
SATURATED_LABEL_1 = pytest.mark.parametrize(
    "sizes, w0", [([2, 2], [[800.0, 0.0], [-800.0, 0.0]]), ([2, 1], [[-800.0, 0.0]])],
    ids=["softmax-head", "binary-head"])


@SATURATED_LABEL_1
def test_saturated_unobserved_label_keeps_the_loss_finite(sizes, w0):
    # symbol 0 puts p = 0 exactly on label 1, which no sample of symbol 0 shows
    net = NetworkParams(sizes, (np.array(w0),), (np.zeros(sizes[1]),))
    assert forward_all(net, 2)[1][0, 1] == 0.0
    gw, gb, loss = batch_gradients(net, [0, 0, 1], [0, 0, 1])
    want_w, want_b, want_loss, _, _ = per_sample_backprop(net, [0, 0, 1], [0, 0, 1])
    assert math.isfinite(loss) and loss == pytest.approx(want_loss, rel=1e-12)
    for got, want in zip(gw + gb, want_w + want_b):
        assert np.all(np.isfinite(got)) and np.allclose(got, want, rtol=1e-12, atol=0)
    # an observed label at p = 0 still costs an infinite loss
    assert batch_gradients(net, [0], [1])[2] == math.inf


@SATURATED_LABEL_1
def test_train_raises_on_an_observed_label_at_zero_probability(sizes, w0):
    # the loss alone turns non-finite: the gradients of sample (0, 1) are finite
    net = NetworkParams(sizes, (np.array(w0),), (np.zeros(sizes[1]),))
    gw, gb, loss = batch_gradients(net, [0], [1])
    assert loss == math.inf and all(np.all(np.isfinite(g)) for g in gw + gb)
    samples = SampleSet.from_pairs([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(DivergenceError, match="at epoch 0"):
        train_sgd(net, samples, TrainConfig(0.1, 3, 2, seed=0))


# --- exact posterior neuron -----------------------------------------------------------

def test_neuron_two_informative_features():
    w, b = naive_bayes_neuron([0.9, 0.9], [0.3, 0.3], 0.5)
    u = w @ np.array([1, 1]) + b
    assert float(sigmoid(u)) == pytest.approx(0.9, abs=1e-12)
    assert u == pytest.approx(2 * math.log(3.0), abs=1e-12)


def test_neuron_uninformative_features_return_prior():
    w, b = naive_bayes_neuron([0.5, 0.5], [0.5, 0.5], 0.7)
    assert np.allclose(w, 0.0)
    for x in ([0, 0], [0, 1], [1, 1]):
        assert float(sigmoid(w @ np.array(x) + b)) == pytest.approx(0.7, abs=1e-12)


def test_neuron_prior_only():
    w, b = naive_bayes_neuron([0.5], [0.5], 0.8)
    assert b == pytest.approx(math.log(4.0), abs=1e-12)
    assert float(sigmoid(b)) == pytest.approx(0.8, abs=1e-12)


def test_neuron_exact_over_all_inputs():
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = int(rng.integers(1, 11))
        p1 = rng.uniform(0.05, 0.95, size=d)
        p0 = rng.uniform(0.05, 0.95, size=d)
        prior = float(rng.uniform(0.1, 0.9))
        w, b = naive_bayes_neuron(p1, p0, prior)
        for code in range(2 ** d):
            x = [(code >> k) & 1 for k in range(d)]
            want = bayes_posterior(p1, p0, prior, x)
            got = float(sigmoid(w @ np.array(x) + b))
            assert abs(got - want) < 1e-10


def test_neuron_rejects_degenerate_probabilities():
    with pytest.raises(UnsupportedDegenerateError):
        naive_bayes_neuron([1.0], [0.5], 0.5)
    with pytest.raises(UnsupportedDegenerateError):
        naive_bayes_neuron([0.5], [0.5], 0.0)
