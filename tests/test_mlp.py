"""Network init, forward, SGD training, gradients, exact posterior neuron."""

import math

import numpy as np
import pytest

from ibplane.errors import DimensionError, DivergenceError, UnsupportedDegenerateError
from ibplane.mlp import (
    NetworkParams,
    TrainConfig,
    accuracy,
    batch_gradients,
    batch_loss,
    forward,
    forward_all,
    init_network,
    naive_bayes_neuron,
    sigmoid,
    train_sgd,
)
from ibplane.presets import symmetric_joint, xor_joint
from ibplane.prob import SampleSet, entropy_bits, sample_pairs


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


# --- forward --------------------------------------------------------------------

def test_forward_all_zero_params():
    net = NetworkParams((2, 3, 2),
                        (np.zeros((3, 2)), np.zeros((2, 3))),
                        (np.zeros(3), np.zeros(2)))
    acts = forward(net, 0, 2)
    assert np.allclose(acts.hidden[0], 0.5)
    assert np.allclose(acts.output, [0.5, 0.5])


def test_forward_deterministic():
    net = init_network([3, 4, 2], seed=1)
    a = forward(net, 1, 3)
    b = forward(net, 1, 3)
    assert np.array_equal(a.output, b.output)


def test_forward_hand_computed_unit():
    # single hidden unit with weights [1, -1]: one-hot index 0 gives sigmoid(1)
    net = NetworkParams((2, 1, 2),
                        (np.array([[1.0, -1.0]]), np.zeros((2, 1))),
                        (np.zeros(1), np.zeros(2)))
    acts = forward(net, 0, 2)
    assert acts.hidden[0][0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_forward_binary_output_unit():
    net = NetworkParams((2, 1), (np.array([[2.0, 0.0]]),), (np.zeros(1),))
    acts = forward(net, 0, 2)
    assert acts.output[1] == pytest.approx(float(sigmoid(2.0)), abs=1e-12)
    assert acts.output.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_equals_row_of_forward_all():
    for sizes in ([3, 4, 2], [4, 3, 2, 1], [5, 3]):
        net = init_network(sizes, seed=6)
        rows = forward_all(net, sizes[0])
        for i in range(sizes[0]):
            one = forward(net, i, sizes[0])
            assert np.array_equal(one.output, rows[i].output)
            assert len(one.hidden) == len(rows[i].hidden) == len(sizes) - 2
            for a, b in zip(one.hidden, rows[i].hidden):
                assert np.array_equal(a, b)


def test_forward_validates_width():
    net = init_network([3, 2], seed=0)
    with pytest.raises(DimensionError):
        forward(net, 0, 4)


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
], ids=["softmax-two-hidden", "binary-head", "ragged-last-batch"])
def test_train_matches_reference_loop_bit_for_bit(joint, sizes, n, batch_size):
    samples = sample_pairs(joint, n, seed=4)
    net = init_network(sizes, seed=5)
    cfg = TrainConfig(learning_rate=0.7, epochs=12, batch_size=batch_size, seed=6)
    got, got_trace = train_sgd(net, samples, cfg)
    want, want_trace = reference_sgd(net, samples, cfg)
    assert got_trace == want_trace
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(a, b)


# --- gradients ---------------------------------------------------------------------

def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(0)
    net = init_network([4, 3, 2], seed=4)
    xs = rng.integers(0, 4, size=32)
    ys = rng.integers(0, 2, size=32)
    gw, gb, _ = batch_gradients(net, xs, ys)
    h = 1e-5
    for layer in range(2):
        for (r, c) in [(0, 0), (1, 2) if layer == 0 else (1, 1)]:
            w_plus = [w.copy() for w in net.weights]
            w_minus = [w.copy() for w in net.weights]
            w_plus[layer][r, c] += h
            w_minus[layer][r, c] -= h
            lp = batch_loss(NetworkParams(net.layer_sizes, tuple(w_plus), net.biases), xs, ys)
            lm = batch_loss(NetworkParams(net.layer_sizes, tuple(w_minus), net.biases), xs, ys)
            fd = (lp - lm) / (2 * h)
            bp = gw[layer][r, c]
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
    lp = batch_loss(NetworkParams(net.layer_sizes, net.weights, tuple(b_plus)), xs, ys)
    lm = batch_loss(NetworkParams(net.layer_sizes, net.weights, tuple(b_minus)), xs, ys)
    fd = (lp - lm) / (2 * h)
    assert abs(gb[1][0] - fd) <= 1e-4 * max(abs(gb[1][0]), abs(fd), 1e-10)


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
