"""Layer quantization, exact plane placement, chain checks, output rate."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ibplane import cli, io
from ibplane.analyzer import (
    DPI_TOL,
    QuantizerConfig,
    info_plane_path,
    layer_codes,
    layer_mutual_information,
    network_distortion_rate,
)
from ibplane.curve import anneal_curve, geometric_grid
from ibplane.errors import CoverageError
from ibplane.mlp import (
    NetworkParams,
    TrainConfig,
    forward_all,
    init_network,
    train_sgd,
)
from ibplane.presets import deterministic_joint, random_joint, symmetric_joint
from ibplane.prob import (
    JointDistribution,
    entropy_bits,
    mi_bits,
    mutual_information,
    sample_pairs,
)

SYM = symmetric_joint(0.2)


def diag_net(scale=20.0):
    """Two-symbol network whose hidden layer and output both track x."""
    w = scale * (np.eye(2) - 0.5)
    return NetworkParams((2, 2, 2), (w.copy(), w.copy()), (np.zeros(2), np.zeros(2)))


def trained_net(hidden, seed, epochs=300, n=1000, lr=0.5):
    samples = sample_pairs(SYM, n, seed=seed)
    net = init_network([2, *hidden, 2], seed=seed + 1)
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=32, seed=seed + 2)
    out, _ = train_sgd(net, samples, cfg)
    return out


# --- quantization -------------------------------------------------------------

def test_bin_threshold_at_half():
    codes = layer_codes([[0.49], [0.51]], QuantizerConfig(bins=2))
    assert codes[0] != codes[1]


def test_identical_vectors_share_codes():
    codes = layer_codes([[0.3, 0.7], [0.3, 0.7]], QuantizerConfig(bins=8))
    assert codes[0] == codes[1]


def test_code_count_product_bound():
    rng = np.random.default_rng(0)
    codes = layer_codes(rng.uniform(0, 1, size=(200, 2)), QuantizerConfig(bins=8))
    assert len(set(codes.tolist())) <= 64


def test_exact_codes_distinguish_within_bin():
    acts = [[0.701], [0.702]]
    exact = layer_codes(acts, None)
    binned = layer_codes(acts, QuantizerConfig(bins=2))
    assert exact[0] != exact[1]
    assert binned[0] == binned[1]


def test_quantizer_config_validates():
    with pytest.raises(ValueError):
        QuantizerConfig(bins=1)


# --- layer mutual information ---------------------------------------------------

def test_constant_layer_zero_information():
    # +0.0, which == cannot tell from the -0.0 a CSV would print
    i_x, i_y = layer_mutual_information(SYM, [0, 0])
    assert (i_x, i_y) == (0.0, 0.0)
    assert math.copysign(1.0, i_x) == math.copysign(1.0, i_y) == 1.0


def test_injective_layer_lossless():
    i_x, i_y = layer_mutual_information(SYM, [1, 0])
    assert i_x == pytest.approx(entropy_bits(SYM.p.sum(axis=1)), abs=1e-12)
    assert i_y == pytest.approx(mutual_information(SYM), abs=1e-12)


def test_merging_equivalent_rows_keeps_relevance():
    j = JointDistribution(
        [[0.2, 0.05], [0.2, 0.05], [0.05, 0.2], [0.05, 0.2]])
    i_x, i_y = layer_mutual_information(j, [0, 0, 1, 1])
    assert i_y == pytest.approx(mutual_information(j), abs=1e-10)
    assert i_x < entropy_bits(j.p.sum(axis=1)) - 0.5


def test_missing_code_raises():
    with pytest.raises(CoverageError):
        layer_mutual_information(SYM, [0, -1])
    with pytest.raises(CoverageError):
        layer_mutual_information(SYM, [0])


def test_unsupported_symbol_may_lack_code():
    j = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
    i_x, i_y = layer_mutual_information(j, [0, -1])
    assert i_x == 0.0 and i_y == 0.0


# --- info plane path -------------------------------------------------------------

def test_path_untrained_zero_network_collapses():
    net = NetworkParams((2, 3, 2), (np.zeros((3, 2)), np.zeros((2, 3))),
                        (np.zeros(3), np.zeros(2)))
    path = info_plane_path(SYM, net, QuantizerConfig(bins=8))
    hidden = path.points[1]
    assert hidden.I_X == 0.0 and hidden.I_Y == 0.0


def test_path_identity_like_network():
    path = info_plane_path(SYM, diag_net(), QuantizerConfig(bins=2))
    hidden = path.points[1]
    assert hidden.I_X == pytest.approx(entropy_bits(SYM.p.sum(axis=1)), abs=1e-12)
    assert hidden.I_Y == pytest.approx(mutual_information(SYM), abs=1e-12)


def test_path_layer_zero_is_input():
    path = info_plane_path(SYM, diag_net(), QuantizerConfig(bins=4))
    assert path.points[0].I_X == pytest.approx(1.0, abs=1e-12)
    assert path.points[0].I_Y == pytest.approx(mutual_information(SYM), abs=1e-12)
    assert path.points[0].layer_criterion == 0.0


def test_path_exact_codes_dpi_monotone():
    net = trained_net([4, 3], seed=0)
    path = info_plane_path(SYM, net, None)
    relevances = [p.I_Y for p in path.points]
    for a, b in zip(relevances, relevances[1:]):
        assert b <= a + 1e-9
    assert path.dpi_violations == ()


@pytest.mark.parametrize("seed", range(8))
def test_path_pair_terms_match_the_pair_tables(seed):
    # H(prev) + H(cur) - H(prev, cur) and I(Y; prev, cur) - I(Y; cur) agree
    # with mi_bits of the np.add.at tables of each adjacent layer pair
    rng = np.random.default_rng(seed)
    x_card, y_card = int(rng.integers(2, 9)), int(rng.integers(2, 5))
    j = random_joint(x_card, y_card, seed)
    sizes = [x_card, *rng.integers(1, 7, size=int(rng.integers(1, 4))).tolist(), y_card]
    shapes = list(zip(sizes[1:], sizes))  # (out, in)
    net = NetworkParams(sizes, [3.0 * rng.standard_normal(s) for s in shapes],
                        [3.0 * rng.standard_normal(o) for o, _ in shapes])
    hiddens, probs = forward_all(net, x_card)
    for q in (None, QuantizerConfig(2), QuantizerConfig(8)):
        codes = [np.arange(x_card), *(layer_codes(h, q) for h in hiddens), probs.argmax(axis=1)]
        for prev, cur, p in zip(codes, codes[1:], info_plane_path(j, net, q).points[1:]):
            n_cur = int(cur.max()) + 1
            px_pair = np.zeros((int(prev.max()) + 1, n_cur))
            np.add.at(px_pair, (prev, cur), j.px)
            pxy_pair = np.zeros((px_pair.size, y_card))
            np.add.at(pxy_pair, prev * n_cur + cur, j.p)
            assert p.I_prev == pytest.approx(mi_bits(px_pair), abs=1e-12)
            assert p.I_Y_lost == pytest.approx(max(0.0, mi_bits(pxy_pair) - p.I_Y), abs=1e-12)
            # to the last bit, so analyze's (R_N, D_N) and gaps.json's agree
            assert (p.I_X, p.I_Y) == layer_mutual_information(j, cur)


def test_path_criterion_nonnegative_terms():
    net = trained_net([4, 3], seed=1)
    for beta in (0.5, 1.0, 4.0):
        path = info_plane_path(SYM, net, QuantizerConfig(bins=8), beta=beta)
        for p in path.points[1:]:
            assert p.layer_criterion >= -1e-9


def test_dpi_check_reports_not_raises():
    # coarse two-bin coding of a wide layer may break the layer-to-layer chain
    net = trained_net([6, 5], seed=3)
    path = info_plane_path(SYM, net, QuantizerConfig(bins=2))
    for (_, _), magnitude in path.dpi_violations:
        assert magnitude > 1e-9


def test_estimator_sandwich_and_refinement():
    net = trained_net([4, 3], seed=2)
    exact = info_plane_path(SYM, net, None)
    coarse = info_plane_path(SYM, net, QuantizerConfig(bins=4))
    fine = info_plane_path(SYM, net, QuantizerConfig(bins=8))
    h_x = entropy_bits(SYM.p.sum(axis=1))
    for i in range(1, len(exact.points) - 1):
        assert coarse.points[i].I_X <= exact.points[i].I_X + 1e-9
        assert exact.points[i].I_X <= h_x + 1e-9
        # nested refinement can only reveal more structure
        assert fine.points[i].I_X >= coarse.points[i].I_X - 1e-9
        assert fine.points[i].I_Y >= coarse.points[i].I_Y - 1e-9


# --- output rate/distortion --------------------------------------------------------

def test_perfect_predictor_on_deterministic_joint():
    j = deterministic_joint(2)
    r_n, d_n = network_distortion_rate(j, diag_net(), QuantizerConfig(bins=8))
    assert r_n == pytest.approx(1.0, abs=1e-12)
    assert d_n == pytest.approx(0.0, abs=1e-12)


def permuting_net(seed):
    """A random joint over k symbols and a net with one hidden layer whose
    units and argmax prediction relabel x by seeded permutations: every
    layer keeps all of I(X;Y), and only rounding tells the sums apart."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    g = rng.gamma(1.0, size=(k, k))
    hidden, out = rng.permutation(k), rng.permutation(k)
    w1, w2 = np.full((k, k), -5.0), np.full((k, k), -5.0)
    w1[hidden, np.arange(k)] = w2[out, hidden] = 5.0
    return (JointDistribution(g / g.sum()),
            NetworkParams((k, k, k), (w1, w2), (np.zeros(k), np.zeros(k))))


def test_rounding_never_reports_negative_information(tmp_path, monkeypatch, capsys):
    # at 10 of these 40 seeds, I(X;Y) - I(Yhat;Y) and I_Y_lost round below 0
    # unless clamped; the analyze summary and gaps.json report D_N too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text("beta,R,I_Y,D_IB,L,eff_card\n1,0,0,0,0,1\n")
    for seed in range(40):
        j, net = permuting_net(seed)
        r_n, d_n = network_distortion_rate(j, net, None)
        assert r_n == pytest.approx(entropy_bits(j.px), abs=1e-12)
        assert 0.0 <= d_n <= 1e-12
        for p in info_plane_path(j, net, None).points:
            assert 0.0 <= p.I_Y_lost <= 1e-12 and p.I_prev >= 0.0
        (tmp_path / "j.json").write_text(io.joint_to_json(j))
        (tmp_path / "net.json").write_text(io.network_to_json(net))
        assert cli.run("analyze --joint j.json --net net.json --exact --out p.csv".split()) == 0
        assert json.loads(capsys.readouterr().out)["D_N"] >= 0.0
        assert cli.run("bounds --curve c.csv --n 100 --joint j.json --net net.json "
                       "--gaps-out g.json --out b.csv".split()) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "g.json").read_text())["D_N"] >= 0.0


def test_constant_predictor():
    net = NetworkParams((2, 2), (np.zeros((2, 2)),), (np.zeros(2),))
    r_n, d_n = network_distortion_rate(SYM, net, QuantizerConfig(bins=8))
    assert r_n == 0.0
    assert d_n == pytest.approx(mutual_information(SYM), abs=1e-12)


def test_network_never_beats_the_curve():
    curve = anneal_curve(SYM, 2, geometric_grid(0.5, 200.0, 1.2), restarts=2, seed=0)
    i_xy = mutual_information(SYM)
    net = trained_net([4, 3], seed=4)
    r_n, d_n = network_distortion_rate(SYM, net, QuantizerConfig(bins=8))
    # interpolate the curve's distortion at the network's rate
    rs = [p.R for p in curve.points]
    iys = [p.I_Y for p in curve.points]
    i_at_r = np.interp(r_n, rs, iys)
    assert d_n >= (i_xy - i_at_r) - 0.02


# --- properties over random joints and nets ---------------------------------------

def dict_codes(rows, bins):
    """Reference coder: each row's key (exact tuple or bin tuple) mapped to
    the next free code the first time it is seen."""
    seen = {}
    keys = [tuple(r) if bins is None else tuple(min(int(v * bins), bins - 1) for v in r)
            for r in rows.tolist()]
    return np.array([seen.setdefault(k, len(seen)) for k in keys])


@st.composite
def joints_and_nets(draw):
    """A joint from integer counts, one x row possibly massless, and a net
    of 0-3 hidden layers whose weights scale up to saturation."""
    x_card = draw(st.integers(1, 6))
    binary = draw(st.booleans())
    y_card = 2 if binary else draw(st.integers(2, 4))
    counts = np.array(draw(st.lists(st.integers(0, 20), min_size=x_card * y_card,
                                    max_size=x_card * y_card)), dtype=float)
    counts = counts.reshape(x_card, y_card)
    if x_card > 1 and draw(st.booleans()):
        counts[draw(st.integers(0, x_card - 1))] = 0.0
    assume(counts.sum() > 0)
    sizes = [x_card, *draw(st.lists(st.integers(1, 6), max_size=3)), 1 if binary else y_card]
    gain = draw(st.floats(0.5, 1000.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = tuple(gain * rng.standard_normal((o, i)) for i, o in zip(sizes, sizes[1:]))
    biases = tuple(gain * rng.standard_normal(o) for o in sizes[1:])
    return JointDistribution(counts / counts.sum()), NetworkParams(sizes, weights, biases)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(joints_and_nets(), st.floats(0.0, 64.0))
def test_layer_placement_properties(case, beta):
    j, net = case
    hiddens, probs = forward_all(net, j.x_card)
    assert len(hiddens) == net.n_hidden
    for h in hiddens:
        assert h.shape[0] == j.x_card and np.all((h >= 0) & (h <= 1))
        for bins in (None, 2, 8):
            q = None if bins is None else QuantizerConfig(bins)
            assert np.array_equal(layer_codes(h, q), dict_codes(h, bins))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)

    i_xy, h_x = mutual_information(j), entropy_bits(j.p.sum(axis=1))
    for q in (None, QuantizerConfig(8)):
        path = info_plane_path(j, net, q)
        if q is None:
            assert path.dpi_violations == ()
            for p in path.points:
                assert 0.0 <= p.I_Y <= i_xy + DPI_TOL and 0.0 <= p.I_X <= h_x + DPI_TOL
        fresh = info_plane_path(j, net, q, beta=beta)
        assert [p.criterion(beta) for p in path.points] == \
            [p.layer_criterion for p in fresh.points]
