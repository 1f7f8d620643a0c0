"""The benchmark's checkers against values worked out by hand.

Run with `python3 -m pytest perfbench/test_checks.py`; no ibplane import.
"""

import math

import numpy as np

import checks

SYMMETRIC = 0.5 * np.array([[0.8, 0.2], [0.2, 0.8]])
# hierarchical(eps1=0.2, eps2=0.05, levels=2): p(y=0|x) = 0.85, 0.75, 0.25, 0.15
HIERARCHICAL = 0.25 * np.array([[0.85, 0.15], [0.75, 0.25], [0.25, 0.75], [0.15, 0.85]])


def test_symmetric_first_split_is_one_over_0_36():
    # C restricted to the trivial cluster has lambda_2 = 0.68 / 0.5 - 1 = 0.36
    assert math.isclose(checks.critical_beta(SYMMETRIC, [0.5, 0.5]), 1 / 0.36, rel_tol=1e-12)
    assert round(checks.critical_beta(SYMMETRIC, [0.5, 0.5]), 4) == 2.7778


def test_hierarchical_splits():
    px = HIERARCHICAL.sum(axis=1)
    # lambda_2 = mean over x of sum_y p(y|x)^2 / p(y) - 1 = 1.37 - 1
    assert math.isclose(checks.critical_beta(HIERARCHICAL, px), 1 / 0.37, rel_tol=1e-12)
    assert round(checks.critical_beta(HIERARCHICAL, px), 4) == 2.7027
    # hard cluster {0, 1}: p(y|t) = (0.8, 0.2) and lambda_2 = 1.015625 - 1 = 1/64
    assert math.isclose(checks.critical_beta(HIERARCHICAL, [0.5, 0.5, 0, 0]), 64.0, rel_tol=1e-12)


def test_code_information_of_deterministic_codes():
    assert math.isclose(checks.code_information(SYMMETRIC, [0, 0])[1], 0.0, abs_tol=1e-15)
    h_t, i_y = checks.code_information(SYMMETRIC, [0, 1])
    assert math.isclose(h_t, 1.0)
    # I = 1 - H2(0.2)
    h2 = -(0.2 * math.log2(0.2) + 0.8 * math.log2(0.8))
    assert math.isclose(i_y, 1 - h2, rel_tol=1e-12)
    assert math.isclose(checks.mutual_information(SYMMETRIC), 1 - h2, rel_tol=1e-12)


def test_partitions_count_stirling_numbers():
    # S(4,1) + S(4,2) = 1 + 7 and S(10,1..4) summed = 43947
    assert checks._partitions(4, 2).shape == (8, 4)
    assert checks._partitions(10, 4).shape == (43947, 10)


def test_best_deterministic_encoder():
    # T = 2 on the symmetric joint: either merge (L = 0) or keep both symbols
    # (L = 1 - beta (1 - H2(0.2))), whichever is lower
    i_xy = checks.mutual_information(SYMMETRIC)
    for beta in (1.0, 2.0, 5.0, 20.0):
        assert math.isclose(checks.best_deterministic_L(SYMMETRIC, 2, beta),
                            min(0.0, 1 - beta * i_xy), abs_tol=1e-12)
    # hierarchical at beta = 10 with T = 2: {0,1} | {2,3} beats every other map
    pairs = checks.code_information(HIERARCHICAL, [0, 0, 1, 1])
    assert math.isclose(checks.best_deterministic_L(HIERARCHICAL, 2, 10.0),
                        pairs[0] - 10.0 * pairs[1], rel_tol=1e-12)


def test_fixed_point_residual_flags_a_perturbed_encoder():
    beta = 5.0
    enc = np.array([[0.9, 0.1], [0.1, 0.9]])
    for _ in range(2000):
        enc = checks.ib_update(SYMMETRIC, enc, beta)
    assert checks.fixed_point_residual(SYMMETRIC, enc, beta) < 1e-12
    r, i_y, l_val = checks.encoder_scalars(SYMMETRIC, enc, beta)
    assert math.isclose(l_val, r - beta * i_y) and 0 < i_y < checks.mutual_information(SYMMETRIC)
    bumped = enc + np.array([[1e-4, -1e-4], [0.0, 0.0]])
    assert checks.fixed_point_residual(SYMMETRIC, bumped, beta) > 1e-6


def test_trivial_encoder_is_a_fixed_point_below_the_first_split():
    enc = np.full((2, 2), 0.5)
    assert checks.fixed_point_residual(SYMMETRIC, enc, 2.0) < 1e-15
    assert checks.encoder_scalars(SYMMETRIC, enc, 2.0)[1] == 0.0


def test_forward_pass_and_binning():
    # one hidden unit with weights (-2, 2): activations sigmoid(-2), sigmoid(2)
    weights = [np.array([[-2.0, 2.0]]), np.array([[4.0]])]
    biases = [np.array([0.0]), np.array([-2.0])]
    hidden, probs = checks.forward(weights, biases, 2)
    s = 1 / (1 + math.exp(2))
    assert np.allclose(hidden[0][:, 0], [s, 1 - s])
    assert np.allclose(probs[:, 1], 1 / (1 + np.exp(-(4 * hidden[0][:, 0] - 2))))
    assert np.allclose(probs.sum(axis=1), 1.0)
    codes = checks.layer_codes(weights, biases, 2, bins=8)
    assert [c.tolist() for c in codes] == [[0, 1], [0, 1], [0, 1]]
    # two bins put both activations (0.12 and 0.88) apart; exact codes agree
    assert checks.layer_codes(weights, biases, 2, bins=None)[1].tolist() == [0, 1]


def test_loss_floor_is_the_empirical_conditional_entropy():
    xs = np.array([0, 0, 0, 1])
    ys = np.array([0, 0, 1, 1])
    # H(Y|X) = 3/4 * H2(1/3)
    want = 0.75 * -(1 / 3 * math.log2(1 / 3) + 2 / 3 * math.log2(2 / 3))
    assert math.isclose(checks.conditional_entropy(xs, ys, 2, 2), want, rel_tol=1e-12)
