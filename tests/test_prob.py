"""Probability primitives against independent brute-force oracles."""

import math

import numpy as np
import pytest

from ibplane.errors import DimensionError, EmptySampleError
from ibplane.prob import (
    ConditionalMatrix,
    DiscreteDistribution,
    JointDistribution,
    SampleSet,
    decompose,
    empirical_joint,
    entropy,
    entropy_bits,
    js_bits,
    kl_divergence,
    mutual_information,
    sample_pairs,
)


# --- independent oracles (plain summation, no shared code paths) -----------

def oracle_entropy(p):
    return -sum(v * math.log2(v) for v in p if v > 0)


def oracle_kl(p, q):
    total = 0.0
    for a, b in zip(p, q):
        if a > 0:
            if b == 0:
                return math.inf
            total += a * math.log2(a / b)
    return total


def oracle_mi(joint):
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for k in range(joint.shape[1]):
            if joint[i, k] > 0:
                total += joint[i, k] * math.log2(joint[i, k] / (px[i] * py[k]))
    return total


def random_dist(rng, size):
    g = rng.gamma(1.0, size=size)
    return g / g.sum()


# --- entropy ----------------------------------------------------------------

def test_entropy_point_mass():
    assert entropy(DiscreteDistribution([1.0])) == 0.0


def test_entropy_uniform_binary():
    assert entropy(DiscreteDistribution([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)


def test_entropy_skewed_matches_oracle():
    d = [0.2, 0.8]
    assert entropy(DiscreteDistribution(d)) == pytest.approx(oracle_entropy(d), abs=1e-12)
    assert entropy(DiscreteDistribution(d)) == pytest.approx(0.721928, abs=1e-6)


def test_entropy_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_dist(rng, 6)
        h = entropy(DiscreteDistribution(p))
        assert -1e-12 <= h <= math.log2(6) + 1e-12


# --- KL divergence ----------------------------------------------------------

def test_kl_identical_is_zero():
    d = DiscreteDistribution([0.3, 0.7])
    assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-12)


def test_kl_point_vs_uniform():
    p = DiscreteDistribution([1.0, 0.0])
    q = DiscreteDistribution([0.5, 0.5])
    assert kl_divergence(p, q) == pytest.approx(1.0, abs=1e-12)


def test_kl_skewed_matches_oracle():
    p, q = [0.75, 0.25], [0.5, 0.5]
    got = kl_divergence(DiscreteDistribution(p), DiscreteDistribution(q))
    assert got == pytest.approx(oracle_kl(p, q), abs=1e-12)
    assert got == pytest.approx(0.188722, abs=1e-6)


def test_kl_unmatched_support_is_inf():
    p = DiscreteDistribution([0.5, 0.5])
    q = DiscreteDistribution([1.0, 0.0])
    assert kl_divergence(p, q) == math.inf


def test_kl_length_mismatch_raises():
    with pytest.raises(DimensionError):
        kl_divergence(DiscreteDistribution([1.0]), DiscreteDistribution([0.5, 0.5]))


def test_kl_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_dist(rng, 5)
        q = random_dist(rng, 5)
        assert kl_divergence(DiscreteDistribution(p), DiscreteDistribution(q)) >= -1e-12


# --- mutual information -----------------------------------------------------

def test_mi_product_is_zero():
    j = JointDistribution.from_matrix([[0.25, 0.25], [0.25, 0.25]])
    assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)


def test_mi_identity_coupling():
    j = JointDistribution.from_matrix([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(j) == pytest.approx(1.0, abs=1e-12)


def test_mi_symmetric_channel_matches_oracle():
    m = [[0.4, 0.1], [0.1, 0.4]]
    j = JointDistribution.from_matrix(m)
    assert mutual_information(j) == pytest.approx(oracle_mi(m), abs=1e-12)
    # 1 - H2(0.2)
    assert mutual_information(j) == pytest.approx(0.278072, abs=1e-6)


def test_mi_transpose_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = random_dist(rng, (3, 4))
        a = mutual_information(JointDistribution.from_matrix(m))
        b = mutual_information(JointDistribution.from_matrix(m.T))
        assert a == pytest.approx(b, abs=1e-12)


def test_mi_chain_consistency():
    # I(X;Y) = H(Y) - sum_x p(x) H(p(y|x))
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_dist(rng, (4, 3))
        j = JointDistribution.from_matrix(m)
        px, cond = decompose(j)
        h_y_given_x = sum(
            px.p[i] * entropy_bits(cond.p[i]) for i in range(j.x_card)
        )
        hy = entropy_bits(m.sum(axis=0))
        assert mutual_information(j) == pytest.approx(hy - h_y_given_x, abs=1e-10)


def test_mi_grouping_identical_rows():
    # merging two x symbols with the same conditional row keeps I(X;Y)
    m = np.array([[0.2, 0.05], [0.2, 0.05], [0.1, 0.4]])
    merged = np.array([[0.4, 0.1], [0.1, 0.4]])
    a = mutual_information(JointDistribution.from_matrix(m))
    b = mutual_information(JointDistribution.from_matrix(merged))
    assert a == pytest.approx(b, abs=1e-10)


def test_js_divergence_basic():
    assert js_bits([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert js_bits([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert js_bits([0.9, 0.1], [0.1, 0.9]) == js_bits([0.1, 0.9], [0.9, 0.1])


# --- decompose ----------------------------------------------------------------

def test_decompose_identity():
    j = JointDistribution.from_matrix([[0.5, 0.0], [0.0, 0.5]])
    px, cond = decompose(j)
    assert np.allclose(px.p, [0.5, 0.5])
    assert np.allclose(cond.p, [[1, 0], [0, 1]])


def test_decompose_symmetric_rows():
    j = JointDistribution.from_matrix([[0.4, 0.1], [0.1, 0.4]])
    px, cond = decompose(j)
    assert np.allclose(px.p, [0.5, 0.5])
    assert np.allclose(cond.p, [[0.8, 0.2], [0.2, 0.8]])


def test_decompose_zero_row_uniform():
    j = JointDistribution.from_matrix([[0.5, 0.5], [0.0, 0.0]])
    px, cond = decompose(j)
    assert np.allclose(cond.p[1], [0.5, 0.5])
    # reconstruction matches on supported rows
    recon = px.p[:, None] * cond.p
    assert np.max(np.abs(recon - j.p)) < 1e-12


def test_decompose_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = random_dist(rng, (5, 3))
        j = JointDistribution.from_matrix(m)
        px, cond = decompose(j)
        assert np.max(np.abs(px.p[:, None] * cond.p - j.p)) < 1e-12


# --- sampling ----------------------------------------------------------------

def test_sample_point_mass():
    j = JointDistribution.from_matrix([[0.0, 1.0], [0.0, 0.0]])
    s = sample_pairs(j, 20, seed=0)
    assert np.all(s.pairs == [0, 1])


def test_sample_determinism():
    j = JointDistribution.from_matrix([[0.4, 0.1], [0.1, 0.4]])
    a = sample_pairs(j, 500, seed=42)
    b = sample_pairs(j, 500, seed=42)
    assert np.array_equal(a.pairs, b.pairs)


def test_sample_frequencies_within_3_sigma():
    j = JointDistribution.from_matrix([[0.4, 0.1], [0.1, 0.4]])
    n = 100_000
    s = sample_pairs(j, n, seed=7)
    emp = empirical_joint(s, 2, 2)
    for xi in range(2):
        for yi in range(2):
            p = j.p[xi, yi]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(emp.p[xi, yi] - p) <= 3 * sigma


def test_sample_size_validation():
    j = JointDistribution.from_matrix([[1.0]])
    with pytest.raises(ValueError):
        sample_pairs(j, 0, seed=0)


# --- empirical joint ----------------------------------------------------------

def test_empirical_repeated_pair():
    s = SampleSet.from_pairs([(0, 0), (0, 0)])
    j = empirical_joint(s, 2, 2)
    assert np.allclose(j.p, [[1, 0], [0, 0]])


def test_empirical_two_cells():
    s = SampleSet.from_pairs([(0, 0), (1, 1)])
    j = empirical_joint(s, 2, 2)
    assert np.allclose(j.p, [[0.5, 0], [0, 0.5]])


def test_empirical_empty_raises():
    s = SampleSet(np.zeros((0, 2), dtype=int), 0)
    with pytest.raises(EmptySampleError):
        empirical_joint(s, 2, 2)


def test_empirical_out_of_range_raises():
    s = SampleSet.from_pairs([(0, 5)])
    with pytest.raises(DimensionError):
        empirical_joint(s, 2, 2)


def test_plugin_mi_consistency():
    j = JointDistribution.from_matrix([[0.4, 0.1], [0.1, 0.4]])
    s = sample_pairs(j, 1_000_000, seed=11)
    emp = empirical_joint(s, 2, 2)
    assert abs(mutual_information(emp) - mutual_information(j)) < 0.01


# --- construction validation ---------------------------------------------------

def test_distribution_rejects_negative():
    with pytest.raises(ValueError):
        DiscreteDistribution([-0.1, 1.1])


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError):
        DiscreteDistribution([0.5, 0.6])


def test_joint_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        JointDistribution(2, 3, np.full((2, 2), 0.25))


def test_conditional_rejects_bad_rows():
    with pytest.raises(ValueError):
        ConditionalMatrix.from_matrix([[0.5, 0.4], [0.5, 0.5]])


def test_distribution_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        DiscreteDistribution([math.nan, 0.5, 0.5])


def test_joint_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        JointDistribution(2, 2, [[math.nan, 0.5], [0.25, 0.25]])


def test_conditional_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        ConditionalMatrix.from_matrix([[math.nan, 1.0], [0.5, 0.5]])


def test_values_immutable():
    j = JointDistribution.from_matrix([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        j.p[0, 0] = 0.9
