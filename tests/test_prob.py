"""Probability primitives against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from ibplane.errors import DimensionError, EmptySampleError
from ibplane.prob import (
    JointDistribution,
    SampleSet,
    empirical_joint,
    _check_table,
    entropy_bits,
    js_bits,
    kl_bits,
    mi_bits,
    sample_pairs,
)
from ibplane.mlp import init_network
from ibplane.solver import Encoder, IBSolution, _encoder_stack


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


# an empirical joint with a massless x row (x=1) and a zero-mass y column (y=2)
GAPPY = empirical_joint(SampleSet.from_pairs([(0, 0), (0, 1), (2, 0), (2, 1), (0, 0)]), 3, 3)


def assert_constants_match(j):
    """The joint's cached constants equal a row-by-row division and the free
    functions bit for bit; a massless row conditions to a zero row."""
    px = np.array([row.sum() for row in j.p])
    cond = np.array([row / m if m > 0 else np.zeros(j.y_card) for row, m in zip(j.p, px)])
    assert (j.px.tobytes(), j.pygx.tobytes()) == (px.tobytes(), cond.tobytes())
    assert (j.i_xy, j.h_x) == (mi_bits(j.p), entropy_bits(px))


# --- entropy ----------------------------------------------------------------

def test_entropy_point_mass():
    assert entropy_bits([1.0]) == 0.0


def test_entropy_uniform_binary():
    assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_entropy_skewed_matches_oracle():
    d = [0.2, 0.8]
    assert entropy_bits(d) == pytest.approx(oracle_entropy(d), abs=1e-12)
    assert entropy_bits(d) == pytest.approx(0.721928, abs=1e-6)


def test_entropy_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_dist(rng, 6)
        h = entropy_bits(p)
        assert -1e-12 <= h <= math.log2(6) + 1e-12


# --- KL divergence ----------------------------------------------------------

def test_kl_identical_is_zero():
    d = [0.3, 0.7]
    assert kl_bits(d, d) == pytest.approx(0.0, abs=1e-12)


def test_kl_point_vs_uniform():
    assert kl_bits([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_kl_skewed_matches_oracle():
    p, q = [0.75, 0.25], [0.5, 0.5]
    got = kl_bits(p, q)
    assert got == pytest.approx(oracle_kl(p, q), abs=1e-12)
    assert got == pytest.approx(0.188722, abs=1e-6)


def test_kl_unmatched_support_is_inf():
    assert kl_bits([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_length_mismatch_raises():
    with pytest.raises(DimensionError):
        kl_bits([1.0], [0.5, 0.5])


def test_kl_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_dist(rng, 5)
        q = random_dist(rng, 5)
        assert kl_bits(p, q) >= -1e-12


# --- mutual information -----------------------------------------------------

def test_mi_product_is_zero():
    j = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
    assert j.i_xy == pytest.approx(0.0, abs=1e-12)


def test_mi_identity_coupling():
    j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert j.i_xy == pytest.approx(1.0, abs=1e-12)


def test_mi_symmetric_channel_matches_oracle():
    m = [[0.4, 0.1], [0.1, 0.4]]
    j = JointDistribution(m)
    assert j.i_xy == pytest.approx(oracle_mi(m), abs=1e-12)
    # 1 - H2(0.2)
    assert j.i_xy == pytest.approx(0.278072, abs=1e-6)


def test_mi_transpose_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = random_dist(rng, (3, 4))
        a = JointDistribution(m).i_xy
        b = JointDistribution(m.T).i_xy
        assert a == pytest.approx(b, abs=1e-12)


def test_mi_chain_consistency():
    # I(X;Y) = H(Y) - sum_x p(x) H(p(y|x))
    rng = np.random.default_rng(3)
    for j in [*(JointDistribution(random_dist(rng, (4, 3))) for _ in range(25)),
              GAPPY]:
        px, cond = j.px, j.pygx
        h_y_given_x = sum(
            px[i] * entropy_bits(cond[i]) for i in range(j.x_card)
        )
        hy = entropy_bits(j.p.sum(axis=0))
        assert j.i_xy == pytest.approx(hy - h_y_given_x, abs=1e-10)
        assert_constants_match(j)


def test_mi_grouping_identical_rows():
    # merging two x symbols with the same conditional row keeps I(X;Y)
    m = np.array([[0.2, 0.05], [0.2, 0.05], [0.1, 0.4]])
    merged = np.array([[0.4, 0.1], [0.1, 0.4]])
    a = JointDistribution(m).i_xy
    b = JointDistribution(merged).i_xy
    assert a == pytest.approx(b, abs=1e-10)


def test_js_divergence_basic():
    assert js_bits([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert js_bits([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert js_bits([0.9, 0.1], [0.1, 0.9]) == js_bits([0.1, 0.9], [0.9, 0.1])


def test_js_divergence_broadcasts_over_leading_axes():
    rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.0, 0.8], [0.0, 0.0, 1.0]])
    table = js_bits(rows[:, None], rows[None])
    assert table.shape == (3, 3)
    assert table.tolist() == [[js_bits(a, b) for b in rows] for a in rows]
    with pytest.raises(DimensionError):
        js_bits([0.5, 0.5], [1.0])


# --- conditional rows ----------------------------------------------------------------

def test_decompose_identity():
    j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    px, cond = j.px, j.pygx
    assert np.allclose(px, [0.5, 0.5])
    assert np.allclose(cond, [[1, 0], [0, 1]])


def test_decompose_symmetric_rows():
    j = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    px, cond = j.px, j.pygx
    assert np.allclose(px, [0.5, 0.5])
    assert np.allclose(cond, [[0.8, 0.2], [0.2, 0.8]])


def test_decompose_zero_row_is_zero():
    # an unobserved symbol gets no made-up conditional: p(y|x) = 0 where p(x) = 0
    for j in (JointDistribution([[0.5, 0.5], [0.0, 0.0]]), GAPPY):
        px, cond = j.px, j.pygx
        assert px[1] == 0 and not cond[1].any()
        # reconstruction matches on supported rows
        recon = px[:, None] * cond
        assert np.max(np.abs(recon - j.p)) < 1e-12
        assert_constants_match(j)


def test_decompose_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = random_dist(rng, (5, 3))
        j = JointDistribution(m)
        px, cond = j.px, j.pygx
        assert np.max(np.abs(px[:, None] * cond - j.p)) < 1e-12
        assert_constants_match(j)


# --- sampling ----------------------------------------------------------------

def test_sample_point_mass():
    j = JointDistribution([[0.0, 1.0], [0.0, 0.0]])
    s = sample_pairs(j, 20, seed=0)
    assert np.all(s.pairs == [0, 1])


def test_sample_determinism():
    j = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    a = sample_pairs(j, 500, seed=42)
    b = sample_pairs(j, 500, seed=42)
    assert np.array_equal(a.pairs, b.pairs)


def test_sample_frequencies_within_3_sigma():
    j = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    n = 100_000
    s = sample_pairs(j, n, seed=7)
    emp = empirical_joint(s, 2, 2)
    for xi in range(2):
        for yi in range(2):
            p = j.p[xi, yi]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(emp.p[xi, yi] - p) <= 3 * sigma


def test_sample_size_validation():
    j = JointDistribution([[1.0]])
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
    s = SampleSet(np.zeros((0, 2), dtype=int))
    with pytest.raises(EmptySampleError):
        empirical_joint(s, 2, 2)


def test_empirical_out_of_range_raises():
    s = SampleSet.from_pairs([(0, 5)])
    with pytest.raises(DimensionError):
        empirical_joint(s, 2, 2)


def test_plugin_mi_consistency():
    j = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    s = sample_pairs(j, 1_000_000, seed=11)
    emp = empirical_joint(s, 2, 2)
    assert abs(emp.i_xy - j.i_xy) < 0.01


# --- construction validation ---------------------------------------------------

# every table and encoder stack goes through one check; each constructor is
# given a valid table of its kind, then one fault (a joint file whose x_card
# and y_card disagree with p is checked by its reader, in test_io_cli). The
# one-axis case is a discrete distribution, checked as `IBSolution` checks its
# cluster marginal
TABLES = {
    "DiscreteDistribution": (lambda p: _check_table(p, "probability vector", 1), [0.5, 0.5]),
    "JointDistribution": (JointDistribution, np.full((2, 3), 1 / 6)),
    "Encoder": (Encoder, [[0.5, 0.5], [0.9, 0.1]]),
    "_encoder_stack": (_encoder_stack, [[[0.5, 0.5], [0.9, 0.1]], [[1.0, 0.0], [0.2, 0.8]]]),
}
TABLE_FAULTS = {"nan": ValueError, "inf": ValueError, "negative-entry": ValueError,
                "bad-sum": ValueError, "extra-axis": DimensionError,
                "empty-axis": DimensionError}


def _with_fault(p: np.ndarray, fault: str) -> np.ndarray:
    p = p.copy()
    if fault in ("nan", "inf"):
        p.flat[0] = math.nan if fault == "nan" else math.inf
    elif fault == "negative-entry":  # moved within a row: every sum stays 1
        p.flat[0] -= 1.0
        p.flat[1] += 1.0
    elif fault == "bad-sum":
        p.flat[0] += 0.1
    elif fault == "extra-axis":
        p = p[None]
    elif fault == "empty-axis":
        p = np.zeros(p.shape[:-1] + (0,))
    return p


def test_joint_rejects_non_finite_mutual_information():
    # p(x) p(y) of the subnormal cell underflows to 0, so its log-ratio and
    # I(X;Y) are inf; the check raises without a RuntimeWarning (an error here)
    with pytest.raises(ValueError, match=r"non-finite I\(X;Y\) = inf"):
        JointDistribution([[0.5, 5e-324], [0.5, 0.0]])
    assert JointDistribution([[0.5, 1e-300], [0.5, 0.0]]).i_xy < 1e-290


@pytest.mark.parametrize("kind, fault", itertools.product(TABLES, TABLE_FAULTS))
def test_table_constructors_reject_bad_tables(kind, fault):
    make, good = TABLES[kind]
    make(np.asarray(good, dtype=float))
    with pytest.raises(TABLE_FAULTS[fault]) as caught:
        make(_with_fault(np.asarray(good, dtype=float), fault))
    if fault in ("nan", "inf", "negative-entry"):
        assert "negative or non-finite" in str(caught.value)


def test_values_immutable():
    j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    sol = IBSolution(j, 1.0, Encoder([[0.9, 0.1], [0.2, 0.8]]))
    for a in (j.p, j.px, j.pygx, sol.marginal, sol.decoder):
        with pytest.raises(ValueError):
            a[0] = 0.9


# records that hold arrays compare by identity: == on two equal-valued
# records is False instead of an error, and every record hashes
RECORDS = {
    "JointDistribution": lambda: JointDistribution([[0.4, 0.1], [0.1, 0.4]]),
    "Encoder": lambda: Encoder([[0.5, 0.5], [0.9, 0.1]]),
    "SampleSet": lambda: SampleSet.from_pairs([(0, 1), (1, 0), (1, 1)]),
    "IBSolution": lambda: IBSolution(GAPPY, 2.0, Encoder.from_assignment([0, 1, 1], 2)),
    "NetworkParams": lambda: init_network([2, 3, 2], seed=0),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_array_records_compare_by_identity(kind):
    a, b = RECORDS[kind](), RECORDS[kind]()
    assert a != b and not a == b and a not in [b]
    assert a == a and a in {a} and hash(a) == hash(a)
