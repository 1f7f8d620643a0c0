"""Curve tracing, cluster counting, spectral transition prediction."""

import math

import numpy as np
import pytest

from ibplane.curve import (
    Bifurcation,
    CurvePoint,
    InfoCurve,
    anneal_curve,
    c_matrix,
    critical_beta_spectral,
    detect_bifurcations,
    effective_cardinality,
    _derived_seed,
    geometric_grid,
)
from ibplane.errors import DegenerateClusterError
from ibplane.presets import (
    deterministic_joint,
    hierarchical_joint,
    product_joint,
    random_joint,
    symmetric_joint,
)
from ibplane.prob import mutual_information
from ibplane.solver import (
    Encoder,
    _lockstep,
    _pick,
    ib_solve,
    ib_solve_multistart,
    solution_from_encoder,
)

SYM = symmetric_joint(0.2)


def trivial_solution(j, t_card=2, beta=1.0):
    return solution_from_encoder(j, Encoder.uniform(j.x_card, t_card), beta)


@pytest.fixture(scope="module")
def sym_sweep():
    return anneal_curve(SYM, 2, geometric_grid(0.1, 50.0, 1.05), seed=0)


@pytest.fixture(scope="module")
def hierarchical_sweep():
    j = hierarchical_joint(0.2, 0.05)
    return anneal_curve(j, 4, geometric_grid(0.5, 90.0, 1.07), seed=0)


@pytest.fixture(scope="module")
def sym_coarse_curve():
    return anneal_curve(SYM, 2, geometric_grid(0.5, 40.0, 1.1), restarts=2, seed=1)


# --- correlation matrix ------------------------------------------------------

def test_c_matrix_symmetric_hand_value():
    c = c_matrix(SYM, trivial_solution(SYM), 0)
    assert np.allclose(c, [[0.68, 0.32], [0.32, 0.68]], atol=1e-12)


def test_c_matrix_deterministic_identity():
    j = deterministic_joint(2)
    c = c_matrix(j, trivial_solution(j), 0)
    assert np.allclose(c, np.eye(2), atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(c), [1.0, 1.0], atol=1e-12)


def test_c_matrix_ones_vector_is_eigenvector():
    rng = np.random.default_rng(1)
    for s in range(5):
        g = rng.gamma(1.0, size=(4, 3))
        from ibplane.prob import JointDistribution
        j = JointDistribution.from_matrix(g / g.sum())
        sol = ib_solve(j, 2, beta=3.0, seed=s)
        for t in range(2):
            if sol.marginal.p[t] > 1e-9:
                c = c_matrix(j, sol, t)
                assert np.allclose(c @ np.ones(3), np.ones(3), atol=1e-9)


def test_c_matrix_zero_mass_cluster_raises():
    sol = solution_from_encoder(SYM, Encoder.from_matrix([[1, 0], [1, 0]]), 1.0)
    with pytest.raises(DegenerateClusterError):
        c_matrix(SYM, sol, 1)


# --- spectral critical beta ----------------------------------------------------

def test_critical_beta_symmetric():
    bc = critical_beta_spectral(SYM, trivial_solution(SYM), 0)
    assert bc == pytest.approx(1.0 / 0.36, abs=1e-9)


def test_critical_beta_product_no_transition():
    j = product_joint()
    assert critical_beta_spectral(j, trivial_solution(j), 0) == math.inf


def test_critical_beta_deterministic():
    j = deterministic_joint(2)
    assert critical_beta_spectral(j, trivial_solution(j), 0) == pytest.approx(1.0, abs=1e-9)


# --- effective cardinality ------------------------------------------------------

def test_eff_card_trivial_is_one():
    assert effective_cardinality(trivial_solution(SYM)) == 1


def test_eff_card_identity_encoder():
    sol = solution_from_encoder(SYM, Encoder.from_assignment([0, 1], 2), 5.0)
    assert effective_cardinality(sol) == 2


def test_eff_card_ignores_massless_cluster():
    sol = solution_from_encoder(SYM, Encoder.from_assignment([0, 0], 2), 1.0)
    assert effective_cardinality(sol) == 1


def test_eff_card_just_above_split():
    sol = ib_solve(SYM, 2, beta=3.2, seed=0)
    assert effective_cardinality(sol) == 2


# --- annealing sweep -------------------------------------------------------------

def test_geometric_grid_shape():
    g = geometric_grid(0.1, 50.0, 1.05)
    assert g[0] == 0.1 and g[-1] == 50.0
    assert np.all(np.diff(g) > 0)


def test_anneal_below_critical_all_trivial():
    c = anneal_curve(SYM, 2, [0.1, 0.5, 1.0], restarts=2, seed=0)
    assert all(p.eff_card == 1 for p in c.points)
    assert all(p.I_Y < 1e-6 for p in c.points)
    assert not c.bifurcations


def test_anneal_symmetric_single_split(sym_sweep):
    c = sym_sweep
    assert len(c.bifurcations) == 1
    b = c.bifurcations[0]
    assert (b.card_before, b.card_after) == (1, 2)
    assert b.beta_high - b.beta_low <= 1e-3 * b.beta_high
    # bracket contains the spectral prediction
    assert b.beta_low <= 1.0 / 0.36 <= b.beta_high


def reference_sweep(j, t_card, grid, restarts, seed=0, perturb_mag=1e-3,
                    tol=1e-8, max_iter=10_000):
    """The per-point sweep: each grid point's warm start and fresh restarts
    solved as one batch at that point's beta, then bisection of every jump,
    each bracket predicted from the solution held at its low end."""
    def restart_init(r, s):
        if r % 2 == 0 or t_card < 2:
            return Encoder.noisy_uniform(j.x_card, t_card, s)
        if r == 1:
            return Encoder.hard_blend(np.arange(j.x_card) % t_card, t_card)
        rng = np.random.default_rng(s)
        return Encoder.hard_blend(rng.integers(0, t_card, size=j.x_card), t_card)

    points, sols, prev = [], [], None
    for i, beta in enumerate(map(float, grid)):
        inits = [] if prev is None else [
            prev.encoder.perturbed(_derived_seed(seed, i, 0), perturb_mag)]
        inits += [restart_init(r, _derived_seed(seed, i, r + 1))
                  for r in range(restarts if prev is not None else max(restarts, 1))]
        stack = np.array([e.matrix for e in inits])
        prev = _pick(j, t_card, beta, *_lockstep(j, stack, beta, tol, max_iter))
        points.append(CurvePoint(beta, prev.R, prev.I_Y, prev.D_IB, prev.L,
                                 effective_cardinality(prev)))
        sols.append(prev)

    def predict(sol):
        best = None
        for t in range(t_card):
            if sol.marginal.p[t] > 1e-6:
                bc = critical_beta_spectral(j, sol, t)
                if math.isfinite(bc) and (best is None or bc < best):
                    best = bc
        return best

    brackets, probes = [], [0]

    def refine(lo, c_lo, s_lo, hi, c_hi):
        if hi - lo <= 1e-3 * hi:
            brackets.append(Bifurcation(lo, hi, c_lo, c_hi, predict(s_lo)))
            return
        mid = 0.5 * (lo + hi)
        probes[0] += 1
        s_mid = ib_solve_multistart(
            j, t_card, mid, restarts=max(restarts, 2) + 1, tol=tol * 1e-2,
            max_iter=3 * max_iter, seed=_derived_seed(seed, 7_777, probes[0]))
        c_mid = effective_cardinality(s_mid)
        if c_mid > c_lo:
            refine(lo, c_lo, s_lo, mid, c_mid)
        if c_mid < c_hi:
            refine(mid, c_mid, s_mid, hi, c_hi)

    running = points[0].eff_card
    for lo, hi, s_lo in zip(points, points[1:], sols):
        if hi.eff_card > running:
            refine(lo.beta, running, s_lo, hi.beta, hi.eff_card)
            running = hi.eff_card
    return points, brackets


@pytest.mark.parametrize("joint, t_card, grid, restarts", [
    (SYM, 2, geometric_grid(0.1, 50.0, 1.05), 3),
    (random_joint(6, 3, seed=8), 3, geometric_grid(0.5, 20.0, 1.1), 3),
    (SYM, 2, geometric_grid(0.5, 20.0, 1.1), 0),
], ids=["symmetric", "random-6x3-T3", "no-restarts"])
def test_anneal_matches_per_point_reference_sweep(joint, t_card, grid, restarts):
    got = anneal_curve(joint, t_card, grid, restarts=restarts, seed=0)
    want_points, want_brackets = reference_sweep(joint, t_card, grid, restarts)
    assert len(got.points) == len(want_points)
    assert all(a == b for a, b in zip(got.points, want_points))
    assert got.bifurcations == tuple(want_brackets)
    assert got.bifurcations  # every case crosses at least one transition


def test_anneal_rejects_negative_restarts():
    with pytest.raises(ValueError, match="restarts"):
        anneal_curve(SYM, 2, [1.0, 2.0], restarts=-1)


@pytest.mark.parametrize("grid", [[1.0, math.inf], [1.0, math.nan, 3.0]])
def test_anneal_rejects_non_finite_grid(grid):
    with pytest.raises(ValueError, match="must be finite"):
        anneal_curve(SYM, 2, grid, restarts=1)


def test_anneal_monotone_and_bounded(sym_coarse_curve):
    c = sym_coarse_curve
    i_xy = mutual_information(SYM)
    for prev, cur in zip(c.points, c.points[1:]):
        assert cur.R >= prev.R - 1e-6
        assert cur.I_Y >= prev.I_Y - 1e-6
    assert all(p.I_Y <= i_xy + 1e-9 for p in c.points)


def test_anneal_slope_consistency(sym_coarse_curve):
    # chord slope between adjacent points obeys the endpoint inverse-betas
    c = sym_coarse_curve
    for prev, cur in zip(c.points, c.points[1:]):
        dr = cur.R - prev.R
        if dr < 1e-9:
            continue
        slope = (cur.I_Y - prev.I_Y) / dr
        assert slope <= 1.0 / prev.beta * 1.05 + 1e-12
        assert slope >= 1.0 / cur.beta * 0.95 - 1e-12


def test_anneal_chord_concavity(sym_coarse_curve):
    c = sym_coarse_curve
    pts = sorted((p.R, p.I_Y) for p in c.points)
    for (r0, i0), (r1, i1), (r2, i2) in zip(pts, pts[1:], pts[2:]):
        if r2 - r0 < 1e-12:
            continue
        chord = i0 + (i2 - i0) * (r1 - r0) / (r2 - r0)
        assert i1 >= chord - 1e-4


# --- bifurcation detection --------------------------------------------------------

def test_detect_constant_card_empty(sym_sweep):
    # detect_bifurcations only hands back the brackets the sweep predicted
    pts = (CurvePoint(1.0, 0.0, 0.0, 0.1, 0.0, 1),
           CurvePoint(2.0, 0.0, 0.0, 0.1, 0.0, 1))
    assert detect_bifurcations(InfoCurve(pts), SYM, 2) == ()
    assert detect_bifurcations(sym_sweep, SYM, 2, seed=0) == sym_sweep.bifurcations


def test_detect_symmetric_prediction_in_bracket(sym_sweep):
    bifs = sym_sweep.bifurcations
    assert len(bifs) == 1
    b = bifs[0]
    mid = 0.5 * (b.beta_low + b.beta_high)
    assert b.beta_predicted == pytest.approx(mid, rel=0.05)
    assert b.beta_predicted == pytest.approx(1.0 / 0.36, rel=1e-6)


def test_detect_hierarchical_two_splits(hierarchical_sweep):
    bifs = hierarchical_sweep.bifurcations
    assert len(bifs) == 2
    assert bifs[0].beta_high < bifs[1].beta_low
    assert (bifs[0].card_before, bifs[0].card_after) == (1, 2)
    assert bifs[0].card_after < bifs[1].card_after
    # first bracket contains its spectral prediction (within 5% of width slack)
    assert bifs[0].beta_low <= bifs[0].beta_predicted <= bifs[0].beta_high


def test_hierarchical_predictions_from_the_bisection_solutions(hierarchical_sweep):
    # the low-end solutions are solved at tol * 1e-2, so each prediction sits
    # on its exact critical beta: 1/0.37 for the first split, 64 for the second
    first, second = (b.beta_predicted for b in hierarchical_sweep.bifurcations)
    assert first == pytest.approx(1.0 / 0.37, rel=1e-9)
    assert second == pytest.approx(64.0, rel=1e-6)


def test_bifurcation_validation():
    with pytest.raises(ValueError):
        Bifurcation(2.0, 1.0, 1, 2)
    with pytest.raises(ValueError):
        Bifurcation(1.0, 2.0, 2, 2)


@pytest.mark.parametrize("predicted", [math.nan, math.inf])
def test_bifurcation_rejects_non_finite_prediction(predicted):
    with pytest.raises(ValueError, match="non-finite beta_predicted"):
        Bifurcation(1.0, 2.0, 1, 2, predicted)


def test_curve_validation_rejects_decreasing_beta():
    p1 = CurvePoint(1.0, 0.0, 0.0, 0.1, 0.0, 1)
    with pytest.raises(ValueError):
        InfoCurve((p1, p1))
