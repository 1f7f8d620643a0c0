"""Curve tracing, cluster counting, spectral transition prediction."""

import math
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibplane import curve, solver
from ibplane.errors import DimensionError
from ibplane.curve import (
    Bifurcation,
    CurvePoint,
    InfoCurve,
    _beta_of,
    _predicted_split,
    _spectral_lambdas,
    anneal_curve,
    detect_bifurcations,
    effective_cardinality,
    _effective_cards,
    geometric_grid,
)
from ibplane.presets import (
    deterministic_joint,
    hierarchical_joint,
    product_joint,
    random_joint,
    symmetric_joint,
)
from ibplane.prob import (
    JointDistribution,
    empirical_joint,
    kl_bits,
    sample_pairs,
)
from ibplane.solver import (
    Encoder,
    _decoder,
    _restart_inits,
    _lockstep,
    _perturb,
    _pick,
    _winners,
    exhaustive_deterministic_oracle,
    ib_solve,
    IBSolution,
    ib_solve_multistart,
)

SYM = symmetric_joint(0.2)


def trivial_solution(j, t_card=2, beta=1.0):
    return IBSolution(j, beta, Encoder(np.full((j.x_card, t_card), 1 / t_card)))


def plain_moments(j, sol, t_index):
    """M[y, y'] = sum_x p(x|t) p(y|x) p(y'|x) and p(y|t) of one cluster, in
    plain numpy from the joint and the encoder."""
    px = j.p.sum(axis=1)
    pygx = np.divide(j.p, px[:, None], out=np.zeros_like(j.p), where=px[:, None] > 0)
    col = sol.encoder.matrix[:, t_index]
    pxgt = px * col / (px @ col)
    return np.einsum("x,xy,xz->yz", pxgt, pygx, pygx), pxgt @ pygx


def c_matrix(j, sol, t_index):
    """Second-order correlation matrix over Y conditioned on one cluster,
    C[y, y'] = sum_x p(x|t) p(y|x) p(y'|x) / p(y|t), with rows for p(y|t) = 0
    left at zero: the matrix whose spectrum _spectral_lambdas reads."""
    m, pygt = plain_moments(j, sol, t_index)
    c = np.zeros_like(m)
    pos = pygt > 0
    c[pos] = m[pos] / pygt[pos, None]
    return c


def projector_beta(j, sol, t_index):
    """The critical beta by deflation, independently of curve: restrict
    S = D^{-1/2} M D^{-1/2} to p(y|t)'s support, project the trivial mode
    sqrt(p(y|t)) out, and invert the top eigenvalue left."""
    m, pygt = plain_moments(j, sol, t_index)
    sup = pygt > 0
    v = np.sqrt(pygt[sup])
    proj = np.eye(v.size) - np.outer(v, v)
    lam = np.linalg.eigvalsh(proj @ (m[np.ix_(sup, sup)] / np.outer(v, v)) @ proj)[-1] \
        if v.size > 1 else 0.0
    return 1.0 / lam if lam > 1e-12 else math.inf


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
        j = JointDistribution(g / g.sum())
        sol = ib_solve(j, 2, beta=3.0, seed=s)
        for t in range(2):
            if sol.marginal[t] > 1e-9:
                c = c_matrix(j, sol, t)
                assert np.allclose(c @ np.ones(3), np.ones(3), atol=1e-9)


# --- spectral critical beta ----------------------------------------------------

def spectral_beta(sol, t):
    """1 / lambda of cluster t of sol, inf when lambda is not positive."""
    return _beta_of(float(_spectral_lambdas(sol)[t]))


def test_critical_beta_symmetric():
    bc = spectral_beta(trivial_solution(SYM), 0)
    assert bc == pytest.approx(1.0 / 0.36, abs=1e-9)


def test_critical_beta_product_no_transition():
    j = product_joint()
    assert spectral_beta(trivial_solution(j), 0) == math.inf


def test_critical_beta_deterministic():
    j = deterministic_joint(2)
    assert spectral_beta(trivial_solution(j), 0) == pytest.approx(1.0, abs=1e-9)


def test_batched_spectral_matches_projector_reference():
    # random joints with zero rows and columns, random encoders with
    # tiny-mass and zero-mass clusters, and |Y| = 1
    rng = np.random.default_rng(17)
    finite = 0
    for _ in range(300):
        x_card, y_card, t_card = rng.integers(1, 7), rng.integers(1, 5), rng.integers(1, 5)
        w = rng.gamma(0.7, size=(x_card, y_card))
        if x_card > 1 and rng.random() < 0.3:
            w[rng.integers(x_card)] = 0.0
        if y_card > 1 and rng.random() < 0.3:
            w[:, rng.integers(y_card)] = 0.0
        if not w.any():
            continue
        j = JointDistribution(w / w.sum())
        enc = rng.gamma(0.5, size=(x_card, t_card))
        if t_card > 1 and rng.random() < 0.3:
            enc[:, rng.integers(t_card)] *= 10.0 ** -rng.integers(4, 12)
        if t_card > 1 and rng.random() < 0.2:
            enc[:, rng.integers(t_card)] = 0.0
        sol = IBSolution(j, 1.0, Encoder(enc / enc.sum(axis=1, keepdims=True)))
        want = []
        for t in range(t_card):
            if sol.marginal[t] <= 0:  # a zero-mass cluster has lambda 0
                assert _spectral_lambdas(sol)[t] == 0.0
                continue
            ref, got = projector_beta(j, sol, t), spectral_beta(sol, t)
            assert got == ref if math.isinf(ref) else math.isclose(got, ref, rel_tol=1e-9)
            finite += math.isfinite(ref)
            if sol.marginal[t] > curve.MASS_EPS and math.isfinite(got):
                want.append(got)
        assert _predicted_split(sol) == min(want, default=None)
    assert finite > 300


# --- effective cardinality ------------------------------------------------------

def test_eff_card_trivial_is_one():
    assert effective_cardinality(trivial_solution(SYM)) == 1


def test_eff_card_identity_encoder():
    sol = IBSolution(SYM, 5.0, Encoder.from_assignment([0, 1], 2))
    assert effective_cardinality(sol) == 2


def test_eff_card_ignores_massless_cluster():
    sol = IBSolution(SYM, 1.0, Encoder.from_assignment([0, 0], 2))
    assert effective_cardinality(sol) == 1


def test_eff_card_just_above_split():
    sol = ib_solve(SYM, 2, beta=3.2, seed=0)
    assert effective_cardinality(sol) == 2


def js_ref(p, q):
    """JS divergence in bits from kl_bits, independent of prob.js_bits."""
    return 0.5 * kl_bits(p, 0.5 * (p + q)) + 0.5 * kl_bits(q, 0.5 * (p + q))


def union_find_card(sol):
    """effective_cardinality as a loop: union every pair of live clusters
    whose decoder rows are within MERGE_TAU in JS divergence, then count the
    groups."""
    alive = [t for t, mass in enumerate(sol.marginal) if mass > 1e-6]
    parent = {t: t for t in alive}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            if js_ref(sol.decoder[a], sol.decoder[b]) < 1e-4:
                parent[find(b)] = find(a)
    return max(1, len({find(t) for t in alive}))


def test_eff_card_merges_a_chain_of_close_clusters():
    # rows 0 and 2 are too far apart to merge directly, but each is close to
    # row 1, so the three are one effective cluster and row 3 is another
    dec = np.array([[[0.5, 0.5], [0.509, 0.491], [0.518, 0.482], [0.9, 0.1]]])
    pt = np.full((1, 4), 0.25)
    rows = dec[0]
    assert max(js_ref(rows[0], rows[1]), js_ref(rows[1], rows[2])) < 1e-4 < js_ref(rows[0], rows[2])
    sol = SimpleNamespace(marginal=pt[0], decoder=dec[0])
    assert _effective_cards(pt, dec).tolist() == [union_find_card(sol)] == [2]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 6))
def test_eff_card_array_form_matches_each_solution(seed, t_card, x_card):
    # random encoders with some clusters emptied (zero-mass clusters) and
    # some columns copied onto others (duplicated decoder rows)
    rng = np.random.default_rng(seed)
    j = random_joint(x_card, 3, seed=seed % 1000)
    enc = rng.dirichlet(np.ones(t_card), size=(8, x_card))
    for e in enc:
        dead, copy, *rest = rng.permutation(t_card)
        if rng.random() < 0.7:
            e[:, dead] = 0.0
        if rest and rng.random() < 0.7:
            e[:, copy] = e[:, rest[0]]
    enc[1] = enc[0]
    enc /= enc.sum(axis=2, keepdims=True)
    sols = [IBSolution(j, 1.0, Encoder(e)) for e in enc]
    want = [union_find_card(s) for s in sols]
    assert [effective_cardinality(s) for s in sols] == want
    assert _effective_cards(*_decoder(j, enc)).tolist() == want


# --- annealing sweep -------------------------------------------------------------

def test_geometric_grid_shape():
    g = geometric_grid(0.1, 50.0, 1.05)
    assert g[0] == 0.1 and g[-1] == 50.0
    assert np.all(np.diff(g) > 0)


def test_geometric_grid_refuses_too_many_points(monkeypatch):
    # the README grid has 129 points: a cap of 129 builds it, 128 refuses it
    monkeypatch.setattr(curve, "GRID_MAX_POINTS", 129)
    assert geometric_grid(0.1, 50.0, 1.05).size == 129
    monkeypatch.setattr(curve, "GRID_MAX_POINTS", 128)
    with pytest.raises(ValueError, match="gives 129 points from 0.1 to 50.0, more than 128"):
        geometric_grid(0.1, 50.0, 1.05)
    monkeypatch.undo()
    # about 6.2e12 points: refused from the count, before the loop builds any
    with pytest.raises(ValueError, match="gives 6214055665259 points"):
        geometric_grid(0.1, 50.0, 1.000000000001)
    # a subnormal beta_min * 1.1 rounds back to beta_min, so no grid count
    # bounds that loop: such a beta_min is refused
    with pytest.raises(ValueError, match="<= beta_min < beta_max"):
        geometric_grid(5e-324, 1.0, 1.1)
    # the widest normal range: its point count needs no float that overflows
    g = geometric_grid(sys.float_info.min, 1.7e308, 1.1)
    assert g.size == math.ceil((math.log(1.7e308) - math.log(g[0])) / math.log(1.1)) + 1
    # numpy scalar bounds build the same grid, and their last step past
    # beta_max overflows without a RuntimeWarning (an error in this suite)
    tiny, top, factor = np.finfo(float).tiny, np.float64(1.7e308), np.float64(1.1)
    assert geometric_grid(tiny, top, factor).tolist() == g.tolist()


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


def _derived_seed(*parts):
    """The per-element reference of curve._derived_seeds: one SeedSequence per seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def restart_init(j, t_card, r, s):
    return _restart_inits(j.x_card, t_card, [r], [s])[0]


def curve_point(beta, sol):
    return CurvePoint(beta, sol.R, sol.I_Y, sol.D_IB, effective_cardinality(sol))


def reference_walk(j, t_card, grid, restarts, seed=0, perturb_mag=1e-3,
                   tol=1e-8, max_iter=10_000):
    """The sequential warm walk: each grid point's warm start (the previous
    point's solution, perturbed) and fresh restarts solved as one batch at
    that point's beta."""
    sols, prev = [], None
    for i, beta in enumerate(map(float, grid)):
        inits = [] if prev is None else [
            _perturb(prev.encoder.matrix, _derived_seed(seed, i, 0), perturb_mag)]
        inits += [restart_init(j, t_card, r, _derived_seed(seed, i, r + 1))
                  for r in range(restarts if prev is not None else max(restarts, 1))]
        prev = _pick(j, t_card, beta, *_lockstep(j, np.array(inits), np.full(len(inits), beta),
                                                 tol, max_iter))
        sols.append(prev)
    return sols


def reference_passes(j, t_card, grid, restarts, seed=0, perturb_mag=1e-3,
                     tol=1e-8, max_iter=10_000):
    """The neighbour passes point by point, each offer solved alone on a
    stack of one. Pass 0 offers each point its fresh restarts; each later
    pass offers the perturbed solution of every point that changed to both
    neighbours. A point takes its best offer if it has no solution yet or
    the offer lowers L by more than 1e-12 * max(1, beta)."""
    betas = list(map(float, grid))
    sols = [None] * len(betas)
    offers = {i: [restart_init(j, t_card, r, _derived_seed(seed, i, r + 1)) for r in range(k)]
              for i, k in enumerate([max(restarts, 1)] + [restarts] * (len(betas) - 1)) if k}
    n_pass = 0
    while offers:
        n_pass += 1
        changed = []
        for i in sorted(offers):
            alone = [_lockstep(j, e[None], np.array([betas[i]]), tol, max_iter) for e in offers[i]]
            best = _pick(j, t_card, betas[i], *map(np.concatenate, zip(*alone)))
            if sols[i] is None or best.L < sols[i].L - 1e-12 * max(1.0, betas[i]):
                sols[i] = best
                changed.append(i)
        offers = {}
        for s in changed:
            for t in (s - 1, s + 1):
                if 0 <= t < len(betas):
                    offers.setdefault(t, []).append(_perturb(
                        sols[s].encoder.matrix, _derived_seed(seed, t, s, n_pass), perturb_mag))
    return sols


def reference_brackets(j, t_card, grid, sols, restarts, seed=0, tol=1e-8, max_iter=10_000):
    """Bisection of every jump of the running maximum effective cardinality,
    each bracket predicted from the solution held at its low end."""
    points = [curve_point(float(b), s) for b, s in zip(grid, sols)]

    def predict(sol):
        best = None
        for t in range(t_card):
            if sol.marginal[t] > 1e-6:
                bc = spectral_beta(sol, t)
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
    return tuple(brackets)


@pytest.mark.parametrize("joint, t_card, grid, restarts, lower, moved", [
    (SYM, 2, geometric_grid(0.1, 50.0, 1.05), 3, 0, None),
    # the passes find the better branch at two points past each first-order
    # switch, so both brackets move down to where the optimum switches
    (random_joint(6, 3, seed=8), 3, geometric_grid(0.5, 20.0, 1.1), 3, 2,
     [(2.2942, 2.2959), (3.8360, 3.8389)]),
    (SYM, 2, geometric_grid(0.5, 20.0, 1.1), 0, 0, None),
], ids=["symmetric", "random-6x3-T3", "no-restarts"])
def test_anneal_matches_per_point_reference_sweep(joint, t_card, grid, restarts, lower, moved):
    got = anneal_curve(joint, t_card, grid, restarts=restarts, seed=0)
    want = reference_passes(joint, t_card, grid, restarts)
    assert got.points == tuple(curve_point(float(b), s) for b, s in zip(grid, want))
    assert got.bifurcations == reference_brackets(joint, t_card, grid, want, restarts)
    assert got.bifurcations  # every case crosses at least one transition
    # never worse than the sequential warm walk, and strictly better only
    # where the walk stayed on a worse branch
    walk = reference_walk(joint, t_card, grid, restarts)
    slack = [1e-12 * max(1.0, w.beta) for w in walk]
    assert all(p.L <= w.L + e for p, w, e in zip(got.points, walk, slack))
    assert sum(p.L < w.L - e for p, w, e in zip(got.points, walk, slack)) == lower
    walk_brackets = reference_brackets(joint, t_card, grid, walk, restarts)
    if moved is None:
        assert got.bifurcations == walk_brackets
    else:
        assert [(round(b.beta_low, 4), round(b.beta_high, 4)) for b in got.bifurcations] == moved
        assert all(a.beta_high < b.beta_low for a, b in zip(got.bifurcations, walk_brackets))


@pytest.mark.parametrize("joint, t_card, grid", [
    (SYM, 2, geometric_grid(0.1, 50.0, 1.05)),
    (random_joint(6, 3, seed=8), 3, geometric_grid(0.5, 20.0, 1.1)),
], ids=["symmetric", "random-6x3-T3"])
def test_anneal_solves_the_grid_in_few_batches(monkeypatch, joint, t_card, grid):
    # bisection probes go through ib_solve_multistart; every grid solve goes
    # through curve._lockstep, once per pass
    calls = []
    monkeypatch.setattr(curve, "_lockstep", lambda *a: calls.append(len(a[1])) or _lockstep(*a))
    anneal_curve(joint, t_card, grid, seed=0)
    assert 2 <= len(calls) <= 3
    assert calls[0] == 3 * len(grid)


def test_anneal_builds_one_solution_per_bracket(monkeypatch):
    # every other grid point stays in the sweep's arrays; only the solution
    # a bracket predicts from is packaged
    built = []
    monkeypatch.setattr(curve, "IBSolution",
                        lambda *a: built.append(a[1]) or solver.IBSolution(*a))
    c = anneal_curve(SYM, 2, geometric_grid(0.1, 50.0, 1.05), seed=0)
    assert len(c.bifurcations) == 1
    assert len(built) == 1
    # the grid point just below the jump
    assert built[0] == max(p.beta for p in c.points if p.beta <= c.bifurcations[0].beta_low)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.5]),
                          st.sampled_from([0.0, 0.125, 0.25])), min_size=1, max_size=12))
def test_grouped_pick_matches_pick_on_each_target(elements):
    # R and I_Y from a few exact binary fractions at beta = 2, so L ties with
    # and without R ties, and duplicated (L, R), are common; each element's
    # encoder carries its index, so the pick is read off the winner's encoder
    targets = np.array([t for t, _, _ in elements])
    R = np.array([r for _, r, _ in elements])
    I_Y = np.array([i for _, _, i in elements])
    n = len(elements)
    enc = np.stack([[[(k + 1) / (n + 1), 1 - (k + 1) / (n + 1)]] * 2 for k in range(n)])

    def info_bits(jp, e):  # the drawn (R, I_Y) of each element of e
        k = np.rint(e[:, 0, 0] * (n + 1)).astype(int) - 1
        return R[k], I_Y[k]

    # the rule spelled out: smallest L, then smaller R, then the earlier element
    want = [min(np.flatnonzero(targets == t), key=lambda k: (R[k] - 2.0 * I_Y[k], R[k], k))
            for t in sorted(set(targets.tolist()))]
    with mock.patch.object(solver, "_info_bits", info_bits):
        assert _winners(SYM, 2, np.full(n, 2.0), enc, targets)[0].tolist() == want
        for k in want:
            mine = targets == targets[k]
            sol = _pick(SYM, 2, 2.0, enc[mine], np.zeros(n, int)[mine], np.ones(n, bool)[mine])
            assert np.array_equal(sol.encoder.matrix, enc[k])


def test_anneal_counts_unconverged_solves():
    # one map evaluation converges nothing, so every kept grid solution and
    # every probe of the bracket counts, without failing the sweep
    c = anneal_curve(SYM, 2, geometric_grid(0.5, 20.0, 1.25), max_iter=1)
    assert c.bifurcations
    assert c.unconverged > len(c.points)


def test_readme_sweep_has_no_unconverged_solve(sym_sweep):
    assert sym_sweep.unconverged == 0


SWEEP_CASES = pytest.mark.parametrize("joint, t_card, grid", [
    (SYM, 2, geometric_grid(0.5, 40.0, 1.1)),
    (random_joint(6, 3, seed=3), 3, geometric_grid(0.5, 50.0, 1.3)),
    (empirical_joint(sample_pairs(random_joint(8, 4, 0), 20, seed=3), 8, 4), 3,
     geometric_grid(0.5, 50.0, 1.3)),
], ids=["symmetric", "random-6x3", "empirical-unobserved-x"])


@SWEEP_CASES
def test_kept_encoders_rebuild_each_point_bit_for_bit(joint, t_card, grid):
    # the sweep keeps the solve behind every point: its encoder rebuilds the
    # point's R, I_Y and L exactly, and `unconverged` counts every kept solve
    # that did not converge
    c = anneal_curve(joint, t_card, grid, restarts=2)
    assert c.encoders.shape == (grid.size, joint.x_card, t_card)
    assert c.iterations.shape == c.converged.shape == (grid.size,)
    assert c.iterations.dtype.kind == "i" and c.converged.dtype == bool
    for a in (c.encoders, c.iterations, c.converged, c.beta, c.R, c.eff_card):
        assert not a.flags.writeable
    assert c.unconverged >= np.count_nonzero(~c.converged)
    for i, p in enumerate(c.points):
        sol = IBSolution(joint, p.beta, Encoder(c.encoders[i]), int(c.iterations[i]),
                         bool(c.converged[i]))
        assert (sol.R, sol.I_Y, sol.L) == (p.R, p.I_Y, p.L) == (c.R[i], c.I_Y[i], c.L[i])
        assert p.eff_card == effective_cardinality(sol)


def numpy_perturb(m, seed, noise):
    """The per-element reference of solver._perturb: one numpy generator per seed."""
    u = [np.random.default_rng(s).uniform(-1.0, 1.0, size=m.shape[-2:])
         for s in (seed if m.ndim == 3 else [seed])]
    m = m * (1.0 + noise * np.reshape(u, m.shape))
    return m / m.sum(axis=-1, keepdims=True)


def numpy_restart_inits(x_card, t_card, r, seeds):
    """The per-restart reference of solver._restart_inits."""
    inits = []
    for k, s in zip(r, seeds):
        m = np.full((x_card, t_card), 1.0 / t_card)
        if k % 2 == 0 or t_card < 2:
            m = numpy_perturb(m, s, solver.INIT_NOISE)
        else:
            hard = (np.arange(x_card) % t_card if k == 1 else
                    np.random.default_rng(s).integers(0, t_card, size=x_card))
            m = np.full((x_card, t_card), solver.BLEND_FLOOR / t_card)
            m[np.arange(x_card), hard] += 1.0 - solver.BLEND_FLOOR
        inits.append(m)
    return np.array(inits)


def numpy_derived_seeds(seed, *parts):
    return np.array([_derived_seed(seed, *row) for row in zip(
        *np.broadcast_arrays(*map(np.atleast_1d, parts)))])


@pytest.mark.parametrize("seed", [0, 2**32 + 5])
@SWEEP_CASES
def test_batched_seeding_changes_no_sweep(monkeypatch, joint, t_card, grid, seed):
    # the batched SeedSequence and PCG64 replica against numpy's generators,
    # one per seed, wherever the sweep seeds: fresh restarts, offers and probes
    def sweep():
        solver._multistart_inits.cache_clear()  # probes build their inits anew
        c = anneal_curve(joint, t_card, grid, restarts=2, seed=seed)
        solver._multistart_inits.cache_clear()
        return c

    got = sweep()
    with monkeypatch.context() as m:
        m.setattr(curve, "_derived_seeds", numpy_derived_seeds)
        m.setattr(curve, "_perturb", numpy_perturb)
        m.setattr(curve, "_restart_inits", numpy_restart_inits)
        m.setattr(solver, "_restart_inits", numpy_restart_inits)
        want = sweep()
    assert got.bifurcations == want.bifurcations and got.bifurcations
    assert got.unconverged == want.unconverged
    for k in ("beta", "R", "I_Y", "eff_card", "encoders", "iterations", "converged"):
        assert np.array_equal(getattr(got, k), getattr(want, k)), k


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 3, 2**64 + 1])
@pytest.mark.parametrize("x_card, t_card", [(4, 3), (8, 4), (5, 1)])
def test_batched_inits_match_numpy(x_card, t_card, seed):
    # ten restarts include random-partition rows (r = 3, 5, 7, 9)
    seeds = [seed + r for r in range(10)]
    want = numpy_restart_inits(x_card, t_card, range(10), seeds)
    assert np.array_equal(solver._restart_inits(x_card, t_card, range(10), seeds), want)
    solver._multistart_inits.cache_clear()
    assert np.array_equal(solver._multistart_inits(x_card, t_card, 10, seed), want)
    assert np.array_equal(Encoder.noisy_uniform(x_card, t_card, seed).matrix, want[0])
    parts = np.arange(5), np.arange(5) + 1, 7
    assert np.array_equal(curve._derived_seeds(seed, *parts), numpy_derived_seeds(seed, *parts))


def test_curve_columns_are_checked_as_points_are():
    good = dict(beta=[1.0, 2.0], R=[0.0, 0.5], I_Y=[0.0, 0.1], D_IB=[0.2, 0.1], eff_card=[1, 2])
    c = InfoCurve(**good)
    assert c.points == (CurvePoint(1.0, 0.0, 0.0, 0.2, 1), CurvePoint(2.0, 0.5, 0.1, 0.1, 2))
    assert c.encoders is c.iterations is c.converged is None
    assert c.L.tolist() == [p.L for p in c.points]
    for field, value in [("R", math.nan), ("I_Y", -0.25), ("D_IB", math.inf), ("eff_card", 0),
                         ("beta", -1.0), ("I_Y", 1e308)]:
        cols = {k: list(v) for k, v in good.items()}
        cols[field][1] = value
        with pytest.raises(ValueError) as col_err:
            InfoCurve(**cols)
        with pytest.raises(ValueError) as point_err:
            CurvePoint(*(v[1] for v in cols.values()))
        assert str(col_err.value) == str(point_err.value)
    with pytest.raises(ValueError, match=r"^curve is not monotone near beta=2\.0: "
                                         r"R 0\.0->0\.5, I_Y 0\.5->0\.1$"):
        InfoCurve(**{**good, "I_Y": [0.5, 0.1], "D_IB": [0.0, 0.4]})
    with pytest.raises(DimensionError):
        InfoCurve(**{**good, "R": [0.0]})
    with pytest.raises(DimensionError):
        InfoCurve(**good, encoders=np.full((3, 2, 2), 0.5))


# known defects, strict so that the change that mends one must flip it: on
# these two joints no pass of the sweep finds the better branch, and the
# curves lie 0.1916 and 0.0269 bits above the best deterministic encoder
ABOVE_THE_ORACLE = pytest.mark.xfail(strict=True, reason="the sweep misses the optimum")


@pytest.mark.parametrize("x_card, y_card, t_card, seed", [
    (4, 2, 2, 0), (4, 2, 2, 3), (4, 2, 2, 5), (4, 2, 2, 16),
    (5, 3, 2, 6), (6, 2, 3, 8), (6, 2, 3, 9), (6, 2, 3, 16),
    pytest.param(5, 3, 2, 13, marks=ABOVE_THE_ORACLE),
    pytest.param(6, 2, 3, 0, marks=ABOVE_THE_ORACLE),
])
def test_anneal_never_above_the_deterministic_oracle(x_card, y_card, t_card, seed):
    # on each joint a one-way warm walk up the grid stays on a worse branch
    # past a first-order transition, above the best deterministic encoder
    j = random_joint(x_card, y_card, seed=seed)
    c = anneal_curve(j, t_card, geometric_grid(0.5, 50.0, 1.15))
    for p in c.points:
        assert p.L <= exhaustive_deterministic_oracle(j, t_card, p.beta)[1] + 1e-9


# known defect (ROADMAP item 19), strict so that the change that mends one must
# flip it: a bisection probe is a fresh multistart, and on these joints where
# its restarts land, not the joint, decides where a bracket ends up
SEED_MOVES_A_BRACKET = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="seed 1 moves a bracket by more than its width from seed 0's")


@pytest.mark.parametrize("joint, t_card", [
    pytest.param(SYM, 2, id="symmetric"),
    pytest.param(hierarchical_joint(0.2, 0.05, 2), 4, id="hierarchical"),
    pytest.param(random_joint(4, 2, 0), 2, id="random-4x2-seed0"),
    pytest.param(random_joint(4, 2, 1), 2, id="random-4x2-seed1", marks=SEED_MOVES_A_BRACKET),
    pytest.param(random_joint(4, 2, 2), 2, id="random-4x2-seed2"),
    pytest.param(random_joint(4, 2, 3), 2, id="random-4x2-seed3", marks=SEED_MOVES_A_BRACKET),
    pytest.param(random_joint(5, 3, 1), 2, id="random-5x3-seed1", marks=SEED_MOVES_A_BRACKET),
    pytest.param(random_joint(6, 3, 8), 3, id="random-6x3-seed8", marks=SEED_MOVES_A_BRACKET),
    *(pytest.param(empirical_joint(sample_pairs(random_joint(6, 3, s), 30, seed=1), 6, 3), 3,
                   id=f"empirical-6x3-seed{s}", marks=SEED_MOVES_A_BRACKET) for s in (0, 1)),
])
def test_anneal_curve_is_the_same_at_another_seed(joint, t_card):
    # the seed should only pick among equally good solutions: the grid's L,
    # the transitions and where each is bracketed must not depend on it
    grid = geometric_grid(0.5, 50.0, 1.15)
    a, b = (anneal_curve(joint, t_card, grid, seed=s) for s in (0, 1))
    np.testing.assert_allclose(a.L, b.L, rtol=0, atol=1e-9)
    assert [(x.card_before, x.card_after) for x in a.bifurcations] == \
        [(x.card_before, x.card_after) for x in b.bifurcations]
    for x, y in zip(a.bifurcations, b.bifurcations):
        # overlapping brackets have a negative gap; adjacent ones lie within a width
        gap = max(x.beta_low, y.beta_low) - min(x.beta_high, y.beta_high)
        assert gap <= curve.BRACKET_REL_WIDTH * max(x.beta_high, y.beta_high), (x, y)


@pytest.mark.parametrize("seed", [3, 13, 0])
def test_anneal_empirical_joint_curve_is_monotone(seed):
    # a one-way warm walk left a point on a worse branch, and InfoCurve
    # rejected the sweep with "curve is not monotone"; seed 0's sample leaves
    # an x unobserved, whose zero p(y|x) row gives it the encoder row p(t)
    j = empirical_joint(sample_pairs(random_joint(8, 4, seed), 20, seed=3), 8, 4)
    grid = geometric_grid(0.5, 50.0, 1.15)
    assert len(anneal_curve(j, 3, grid).points) == grid.size


def test_anneal_rejects_negative_restarts():
    with pytest.raises(ValueError, match="restarts"):
        anneal_curve(SYM, 2, [1.0, 2.0], restarts=-1)


@pytest.mark.parametrize("grid", [[1.0, math.inf], [1.0, math.nan, 3.0]])
def test_anneal_rejects_non_finite_grid(grid):
    with pytest.raises(ValueError, match="must be finite"):
        anneal_curve(SYM, 2, grid, restarts=1)


def test_anneal_monotone_and_bounded(sym_coarse_curve):
    c = sym_coarse_curve
    i_xy = SYM.i_xy
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
    flat = InfoCurve([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.1, 0.1], [1, 1])
    assert detect_bifurcations(flat, SYM, 2) == ()
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
    with pytest.raises(ValueError):
        InfoCurve([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.1, 0.1], [1, 1])


def test_curve_rejects_a_negative_unconverged_count():
    with pytest.raises(ValueError, match="curve has negative unconverged"):
        InfoCurve([1.0], [0.0], [0.0], [0.1], [1], (), unconverged=-4)
