"""Solver behavior: update rule, convergence, oracle dominance, errors."""

import dataclasses
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibplane import io, solver
from ibplane.errors import DimensionError, InstanceTooLargeError
from ibplane.presets import deterministic_joint, random_joint, symmetric_joint
from ibplane.prob import (
    JointDistribution,
    empirical_joint,
    entropy_bits,
    mi_bits,
    sample_pairs,
)
from ibplane.solver import (
    _QUIET,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LOG_FLOOR,
    STEP_BOUND,
    Encoder,
    IBSolution,
    _guarded,
    _info_bits,
    _lockstep,
    _map,
    _perturb,
    _pick,
    _restart_inits,
    exhaustive_deterministic_oracle,
    ib_iterate_once,
    ib_solve,
    ib_solve_multistart,
    self_consistency_residual,
)

SYM = symmetric_joint(0.2)  # joint [[0.4, 0.1], [0.1, 0.4]]


def scalars_of(j, enc_matrix, beta):
    sol = IBSolution(j, beta, Encoder(enc_matrix))
    return sol.R, sol.I_Y, sol.L


# --- single update ----------------------------------------------------------

def test_iterate_beta_zero_collapses_to_marginal():
    enc = Encoder.noisy_uniform(2, 3, seed=5, noise=0.3)
    pt = SYM.p.sum(axis=1) @ enc.matrix
    new = ib_iterate_once(SYM, enc, beta=0.0)
    assert np.allclose(new.matrix, np.tile(pt, (2, 1)), atol=1e-12)


def test_iterate_fixed_point_is_stationary():
    sol = ib_solve(SYM, 2, beta=5.0, tol=1e-13, max_iter=100_000, seed=0)
    e1 = ib_iterate_once(SYM, sol.encoder, 5.0)
    e2 = ib_iterate_once(SYM, e1, 5.0)
    assert np.max(np.abs(e2.matrix - sol.encoder.matrix)) < 1e-12


def test_iterate_preserves_swap_symmetry():
    # symmetric joint + uniform start: swapping x and t labels together is a no-op
    enc = Encoder(np.full((2, 2), 0.5))
    new = ib_iterate_once(SYM, enc, beta=5.0)
    assert np.allclose(new.matrix[0], new.matrix[1][::-1], atol=1e-14)


def test_iterate_dimension_mismatch():
    with pytest.raises(DimensionError):
        ib_iterate_once(SYM, Encoder(np.full((3, 2), 0.5)), beta=1.0)


@pytest.mark.parametrize("call", [
    lambda e: ib_solve(SYM, 2, 1.0, init=e),
    lambda e: ib_iterate_once(SYM, e, 1.0),
    lambda e: IBSolution(SYM, 2.0, e),
    lambda e: io.solution_from_json(io.solution_to_json(IBSolution(random_joint(3, 2, 0), 1.0, e)),
                                    SYM),
], ids=["ib_solve-init", "ib_iterate_once", "IBSolution", "solution_from_json"])
def test_encoder_must_match_the_joint(call):
    # one rule, one message, at every entry point that takes an encoder
    with pytest.raises(DimensionError, match=r"encoder has shape \(3, 2\), not \(2, 2\)"):
        call(Encoder.noisy_uniform(3, 2, seed=0))


def reference_map(jp, enc, beta):
    """The three updates for one encoder, term by term: p(t), then p(y|t) for
    every cluster with mass, then p(t|x) ~ p(t) exp(-beta KL(p(y|x) || p(y|t)))
    with KL in nats over p(y|x)'s support, infinite where p(y|t) misses it
    (no weight, unless beta = 0) and no weight for a zero-mass cluster. A
    massless x has a zero p(y|x), an empty support and so the row p(t)."""
    px = jp.sum(axis=1)
    x_card, t_card = enc.shape
    pygx = [jp[x] / px[x] if px[x] > 0 else np.zeros(jp.shape[1]) for x in range(x_card)]
    pt = [sum(px[x] * enc[x, t] for x in range(x_card)) for t in range(t_card)]
    new = np.empty_like(enc)
    for x in range(x_card):
        logw = np.full(t_card, -np.inf)
        for t in range(t_card):
            if pt[t] == 0:
                continue
            dec = sum(px[x2] * enc[x2, t] / pt[t] * pygx[x2] for x2 in range(x_card))
            sup = pygx[x] > 0
            if beta == 0:
                logw[t] = math.log(pt[t])
            elif (dec[sup] > 0).all():
                kl = float((pygx[x][sup] * np.log(pygx[x][sup] / dec[sup])).sum())
                logw[t] = math.log(pt[t]) - beta * kl
        if np.isinf(logw).all():
            new[x] = np.nan
        else:
            w = np.exp(logw - logw.max())
            new[x] = w / w.sum()
    return new


@st.composite
def map_inputs(draw):
    """A joint with optionally a zero-mass y column and a massless x row, and
    a stack of encoders in which some clusters carry exactly zero weight."""
    x_card, y_card = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    t_card, b_card = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    cells = st.floats(0.01, 1.0)
    w = np.array(draw(st.lists(cells, min_size=x_card * y_card, max_size=x_card * y_card)))
    w = w.reshape(x_card, y_card)
    if draw(st.booleans()):
        w[:, draw(st.integers(0, y_card - 1))] = 0.0
    if draw(st.booleans()):
        w[draw(st.integers(0, x_card - 1))] = 0.0
    enc = np.array(draw(st.lists(cells, min_size=b_card * x_card * t_card,
                                 max_size=b_card * x_card * t_card)))
    enc = enc.reshape(b_card, x_card, t_card)
    for b in draw(st.lists(st.integers(0, b_card - 1), max_size=b_card, unique=True)):
        enc[b, :, draw(st.integers(0, t_card - 1))] = 0.0
    enc /= enc.sum(axis=2, keepdims=True)
    if draw(st.booleans()):
        beta = np.array(draw(st.lists(st.floats(0.1, 50.0), min_size=b_card,
                                      max_size=b_card)))[:, None, None]
    else:
        beta = draw(st.floats(0.0, 50.0))
    return w / w.sum(), enc, beta


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(map_inputs())
def test_map_matches_the_three_updates(inputs):
    jp, enc, beta = inputs
    j = JointDistribution(jp)
    with np.errstate(**_QUIET):
        got = _map(j.px, j.pygx, j.p, enc, beta)
    for b in range(len(enc)):
        ref = reference_map(jp, enc[b], float(beta[b, 0, 0]) if np.ndim(beta) else beta)
        np.testing.assert_allclose(got[b], ref, rtol=0, atol=1e-12, equal_nan=True)


def test_dead_cluster_element_leaves_its_batch_alone():
    # the zero-mass cluster sends one element down the guarded path; the live
    # elements of its batch must still follow their own trajectories bit for bit
    j = random_joint(5, 3, seed=4)
    inits = _restart_inits(5, 3, [(r, 11 + r) for r in range(4)])
    inits[2, :, 1] = 0.0
    inits[2] /= inits[2].sum(axis=1, keepdims=True)
    betas = np.full(len(inits), 6.0)
    enc, iters, conv = _lockstep(j, inits, betas, DEFAULT_TOL, DEFAULT_MAX_ITER)
    for b in range(len(inits)):
        e1, i1, c1 = _lockstep(j, inits[b:b + 1], betas[b:b + 1], DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert np.array_equal(enc[b], e1[0])
        assert (iters[b], conv[b]) == (i1[0], c1[0])


def test_iterate_degenerate_zero_mass_symbol():
    # x=1 has no mass, so no relevance term: its new row is p(t), also once
    # the only live cluster decodes a point mass (a uniform p(y|x) there was
    # at infinite divergence from every cluster)
    j = JointDistribution([[1.0, 0.0], [0.0, 0.0]])
    for m in ([[1.0, 0.0], [1.0, 0.0]], [[0.7, 0.3], [0.0, 1.0]]):
        pt = j.px @ np.array(m)
        for beta in (0.0, 2.0, 1000.0):
            np.testing.assert_allclose(ib_iterate_once(j, Encoder(m), beta).matrix[1], pt,
                                       rtol=0, atol=1e-15)
    # the one NaN row left: p(x, y) p(t|x) of a 5e-324 cell underflows to 0,
    # and the encoder check rejects the result
    j = JointDistribution([[0.25, 5e-324], [0, 0.25], [0.25, 0], [0, 0.25]])
    e = Encoder([[0.5, 0.5, 0], [0, 0, 1], [0.5, 0.5, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="negative or non-finite Encoder entry"):
        ib_iterate_once(j, e, 2.0)
    with pytest.raises(ValueError, match="negative or non-finite Encoder entry"):
        ib_solve(j, 3, 2.0, init=e, max_iter=20)


# --- full solve ----------------------------------------------------------------

def test_solve_beta_zero_trivial():
    sol = ib_solve(SYM, 2, beta=0.0, seed=0)
    assert sol.R <= 1e-9
    assert sol.I_Y <= 1e-9
    assert sol.D_IB == pytest.approx(SYM.i_xy, abs=1e-9)


def test_solve_large_beta_recovers_sufficiency():
    sol = ib_solve(SYM, 2, beta=1000.0, seed=0)
    assert sol.I_Y >= SYM.i_xy - 1e-3


def test_solve_below_critical_stays_trivial():
    # first split of this joint is at 1/0.36 = 2.778
    sol = ib_solve(SYM, 2, beta=2.0, seed=0)
    assert sol.I_Y < 1e-6


def test_solve_monotone_descent():
    j = random_joint(4, 3, seed=9)
    enc = Encoder.noisy_uniform(4, 3, seed=1)
    prev_l = None
    for _ in range(200):
        _, _, l_now = scalars_of(j, enc.matrix, beta=5.0)
        if prev_l is not None:
            assert l_now <= prev_l + 1e-10
        prev_l = l_now
        enc = ib_iterate_once(j, enc, 5.0)


def test_solve_markov_identity_and_dpi_bounds():
    for s in range(10):
        j = random_joint(5, 2, seed=s)
        sol = ib_solve(j, 3, beta=7.0, seed=s)
        i_xy = j.i_xy
        assert sol.D_IB == pytest.approx(i_xy - sol.I_Y, abs=1e-9)
        assert sol.I_Y <= i_xy + 1e-9
        assert sol.R <= entropy_bits(j.p.sum(axis=1)) + 1e-9


def test_solve_permutation_equivariance():
    j = random_joint(4, 2, seed=3)
    init = Encoder.noisy_uniform(4, 3, seed=2)
    perm = [2, 0, 1]
    permuted = Encoder(init.matrix[:, perm])
    a = ib_solve(j, 3, beta=4.0, init=init)
    b = ib_solve(j, 3, beta=4.0, init=permuted)
    assert a.R == pytest.approx(b.R, abs=1e-12)
    assert a.I_Y == pytest.approx(b.I_Y, abs=1e-12)
    assert a.L == pytest.approx(b.L, abs=1e-12)


@pytest.mark.parametrize("beta", [2.777015, 2.7785, 2.79])
def test_solve_converges_fast_near_critical_beta(beta):
    # the plain map contracts at a rate near 1 here and stops unconverged at
    # the 30k cap; the extrapolated solve needs a few hundred evaluations
    for s in range(6):
        sol = ib_solve(SYM, 2, beta, tol=1e-10, max_iter=30_000, seed=s)
        assert sol.converged and sol.iterations <= 1_000, (s, sol.iterations)


@st.composite
def queries(draw):
    x_card, y_card = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=x_card * y_card,
                               max_size=x_card * y_card))).reshape(x_card, y_card)
    if draw(st.booleans()):
        w[:, draw(st.integers(0, y_card - 1))] = 0.0  # a zero-mass y column
    beta = math.exp(draw(st.floats(math.log(0.5), math.log(50.0))))
    return (JointDistribution(w / w.sum()), draw(st.integers(2, 4)),
            beta, draw(st.integers(0, 2**16)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(queries())
def test_solve_properties_on_random_joints(query):
    j, t_card, beta, seed = query
    inits = [Encoder(m)
             for m in _restart_inits(j.x_card, t_card, [(r, seed + r) for r in range(4)])]
    sols = [ib_solve(j, t_card, beta, init=e) for e in inits]
    for init, sol in zip(inits, sols):
        if sol.converged:
            step = ib_iterate_once(j, sol.encoder, beta).matrix - sol.encoder.matrix
            assert np.max(np.abs(step)) <= 1e-6
        assert sol.L <= IBSolution(j, beta, init).L + 1e-12 * max(1.0, beta)
    # a solve stopped at the cap returns its latest iterate, so capping at
    # k = 1, 2, ... walks one trajectory: L must never rise along it
    path = [IBSolution(j, beta, inits[0]).L]
    path += [ib_solve(j, t_card, beta, init=inits[0], max_iter=k).L for k in range(1, 25)]
    assert all(b <= a + 1e-12 * max(1.0, beta) for a, b in zip(path, path[1:]))
    best = min(sols, key=lambda s: (s.L, s.R))
    multi = ib_solve_multistart(j, t_card, beta, restarts=4, seed=seed)
    assert multi.L == pytest.approx(best.L, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(queries(), st.lists(st.floats(math.log(0.5), math.log(50.0)), min_size=1, max_size=6),
       st.sampled_from([3, 40, DEFAULT_MAX_ITER]))
def test_mixed_beta_batch_matches_solving_each_alone(query, log_betas, max_iter):
    j, t_card, _, seed = query
    betas = np.exp(log_betas)
    inits = _restart_inits(j.x_card, t_card, [(r, seed + r) for r in range(betas.size)])
    enc, iters, conv = _lockstep(j, inits, betas, DEFAULT_TOL, max_iter)
    for b in range(betas.size):
        e1, i1, c1 = _lockstep(j, inits[b:b + 1], betas[b:b + 1], DEFAULT_TOL, max_iter)
        assert np.array_equal(enc[b], e1[0])
        assert (iters[b], conv[b]) == (i1[0], c1[0])


def reference_solve(j, enc, beta, tol, max_iter):
    """One element's solve, as `_lockstep` runs it, written with the plain
    formulas: every map computes its own p(t) and p(t, y), L is computed
    apart from the maps, and the extrapolation takes the log of the three
    encoders stacked. A y of zero mass is dropped first, as `_lockstep`
    drops it. Returns the final encoder, evaluation count and converged flag."""
    seen = j.p.sum(axis=0) > 0
    px, pygx, jp = j.px, j.pygx[:, seen], j.p[:, seen]
    kb = np.full((1, 1, 1), beta)
    ob = np.full(2, beta), np.full(2, 1.0 - beta)

    def softmax(z):
        z = np.exp(z - np.max(z, axis=2, keepdims=True))
        return z / z.sum(axis=2, keepdims=True)

    def step(e):
        pt = px @ e
        dec = (e.transpose(0, 2, 1) @ jp) / pt[:, :, None]
        new = softmax(np.log(pt)[:, None, :] + kb * (pygx @ np.log(dec).transpose(0, 2, 1)))
        if np.isnan(new).any():
            new[:] = softmax(_guarded(pygx, dec, pt, kb))  # (1, 1, T) rows at beta = 0
        return new

    def objective(e):
        def neg_h(p):
            return (p * np.log(np.where(p > 0, p, 1.0))).sum(axis=(1, 2))
        return (neg_h(e * px[:, None]) - ob[1] * neg_h((px @ e)[:, None])
                - ob[0] * neg_h(e.transpose(0, 2, 1) @ jp))

    def extrapolate(e0, e1, e2, bound):
        l0, l1, l2 = np.log(np.maximum(np.stack((e0, e1, e2)), LOG_FLOOR))
        r, v = l1 - l0, l2 - 2.0 * l1 + l0
        vv = (v * v).sum(axis=(1, 2))
        ratio = np.divide((r * r).sum(axis=(1, 2)), vv, out=np.zeros_like(vv), where=vv > 0)
        alpha = np.minimum(np.maximum(-np.sqrt(ratio), -bound), -1.0)
        return softmax(l0 - 2.0 * alpha[:, None, None] * r + (alpha**2)[:, None, None] * v), alpha

    evals = 0

    def stops(src, new, ok=True):  # (stop, converged) after one more map evaluation
        nonlocal evals
        evals += 1
        done = bool(ok and np.max(np.abs(new - src)) < tol)
        return done or evals >= max_iter, done

    e0, bound = enc[None], np.full(1, STEP_BOUND)
    with np.errstate(**_QUIET):
        while True:
            e1 = step(e0)
            if (s := stops(e0, e1))[0]:
                return e1[0], evals, s[1]
            e2 = step(e1)
            if (s := stops(e1, e2))[0]:
                return e2[0], evals, s[1]
            ex, alpha = extrapolate(e0, e1, e2, bound)
            e3 = step(ex)
            L = objective(np.concatenate([e3, e2]))
            ok = L[:1] <= L[1:]
            grown = np.where(alpha == -bound, bound * STEP_BOUND, bound)
            bound = np.where(ok, grown, np.maximum(bound / STEP_BOUND, STEP_BOUND))
            e0 = np.where(ok[:, None, None], e3, e2)
            if (s := stops(ex, e0, ok[0]))[0]:
                return e0[0], evals, s[1]


@st.composite
def lockstep_inputs(draw):
    """A joint with optionally a zero-mass y column and a massless x row, 1-12
    seeded inits (some with a dead cluster) at mixed betas (or all at 0), and
    an evaluation cap that falls on every step of a round."""
    x_card, y_card = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    t_card = draw(st.integers(2, 4))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=x_card * y_card,
                               max_size=x_card * y_card))).reshape(x_card, y_card)
    if draw(st.booleans()):
        w[:, draw(st.integers(0, y_card - 1))] = 0.0
    if draw(st.booleans()):
        w[draw(st.integers(0, x_card - 1))] = 0.0
    n, seed = draw(st.integers(1, 12)), draw(st.integers(0, 2**16))
    inits = _restart_inits(x_card, t_card, [(r, seed + r) for r in range(n)])
    for b in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        inits[b, :, draw(st.integers(0, t_card - 1))] = 0.0
        inits[b] /= inits[b].sum(axis=1, keepdims=True)
    if draw(st.integers(0, 9)):
        betas = np.exp(draw(st.lists(st.floats(math.log(0.5), math.log(50.0)),
                                     min_size=n, max_size=n)))
    else:
        betas = np.zeros(n)
    max_iter = draw(st.sampled_from([1, 2, 3, 7, 40, DEFAULT_MAX_ITER]))
    return JointDistribution(w / w.sum()), inits, betas, max_iter


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lockstep_inputs())
def test_lockstep_matches_the_reference_solve_bit_for_bit(inputs):
    # a round hands the p(t) and p(t, y) `_objective` computed for the kept
    # candidate to the next map, and slices them as elements retire: every
    # element must still end exactly where its reference solve ends
    j, inits, betas, max_iter = inputs
    enc, iters, conv = _lockstep(j, inits, betas, DEFAULT_TOL, max_iter)
    for b in range(len(inits)):
        e, i, c = reference_solve(j, inits[b], betas[b], DEFAULT_TOL, max_iter)
        assert np.array_equal(enc[b], e)
        assert (iters[b], conv[b]) == (i, c)
    # the pick keeps the R and I_Y `_winners` read off the whole stack: they
    # are the winner's own, bit for bit
    sol = _pick(j, inits.shape[2], betas[0], enc, iters, conv)
    R, I_Y = _info_bits(j, sol.encoder.matrix[None])
    assert (sol.R, sol.I_Y) == (R[0], I_Y[0])


@pytest.mark.parametrize("x_card, y_card, col", [(8, 4, 3), (3, 8, 0), (5, 3, 1), (4, 2, 0)])
def test_an_unseen_y_leaves_the_solve_on_the_fast_kernel(monkeypatch, x_card, y_card, col):
    # a zero-mass y column makes every map's relevance term 0 * log 0; the
    # solve drops the column instead of sending each map down `_guarded`, and
    # runs exactly as on the joint without it (p(x) sums at most 8 cells in
    # order, so adding the zeros changes no bit of it)
    p = random_joint(x_card, y_card, seed=1).p.copy()
    p[:, col] = 0.0
    p /= p.sum()
    gappy, trimmed = JointDistribution(p), JointDistribution(np.delete(p, col, axis=1))
    inits = _restart_inits(x_card, 3, [(r, 7 + r) for r in range(6)])
    betas = np.array([0.0, 0.5, 2.0, 5.0, 20.0, 200.0])
    calls = []
    monkeypatch.setattr(solver, "_guarded", lambda *a: calls.append(a) or _guarded(*a))
    got = _lockstep(gappy, inits, betas, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert calls == []
    for a, b in zip(got, _lockstep(trimmed, inits, betas, DEFAULT_TOL, DEFAULT_MAX_ITER)):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(queries())
def test_memoized_inits_and_joint_constants_change_no_solution(query):
    j, t_card, beta, seed = query

    def solve(joint):
        return [(s.encoder.matrix.tobytes(), s.L, s.iterations, s.converged)
                for s in (ib_solve_multistart(joint, t_card, beta, restarts=4, seed=seed),
                          ib_solve(joint, t_card, beta, max_iter=7, seed=seed))]

    solver._multistart_inits.cache_clear()
    cold = solve(JointDistribution(j.p))  # cleared memo, fresh joint
    reused = JointDistribution(j.p)
    assert solve(reused) == cold  # warm memo, fresh joint
    assert solve(reused) == cold  # warm memo, the joint's constants already read
    for a in (solver._multistart_inits(j.x_card, t_card, 4, seed), reused.px, reused.pygx):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
    with pytest.raises(TypeError):  # as on a cold memo, though seed's key is cached
        ib_solve_multistart(reused, t_card, beta, restarts=4, seed=float(seed))


def test_solve_invariant_checks_survive_optimize_flag():
    # with H(X) read as 0, every informative solution breaks R <= H(X); the
    # joint computes H(X) through prob.entropy_bits on first use
    code = ("import ibplane.prob as p, ibplane.solver as s\n"
            "from ibplane.presets import symmetric_joint\n"
            "p.entropy_bits = lambda p: 0.0\n"
            "try:\n"
            "    s.ib_solve(symmetric_joint(0.2), 2, 5.0)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_solve_validates_args():
    with pytest.raises(DimensionError):
        ib_solve(SYM, 0, beta=1.0)
    with pytest.raises(ValueError):
        ib_solve(SYM, 2, beta=1.0, tol=0.0)
    with pytest.raises(ValueError):
        ib_solve(SYM, 2, beta=-1.0)


# L = R - beta * I_Y is computed, so it overflows where beta * I_Y does: on
# the identity encoder of deterministic_joint(4), I_Y = 2 bits
@pytest.mark.parametrize("j, beta", [
    (SYM, math.nan), (SYM, math.inf), (deterministic_joint(4), 1e308),
], ids=["beta-nan", "beta-inf", "L-overflow"])
def test_solution_rejects_non_finite_scalars(j, beta):
    sol = IBSolution(j, 5.0, Encoder.from_assignment(range(j.x_card), j.x_card))
    with pytest.raises(ValueError, match="solution has non-finite"):
        dataclasses.replace(sol, beta=beta)


# --- self-consistency residual -------------------------------------------------

def test_residual_small_at_converged_solution():
    sol = ib_solve(SYM, 2, beta=5.0, tol=1e-10, max_iter=100_000, seed=0)
    assert self_consistency_residual(sol) < 1e-8


def test_residual_zero_for_hand_built_trivial():
    # all encoder rows equal the marginal, decoder rows equal p(y), beta=0
    enc = Encoder([[0.5, 0.5], [0.5, 0.5]])
    sol = IBSolution(SYM, 0.0, enc)
    assert self_consistency_residual(sol) < 1e-12


def test_residual_detects_perturbation():
    sol = ib_solve(SYM, 2, beta=5.0, tol=1e-10, max_iter=100_000, seed=0)
    noisy = Encoder(_perturb(sol.encoder.matrix, seed=1, noise=1e-3))
    assert self_consistency_residual(IBSolution(SYM, sol.beta, noisy)) > 1e-6


# --- deterministic oracle -------------------------------------------------------

def test_oracle_single_cluster():
    _, L = exhaustive_deterministic_oracle(SYM, 1, beta=3.0)
    assert L == pytest.approx(0.0, abs=1e-12)


def test_oracle_full_resolution():
    enc, _ = exhaustive_deterministic_oracle(SYM, 2, beta=50.0)
    sol = IBSolution(SYM, 50.0, enc)
    assert sol.I_Y == pytest.approx(SYM.i_xy, abs=1e-12)


def test_oracle_guard():
    j = random_joint(8, 2, seed=0)
    with pytest.raises(InstanceTooLargeError):
        exhaustive_deterministic_oracle(j, 6, beta=1.0)


def reference_oracle_keys(j, t_card):
    """Every map of itertools.product(range(t_card), repeat=x_card), in that
    order, with its (R, I_Y) from an np.add.at pushforward of the joint."""
    out = []
    for a in itertools.product(range(t_card), repeat=j.x_card):
        pt, pty = np.zeros(t_card), np.zeros((t_card, j.y_card))
        np.add.at(pt, list(a), j.px)
        np.add.at(pty, list(a), j.p)
        out.append((list(a), entropy_bits(pt), mi_bits(pty)))
    return out


def joint_with_zeros(x_card, y_card, seed):
    """A seeded random joint; odd seeds zero one row, seeds = 2 mod 3 one column."""
    p = random_joint(x_card, y_card, seed).p.copy()
    if seed % 2:
        p[seed % x_card] = 0.0
    if seed % 3 == 2:
        p[:, seed % y_card] = 0.0
    return JointDistribution(p / p.sum())


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_a_per_map_reference(seed):
    # smallest L, then smaller R, then the earlier map; a zero L is +0.0
    for (x_card, y_card), t_card in itertools.product([(3, 2), (4, 3), (5, 2)], (1, 2, 3, 4)):
        j = joint_with_zeros(x_card, y_card, seed)
        maps = reference_oracle_keys(j, t_card)
        for beta in (0.0, 0.7, 3.0, 40.0):
            a, R, I_Y = min(maps, key=lambda m: (m[1] - beta * m[2], m[1]))
            enc, L = exhaustive_deterministic_oracle(j, t_card, beta)
            assert (enc.matrix.argmax(axis=1).tolist(), L) == (a, R - beta * I_Y)
            assert L != 0.0 or math.copysign(1.0, L) == 1.0


def test_oracle_memory_is_bounded_by_its_blocks():
    j = random_joint(19, 2, seed=0)  # 2^19 maps at T = 2
    tracemalloc.start()
    try:
        exhaustive_deterministic_oracle(j, 2, beta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_solver_dominates_oracle_single_case():
    j = random_joint(4, 2, seed=17)
    _, oracle_l = exhaustive_deterministic_oracle(j, 2, beta=10.0)
    sol = ib_solve_multistart(j, 2, beta=10.0, restarts=20, seed=0)
    assert sol.L <= oracle_l + 1e-6


# a known defect: every restart ends at L = -4.9e-15, the trivial branch,
# while the best deterministic encoder reaches L = -0.03676; the change that
# makes multistart find the optimum turns this into a pass
@pytest.mark.xfail(strict=True, reason="multistart misses the optimum on this joint")
def test_multistart_never_above_the_deterministic_oracle():
    j = random_joint(4, 2, seed=0)
    _, oracle_l = exhaustive_deterministic_oracle(j, 2, beta=20.0)
    assert ib_solve_multistart(j, 2, beta=20.0, restarts=10).L <= oracle_l + 1e-9


def test_multistart_on_empirical_joints_with_unobserved_symbols():
    # 20 samples of an 8x4 joint leave x symbols unobserved in 20 of these 30
    # joints; each solves, its massless rows follow p(t), and its file reads back
    seen_gaps = 0
    for s in range(30):
        j = empirical_joint(sample_pairs(random_joint(8, 4, s), 20, seed=3), 8, 4)
        unseen = j.px == 0
        seen_gaps += unseen.any()
        for beta in (2.0, 10.0, 50.0):
            sol = ib_solve_multistart(j, 3, beta)
            # the encoder is one plain step's output: its massless rows are the
            # p(t) of that step's input, less than tol from the solution's own
            enc = sol.encoder.matrix
            assert np.abs(enc[unseen] - sol.marginal).max(initial=0) < DEFAULT_TOL
            np.testing.assert_allclose(ib_iterate_once(j, sol.encoder, beta).matrix[unseen],
                                       np.broadcast_to(sol.marginal, enc[unseen].shape),
                                       rtol=0, atol=1e-12)
            assert 0 <= sol.I_Y <= j.i_xy + 1e-9
            assert sol.R <= min(j.h_x, math.log2(3)) + 1e-9
            back = io.solution_from_json(io.solution_to_json(sol), j)
            assert np.array_equal(back.encoder.matrix, enc)
    assert seen_gaps == 20


def test_multistart_tie_breaks_toward_smaller_rate():
    # at beta=0 everything is trivial; the reported solution must keep R ~ 0
    sol = ib_solve_multistart(SYM, 2, beta=0.0, restarts=5, seed=0)
    assert sol.R <= 1e-9
