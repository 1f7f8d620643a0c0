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

from ibplane import solver
from ibplane.errors import (
    DegenerateEncoderError,
    DimensionError,
    InstanceTooLargeError,
)
from ibplane.presets import random_joint, symmetric_joint
from ibplane.prob import (
    JointDistribution,
    conditional_rows,
    entropy_bits,
    mi_bits,
    mutual_information,
)
from ibplane.solver import (
    _QUIET,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Encoder,
    IBSolution,
    _lockstep,
    _map,
    _perturb,
    _restart_inits,
    exhaustive_deterministic_oracle,
    ib_iterate_once,
    ib_solve,
    ib_solve_multistart,
    self_consistency_residual,
    solution_from_encoder,
)

SYM = symmetric_joint(0.2)  # joint [[0.4, 0.1], [0.1, 0.4]]


def scalars_of(j, enc_matrix, beta):
    sol = solution_from_encoder(j, Encoder(enc_matrix), beta)
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
    lambda e: self_consistency_residual(SYM, solution_from_encoder(random_joint(3, 2, 0), e, 1.0)),
    lambda e: solution_from_encoder(SYM, e, 2.0),
], ids=["ib_solve-init", "ib_iterate_once", "self_consistency_residual", "solution_from_encoder"])
def test_encoder_must_match_the_joint(call):
    # one rule, one message, at every entry point that takes an encoder
    with pytest.raises(DimensionError, match=r"encoder has shape \(3, 2\), not \(2, 2\)"):
        call(Encoder.noisy_uniform(3, 2, seed=0))


def reference_map(jp, enc, beta):
    """The three updates for one encoder, term by term: p(t), then p(y|t) for
    every cluster with mass, then p(t|x) ~ p(t) exp(-beta KL(p(y|x) || p(y|t)))
    with KL in nats over p(y|x)'s support, infinite where p(y|t) misses it
    (no weight, unless beta = 0) and no weight for a zero-mass cluster."""
    px = jp.sum(axis=1)
    x_card, t_card = enc.shape
    pygx = [jp[x] / px[x] if px[x] > 0 else np.full(jp.shape[1], 1 / jp.shape[1])
            for x in range(x_card)]
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
    px, pygx = conditional_rows(jp)
    with np.errstate(**_QUIET):
        got = _map(px, pygx, jp, enc, beta, strict=False)
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
    # x=1 has no mass, gets a uniform conditional, and every cluster then
    # misses its support once the only live cluster decodes a point mass
    j = JointDistribution([[1.0, 0.0], [0.0, 0.0]])
    enc = Encoder([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateEncoderError):
        ib_iterate_once(j, enc, beta=2.0)


# --- full solve ----------------------------------------------------------------

def test_solve_beta_zero_trivial():
    sol = ib_solve(SYM, 2, beta=0.0, seed=0)
    assert sol.R <= 1e-9
    assert sol.I_Y <= 1e-9
    assert sol.D_IB == pytest.approx(mutual_information(SYM), abs=1e-9)


def test_solve_large_beta_recovers_sufficiency():
    sol = ib_solve(SYM, 2, beta=1000.0, seed=0)
    assert sol.I_Y >= mutual_information(SYM) - 1e-3


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
        i_xy = mutual_information(j)
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
        assert sol.L <= solution_from_encoder(j, init, beta).L + 1e-12 * max(1.0, beta)
    # a solve stopped at the cap returns its latest iterate, so capping at
    # k = 1, 2, ... walks one trajectory: L must never rise along it
    path = [solution_from_encoder(j, inits[0], beta).L]
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


# L = R - beta * I_Y is computed, so a NaN R makes L NaN too
@pytest.mark.parametrize("changes", [
    {"R": math.nan}, {"I_Y": math.nan}, {"D_IB": math.inf},
    {"beta": math.nan}, {"beta": math.inf}, {"beta": 1e308, "I_Y": 2.0},
], ids=["R-and-L", "I_Y", "D_IB", "beta-nan", "beta-inf", "L-overflow"])
def test_solution_rejects_non_finite_scalars(changes):
    sol = ib_solve(SYM, 2, beta=5.0, seed=0)
    with pytest.raises(ValueError, match="solution has non-finite"):
        dataclasses.replace(sol, **changes)


# --- self-consistency residual -------------------------------------------------

def test_residual_small_at_converged_solution():
    sol = ib_solve(SYM, 2, beta=5.0, tol=1e-10, max_iter=100_000, seed=0)
    assert self_consistency_residual(SYM, sol) < 1e-8


def test_residual_zero_for_hand_built_trivial():
    # all encoder rows equal the marginal, decoder rows equal p(y), beta=0
    enc = Encoder([[0.5, 0.5], [0.5, 0.5]])
    sol = solution_from_encoder(SYM, enc, beta=0.0)
    assert self_consistency_residual(SYM, sol) < 1e-12


def test_residual_detects_perturbation():
    sol = ib_solve(SYM, 2, beta=5.0, tol=1e-10, max_iter=100_000, seed=0)
    noisy = Encoder(_perturb(sol.encoder.matrix, seed=1, noise=1e-3))
    tampered = IBSolution(
        beta=sol.beta, encoder=noisy, decoder=sol.decoder, marginal=sol.marginal,
        R=sol.R, I_Y=sol.I_Y, D_IB=sol.D_IB,
        iterations=sol.iterations, converged=sol.converged)
    assert self_consistency_residual(SYM, tampered) > 1e-6


# --- deterministic oracle -------------------------------------------------------

def test_oracle_single_cluster():
    _, L = exhaustive_deterministic_oracle(SYM, 1, beta=3.0)
    assert L == pytest.approx(0.0, abs=1e-12)


def test_oracle_full_resolution():
    enc, _ = exhaustive_deterministic_oracle(SYM, 2, beta=50.0)
    sol = solution_from_encoder(SYM, enc, 50.0)
    assert sol.I_Y == pytest.approx(mutual_information(SYM), abs=1e-12)


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


def test_multistart_tie_breaks_toward_smaller_rate():
    # at beta=0 everything is trivial; the reported solution must keep R ~ 0
    sol = ib_solve_multistart(SYM, 2, beta=0.0, restarts=5, seed=0)
    assert sol.R <= 1e-9
