"""Tradeoff-curve tracing and phase-transition analysis.

The curve is traced by deterministic annealing: sweep beta upward, warm-start
each solve from the previous solution with a small symmetry-breaking
perturbation, and keep the best of that candidate plus a few fresh restarts.
The fresh restarts do not depend on the warm chain, so a sweep solves all of
them first, every grid point's in one lockstep batch across betas, and then
walks the grid solving only the warm starts.
Jumps in the effective cluster count are bracketed by bisection with fresh
restarts (warm starts would drag hysteresis across the transition).

Each bracket also carries a spectral prediction of its critical beta, read
from the solution the bisection holds at the bracket's low end: linearizing
the encoder update around a solution gives a second-order correlation matrix
over Y whose leading admissible eigenvalue lambda sets the instability point
at beta = 1/lambda. The all-ones direction is always an eigenvector with
eigenvalue 1 (rows of the correlation matrix are normalized) and is deflated
before reading off lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClusterError, DimensionError
from .prob import JointDistribution, conditional_rows, js_bits
from .solver import (  # noqa: F401  ib_solve stays importable from here
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    IBSolution,
    _check_query,
    _encoder_stack,
    _lockstep,
    _perturb,
    _pick,
    _restart_inits,
    ib_solve,
    ib_solve_multistart,
)

MASS_EPS = 1e-6     # cluster weight below which a cluster is not counted
MERGE_TAU = 1e-4    # JS divergence (bits) under which decoder rows merge
BRACKET_REL_WIDTH = 1e-3  # bisection stops at width <= this * beta
MONOTONE_SLACK = 1e-6


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    R: float
    I_Y: float
    D_IB: float
    L: float
    eff_card: int

    def __post_init__(self):
        fields = ("beta", "R", "I_Y", "D_IB", "L")
        bad = [k for k in fields if not math.isfinite(getattr(self, k))]
        if bad:
            raise ValueError(f"curve point has non-finite {', '.join(bad)}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.eff_card < 1:
            raise ValueError(f"eff_card must be >= 1, got {self.eff_card}")
        if abs(self.L - (self.R - self.beta * self.I_Y)) > 1e-9:
            raise ValueError("curve point violates L = R - beta * I_Y")


@dataclass(frozen=True)
class Bifurcation:
    """A bracketed jump of the effective cluster count.

    beta_predicted carries the spectral prediction when one is available
    (it may be None for later splits).
    """

    beta_low: float
    beta_high: float
    card_before: int
    card_after: int
    beta_predicted: float | None = None

    def __post_init__(self):
        if self.beta_predicted is not None and not math.isfinite(self.beta_predicted):
            raise ValueError(f"bifurcation has non-finite beta_predicted {self.beta_predicted}")
        if not self.beta_low < self.beta_high:
            raise ValueError("bifurcation bracket must satisfy beta_low < beta_high")
        if not self.card_after > self.card_before:
            raise ValueError("bifurcation must increase the effective cardinality")


@dataclass(frozen=True)
class InfoCurve:
    points: tuple[CurvePoint, ...]
    bifurcations: tuple[Bifurcation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "bifurcations", tuple(self.bifurcations))
        betas = [p.beta for p in self.points]
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("curve betas must be strictly increasing")
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.R < prev.R - MONOTONE_SLACK or cur.I_Y < prev.I_Y - MONOTONE_SLACK:
                raise ValueError(
                    f"curve is not monotone near beta={cur.beta}: "
                    f"R {prev.R}->{cur.R}, I_Y {prev.I_Y}->{cur.I_Y}"
                )


# ---------------------------------------------------------------------------
# Effective cardinality
# ---------------------------------------------------------------------------

def effective_cardinality(sol: IBSolution) -> int:
    """Number of clusters carrying mass above MASS_EPS, after merging pairs
    whose decoder rows differ by less than MERGE_TAU in JS divergence."""
    pt = sol.marginal.p
    dec = sol.decoder.p
    alive = [t for t in range(pt.size) if pt[t] > MASS_EPS]
    if not alive:
        return 1
    parent = {t: t for t in alive}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            if js_bits(dec[a], dec[b]) < MERGE_TAU:
                parent[find(b)] = find(a)
    return len({find(t) for t in alive})


# ---------------------------------------------------------------------------
# Spectral critical beta
# ---------------------------------------------------------------------------

def _moments(j: JointDistribution, sol: IBSolution,
             t_index: int) -> tuple[np.ndarray, np.ndarray]:
    """M[y, y'] = sum_x p(x|t) p(y|x) p(y'|x) and p(y|t) for one cluster,
    recomputed from the encoder so the correlation matrix is exactly
    row-normalized."""
    if not 0 <= t_index < sol.t_card:
        raise DimensionError(f"cluster index {t_index} out of range")
    px, pygx = conditional_rows(j.p)
    col = sol.encoder.matrix[:, t_index]
    pt = float(px @ col)
    if pt <= 0:
        raise DegenerateClusterError(f"cluster {t_index} has zero mass")
    pxgt = px * col / pt
    return pygx.T @ (pxgt[:, None] * pygx), pxgt @ pygx


def c_matrix(j: JointDistribution, sol: IBSolution, t_index: int) -> np.ndarray:
    """Second-order correlation matrix over Y conditioned on one cluster:

        C[y, y'] = sum_x p(x|t) p(y|x) p(y'|x) / p(y|t)

    Rows sum to 1, so the all-ones vector is a right eigenvector with
    eigenvalue 1. Rows for y with p(y|t) = 0 are left at zero.
    """
    m, pygt = _moments(j, sol, t_index)
    c = np.zeros_like(m)
    pos = pygt > 0
    c[pos] = m[pos] / pygt[pos, None]
    return c


def critical_beta_spectral(j: JointDistribution, sol: IBSolution,
                           t_index: int) -> float:
    """Spectral prediction 1/lambda of the beta at which a cluster splits.

    lambda is the largest eigenvalue of the cluster's second-order
    correlation matrix restricted to the complement of the trivial
    (all-ones, eigenvalue-1) mode. The matrix is symmetrized as
    S = D^{-1/2} M D^{-1/2} with D = diag p(y|t), whose unit eigenvector for
    the trivial mode is sqrt(p(y|t)); that mode is projected out before the
    eigenvalues are read off. Returns math.inf when no admissible eigenvalue
    is positive (no transition).
    """
    m, pygt = _moments(j, sol, t_index)
    sup = pygt > 0
    ms = m[np.ix_(sup, sup)]
    v = np.sqrt(pygt[sup])
    s = ms / np.outer(v, v)
    proj = np.eye(v.size) - np.outer(v, v)
    deflated = proj @ s @ proj
    lam = float(np.linalg.eigvalsh(deflated)[-1]) if v.size > 1 else 0.0
    if lam <= 1e-12:
        return math.inf
    return 1.0 / lam


def _predicted_split(j: JointDistribution, sol: IBSolution) -> float | None:
    """The smallest finite critical beta over the clusters of sol that carry
    mass above MASS_EPS, or None when none is finite."""
    preds = (critical_beta_spectral(j, sol, t) for t in range(sol.t_card)
             if sol.marginal.p[t] > MASS_EPS)
    return min(filter(math.isfinite, preds), default=None)


# ---------------------------------------------------------------------------
# Annealing sweep
# ---------------------------------------------------------------------------

def geometric_grid(beta_min: float, beta_max: float,
                   factor: float = 1.05) -> np.ndarray:
    """Geometric beta grid from beta_min to beta_max inclusive."""
    if not all(map(math.isfinite, (beta_min, beta_max, factor))):
        raise ValueError(f"grid bounds and factor must be finite, got "
                         f"{beta_min}, {beta_max}, {factor}")
    if beta_min <= 0 or beta_max <= beta_min:
        raise ValueError("need 0 < beta_min < beta_max")
    if factor <= 1:
        raise ValueError(f"grid factor must be > 1, got {factor}")
    grid = [beta_min]
    while grid[-1] * factor < beta_max:
        grid.append(grid[-1] * factor)
    grid.append(beta_max)
    return np.array(grid)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def anneal_curve(j: JointDistribution, t_card: int, beta_grid,
                 perturb_mag: float = 1e-3, restarts: int = 3,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 seed: int = 0) -> InfoCurve:
    """Anneal over the beta grid as the module docstring describes (the first
    point, which has no warm start, runs at least one fresh restart),
    bracket every effective-cardinality jump by bisection and predict each
    from the solution at its bracket's low end."""
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0:
        raise ValueError("beta grid is empty")
    if not np.all(np.isfinite(beta_grid)):
        raise ValueError("beta grid must be finite")
    if np.any(beta_grid <= 0) or np.any(np.diff(beta_grid) <= 0):
        raise ValueError("beta grid must be strictly increasing and positive")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    _check_query(t_card, float(beta_grid[0]), tol, max_iter)

    counts = [max(restarts, 1)] + [restarts] * (beta_grid.size - 1)
    fresh = _restart_inits(j.x_card, t_card, [(r, _derived_seed(seed, i, r + 1))
                                               for i, k in enumerate(counts) for r in range(k)])
    fresh = _lockstep(j, fresh, np.repeat(beta_grid, counts), tol, max_iter)
    ends = np.cumsum(counts)

    points: list[CurvePoint] = []
    sols: list[IBSolution] = []
    for i, beta in enumerate(map(float, beta_grid)):
        cands = [a[ends[i] - counts[i]:ends[i]] for a in fresh]
        if sols:
            warm = _encoder_stack([_perturb(sols[-1].encoder.matrix, _derived_seed(seed, i, 0),
                                            perturb_mag)])
            warm = _lockstep(j, warm, beta, tol, max_iter)
            cands = [np.concatenate(pair) for pair in zip(warm, cands)]
        best = _pick(j, t_card, beta, *cands)
        points.append(CurvePoint(
            beta=beta, R=best.R, I_Y=best.I_Y, D_IB=best.D_IB,
            L=best.L, eff_card=effective_cardinality(best),
        ))
        sols.append(best)

    probe_counter = [0]

    def probe(beta: float) -> tuple[int, IBSolution]:
        # fresh restarts avoid warm-start hysteresis; the tightened tolerance
        # suppresses truncation asymmetry between simultaneous splits, which
        # otherwise flips the merge test arbitrarily right at a transition
        probe_counter[0] += 1
        sol = ib_solve_multistart(
            j, t_card, beta, restarts=max(restarts, 2) + 1, tol=tol * 1e-2,
            max_iter=3 * max_iter, seed=_derived_seed(seed, 7_777, probe_counter[0]))
        return effective_cardinality(sol), sol

    bifurcations: list[Bifurcation] = []

    def refine(lo: float, c_lo: int, s_lo: IBSolution, hi: float, c_hi: int):
        if hi - lo <= BRACKET_REL_WIDTH * hi:
            bifurcations.append(Bifurcation(lo, hi, c_lo, c_hi, _predicted_split(j, s_lo)))
            return
        mid = 0.5 * (lo + hi)
        c_mid, s_mid = probe(mid)
        if c_mid > c_lo:
            refine(lo, c_lo, s_lo, mid, c_mid)
        if c_mid < c_hi:
            refine(mid, c_mid, s_mid, hi, c_hi)

    # along an annealing sweep the effective cardinality of the optimal branch
    # does not decrease; an isolated dip in the raw sequence is convergence
    # noise near a transition, so jumps are taken on the running maximum
    running = points[0].eff_card
    for lo, hi, s_lo in zip(points, points[1:], sols):
        if hi.eff_card > running:
            refine(lo.beta, running, s_lo, hi.beta, hi.eff_card)
            running = hi.eff_card

    return InfoCurve(tuple(points), tuple(bifurcations))


def detect_bifurcations(curve: InfoCurve, j: JointDistribution, t_card: int,
                        restarts: int = 5, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        seed: int = 0) -> tuple[Bifurcation, ...]:
    """The curve's brackets, which `anneal_curve` already predicts; the other
    parameters are ignored. Kept for perfbench/, which calls and patches it
    by name; it leaves with the next benchmark change, like the quantizer
    parameter of `network_distortion_rate`."""
    return curve.bifurcations
