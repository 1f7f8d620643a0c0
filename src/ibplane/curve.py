"""Tradeoff-curve tracing and phase-transition analysis.

The curve is traced in passes over the beta grid, each pass one lockstep
batch with one beta per element. Pass 0 solves a few fresh restarts at every
grid point and keeps each point's best. Each later pass offers the solution
of every point that changed, with a small symmetry-breaking perturbation, to
both neighbours as a warm start; a point takes its best offer only if that
lowers L by more than OFFER_MARGIN * max(1, beta), and the passes stop when
no point changes. Offers travel down the grid as well as up, so no point is
left on the branch that a one-way warm chain (deterministic annealing)
follows past a first-order transition. The kept solutions stay in arrays,
each pass picks every point's best offer in one grouped sort, and a full
IBSolution is built only at a bracket's low end. The InfoCurve returned keeps
those arrays, checked a column at a time, with each point's kept encoder.
Jumps in the effective cluster count are bracketed by bisection with fresh
restarts (warm starts would drag hysteresis across the transition).

Each bracket also carries a spectral prediction of its critical beta, read
from the solution the bisection holds at the bracket's low end: linearizing
the encoder update around a solution gives a second-order correlation matrix
over Y per cluster whose eigenvalue lambda sets the instability point at
beta = 1/lambda. The all-ones direction is always an eigenvector with
eigenvalue 1 (rows of the correlation matrix are normalized), the largest,
so lambda is the second eigenvalue; one batched eigen-solve over every
cluster of the solution reads them all.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .prob import JointDistribution, _frozen_array, js_bits
from .solver import (  # noqa: F401  ib_solve stays importable from here
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Encoder,
    IBSolution,
    _check_query,
    _check_fields,
    _check_tradeoff_point,
    _decoder,
    _field_faults,
    _raise_first,
    _encoder_stack,
    _lagrangian,
    _lockstep,
    _perturb,
    _restart_inits,
    _winners,
    ib_solve,
    ib_solve_multistart,
)

MASS_EPS = 1e-6     # cluster weight below which a cluster is not counted
MERGE_TAU = 1e-4    # JS divergence (bits) under which decoder rows merge
BRACKET_REL_WIDTH = 1e-3  # bisection stops at width <= this * beta
MONOTONE_SLACK = 1e-6
# an offer must lower a point's L by more than this * max(1, beta); taking any
# lower L lets rounding noise bounce solutions between neighbours for passes
OFFER_MARGIN = 1e-12
# the most points a beta grid may have: the README grid has 129, every point
# costs a lockstep solve per pass, and a factor just above 1 would otherwise
# build trillions of floats before the sweep could refuse them
GRID_MAX_POINTS = 100_000


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    R: float
    I_Y: float
    D_IB: float
    eff_card: int

    def __post_init__(self):
        _check_tradeoff_point(self, "curve point")
        if self.eff_card < 1:
            raise ValueError(f"eff_card must be >= 1, got {self.eff_card}")

    L = _lagrangian


@dataclass(frozen=True)
class Bifurcation:
    """A bracketed jump of the effective cluster count.

    beta_predicted is the spectral prediction, None only when no cluster of
    the bracket's low-end solution has a finite spectral beta.
    """

    beta_low: float
    beta_high: float
    card_before: int
    card_after: int
    beta_predicted: float | None = None

    def __post_init__(self):
        _check_fields(self, "bifurcation", ("beta_low", "beta_high") + (
            () if self.beta_predicted is None else ("beta_predicted",)))
        if not self.beta_low < self.beta_high:
            raise ValueError("bifurcation bracket must satisfy beta_low < beta_high")
        if self.card_before < 1:
            raise ValueError(f"card_before must be >= 1, got {self.card_before}")
        if not self.card_after > self.card_before:
            raise ValueError("bifurcation must increase the effective cardinality")


def _curve_faults(beta, R, I_Y, D_IB, eff_card) -> list:
    """CurvePoint's checks on columns, as `_raise_first` takes them."""
    with np.errstate(over="ignore", invalid="ignore"):  # beta * I_Y can overflow
        L = R - beta * I_Y
    return [*_field_faults("curve point", beta=beta, R=R, I_Y=I_Y, D_IB=D_IB),
            (~np.isfinite(L), lambda i: "curve point has non-finite L"),
            (eff_card < 1, lambda i: f"eff_card must be >= 1, got {eff_card[i]}")]


_CURVE_ARRAYS = dict(beta=float, R=float, I_Y=float, D_IB=float, eff_card=np.int64,
                     encoders=float, iterations=np.int64, converged=bool)


@dataclass(frozen=True, eq=False)
class InfoCurve:
    """The curve as read-only arrays, one entry per point; L and `points`, its
    CurvePoint records, are computed on read. encoders (N, X, T), iterations
    and converged are each point's kept solve, None unless from `anneal_curve`.
    unconverged: kept grid solutions and bisection probes not converged."""

    beta: np.ndarray
    R: np.ndarray
    I_Y: np.ndarray
    D_IB: np.ndarray
    eff_card: np.ndarray
    bifurcations: tuple[Bifurcation, ...] = ()
    unconverged: int = 0
    encoders: np.ndarray | None = None
    iterations: np.ndarray | None = None
    converged: np.ndarray | None = None

    def __post_init__(self):
        arrays = {k: _frozen_array(v, dtype) for k, dtype in _CURVE_ARRAYS.items()
                  if (v := getattr(self, k)) is not None}
        for k, v in {**arrays, "bifurcations": tuple(self.bifurcations)}.items():
            object.__setattr__(self, k, v)
        if self.beta.ndim != 1 or any(v.shape[:1] != self.beta.shape for v in arrays.values()):
            raise DimensionError("curve arrays must have one entry per point")
        b, R, I_Y = self.beta, self.R, self.I_Y
        _raise_first(_curve_faults(b, R, I_Y, self.D_IB, self.eff_card))
        _check_fields(self, "curve", ("unconverged",))
        _raise_first([(b[1:] <= b[:-1], lambda i: "curve betas must be strictly increasing")])
        _raise_first([((R[1:] < R[:-1] - MONOTONE_SLACK) | (I_Y[1:] < I_Y[:-1] - MONOTONE_SLACK),
                       lambda i: "curve is not monotone near beta={}: R {}->{}, I_Y {}->{}".format(
                           b[i + 1].item(), *R[i:i + 2].tolist(), *I_Y[i:i + 2].tolist()))])

    @functools.cached_property
    def points(self) -> tuple[CurvePoint, ...]:
        columns = self.beta, self.R, self.I_Y, self.D_IB, self.eff_card
        return tuple(map(CurvePoint, *(c.tolist() for c in columns)))

    L = _lagrangian


# ---------------------------------------------------------------------------
# Effective cardinality
# ---------------------------------------------------------------------------

def effective_cardinality(sol: IBSolution) -> int:
    """Number of clusters carrying mass above MASS_EPS, after merging pairs
    whose decoder rows differ by less than MERGE_TAU in JS divergence."""
    return int(_effective_cards(sol.marginal[None], sol.decoder[None])[0])


def _effective_cards(pt: np.ndarray, dec: np.ndarray) -> np.ndarray:
    """effective_cardinality of every solution of a stack, from its (B, T)
    marginals p(t) and (B, T, Y) decoders p(y|t)."""
    alive, t_card = pt > MASS_EPS, pt.shape[1]
    link = (alive[:, :, None] & alive[:, None, :]
            & (js_bits(dec[:, :, None], dec[:, None]) < MERGE_TAU)) | np.eye(t_card, dtype=bool)
    for _ in range((t_card - 1).bit_length()):  # transitive closure: merges chain
        link = link @ link
    # a live cluster heads its merged group when it links to no earlier cluster
    heads = alive & ~(link & np.tri(t_card, k=-1, dtype=bool)).any(axis=2)
    return np.maximum(heads.sum(axis=1), 1)


# ---------------------------------------------------------------------------
# Spectral critical beta
# ---------------------------------------------------------------------------

def _spectral_lambdas(sol: IBSolution) -> np.ndarray:
    """lambda of every cluster of sol, 0 for a zero-mass one, read from one
    batched eigen-solve of S = D^{-1/2} M D^{-1/2}, M[y, y'] = sum_x p(x|t)
    p(y|x) p(y'|x) and D = diag p(y|t), as its second eigenvalue, 0 when
    |Y| = 1. A y with p(y|t) = 0 has a zero row and column in M; dividing
    them by 1 adds only an eigenvalue 0."""
    j, pt = sol.joint, sol.marginal
    pxgt = (j.px[:, None] * sol.encoder.matrix / np.where(pt > 0, pt, 1.0)).T
    m = j.pygx.T @ (pxgt[:, :, None] * j.pygx)
    pygt = pxgt @ j.pygx
    d = np.sqrt(np.where(pygt > 0, pygt, 1.0))
    lam = np.linalg.eigvalsh(m / (d[:, :, None] * d[:, None, :]))
    # ascending, the trivial mode's 1 last; nothing is left when |Y| = 1
    return lam[:, :-1].max(axis=1, initial=0.0)


def _beta_of(lam: float) -> float:
    return 1.0 / lam if lam > 1e-12 else math.inf


def _predicted_split(sol: IBSolution) -> float | None:
    """The smallest finite critical beta over the clusters of sol that carry
    mass above MASS_EPS, or None when none is finite."""
    lam = _spectral_lambdas(sol)[sol.marginal > MASS_EPS]
    return min(filter(math.isfinite, map(_beta_of, lam.tolist())), default=None)


# ---------------------------------------------------------------------------
# Annealing sweep
# ---------------------------------------------------------------------------

def geometric_grid(beta_min: float, beta_max: float,
                   factor: float = 1.05) -> np.ndarray:
    """Geometric beta grid from beta_min to beta_max inclusive, of at most
    GRID_MAX_POINTS points."""
    if not all(map(math.isfinite, (beta_min, beta_max, factor))):
        raise ValueError(f"grid bounds and factor must be finite, got "
                         f"{beta_min}, {beta_max}, {factor}")
    # a subnormal beta can round back to itself when multiplied by factor
    if not sys.float_info.min <= beta_min < beta_max:
        raise ValueError(f"need {sys.float_info.min} <= beta_min < beta_max")
    if factor <= 1:
        raise ValueError(f"grid factor must be > 1, got {factor}")
    points = math.ceil((math.log(beta_max) - math.log(beta_min)) / math.log(factor)) + 1
    if points > GRID_MAX_POINTS:
        raise ValueError(f"grid factor {factor!r} gives {points} points from {beta_min} "
                         f"to {beta_max}, more than {GRID_MAX_POINTS}")
    grid, beta_max, factor = [float(beta_min)], float(beta_max), float(factor)  # overflows quietly
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
    """Trace the curve over the beta grid in neighbour passes as the module
    docstring describes (the first point runs at least one fresh restart, so
    with restarts=0 the others are reached by offers alone), bracket every
    effective-cardinality jump by bisection and predict each from the
    solution at its bracket's low end."""
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

    betas, n = beta_grid.tolist(), beta_grid.size
    counts = [max(restarts, 1)] + [restarts] * (n - 1)
    targets = np.repeat(np.arange(n), counts)
    inits = _encoder_stack(_restart_inits(j.x_card, t_card, [
        (r, _derived_seed(seed, i, r + 1)) for i, k in enumerate(counts) for r in range(k)]))
    # the solution each grid point keeps, as arrays; L is inf until one is kept
    enc, R, I_Y = np.empty((n, j.x_card, t_card)), np.zeros(n), np.zeros(n)
    L, iters, conv = np.full(n, math.inf), np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    for n_pass in itertools.count(1):
        solved, s_iters, s_conv = _lockstep(j, inits, beta_grid[targets], tol, max_iter)
        win, s_R, s_I_Y, s_L = _winners(j, t_card, beta_grid[targets], solved, targets)
        win = win[s_L[win] < (L - OFFER_MARGIN * np.maximum(1.0, beta_grid))[targets[win]]]
        changed = targets[win]
        for kept, new in zip((enc, R, I_Y, L, iters, conv),
                             (solved, s_R, s_I_Y, s_L, s_iters, s_conv)):
            kept[changed] = new[win]
        offers = [(t, s) for s in changed.tolist() for t in (s - 1, s + 1) if 0 <= t < n]
        if not offers:
            break
        targets, sources = np.array(offers).T
        inits = _perturb(enc[sources], [_derived_seed(seed, t, s, n_pass) for t, s in offers],
                         perturb_mag)
    cards = _effective_cards(*_decoder(j, enc)).tolist()

    n_probes, unconverged = 0, int(np.count_nonzero(~conv))

    def probe(beta: float) -> tuple[int, IBSolution]:
        # fresh restarts avoid warm-start hysteresis; the tightened tolerance
        # suppresses truncation asymmetry between simultaneous splits, which
        # otherwise flips the merge test arbitrarily right at a transition
        nonlocal n_probes, unconverged
        n_probes += 1
        sol = ib_solve_multistart(
            j, t_card, beta, restarts=max(restarts, 2) + 1, tol=tol * 1e-2,
            max_iter=3 * max_iter, seed=_derived_seed(seed, 7_777, n_probes))
        unconverged += not sol.converged
        return effective_cardinality(sol), sol

    bifurcations: list[Bifurcation] = []

    def refine(lo: float, c_lo: int, s_lo: IBSolution, hi: float, c_hi: int):
        if hi - lo <= BRACKET_REL_WIDTH * hi:
            bifurcations.append(Bifurcation(lo, hi, c_lo, c_hi, _predicted_split(s_lo)))
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
    running = cards[0]
    for i, (lo, hi) in enumerate(zip(betas, betas[1:])):
        if cards[i + 1] > running:
            s_lo = IBSolution(j, lo, Encoder(enc[i]), int(iters[i]), bool(conv[i]))
            refine(lo, running, s_lo, hi, cards[i + 1])
            running = cards[i + 1]

    return InfoCurve(beta_grid, R, I_Y, np.maximum(0.0, j.i_xy - I_Y), cards,
                     tuple(bifurcations), unconverged, enc, iters, conv)


def detect_bifurcations(curve: InfoCurve, j: JointDistribution, t_card: int,
                        restarts: int = 5, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        seed: int = 0) -> tuple[Bifurcation, ...]:
    """The curve's brackets, which `anneal_curve` already predicts; the other
    parameters are ignored. Kept for perfbench/, which calls and patches it
    by name; it leaves with the next benchmark change, like the quantizer
    parameter of `network_distortion_rate`."""
    return curve.bifurcations
