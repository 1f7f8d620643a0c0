"""Fixed-beta solver for the compression/relevance tradeoff.

Given a joint p(X,Y), a cluster alphabet size and a tradeoff beta, the solver
minimizes L = I(X;T) - beta * I(T;Y) over soft encoders p(t|x) by iterating
the stationary-point updates

    p(t)   <- sum_x p(x) p(t|x)
    p(y|t) <- sum_x p(y|x) p(x|t)
    p(t|x) <- p(t) * exp(-beta * KL(p(y|x) || p(y|t))) / Z(x)

(the plain map; Tishby, Pereira and Bialek 1999) until the encoder stops
moving. All reported quantities (R, I_Y, D_IB, L) are in bits. The exponent
uses the divergence in natural-log units, which is the same thing as a base-2
exponent on the bit-valued divergence, so the bit convention and the update
rule are mutually consistent.

Near a critical beta the plain map contracts slowly, so every solve adds
squared extrapolation in log-encoder space (SQUAREM; Varadhan and Roland 2008,
Scand. J. Stat. 35:335), kept only when L after one stabilizing plain step is
no higher than after two plain steps. L never increases under the plain map,
so it never increases along a solve. A solve converges when one plain step
moves the encoder by less than tol in max-abs, and returns that step's output;
`iterations` counts plain-map evaluations, stabilizing steps included. Solves
run in lockstep over a (B, X, T) encoder stack, at one beta or with one beta
per element, each one unaffected by the rest of its batch.

This is a local method (the problem is not convex); global behavior comes
from seeded restarts and from warm-started annealing in the curve module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEncoderError,
    DimensionError,
    InstanceTooLargeError,
)
from .prob import (
    PROB_TOL,
    ConditionalMatrix,
    DiscreteDistribution,
    JointDistribution,
    conditional_rows,
    entropy_bits,
    mi_bits,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
INIT_NOISE = 1e-2  # multiplicative noise that breaks the symmetric fixed point
LOG_FLOOR = 1e-300  # encoder entries are floored here before taking logs
STEP_BOUND = 4.0  # first and smallest SQUAREM step bound, and its growth factor

ORACLE_GUARD = 1_000_000  # max number of deterministic maps to enumerate


@dataclass(frozen=True)
class Encoder:
    """Soft assignment p(t|x) of input symbols to clusters."""

    p_t_given_x: ConditionalMatrix

    @property
    def matrix(self) -> np.ndarray:
        return self.p_t_given_x.p

    @property
    def x_card(self) -> int:
        return self.p_t_given_x.rows

    @property
    def t_card(self) -> int:
        return self.p_t_given_x.cols

    @classmethod
    def from_matrix(cls, m) -> "Encoder":
        return cls(ConditionalMatrix.from_matrix(m))

    @classmethod
    def uniform(cls, x_card: int, t_card: int) -> "Encoder":
        return cls.from_matrix(np.full((x_card, t_card), 1.0 / t_card))

    @classmethod
    def noisy_uniform(cls, x_card: int, t_card: int, seed: int,
                      noise: float = INIT_NOISE) -> "Encoder":
        """Uniform rows with seeded multiplicative noise, renormalized."""
        return cls.from_matrix(_perturb(np.full((x_card, t_card), 1.0 / t_card), seed, noise))

    @classmethod
    def from_assignment(cls, assignment, t_card: int) -> "Encoder":
        """Deterministic encoder mapping symbol i to cluster assignment[i]."""
        assignment = np.asarray(assignment, dtype=int)
        m = np.zeros((assignment.size, t_card))
        m[np.arange(assignment.size), assignment] = 1.0
        return cls.from_matrix(m)

    @classmethod
    def hard_blend(cls, assignment, t_card: int, eta: float = 1e-2) -> "Encoder":
        """Hard assignment blended with a uniform floor so no cluster is dead."""
        return cls.from_matrix(_hard_blend(assignment, t_card, eta))

    def perturbed(self, seed: int, noise: float) -> "Encoder":
        """Multiplicative seeded noise on the rows, renormalized."""
        return Encoder.from_matrix(_perturb(self.matrix, seed, noise))


def _perturb(m: np.ndarray, seed: int, noise: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = m * (1.0 + noise * rng.uniform(-1.0, 1.0, size=m.shape))
    return m / m.sum(axis=1, keepdims=True)


def _hard_blend(assignment, t_card: int, eta: float = 1e-2) -> np.ndarray:
    assignment = np.asarray(assignment, dtype=int)
    m = np.full((assignment.size, t_card), eta / t_card)
    m[np.arange(assignment.size), assignment] += 1.0 - eta
    return m


def _encoder_stack(ms) -> np.ndarray:
    """(B, X, T) stack of encoder matrices, checked once as a whole the way
    Encoder checks each one."""
    m = np.array(ms)
    if not (np.isfinite(m).all() and (m >= 0).all()
            and (np.abs(m.sum(axis=2) - 1.0) <= PROB_TOL).all()):
        raise ValueError("negative, non-finite or unnormalized encoder entry")
    return m


@dataclass(frozen=True)
class IBSolution:
    """Converged (or best-effort) solution at one beta.

    beta >= 0 is accepted: the zero-tradeoff limit is a legitimate query and
    collapses every row of the encoder onto the cluster marginal.
    """

    beta: float
    encoder: Encoder
    decoder: ConditionalMatrix
    marginal: DiscreteDistribution
    R: float
    I_Y: float
    D_IB: float
    L: float
    iterations: int
    converged: bool

    def __post_init__(self):
        scalars = ("beta", "R", "I_Y", "D_IB", "L")
        bad = [k for k in scalars if not math.isfinite(getattr(self, k))]
        if bad:
            raise ValueError(f"solution has non-finite {', '.join(bad)}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.R < 0 or self.I_Y < 0 or self.D_IB < 0:
            raise ValueError("information quantities must be nonnegative")
        if abs(self.L - (self.R - self.beta * self.I_Y)) > 1e-9:
            raise ValueError("objective does not satisfy L = R - beta * I_Y")

    @property
    def t_card(self) -> int:
        return self.encoder.t_card


# ---------------------------------------------------------------------------
# Update kernel, on (B, X, T) encoder stacks
# ---------------------------------------------------------------------------

def _distortion_nats(pygx: np.ndarray, dec: np.ndarray) -> np.ndarray:
    """d[b, x, t] = KL(p(y|x) || p(y|t)) in nats for a (B, T, Y) decoder
    stack; +inf where support is missed."""
    pos = pygx > 0
    h = (pygx * np.log(np.where(pos, pygx, 1.0))).sum(axis=1)  # sum_y p log p per row
    dec_pos = dec > 0
    d = h[:, None] - pygx @ np.log(np.where(dec_pos, dec, 1.0)).transpose(0, 2, 1)
    if not dec_pos.all():
        # a decoder zero under p(y|x) support makes the divergence infinite
        missed = pos.astype(float) @ (~dec_pos).transpose(0, 2, 1)
        d[missed > 0] = math.inf
    return d


def _decoder_from(px: np.ndarray, pygx: np.ndarray, enc: np.ndarray,
                  pt: np.ndarray) -> np.ndarray:
    """Bayes decoders p(y|t) from (B, T) marginals; zero-mass clusters decode
    a uniform mixture."""
    alive = (pt > 0)[:, None, :]
    pxgt = np.where(alive, enc * px[:, None] / np.where(alive, pt[:, None, :], 1.0),
                    1.0 / px.size)
    return pxgt.transpose(0, 2, 1) @ pygx


def _encoder_update(pygx: np.ndarray, pt: np.ndarray, dec: np.ndarray,
                    beta: float | np.ndarray) -> np.ndarray:
    """p(t|x) ~ p(t) exp(-beta KL(p(y|x) || p(y|t))) from (B, T) marginals and
    (B, T, Y) decoders, at one beta >= 0 or a (B, 1, 1) stack of positive
    betas; NaN rows where every cluster is at infinite divergence."""
    d = _distortion_nats(pygx, dec)
    with np.errstate(divide="ignore", invalid="ignore"):
        # beta = 0 must not turn an infinite divergence into 0 * inf = nan
        scaled = beta * d if isinstance(beta, np.ndarray) or beta > 0 else np.zeros_like(d)
        logw = np.log(pt)[:, None, :] - scaled
        w = np.exp(logw - logw.max(axis=2, keepdims=True))
        return w / w.sum(axis=2, keepdims=True)


def _step(px: np.ndarray, pygx: np.ndarray, enc: np.ndarray,
          beta: float | np.ndarray) -> np.ndarray:
    """One round of the three updates (the plain map) on every encoder."""
    pt = px @ enc
    new = _encoder_update(pygx, pt, _decoder_from(px, pygx, enc, pt), beta)
    bad = np.nonzero(np.isnan(new[:, :, 0]))[1]
    if bad.size:
        raise DegenerateEncoderError(
            f"every cluster is at infinite divergence for symbol x={bad[0]}")
    return new


def _objective(jp: np.ndarray, px: np.ndarray, enc: np.ndarray,
               beta: float | np.ndarray) -> np.ndarray:
    """L = I(X;T) - beta * I(T;Y) in nats, up to a constant, per encoder (at
    one beta, or one per encoder)."""
    def neg_h(p):  # sum p log p over the last two axes
        return (p * np.log(np.where(p > 0, p, 1.0))).sum(axis=(1, 2))

    return (neg_h(enc * px[:, None]) - (1.0 - beta) * neg_h((px @ enc)[:, None])
            - beta * neg_h(enc.transpose(0, 2, 1) @ jp))


def _extrapolate(e0, e1, e2, bound) -> tuple[np.ndarray, np.ndarray]:
    """SQUAREM point of two plain steps e0 -> e1 -> e2 in log-encoder space,
    and its step length alpha in [-bound, -1] (alpha = -1 gives e2)."""
    l0, l1, l2 = (np.log(np.maximum(e, LOG_FLOOR)) for e in (e0, e1, e2))
    r, v = l1 - l0, l2 - 2.0 * l1 + l0
    vv = (v * v).sum(axis=(1, 2))
    ratio = np.divide((r * r).sum(axis=(1, 2)), vv, out=np.zeros_like(vv), where=vv > 0)
    alpha = np.clip(-np.sqrt(ratio), -bound, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        lx = l0 - 2.0 * alpha[:, None, None] * r + (alpha**2)[:, None, None] * v
        w = np.exp(lx - lx.max(axis=2, keepdims=True))
        return w / w.sum(axis=2, keepdims=True), alpha


def ib_iterate_once(j: JointDistribution, e: Encoder, beta: float) -> Encoder:
    """Apply one round of the three updates and return the new encoder."""
    if e.x_card != j.x_card:
        raise DimensionError(
            f"encoder has {e.x_card} rows but the joint has {j.x_card} symbols"
        )
    px, pygx = conditional_rows(j.p)
    return Encoder.from_matrix(_step(px, pygx, e.matrix[None], beta)[0])


def _scalars(jp: np.ndarray, px: np.ndarray, enc: np.ndarray,
             beta: float) -> tuple[float, float, float, float]:
    R = mi_bits(enc * px[:, None])
    I_Y = mi_bits(enc.T @ jp)
    D_IB = max(0.0, mi_bits(jp) - I_Y)
    L = R - beta * I_Y
    return R, I_Y, D_IB, L


def solution_from_encoder(j: JointDistribution, e: Encoder, beta: float,
                          iterations: int = 0, converged: bool = True) -> IBSolution:
    """Package an encoder with its induced marginal, decoder and scalars."""
    px, pygx = conditional_rows(j.p)
    enc = e.matrix
    pt = px @ enc
    dec = _decoder_from(px, pygx, enc[None], pt[None])[0]
    R, I_Y, D_IB, L = _scalars(j.p, px, enc, beta)
    return IBSolution(
        beta=float(beta),
        encoder=e,
        decoder=ConditionalMatrix.from_matrix(dec),
        marginal=DiscreteDistribution(pt),
        R=R, I_Y=I_Y, D_IB=D_IB, L=L,
        iterations=iterations, converged=converged,
    )


def _check_query(t_card: int, beta: float, tol: float, max_iter: int) -> None:
    if t_card < 1:
        raise DimensionError(f"t_card must be >= 1, got {t_card}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def _lockstep(j: JointDistribution, enc: np.ndarray, beta: float | np.ndarray,
              tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve from every encoder of a (B, X, T) stack in lockstep, each element
    with its own SQUAREM step bound, and return every element's final
    encoder, map-evaluation count and converged flag.

    beta is one float for the whole stack or a (B,) array of positive betas,
    one per element; either way an element's trajectory is the one it follows
    when solved alone."""
    px, pygx = conditional_rows(j.p)
    out = np.array(enc)
    iters, conv = np.zeros(len(out), dtype=int), np.zeros(len(out), dtype=bool)
    live = np.arange(len(out))
    e0, bound = out[live], np.full(live.size, STEP_BOUND)
    evals = 0

    def live_betas():
        """The live elements' betas for the update and for L of [e3; e2]."""
        if isinstance(beta, np.ndarray):
            return beta[live][:, None, None], np.tile(beta[live], 2)
        return beta, beta

    kb, ob = live_betas()

    def settle(src, new, ok, *carried):
        """Count one map evaluation src -> new, retire the elements it moved
        less than tol (if ok) or all at the cap; return the rest of new, *carried."""
        nonlocal evals, live, kb, ob
        evals += 1
        done = ok & (np.max(np.abs(new - src), axis=(1, 2)) < tol)
        stop = done | (evals >= max_iter)
        if not stop.any():
            return new, *carried
        out[live[stop]], iters[live[stop]], conv[live[stop]] = new[stop], evals, done[stop]
        live = live[~stop]
        kb, ob = live_betas()
        return [a[~stop] for a in (new, *carried)]

    while live.size:
        e1, e0, bound = settle(e0, _step(px, pygx, e0, kb), True, e0, bound)
        if live.size:
            e2, e1, e0, bound = settle(e1, _step(px, pygx, e1, kb), True, e1, e0, bound)
        if live.size:
            # the jump stands only if, after one stabilizing plain step, L is
            # no higher than after the second plain step; a degenerate point
            # (NaN rows, NaN L) fails
            ex, alpha = _extrapolate(e0, e1, e2, bound)
            pt = px @ ex
            e3 = _encoder_update(pygx, pt, _decoder_from(px, pygx, ex, pt), kb)
            L = _objective(j.p, px, np.concatenate([e3, e2]), ob)
            ok = L[:live.size] <= L[live.size:]
            grown = np.where(alpha == -bound, bound * STEP_BOUND, bound)
            bound = np.where(ok, grown, np.maximum(bound / STEP_BOUND, STEP_BOUND))
            e0, bound = settle(ex, np.where(ok[:, None, None], e3, e2), ok, bound)
    return out, iters, conv


def _pick(j: JointDistribution, t_card: int, beta: float, enc: np.ndarray,
          iters: np.ndarray, conv: np.ndarray) -> IBSolution:
    """The best of a stack of solutions at one beta: smallest L, ties to
    smaller R, then to the earlier element."""
    px = j.p.sum(axis=1)
    keys = [(r - beta * i_y, r) for r, i_y in  # (L, R) exactly as each solution has them
            ((mi_bits(e * px[:, None]), mi_bits(e.T @ j.p)) for e in enc)]
    b = keys.index(min(keys))
    sol = solution_from_encoder(j, Encoder.from_matrix(enc[b]), beta,
                                iterations=int(iters[b]), converged=bool(conv[b]))
    i_xy, r_max = mi_bits(j.p), min(entropy_bits(px), math.log2(t_card))
    if sol.I_Y > i_xy + 1e-9 or sol.R > r_max + 1e-9:
        raise ValueError(f"solution breaks I_Y <= I(X;Y) = {i_xy} or "
                         f"R <= {r_max}: I_Y = {sol.I_Y}, R = {sol.R}")
    return sol


def ib_solve(j: JointDistribution, t_card: int, beta: float,
             init: Encoder | None = None, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> IBSolution:
    """Solve from init (default: seeded noisy-uniform) until one plain step
    moves the encoder less than tol in max-abs, or max_iter map evaluations
    elapse."""
    _check_query(t_card, beta, tol, max_iter)
    if init is not None and (init.x_card, init.t_card) != (j.x_card, t_card):
        raise DimensionError("init encoder shape does not match (x_card, t_card)")
    enc = _restart_inits(j.x_card, t_card, [(0, seed)]) if init is None else init.matrix[None]
    return _pick(j, t_card, beta, *_lockstep(j, enc, beta, tol, max_iter))


def _restart_inits(x_card: int, t_card: int, restarts) -> np.ndarray:
    """(B, X, T) stack of the inits of (restart r, seed) pairs: seeded
    noisy-uniform for even r.

    Noisy-uniform inits alone can miss the fine-split basin just past a
    transition (the symmetric fixed point's basin shrinks to nothing there),
    so odd restarts seed blended hard partitions instead: the maximal
    partition first, then random assignments.
    """
    def init(r, seed):
        if r % 2 == 0 or t_card < 2:
            return _perturb(np.full((x_card, t_card), 1.0 / t_card), seed, INIT_NOISE)
        if r == 1:
            return _hard_blend(np.arange(x_card) % t_card, t_card)
        return _hard_blend(np.random.default_rng(seed).integers(0, t_card, size=x_card), t_card)

    return _encoder_stack([init(r, seed) for r, seed in restarts])


def ib_solve_multistart(j: JointDistribution, t_card: int, beta: float,
                        restarts: int = 20, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> IBSolution:
    """Best of `restarts` seeded solves over a diversified init family, run
    as one batch; smallest L wins, ties go to smaller R."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_query(t_card, beta, tol, max_iter)
    inits = _restart_inits(j.x_card, t_card, [(r, seed + r) for r in range(restarts)])
    return _pick(j, t_card, beta, *_lockstep(j, inits, beta, tol, max_iter))


def self_consistency_residual(j: JointDistribution, sol: IBSolution) -> float:
    """Max-abs gap between each stored quantity and its recomputation from
    the other two stored quantities."""
    if sol.encoder.x_card != j.x_card:
        raise DimensionError("solution encoder does not match the joint")
    px, pygx = conditional_rows(j.p)
    enc = sol.encoder.matrix
    pt = sol.marginal.p
    dec = sol.decoder.p

    pt_re = px @ enc
    dec_re = _decoder_from(px, pygx, enc[None], pt_re[None])[0]
    enc_re = _encoder_update(pygx, pt[None], dec[None], sol.beta)[0]
    if np.isnan(enc_re).any():
        raise DegenerateEncoderError("stored marginal/decoder normalize to zero")

    return float(max(
        np.max(np.abs(pt_re - pt)),
        np.max(np.abs(dec_re - dec)),
        np.max(np.abs(enc_re - enc)),
    ))


def exhaustive_deterministic_oracle(j: JointDistribution, t_card: int,
                                    beta: float) -> tuple[Encoder, float]:
    """Enumerate all deterministic maps X -> T and return the one minimizing
    L = R - beta * I_Y, with its objective value.

    Independent of the iterative solver: rate and relevance come straight
    from the pushforward of the joint under each map.
    """
    if t_card < 1:
        raise DimensionError(f"t_card must be >= 1, got {t_card}")
    n_maps = t_card ** j.x_card
    if n_maps > ORACLE_GUARD:
        raise InstanceTooLargeError(
            f"{t_card}^{j.x_card} = {n_maps} deterministic maps exceeds the "
            f"guard of {ORACLE_GUARD}"
        )
    px = j.p.sum(axis=1)
    best_key = None
    best_assign = None
    for assign in itertools.product(range(t_card), repeat=j.x_card):
        a = np.asarray(assign, dtype=int)
        pt = np.bincount(a, weights=px, minlength=t_card)
        pty = np.zeros((t_card, j.y_card))
        np.add.at(pty, a, j.p)
        R = entropy_bits(pt)  # I(X;T) = H(T) for a deterministic map
        I_Y = mi_bits(pty)
        L = R - beta * I_Y
        key = (L, R)
        if best_key is None or key < best_key:
            best_key = key
            best_assign = a
    return Encoder.from_assignment(best_assign, t_card), best_key[0]
