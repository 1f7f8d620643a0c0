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

One map evaluation is a few array operations on a (B, X, T) stack of
encoders: p(t) = p(x) @ p(t|x), the decoder (p(t|x)^T @ p(x,y)) / p(t), and
the new encoder as the row-normalized exp of log p(t) + beta * p(y|x) @
log p(y|t)^T. That drops the row term sum_y p(y|x) log p(y|x) of the
divergence: it does not depend on t, so it cancels in the normalization. A
decoder zero under p(y|x)'s support gives log 0 = -inf there, which is the
zero weight an infinite divergence gives. A symbol with p(x) = 0 has a zero
p(y|x) row (see `prob`) and so no relevance term: its new row is p(t), on
either path. The formula breaks down (a NaN row) only for an element with a
zero-mass cluster (0/0 in its decoder), a decoder zero facing a zero of some
p(y|x) (0 * log 0; a y that no p(y|x) supports would do this in every
element, so a solve drops its column, which adds nothing to any term; a
zero row does it in every element with a decoder zero), or such a -inf at
beta = 0. Those elements alone go down a guarded path, which sums the
divergence over p(y|x)'s support only, makes it infinite where a decoder
misses that support, and gives zero-mass clusters no weight. The choice is
made from each element alone, so no element's result depends on the rest of
its batch.

Near a critical beta the plain map contracts slowly, so every solve adds
squared extrapolation in log-encoder space (SQUAREM; Varadhan and Roland 2008,
Scand. J. Stat. 35:335), kept only when L after one stabilizing plain step is
no higher than after two plain steps. L never increases under the plain map,
so it never increases along a solve. A solve converges when one plain step
moves the encoder by less than tol in max-abs, and returns that step's output;
`iterations` counts plain-map evaluations, stabilizing steps included. Solves
run in lockstep over a (B, X, T) encoder stack with one beta per element,
each one unaffected by the rest of its batch. A round computes each encoder's
p(t) and p(t, y) once, and the pick keeps the R and I_Y its batch was ranked by.

This is a local method (the problem is not convex); global behavior comes
from seeded restarts and from the warm-started neighbour passes of the curve
module.

A query pays its fixed costs once. The seeded init stack of
`ib_solve_multistart`, and of `ib_solve`'s default init (one restart), depends
only on (x_card, t_card, restarts, seed); it is built once per key, kept
read-only in an LRU memo of INIT_MEMO_SIZE stacks and shared by every query
with that key. The joint's p(x), p(y|x), I(X;Y) and H(X) are computed once
per JointDistribution object (see `prob`). `prob._check_table` checks
every encoder, init stack, cluster marginal and decoder, and
`_check_tradeoff_point` IBSolution and a CurvePoint; `_field_faults` with
`_raise_first` check whole columns of the curve and bound tables by the
same rules, naming the first bad row. An IBSolution is its joint, beta and
encoder (with the solve's iteration count and converged flag): R, I_Y,
D_IB, L and the read-only arrays p(t) and p(y|t) are computed from them on
read and not stored, and a file's copies are checked against them by the
solution reader.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InstanceTooLargeError
from .prob import JointDistribution, _check_table, mi_bits_stack, pushforward_bits

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
INIT_NOISE = 1e-2  # multiplicative noise that breaks the symmetric fixed point
BLEND_FLOOR = 1e-2  # uniform mass blended into a hard-partition init
LOG_FLOOR = 1e-300  # encoder entries are floored here before taking logs
STEP_BOUND = 4.0  # first and smallest SQUAREM step bound, and its growth factor

ORACLE_GUARD = 1_000_000  # max number of deterministic maps to enumerate
ORACLE_BLOCK = 4_096  # maps the oracle pushes the joint through at once
INIT_MEMO_SIZE = 64  # restart-init stacks kept, one per (x_card, t_card, restarts, seed)


@dataclass(frozen=True, eq=False)
class Encoder:
    """Soft assignment p(t|x) of input symbols to clusters: a row-stochastic
    matrix, one row per input symbol and one column per cluster."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_table(self.matrix, "Encoder", 2, rows=True))

    x_card = property(lambda self: self.matrix.shape[0])
    t_card = property(lambda self: self.matrix.shape[1])

    @classmethod
    def noisy_uniform(cls, x_card: int, t_card: int, seed: int,
                      noise: float = INIT_NOISE) -> "Encoder":
        """Uniform rows with seeded multiplicative noise, renormalized."""
        return cls(_perturb(np.full((x_card, t_card), 1.0 / t_card), seed, noise))

    @classmethod
    def from_assignment(cls, assignment, t_card: int) -> "Encoder":
        """Deterministic encoder mapping symbol i to cluster assignment[i]."""
        assignment = np.asarray(assignment, dtype=int)
        m = np.zeros((assignment.size, t_card))
        m[np.arange(assignment.size), assignment] = 1.0
        return cls(m)


def _perturb(m: np.ndarray, seed, noise: float) -> np.ndarray:
    """Seeded noise on m, rows renormalized; a (B, X, T) stack takes one seed per element."""
    u = [np.random.default_rng(s).uniform(-1.0, 1.0, size=m.shape[-2:])
         for s in (seed if m.ndim == 3 else [seed])]
    m = m * (1.0 + noise * np.reshape(u, m.shape))
    return m / m.sum(axis=-1, keepdims=True)


def _hard_blend(assignment, t_card: int) -> np.ndarray:
    """Hard assignment blended with a uniform floor so no cluster is dead."""
    assignment = np.asarray(assignment, dtype=int)
    m = np.full((assignment.size, t_card), BLEND_FLOOR / t_card)
    m[np.arange(assignment.size), assignment] += 1.0 - BLEND_FLOOR
    return m


def _encoder_stack(ms) -> np.ndarray:
    """Read-only (B, X, T) stack of encoders, checked as a whole as Encoder checks one."""
    return _check_table(ms, "encoder stack", 3, rows=True)


def _check_encoder(j: JointDistribution, e: Encoder, t_card: int | None = None) -> None:
    """An encoder used with j has one row per symbol of X (and t_card columns, if given)."""
    want = (j.x_card, e.t_card if t_card is None else t_card)
    if (e.x_card, e.t_card) != want:
        raise DimensionError(f"encoder has shape {(e.x_card, e.t_card)}, not {want}")


def _check_fields(record, what: str, names) -> None:
    """Every named field of record is finite and >= 0; a ValueError names
    the record and the first field that is not."""
    for k in names:
        v = getattr(record, k)
        if not 0 <= v < math.inf:  # NaN fails too
            raise ValueError(f"{what} has {'negative' if math.isfinite(v) else 'non-finite'} {k}")


def _field_faults(what: str, **columns) -> list:
    """`_check_fields` on columns: one check per column, as `_raise_first` takes them."""
    return [(~((0 <= v) & (v < math.inf)), lambda i, k=k, v=v:
             f"{what} has {'negative' if math.isfinite(v[i]) else 'non-finite'} {k}")
            for k, v in columns.items()]


def _raise_first(faults, where=lambda i: "") -> None:
    """A ValueError for the first row that a check flags, with where(row) and
    the message of the first check that flags it: faults are (mask, message)
    pairs in the order one row's checks run, message a function of the row."""
    hit = min(((int(m.argmax()), k) for k, (m, _) in enumerate(faults) if m.any()), default=None)
    if hit:
        raise ValueError(where(hit[0]) + faults[hit[1]][1](hit[0]))


def _check_tradeoff_point(point, what: str, *more) -> None:
    """The rules every point of the tradeoff keeps: beta, R, I_Y and D_IB, then
    the fields named in more, finite and >= 0, and L (`_lagrangian`) finite."""
    _check_fields(point, what, ("beta", "R", "I_Y", "D_IB", *more))
    if not math.isfinite(point.L):  # beta * I_Y can overflow
        raise ValueError(f"{what} has non-finite L")


# the tradeoff L = R - beta * I_Y of IBSolution and CurvePoint, computed on read
_lagrangian = property(lambda self: self.R - self.beta * self.I_Y)


@dataclass(frozen=True, eq=False)
class IBSolution:
    """Converged (or best-effort) solution at one beta: the encoder p(t|x) on
    the joint, with R, I_Y (read once, through `_info_bits`), D_IB, L, the
    marginal p(t) and the decoder p(y|t) (read once, through `_decoder`, as
    checked read-only arrays) computed from it.

    beta >= 0 is accepted: the zero-tradeoff limit is a legitimate query and
    collapses every row of the encoder onto the cluster marginal.
    """

    joint: JointDistribution
    beta: float
    encoder: Encoder
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        _check_encoder(self.joint, self.encoder)
        _check_tradeoff_point(self, "solution", "iterations")

    @functools.cached_property
    def _bits(self) -> tuple[float, float]:
        R, I_Y = _info_bits(self.joint, self.encoder.matrix[None])
        return float(R[0]), float(I_Y[0])

    @functools.cached_property
    def _decoded(self) -> tuple[np.ndarray, np.ndarray]:
        pt, dec = _decoder(self.joint, self.encoder.matrix)
        return _check_table(pt, "cluster marginal", 1), _check_table(dec, "decoder", 2, rows=True)

    R = property(lambda self: self._bits[0])
    I_Y = property(lambda self: self._bits[1])
    D_IB = property(lambda self: max(0.0, self.joint.i_xy - self.I_Y))
    L = _lagrangian
    marginal = property(lambda self: self._decoded[0])
    decoder = property(lambda self: self._decoded[1])


# ---------------------------------------------------------------------------
# Update kernel, on (B, X, T) encoder stacks; callers hold np.errstate(**_QUIET)
# ---------------------------------------------------------------------------

# log 0 and 0/0 mark zero-mass clusters and missed supports, which the kernel
# handles; a rejected extrapolation may overflow exp
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def _softmax(z: np.ndarray) -> np.ndarray:
    """exp(z) normalized over the last axis, computed in z's buffer; NaN rows
    where z's max is not finite."""
    z -= np.maximum.reduce(z, axis=2, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=2, keepdims=True)
    return z


def _guarded(pygx: np.ndarray, dec: np.ndarray, pt: np.ndarray,
             beta: float | np.ndarray) -> np.ndarray:
    """log p(t) + beta sum_y p(y|x) log p(y|t) for (B, T) marginals and
    (B, T, Y) decoders (NaN rows for zero-mass clusters), the sum taken over
    p(y|x)'s support (empty, so log p(t) alone, for a zero row), -inf where
    a decoder misses that support, and no beta term at beta = 0:
    -beta KL(p(y|x) || p(y|t)) up to its row term."""
    dec_pos = dec > 0
    s = pygx @ np.log(np.where(dec_pos, dec, 1.0)).transpose(0, 2, 1)
    s[(pygx > 0).astype(float) @ (~dec_pos).transpose(0, 2, 1) > 0] = -math.inf
    return np.log(pt)[:, None, :] + (beta * s if np.any(beta) else 0.0)


def _map(px: np.ndarray, pygx: np.ndarray, jp: np.ndarray, enc: np.ndarray,
         beta: float | np.ndarray, pt=None, pty=None) -> np.ndarray:
    """One plain map on every encoder of a (B, X, T) stack, at one beta >= 0
    or a (B, 1, 1) stack of betas, all positive or all zero, as the module
    docstring describes, from enc's p(t) and p(t, y) if given. A NaN row is one
    where p(x, y) p(t|x) underflows to 0 everywhere; the Encoder check rejects it."""
    pt, pty = (px @ enc, enc.transpose(0, 2, 1) @ jp) if pt is None else (pt, pty)
    dec = pty / pt[:, :, None]
    new = _softmax(np.log(pt)[:, None, :] + beta * (pygx @ np.log(dec).transpose(0, 2, 1)))
    if math.isnan(np.add.reduce(new[:, :, 0], axis=None)):  # NaN rows are NaN throughout
        g = np.isnan(new[:, :, 0]).any(axis=1)
        new[g] = _softmax(_guarded(pygx, dec[g], pt[g], beta[g] if np.ndim(beta) else beta))
    return new


def _objective(jp: np.ndarray, px: np.ndarray, enc: np.ndarray,
               beta: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """L = I(X;T) - beta * I(T;Y) in nats, up to a constant, per encoder, from the
    pair (beta, 1 - beta) of per-encoder arrays, and the p(t) and p(t, y) it used."""
    def neg_h(p):  # sum p log p over the last two axes
        return np.add.reduce(p * np.log(np.where(p > 0, p, 1.0)), axis=(1, 2))

    pt, pty = px @ enc, enc.transpose(0, 2, 1) @ jp
    return neg_h(enc * px[:, None]) - beta[1] * neg_h(pt[:, None]) - beta[0] * neg_h(pty), pt, pty


def _extrapolate(e0, e1, e2, bound) -> tuple[np.ndarray, np.ndarray]:
    """SQUAREM point of two plain steps e0 -> e1 -> e2 in log-encoder space,
    and its step length alpha in [-bound, -1] (alpha = -1 gives e2)."""
    l0, l1, l2 = np.log(np.maximum(np.concatenate((e0, e1, e2)), LOG_FLOOR)).reshape(3, *e0.shape)
    r, v = l1 - l0, l2 - 2.0 * l1 + l0
    vv = np.add.reduce(v * v, axis=(1, 2))
    ratio = np.divide(np.add.reduce(r * r, axis=(1, 2)), vv, out=np.zeros(len(vv)), where=vv > 0)
    alpha = np.minimum(np.maximum(-np.sqrt(ratio), -bound), -1.0)
    return _softmax(l0 - 2.0 * alpha[:, None, None] * r + (alpha**2)[:, None, None] * v), alpha


def ib_iterate_once(j: JointDistribution, e: Encoder, beta: float) -> Encoder:
    """Apply one round of the three updates and return the new encoder."""
    _check_encoder(j, e)
    with np.errstate(**_QUIET):
        return Encoder(_map(j.px, j.pygx, j.p, e.matrix[None], beta)[0])


def _info_bits(j: JointDistribution, enc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, I_Y) = (I(X;T), I(T;Y)) in bits of every encoder of a (B, X, T) stack."""
    return mi_bits_stack(enc * j.px[:, None]), mi_bits_stack(enc.transpose(0, 2, 1) @ j.p)


def _decoder(j: JointDistribution, enc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(t) and the decoder p(y|t) of one encoder, or of each of a stack; a
    zero-mass cluster decodes the mean p(y|x) over the observed x (p(x) > 0),
    so every decoder row sums to 1."""
    pt = j.px @ enc
    live = pt > 0
    dec = np.swapaxes(enc, -1, -2) @ j.p / np.where(live, pt, 1.0)[..., None]
    return pt, np.where(live[..., None], dec, j.pygx[j.px > 0].mean(axis=0))


def _check_query(t_card: int, beta: float, tol: float, max_iter: int) -> None:
    if t_card < 1:
        raise DimensionError(f"t_card must be >= 1, got {t_card}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def _lockstep(j: JointDistribution, enc: np.ndarray, beta: np.ndarray,
              tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve from every encoder of a (B, X, T) stack in lockstep, each element
    at its own beta of the (B,) array beta and with its own SQUAREM step
    bound, and return every element's final encoder, map-evaluation count
    and converged flag. An element's trajectory is the one it follows when
    solved alone."""
    px, pygx, jp = j.px, j.pygx, j.p
    if not (seen := jp.any(axis=0)).all():  # an unseen y only sends every map down `_guarded`
        pygx, jp = pygx[:, seen], jp[:, seen]
    out = np.array(enc)
    iters, conv = np.zeros(len(out), dtype=int), np.zeros(len(out), dtype=bool)
    live = np.arange(len(out))
    e0, bound = out[live], np.full(live.size, STEP_BOUND)
    evals, pt, pty = 0, None, None  # pt, pty: e0's p(t) and p(t, y), once `_objective` has them
    # the live elements' betas for the update, and betas and 1 - betas for L of [e3; e2]
    kb, ob = beta[:, None, None], np.concatenate((beta, beta))
    ob = ob, 1.0 - ob

    def settle(src, new, ok, *carried):
        """Count one map evaluation src -> new, retire the elements it moved
        less than tol (and ok, if given) or all at the cap; return the rest of new, *carried."""
        nonlocal evals, live, kb, ob
        evals += 1
        done = np.maximum.reduce(np.abs(new - src), axis=(1, 2)) < tol
        done = done if ok is None else done & ok
        stop = done if evals < max_iter else np.ones(len(done), dtype=bool)
        if not stop.any():
            return new, *carried
        out[live[stop]], iters[live[stop]], conv[live[stop]] = new[stop], evals, done[stop]
        live = live[~stop]
        kb, ob = beta[live, None, None], np.concatenate((beta[live],) * 2)
        ob = ob, 1.0 - ob
        return [a[~stop] for a in (new, *carried)]

    with np.errstate(**_QUIET):
        while live.size:
            e1, e0, bound = settle(e0, _map(px, pygx, jp, e0, kb, pt, pty), None, e0, bound)
            if live.size:
                e2, e1, e0, bound = settle(e1, _map(px, pygx, jp, e1, kb), None, e1, e0, bound)
            if live.size:
                # the jump stands only if, after one stabilizing plain step, L
                # is no higher than after the second plain step; a degenerate
                # point (NaN rows, NaN L) fails
                ex, alpha = _extrapolate(e0, e1, e2, bound)
                e3 = _map(px, pygx, jp, ex, kb)
                L, pt, pty = _objective(jp, px, np.concatenate([e3, e2]), ob)
                ok = L[:live.size] <= L[live.size:]
                grown = np.where(alpha == -bound, bound * STEP_BOUND, bound)
                bound = np.where(ok, grown, np.maximum(bound / STEP_BOUND, STEP_BOUND))
                k, n = ok[:, None, None], live.size  # e3 or e2, with its p(t) and p(t, y)
                e0, pt, pty, bound = settle(ex, np.where(k, e3, e2), ok, np.where(
                    k[:, 0], pt[:n], pt[n:]), np.where(k, pty[:n], pty[n:]), bound)
    return out, iters, conv


def _winners(j: JointDistribution, t_card: int, beta: float | np.ndarray, enc: np.ndarray,
             groups: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each group's best (smallest L, then smaller R, then earlier), as indices in ascending
    group order, and every R, I_Y, L; winners must keep I_Y <= I(X;Y), R <= min(H(X), log T)."""
    R, I_Y = _info_bits(j, enc)
    with np.errstate(over="ignore"):  # the solution's check rejects a non-finite L
        L = R - beta * I_Y
    order = np.lexsort((R, L, groups))
    g = groups[order]
    win = order[np.concatenate(([True], g[1:] != g[:-1]))]
    i_xy, r_max = j.i_xy, min(j.h_x, math.log2(t_card))
    bad = win[(I_Y[win] > i_xy + 1e-9) | (R[win] > r_max + 1e-9)]
    if bad.size:
        raise ValueError(f"solution breaks I_Y <= I(X;Y) = {i_xy} or "
                         f"R <= {r_max}: I_Y = {I_Y[bad[0]]}, R = {R[bad[0]]}")
    return win, R, I_Y, L


def _pick(j: JointDistribution, t_card: int, beta: float, enc: np.ndarray,
          iters: np.ndarray, conv: np.ndarray) -> IBSolution:
    """The best of a stack of solutions at one beta as `_winners` ranks them, with its R and I_Y."""
    (b,), R, I_Y, _ = _winners(j, t_card, beta, enc, np.zeros(len(enc), dtype=int))
    sol = IBSolution.__new__(IBSolution)
    sol.__dict__["_bits"] = float(R[b]), float(I_Y[b])  # cached before the checks read it
    sol.__init__(j, float(beta), Encoder(enc[b]), int(iters[b]), bool(conv[b]))
    return sol


def ib_solve(j: JointDistribution, t_card: int, beta: float,
             init: Encoder | None = None, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> IBSolution:
    """Solve from init (default: seeded noisy-uniform) until one plain step
    moves the encoder less than tol in max-abs, or max_iter map evaluations
    elapse."""
    _check_query(t_card, beta, tol, max_iter)
    if init is not None:
        _check_encoder(j, init, t_card)
    enc = _multistart_inits(j.x_card, t_card, 1, seed) if init is None else init.matrix[None]
    return _pick(j, t_card, beta, *_lockstep(j, enc, np.full(1, beta), tol, max_iter))


def _restart_inits(x_card: int, t_card: int, restarts) -> np.ndarray:
    """(B, X, T) stack of the inits of (restart r, seed) pairs: seeded
    noisy-uniform for even r.

    Noisy-uniform inits alone can miss the fine-split basin just past a
    transition (the symmetric fixed point's basin shrinks to nothing there),
    so odd restarts seed blended hard partitions instead: the maximal
    partition first, then random assignments.
    """
    noisy = np.array([r % 2 == 0 or t_card < 2 for r, _ in restarts], dtype=bool)
    m = np.full((len(restarts), x_card, t_card), 1.0 / t_card)
    m[noisy] = _perturb(m[noisy], [s for (_, s), k in zip(restarts, noisy) if k], INIT_NOISE)
    for i, (r, seed) in enumerate(restarts):
        if not noisy[i]:
            m[i] = _hard_blend(np.arange(x_card) % t_card if r == 1 else
                               np.random.default_rng(seed).integers(0, t_card, size=x_card), t_card)
    return m


# typed: a float seed equal to a cached int one must still raise, as it does cold
@functools.lru_cache(maxsize=INIT_MEMO_SIZE, typed=True)
def _multistart_inits(x_card: int, t_card: int, restarts: int, seed: int) -> np.ndarray:
    """The read-only init stack of restarts (r, seed + r), r < restarts, built
    once per key: it depends on nothing else, and every query reuses it."""
    return _encoder_stack(_restart_inits(x_card, t_card,
                                         [(r, seed + r) for r in range(restarts)]))


def ib_solve_multistart(j: JointDistribution, t_card: int, beta: float,
                        restarts: int = 20, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> IBSolution:
    """Best of `restarts` seeded solves over a diversified init family, run
    as one batch; smallest L wins, ties go to smaller R."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_query(t_card, beta, tol, max_iter)
    inits = _multistart_inits(j.x_card, t_card, restarts, seed)
    return _pick(j, t_card, beta, *_lockstep(j, inits, np.full(restarts, beta), tol, max_iter))


def self_consistency_residual(sol: IBSolution) -> float:
    """Max-abs gap between the encoder and its image under one plain map."""
    j, enc = sol.joint, sol.encoder.matrix
    with np.errstate(**_QUIET):
        return float(np.max(np.abs(_map(j.px, j.pygx, j.p, enc[None], sol.beta)[0] - enc)))


def exhaustive_deterministic_oracle(j: JointDistribution, t_card: int,
                                    beta: float) -> tuple[Encoder, float]:
    """Enumerate all deterministic maps X -> T and return the one minimizing
    L = R - beta * I_Y, with its objective value; ties go to the smaller R,
    then to the earlier map.

    Map m sends x to digit x of m in base t_card, most significant first:
    the order of itertools.product. Independent of the iterative solver:
    `prob.pushforward_bits` gives each map's rate and relevance, ORACLE_BLOCK
    maps at a time, so memory stays bounded up to ORACLE_GUARD maps.
    """
    if t_card < 1:
        raise DimensionError(f"t_card must be >= 1, got {t_card}")
    n_maps = t_card ** j.x_card
    if n_maps > ORACLE_GUARD:
        raise InstanceTooLargeError(
            f"{t_card}^{j.x_card} = {n_maps} deterministic maps exceeds the "
            f"guard of {ORACLE_GUARD}"
        )
    place = t_card ** np.arange(j.x_card - 1, -1, -1)
    blocks = [pushforward_bits(j, np.arange(m, min(m + ORACLE_BLOCK, n_maps))[:, None]
                               // place % t_card) for m in range(0, n_maps, ORACLE_BLOCK)]
    R, I_Y = (np.concatenate(a) for a in zip(*blocks))
    L = R - beta * I_Y
    best = np.lexsort((R, L))[0]  # stable: the earliest of equal (L, R)
    return Encoder.from_assignment(best // place % t_card, t_card), float(L[best])
