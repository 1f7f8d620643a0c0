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
no higher than after two plain steps. Where even that crawls, in an element
still running after NEWTON_AFTER evaluations whose SQUAREM ratio |r|^2/|v|^2
is above NEWTON_RATIO (contraction rho > 0.99), the round takes the Newton
point of G(u) = map(u) - u from its second plain step in place of the
extrapolated point: the corrector of predictor-corrector continuation
(Allgower and Georg 1990, Numerical Continuation Methods), without the
predictor. u is the centered log-encoder (l minus its row mean), along whose
row constants J - I has eigenvalue -1, so no simplex projection is needed.
The Jacobian J comes from central differences in one batched map, so Newton
runs only up to NEWTON_MAX_COORDS coordinates X T. The step solves on the
live clusters' coordinates by least squares, since a duplicated cluster pair
adds an eigenvalue of exactly 1. The point is used only if it is finite and
J has no eigenvalue at or above 1 + NEWTON_NEUTRAL (the differences' error on
that exact 1), which would mark a saddle; the same L test then keeps it or
not. An element whose try fails waits as many evaluations as it has run
before it tries again. L never increases under the plain map, so it never
increases along a solve. A solve converges when one
plain step moves the encoder by less than tol in max-abs, and returns that
step's output; `iterations` counts the plain-map evaluations of its
trajectory, stabilizing steps included, and not the Jacobian's. Solves run in
lockstep over a (B, X, T) encoder stack with one beta per element, each one
unaffected by the rest of its batch. A round computes each encoder's p(t) and
p(t, y) once, and the pick keeps the R and I_Y its batch was ranked by.

This is a local method (the problem is not convex); global behavior comes
from seeded restarts and from the warm-started neighbour passes of the curve
module. Their noise is numpy's default_rng(seed).uniform(-1, 1), computed bit
for bit for a whole batch of seeds at once (`_noise`) and pinned to numpy by tests.

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
import operator
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
NEWTON_AFTER = 30  # evaluations before an element's first Newton try
NEWTON_RATIO = 1e4  # SQUAREM ratio |r|^2 / |v|^2 above which (rho > 0.99) Newton tries
NEWTON_H = 1e-5  # central-difference step of the Newton Jacobian
NEWTON_LIVE = 1e-12  # cluster mass at or below which Newton holds a cluster's coordinates
NEWTON_RCOND = 1e-9  # least-squares cutoff: a duplicated cluster pair makes J - I singular
NEWTON_NEUTRAL = 1e-9  # how far above 1 central differences put that pair's eigenvalue 1
NEWTON_MAX_COORDS = 64  # X * T above which SQUAREM runs alone: J has (X T)^2 entries

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
    m = m * (1.0 + noise * _noise(seed if m.ndim == 3 else [seed], m.shape[-2:]).reshape(m.shape))
    return m / m.sum(axis=-1, keepdims=True)


_M32, _PCG_A = 2**32 - 1, 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's multiplier A
# the hashmix call with which pool word s mixes into word d (d = s: a spare, unused)
_MIX_K = np.array([[4 + 3 * s + d - (d >= s) for d in range(4)] for s in range(4)])


def _words(seed) -> np.ndarray:
    """SeedSequence's (1, W) uint32 entropy of one seed, least significant word first."""
    if (seed := operator.index(seed)) < 0:  # a non-integer raises TypeError, as in numpy
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.array([[seed >> s & _M32 for s in range(0, seed.bit_length() or 1, 32)]], np.uint32)


def _seed_states(words: np.ndarray, n_words: int) -> np.ndarray:
    """numpy's SeedSequence(row).generate_state(n_words) for every row of a (B,
    W) uint32 entropy array: O'Neill's seed_seq hash (PCG report HMC-CS-2014-0905),
    whose constants do not depend on the data, so each hashmix runs on columns."""
    def hashmix(v, k, h):  # hashmix calls k of the constants h
        v = (v ^ h[:-1][k]) * h[1:][k]
        return v ^ v >> 16

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    w = words.shape[1]
    h = np.uint32(0x931E8875) ** np.arange(4 * max(w, 4) + 1, dtype=np.uint32) * 0x43B0D7E5
    pool = np.zeros((len(words), 4), np.uint32)
    pool[:, :w] = words[:, :4]  # a short entropy hashes zeros into the rest of the pool
    pool = hashmix(pool, np.s_[:4], h)
    for s, k in enumerate(_MIX_K):  # each word of the pool mixes into the other three
        mixed = mix(pool, hashmix(pool[:, s, None], k, h))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for i in range(4, w):  # each word past the pool mixes into all four
        pool = mix(pool, hashmix(words[:, i, None], np.s_[4 * i:4 * i + 4], h))
    h = np.uint32(0x58F38DED) ** np.arange(n_words + 1, dtype=np.uint32) * 0x8B51F9DD
    return hashmix(pool[:, np.arange(n_words) % 4], np.s_[:], h)


@functools.lru_cache(maxsize=INIT_MEMO_SIZE)
def _pcg_jumps(k: int) -> np.ndarray:
    """(2, 3, k) uint64 limbs (high, low) of A^n, 2 D_n and D_n mod 2^128 for
    n = 2 .. k + 1: A is PCG64's multiplier and D_n = A^n + sum_{j<n} A^j."""
    a, c, rows = _PCG_A, 1, []
    for _ in range(k):
        a, c = a * _PCG_A % 2**128, (c * _PCG_A + 1) % 2**128
        rows += [a, 2 * (a + c) % 2**128, (a + c) % 2**128]
    limbs = np.array([[x >> 64 for x in rows], [x % 2**64 for x in rows]], np.uint64)
    return limbs.reshape(2, k, 3).swapaxes(1, 2)


def _noise(seeds, shape) -> np.ndarray:
    """default_rng(s).uniform(-1.0, 1.0, shape) for every seed s, bit for bit, as
    one (B, *shape) array; a bad seed raises what numpy raises. PCG64 is the LCG
    x -> A x + inc mod 2^128. From SeedSequence(s).generate_state(4, uint64) =
    (s0, s1, s2, s3) it takes inc = 2 (s2:s3) + 1 and x = A (inc + (s0:s1)) + inc,
    and it steps before each draw, so draw k's state is A^n (s0:s1) + 2 D_n
    (s2:s3) + D_n with n = k + 2 (`_pcg_jumps`; Brown 1994, Trans. Am. Nucl. Soc.
    71:202). Its XSL-RR output v gives u = (v >> 11) 2^-53 and the draw 2u - 1."""
    a = np.asarray(seeds)
    if a.dtype.kind in "biu" and (a >= 0).all():  # below 2^64: two words each
        state = _seed_states(a.astype("<u8").view("<u4").reshape(-1, 2), 8)
    else:  # seeds past 2^64 one at a time, and the errors numpy raises
        state = np.array([_seed_states(_words(s), 8)[0] for s in seeds], np.uint32).reshape(-1, 8)
    s = state.astype("<u4", order="C").view("<u8")[:, :, None]

    def add128(ah, al, bh, bl):  # (high, low) limbs of a + b mod 2^128
        lo = al + bl
        return ah + bh + (lo < al), lo

    def mul128(ah, al, bh, bl):  # (high, low) limbs of a b mod 2^128
        a0, a1, b0, b1 = al & _M32, al >> 32, bl & _M32, bl >> 32
        mid = a1 * b0 + (a0 * b0 >> 32)
        return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32) + al * bh + ah * bl, al * bl

    j_h, j_l = _pcg_jumps(math.prod(shape))
    hi, lo = mul128(s[:, 0::2], s[:, 1::2], j_h[:2], j_l[:2])  # A^n (s0:s1), 2 D_n (s2:s3)
    hi, lo = add128(*add128(hi[:, 0], lo[:, 0], hi[:, 1], lo[:, 1]), j_h[2], j_l[2])
    v, rot = hi ^ lo, hi >> 58
    v = v >> rot | v << (-rot & 63)
    return ((v >> 11) * 2.0**-52 - 1.0).reshape(len(state), *shape)


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


def _extrapolate(e0, e1, e2, bound) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SQUAREM point of two plain steps e0 -> e1 -> e2 in log-encoder space,
    its step length alpha in [-bound, -1] (alpha = -1 gives e2), and the
    ratio |r|^2 / |v|^2 (0 where v = 0), about 1 / (1 - rho)^2 at contraction rho."""
    l0, l1, l2 = np.log(np.maximum(np.concatenate((e0, e1, e2)), LOG_FLOOR)).reshape(3, *e0.shape)
    r, v = l1 - l0, l2 - 2.0 * l1 + l0
    vv = np.add.reduce(v * v, axis=(1, 2))
    ratio = np.divide(np.add.reduce(r * r, axis=(1, 2)), vv, out=np.zeros(len(vv)), where=vv > 0)
    alpha = np.minimum(np.maximum(-np.sqrt(ratio), -bound), -1.0)
    return (_softmax(l0 - 2.0 * alpha[:, None, None] * r + (alpha**2)[:, None, None] * v),
            alpha, ratio)


def _centered_log(e: np.ndarray) -> np.ndarray:
    """Log-encoder coordinates l - (row mean of l), floored at LOG_FLOOR."""
    l = np.log(np.maximum(e, LOG_FLOOR))
    return l - l.mean(axis=-1, keepdims=True)


def _newton(px, pygx, jp, e: np.ndarray, kb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which encoders of a (B, X, T) stack, at the (B, 1, 1) betas kb, have a
    Newton point of G(u) = F(u) - u that stands, F the plain map in centered
    log coordinates u, and those points: the Jacobian comes from central
    differences (one `_map` call of 2 X T + 1 encoders per element), the step
    solves on the live clusters' coordinates by least squares, and a point
    that is not finite, or whose Jacobian has an eigenvalue >= 1 +
    NEWTON_NEUTRAL there (a saddle), does not stand."""
    b, x_card, t_card = e.shape
    k = x_card * t_card
    u = _centered_log(e)
    d = np.eye(k).reshape(k, x_card, t_card) * NEWTON_H
    pts = u[:, None] + np.concatenate((np.zeros((1, x_card, t_card)), d, -d))
    f = _centered_log(_map(px, pygx, jp, _softmax(pts.reshape(-1, x_card, t_card)),
                           np.repeat(kb, 2 * k + 1, axis=0))).reshape(b, 2 * k + 1, k)
    live = np.tile(px @ e > NEWTON_LIVE, x_card)  # u's entry (x, t) is live with cluster t
    jac = (f[:, 1:k + 1] - f[:, k + 1:]).transpose(0, 2, 1) / (2.0 * NEWTON_H)
    jac[~(live[:, :, None] & live[:, None, :])] = 0.0
    g = np.where(live, f[:, 0] - u.reshape(b, k), 0.0)
    ok = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
    ok[ok] = np.linalg.eigvals(jac[ok]).real.max(axis=1) < 1.0 + NEWTON_NEUTRAL
    step = np.linalg.pinv(jac[ok] - np.eye(k), rcond=NEWTON_RCOND) @ g[ok, :, None]
    new = _softmax(u[ok] - step.reshape(-1, x_card, t_card))
    ok[ok] = finite = np.isfinite(new).all(axis=(1, 2))
    return ok, new[finite]


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
    # the evaluation from which each element may try Newton (never, past NEWTON_MAX_COORDS)
    small = out.shape[1] * out.shape[2] <= NEWTON_MAX_COORDS
    retry = np.full(len(out), NEWTON_AFTER if small else max_iter)
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
                ex, alpha, ratio = _extrapolate(e0, e1, e2, bound)
                # an element still crawling after NEWTON_AFTER evaluations
                # jumps to e2's Newton point instead, where that point stands
                newton = None
                if evals >= NEWTON_AFTER and (
                        tried := (ratio > NEWTON_RATIO) & (retry[live] <= evals)).any():
                    stands, ex_n = _newton(px, pygx, jp, e2[tried], kb[tried])
                    newton = tried.copy()
                    newton[tried] = stands
                    ex[newton] = ex_n
                e3 = _map(px, pygx, jp, ex, kb)
                L, pt, pty = _objective(jp, px, np.concatenate([e3, e2]), ob)
                ok = L[:live.size] <= L[live.size:]
                grown = np.where(alpha == -bound, bound * STEP_BOUND, bound)
                bound = np.where(ok, grown, np.maximum(bound / STEP_BOUND, STEP_BOUND))
                if newton is not None:  # a failed try waits as many evaluations as have run
                    retry[live[tried & ~(newton & ok)]] = 2 * evals
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


def _restart_inits(x_card: int, t_card: int, r, seeds) -> np.ndarray:
    """(B, X, T) stack of the inits of restarts r with seeds: seeded
    noisy-uniform for even r.

    Noisy-uniform inits alone can miss the fine-split basin just past a
    transition (the symmetric fixed point's basin shrinks to nothing there),
    so odd restarts seed blended hard partitions instead: the maximal
    partition first, then random assignments.
    """
    r, seeds = np.asarray(r, dtype=int), np.asarray(seeds)
    noisy = (r % 2 == 0) | (t_card < 2)
    m = np.full((r.size, x_card, t_card), 1.0 / t_card)
    m[noisy] = _perturb(m[noisy], seeds[noisy], INIT_NOISE)
    hard = np.tile(np.arange(x_card) % t_card, (r.size, 1))
    for i in np.flatnonzero(~noisy & (r > 1)):  # bounded integers draw by rejection
        hard[i] = np.random.default_rng(seeds[i]).integers(0, t_card, size=x_card)
    floor = BLEND_FLOOR / t_card  # blended, so that no cluster is dead
    hit = hard[~noisy, :, None] == np.arange(t_card)
    m[~noisy] = np.where(hit, floor + (1.0 - BLEND_FLOOR), floor)
    return m


# typed: a float seed equal to a cached int one must still raise, as it does cold
@functools.lru_cache(maxsize=INIT_MEMO_SIZE, typed=True)
def _multistart_inits(x_card: int, t_card: int, restarts: int, seed: int) -> np.ndarray:
    """The read-only init stack of restarts (r, seed + r), r < restarts, built
    once per key: it depends on nothing else, and every query reuses it."""
    return _encoder_stack(_restart_inits(x_card, t_card, range(restarts),
                                         [seed + r for r in range(restarts)]))


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
