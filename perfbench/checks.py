"""Independent checkers for the benchmark, written in plain numpy.

Nothing here imports ibplane: every figure the benchmark checks the program
against is recomputed from the definitions. All information quantities are in
bits; the encoder update works in nats, as the method defines it.
"""

from __future__ import annotations

import numpy as np


def entropy(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(pxy) -> float:
    """I(X;Y) of a joint matrix as H(X) + H(Y) - H(X,Y)."""
    pxy = np.asarray(pxy, dtype=float)
    return entropy(pxy.sum(axis=1)) + entropy(pxy.sum(axis=0)) - entropy(pxy)


def ib_update(pxy, enc, beta: float) -> np.ndarray:
    """One round of the self-consistent equations of Tishby, Pereira and
    Bialek: p(t), p(y|t), then p(t|x) ~ p(t) exp(-beta KL(p(y|x) || p(y|t)))."""
    pxy = np.asarray(pxy, dtype=float)
    enc = np.asarray(enc, dtype=float)
    px = pxy.sum(axis=1)
    pygx = pxy / np.where(px > 0, px, 1.0)[:, None]
    pt = px @ enc
    pty = enc.T @ pxy
    pygt = pty / np.where(pt > 0, pt, 1.0)[:, None]
    pos = pygx > 0
    with np.errstate(divide="ignore"):
        log_q = np.log(pygt)
    neg_h = np.where(pos, pygx * np.log(np.where(pos, pygx, 1.0)), 0.0).sum(axis=1)
    # a cluster decoder that misses part of p(y|x)'s support is at KL = inf
    cross = np.where(pos[:, None, :], pygx[:, None, :] * log_q[None, :, :], 0.0).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(pt)[None, :] - beta * (neg_h[:, None] - cross)
    logw = np.where(np.isnan(logw), -np.inf, logw)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def fixed_point_residual(pxy, enc, beta: float) -> float:
    """max |F(enc) - enc| for the update F above."""
    return float(np.max(np.abs(ib_update(pxy, enc, beta) - np.asarray(enc))))


def encoder_scalars(pxy, enc, beta: float) -> tuple[float, float, float]:
    """(R, I_Y, L) of a soft encoder: R = I(X;T), I_Y = I(T;Y), L = R - beta I_Y."""
    pxy = np.asarray(pxy, dtype=float)
    enc = np.asarray(enc, dtype=float)
    r = mutual_information(enc * pxy.sum(axis=1)[:, None])
    i_y = mutual_information(enc.T @ pxy)
    return r, i_y, r - beta * i_y


def code_information(pxy, codes) -> tuple[float, float]:
    """(I(X;T), I(T;Y)) of a deterministic code T = codes[X], by pushing the
    joint forward; I(X;T) = H(T) because T is a function of X."""
    pxy = np.asarray(pxy, dtype=float)
    codes = np.asarray(codes, dtype=int)
    pty = np.zeros((int(codes.max()) + 1, pxy.shape[1]))
    np.add.at(pty, codes, pxy)
    return entropy(pty.sum(axis=1)), mutual_information(pty)


def _partitions(n: int, k: int) -> np.ndarray:
    """Every partition of n symbols into at most k blocks, as restricted growth
    strings (a[0] = 0, a[i] <= max(a[:i]) + 1); one row per partition."""
    rows = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        top = rows.max(axis=1)
        rows = np.vstack([
            np.hstack([rows, np.full((rows.shape[0], 1), v, dtype=np.int8)])[v <= top + 1]
            for v in range(k)
        ])
    return rows


def best_deterministic_L(pxy, t_card: int, beta: float) -> float:
    """min over all deterministic encoders X -> T with |T| <= t_card of
    L = H(T) - beta I(T;Y). L depends only on the partition of X a map
    induces, so each partition is enumerated once."""
    pxy = np.asarray(pxy, dtype=float)
    x_card, y_card = pxy.shape
    parts = _partitions(x_card, t_card)
    best = np.inf
    for start in range(0, parts.shape[0], 50_000):
        a = parts[start:start + 50_000].astype(np.intp)
        pty = np.zeros((a.shape[0], t_card, y_card))
        rows = np.arange(a.shape[0])
        for x in range(x_card):
            pty[rows, a[:, x]] += pxy[x]
        pt = pty.sum(axis=2)
        py = pxy.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_t = -np.where(pt > 0, pt * np.log2(pt), 0.0).sum(axis=1)
            ratio = pty / (pt[:, :, None] * py[None, None, :])
            i_y = np.where(pty > 0, pty * np.log2(ratio), 0.0).sum(axis=(1, 2))
        best = min(best, float(np.min(h_t - beta * i_y)))
    return best


def critical_beta(pxy, p_x_given_t) -> float:
    """1/lambda_2 of C[y, y'] = sum_x p(x|t) p(y|x) p(y'|x) / p(y|t): the beta
    at which a cluster with members p(x|t) becomes unstable. The leading
    eigenvalue of C is 1 (its rows sum to 1)."""
    pxy = np.asarray(pxy, dtype=float)
    w = np.asarray(p_x_given_t, dtype=float)
    pygx = pxy / pxy.sum(axis=1, keepdims=True)
    pygt = w @ pygx
    sup = pygt > 0
    c = (pygx[:, sup].T * w) @ pygx[:, sup] / pygt[sup][:, None]
    lam = np.sort(np.linalg.eigvals(c).real)[::-1]
    return 1.0 / lam[1] if lam.size > 1 and lam[1] > 1e-12 else np.inf


def forward(weights, biases, x_card: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden sigmoid activations and output label probabilities for every
    one-hot input symbol; a single output unit is the binary case."""
    h = np.eye(x_card)
    hidden = []
    for w, b in zip(weights[:-1], biases[:-1]):
        h = 1.0 / (1.0 + np.exp(-(h @ np.asarray(w).T + np.asarray(b))))
        hidden.append(h)
    u = h @ np.asarray(weights[-1]).T + np.asarray(biases[-1])
    if u.shape[1] == 1:
        p1 = 1.0 / (1.0 + np.exp(-u))
        return hidden, np.hstack([1.0 - p1, p1])
    e = np.exp(u - u.max(axis=1, keepdims=True))
    return hidden, e / e.sum(axis=1, keepdims=True)


def layer_codes(weights, biases, x_card: int, bins: int | None) -> list[np.ndarray]:
    """One code per input symbol for X, each hidden layer (binned on (0, 1),
    or exact activation tuples when bins is None) and the argmax prediction."""
    hidden, probs = forward(weights, biases, x_card)
    out = [np.arange(x_card)]
    for h in hidden:
        keys = [tuple(v.tolist()) if bins is None
                else tuple(np.minimum((v * bins).astype(int), bins - 1).tolist())
                for v in h]
        ids: dict[tuple, int] = {}
        out.append(np.array([ids.setdefault(k, len(ids)) for k in keys]))
    out.append(np.argmax(probs, axis=1))
    return out


def sample_loss(weights, biases, x_card: int, xs, ys) -> float:
    """Mean cross-entropy -log2 q(y|x) of a network over a sample."""
    _, probs = forward(weights, biases, x_card)
    return float(-np.log2(probs[np.asarray(xs), np.asarray(ys)]).mean())


def conditional_entropy(xs, ys, x_card: int, y_card: int) -> float:
    """Empirical H(Y|X) of a sample: the least mean cross-entropy any
    predictor of Y from X can reach on it."""
    counts = np.bincount(np.asarray(xs) * y_card + np.asarray(ys),
                         minlength=x_card * y_card).reshape(x_card, y_card)
    p = counts / counts.sum()
    return entropy(p) - entropy(p.sum(axis=1))
