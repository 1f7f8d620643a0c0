"""Acceptance suite: one test per exit criterion, with stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines as they complete.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ibplane.analyzer import info_plane_path, network_distortion_rate
from ibplane.bounds import bound_curve
from ibplane.curve import anneal_curve, geometric_grid
from ibplane.mlp import (
    NetworkParams,
    TrainConfig,
    batch_gradients,
    batch_loss,
    init_network,
    naive_bayes_neuron,
    sigmoid,
    train_sgd,
)
from ibplane.presets import (
    deterministic_joint,
    hierarchical_joint,
    product_joint,
    random_joint,
    symmetric_joint,
    xor_joint,
)
from ibplane.prob import mutual_information, sample_pairs
from ibplane.solver import exhaustive_deterministic_oracle, ib_solve, ib_solve_multistart

SYM = symmetric_joint(0.2)

ALL_PRESETS = [
    ("symmetric", SYM),
    ("product", product_joint()),
    ("deterministic", deterministic_joint(4)),
    ("hierarchical", hierarchical_joint(0.2, 0.05)),
    ("xor", xor_joint(2)),
    ("random", random_joint(4, 2, seed=3)),
]


def report(k: int, desc: str, ok: bool, elapsed: float | None = None):
    stamp = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"criterion {k:2d} [{'PASS' if ok else 'FAIL'}] {desc}{stamp}")
    assert ok, f"criterion {k} failed: {desc}"


def test_criterion_01_trivial_beta_limit():
    t0 = time.perf_counter()
    ok = True
    for name, j in ALL_PRESETS:
        sol = ib_solve(j, min(j.x_card, 4), beta=0.0, seed=0)
        ok &= sol.R <= 1e-9 and sol.I_Y <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "beta=0 gives R and I_Y at zero on every preset, under 1s",
           ok, elapsed)


def test_criterion_02_sufficiency_limit():
    t0 = time.perf_counter()
    sol = ib_solve(SYM, SYM.x_card, beta=1000.0, seed=0)
    elapsed = time.perf_counter() - t0
    ok = sol.I_Y >= mutual_information(SYM) - 1e-3 and elapsed < 5.0
    report(2, "beta=1000 recovers I(X;Y) within 1e-3 bits, under 5s", ok, elapsed)


def test_criterion_03_oracle_dominance():
    t0 = time.perf_counter()
    ok = True
    for s in range(20):
        x_card = 3 + s % 3
        t_card = 1 + s % 3
        j = random_joint(x_card, 2, seed=100 + s)
        for beta in (1.0, 5.0, 20.0):
            _, oracle_l = exhaustive_deterministic_oracle(j, t_card, beta)
            sol = ib_solve_multistart(j, t_card, beta, restarts=20, seed=s)
            ok &= sol.L <= oracle_l + 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(3, "best-of-20 restarts dominates the deterministic oracle on "
              "20 joints x 3 betas, under 2min", ok, elapsed)


def test_criterion_04_spectral_phase_transition():
    t0 = time.perf_counter()
    c = anneal_curve(SYM, 2, geometric_grid(0.1, 50.0, 1.05), seed=0)
    bifs = c.bifurcations
    beta_c = 1.0 / 0.36
    ok = len(bifs) == 1
    if ok:
        b = bifs[0]
        ok &= b.beta_low <= beta_c <= b.beta_high
        ok &= (b.beta_high - b.beta_low) / beta_c <= 0.05
    cp = anneal_curve(product_joint(), 2, geometric_grid(0.1, 100.0, 1.05),
                      restarts=2, seed=0)
    ok &= len(cp.bifurcations) == 0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, "one split bracketing 1/0.36 on the symmetric joint, none on "
              "the product joint up to beta=100, under 1min", ok, elapsed)


def test_criterion_05_curve_geometry():
    ok = True
    for name, j in ALL_PRESETS:
        t_card = min(j.x_card, 4)
        c = anneal_curve(j, t_card, geometric_grid(0.5, 50.0, 1.1), seed=0)
        i_xy = mutual_information(j)
        for prev, cur in zip(c.points, c.points[1:]):
            ok &= cur.R >= prev.R - 1e-6
            ok &= cur.I_Y >= prev.I_Y - 1e-6
        ok &= all(p.I_Y <= i_xy + 1e-9 for p in c.points)
        pts = sorted((p.R, p.I_Y) for p in c.points)
        for (r0, i0), (r1, i1), (r2, i2) in zip(pts, pts[1:], pts[2:]):
            if r2 - r0 < 1e-12:
                continue
            chord = i0 + (i2 - i0) * (r1 - r0) / (r2 - r0)
            ok &= i1 >= chord - 1e-4
    report(5, "every preset's curve is monotone, chord-concave and bounded "
              "by I(X;Y)", ok)


def test_criterion_06_dpi_chain():
    t0 = time.perf_counter()
    samples = sample_pairs(SYM, 1000, seed=0)
    net = init_network([2, 4, 3, 2], seed=1)
    cfg = TrainConfig(learning_rate=0.5, epochs=300, batch_size=32, seed=2)
    trained, _ = train_sgd(net, samples, cfg)
    path = info_plane_path(SYM, trained, None)  # exact activation-tuple codes
    relevances = [p.I_Y for p in path.points]
    ok = len(relevances) == 4
    for a, b in zip(relevances, relevances[1:]):
        ok &= b <= a + 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(6, "exact-code relevance never rises across X -> h1 -> h2 -> "
              "prediction, under 30s incl. training", ok, elapsed)


def test_criterion_07_network_curve_dominance():
    c = anneal_curve(SYM, 2, geometric_grid(0.5, 200.0, 1.15), restarts=2, seed=0)
    i_xy = mutual_information(SYM)
    rs = [p.R for p in c.points]
    iys = [p.I_Y for p in c.points]
    ok = True
    for seed in range(5):
        samples = sample_pairs(SYM, 600, seed=seed)
        net = init_network([2, 3, 2], seed=seed + 10)
        cfg = TrainConfig(learning_rate=0.5, epochs=200, batch_size=32,
                          seed=seed + 20)
        trained, _ = train_sgd(net, samples, cfg)
        r_n, d_n = network_distortion_rate(SYM, trained, None)
        d_curve = i_xy - float(np.interp(r_n, rs, iys))
        ok &= d_n >= d_curve - 0.02
    report(7, "trained networks never beat the annealed curve by more than "
              "0.02 bits across 5 seeds", ok)


def test_criterion_08_naive_bayes_neuron():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 11))
        p1 = rng.uniform(0.05, 0.95, size=d)
        p0 = rng.uniform(0.05, 0.95, size=d)
        prior = float(rng.uniform(0.1, 0.9))
        w, b = naive_bayes_neuron(p1, p0, prior)
        grid = np.array([[(code >> k) & 1 for k in range(d)]
                         for code in range(2 ** d)], dtype=float)
        got = sigmoid(grid @ w + b)
        like1 = prior * np.prod(np.where(grid > 0, p1, 1 - p1), axis=1)
        like0 = (1 - prior) * np.prod(np.where(grid > 0, p0, 1 - p0), axis=1)
        want = like1 / (like1 + like0)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(8, f"exact posterior over all inputs for 50 models "
              f"(worst error {worst:.2e} < 1e-10)", worst < 1e-10)


def test_criterion_09_finite_sample_bound_behavior():
    # a soft curve: the deterministic joint's curve only takes R in {0, 2},
    # so R* = 2 at every n would be right there and the fall untestable
    j = SYM
    c = anneal_curve(j, 2, geometric_grid(0.5, 50.0, 1.1), seed=0)
    ok = max(p.R for p in c.points) >= math.log2(2) - 1e-9
    stars = []
    for n in (10 ** 6, 10 ** 4, 10 ** 3, 10 ** 2):
        b = bound_curve(c, n, 1.0, y_card=j.y_card)
        for raw, pt in zip(c.points, b.points):
            ok &= pt.D_worst >= raw.D_IB  # exact pointwise ordering
        stars.append(b.R_star)
    ok &= all(b <= a for a, b in zip(stars, stars[1:]))
    ok &= stars[-1] < stars[0]  # small samples force real compression
    report(9, f"worst-case bound dominates pointwise and R* falls as n "
              f"shrinks ({[f'{s:.2f}' for s in stars]})", ok)


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(7)
    net = init_network([6, 5, 4, 2], seed=3)
    xs = rng.integers(0, 6, size=64)
    ys = rng.integers(0, 2, size=64)
    gw, gb, _ = batch_gradients(net, xs, ys)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        layer = int(rng.integers(0, 3))
        use_bias = bool(rng.integers(0, 2))
        if use_bias:
            r = int(rng.integers(0, net.biases[layer].size))
            plus = [b.copy() for b in net.biases]
            minus = [b.copy() for b in net.biases]
            plus[layer][r] += h
            minus[layer][r] -= h
            lp = batch_loss(NetworkParams(net.layer_sizes, net.weights, tuple(plus)), xs, ys)
            lm = batch_loss(NetworkParams(net.layer_sizes, net.weights, tuple(minus)), xs, ys)
            bp = gb[layer][r]
        else:
            r = int(rng.integers(0, net.weights[layer].shape[0]))
            cidx = int(rng.integers(0, net.weights[layer].shape[1]))
            plus = [w.copy() for w in net.weights]
            minus = [w.copy() for w in net.weights]
            plus[layer][r, cidx] += h
            minus[layer][r, cidx] -= h
            lp = batch_loss(NetworkParams(net.layer_sizes, tuple(plus), net.biases), xs, ys)
            lm = batch_loss(NetworkParams(net.layer_sizes, tuple(minus), net.biases), xs, ys)
            bp = gw[layer][r, cidx]
        fd = (lp - lm) / (2 * h)
        rel = abs(bp - fd) / max(abs(bp), abs(fd), 1e-10)
        worst = max(worst, rel)
    report(10, f"backprop matches central differences on 100 parameters "
               f"(worst rel err {worst:.2e} < 1e-4)", worst < 1e-4)


def test_criterion_11_cli_reproducibility(tmp_path):
    j, curve, net, plane = (tmp_path / "j.json", tmp_path / "c.csv",
                            tmp_path / "n.json", tmp_path / "p.csv")

    def pipeline():
        cmds = [
            ["gen", "--preset", "symmetric", "--eps", "0.2", "--out", j],
            ["ib-curve", "--joint", j, "--t-card", 2, "--beta-min", 0.5,
             "--beta-max", 20, "--grid-factor", 1.3, "--restarts", 2,
             "--out", curve],
            ["train", "--joint", j, "--n", 300, "--hidden", "3",
             "--epochs", 80, "--seed", 4, "--out", net],
            ["analyze", "--joint", j, "--net", net, "--bins", 8,
             "--beta", 2.0, "--out", plane],
        ]
        stdouts = []
        for cmd in cmds:
            r = subprocess.run([sys.executable, "-m", "ibplane.cli",
                                *map(str, cmd)], capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            stdouts.append(r.stdout)
        return (j.read_bytes(), curve.read_bytes(), net.read_bytes(),
                plane.read_bytes(), "".join(stdouts))

    # identical flags and seeds, run twice into the same paths
    a = pipeline()
    b = pipeline()
    report(11, "full CLI pipeline rerun is byte-identical", a == b)
