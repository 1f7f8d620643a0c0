"""End-to-end and per-layer benchmark of ibplane.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
`src/` directory, and the run fails when that directory is missing. A run
sets up, repeats whole rounds of the workload until S seconds of timed work
have passed, checks every output against the independent checkers in
`checks.py` and prints one JSON line last: end-to-end metrics with --trace 0,
per-layer metrics (see `spans.py`) with --trace 1. `setup_s` is the median of
seven set-ups, each importing the package afresh. Everything runs
single-threaded in one process, apart from the fresh processes that time
the command-line start-up in a traced run.
"""

from __future__ import annotations

import argparse
import csv
import io as text_io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import chdir, redirect_stderr, redirect_stdout
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("IBPLANE_THREADS", None)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7
FLOAT_TOL = 1e-9       # absolute slack on recomputed bit-valued quantities
RESIDUAL_TOL = 1e-6    # fixed-point residual of a converged solve (its tol is 1e-8)

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
REFERENCE_S = 2.0e-3   # the reference loop's time on the host the figures are scaled to
SAMPLE_EVERY = 0.2     # seconds between timings of the reference loop


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small numpy operations, of the same
    kind as the package's kernels; it never changes with the package."""
    a = np.full((4, 4), 0.25)
    t0 = time.perf_counter()
    for _ in range(500):
        b = a @ a
        a = a / float(b.sum()) * 4.0
    return time.perf_counter() - t0


class Clock:
    """Times operations run in this process in reference seconds.

    The compute speed of the host this benchmark was built on drifts by up
    to 2x over spans of 5-20 s. Each operation's seconds are scaled by
    REFERENCE_S over the mean time of the reference loop run just before
    and just after it and, for operations longer than SAMPLE_EVERY, of the
    loops a thread runs every SAMPLE_EVERY seconds while it lasts. Six
    in-process runs of the README `ib-curve` stage spread by 0.19 of their
    median in plain seconds, 0.38 scaled by the loops before and after it
    alone, and 0.03 with the loops during it. Child processes followed
    neither the parent's loop nor one of their own, so operations and
    set-ups are all timed in this process.
    """

    def __init__(self):
        self.last = reference_loop()
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY):
            self.samples.append((time.perf_counter(), reference_loop()))

    def measure(self, fn, *args, **kwargs):
        """(fn's result, its duration in reference seconds)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        loops = [self.last, reference_loop()]
        self.last = loops[1]
        for t, loop in reversed(self.samples):
            if t < t0:
                break
            if t <= t1:
                loops.append(loop)
        return result, (t1 - t0) * REFERENCE_S / statistics.fmean(loops)

    def close(self):
        self._stop.set()
        self._thread.join()


def unscaled(fn, *args, **kwargs):
    """(fn's result, its duration in seconds)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def library():
    """Import ibplane from this checkout's src/ and nowhere else."""
    if not (SRC / "ibplane" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'ibplane'}")
    sys.path.insert(0, str(SRC))
    import ibplane
    if Path(ibplane.__file__).resolve().parent != SRC / "ibplane":
        sys.exit(f"error: ibplane imported from {ibplane.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------

def check_solution(problems, pxy, beta, enc, R, I_Y, L, converged, what):
    """R, I_Y and L recomputed from the encoder; a converged encoder is a fixed
    point of the checker's own update."""
    r, i_y, l_re = checks.encoder_scalars(pxy, enc, beta)
    i_xy = checks.mutual_information(pxy)
    if abs(r - R) > FLOAT_TOL or abs(i_y - I_Y) > FLOAT_TOL:
        problems.append(f"{what}: R, I_Y {R}, {I_Y} but the encoder gives {r}, {i_y}")
    tol_l = FLOAT_TOL * max(1.0, beta)
    if abs(L - (R - beta * I_Y)) > tol_l or abs(L - l_re) > tol_l:
        problems.append(f"{what}: L = {L} is not R - beta I_Y = {l_re}")
    if not -FLOAT_TOL <= i_y <= i_xy + FLOAT_TOL:
        problems.append(f"{what}: I_Y = {i_y} outside [0, I(X;Y) = {i_xy}]")
    if converged:
        res = checks.fixed_point_residual(pxy, enc, beta)
        if res > RESIDUAL_TOL:
            problems.append(f"{what}: converged but the update moves it by {res}")


def check_curve(problems, pxy, rows, what):
    """rows: (beta, R, I_Y, L). Betas increase, R and I_Y never fall, L = R -
    beta I_Y, 0 <= I_Y <= I(X;Y) up to rounding."""
    i_xy = checks.mutual_information(pxy)
    for (b0, r0, i0, _), (b1, r1, i1, _) in zip(rows, rows[1:]):
        if not b1 > b0 or r1 < r0 - FLOAT_TOL or i1 < i0 - FLOAT_TOL:
            problems.append(f"{what}: not monotone between beta {b0} and {b1}")
    for b, r, i_y, l_val in rows:
        if abs(l_val - (r - b * i_y)) > FLOAT_TOL * max(1.0, b):
            problems.append(f"{what}: L != R - beta I_Y at beta {b}")
        if not -FLOAT_TOL <= i_y <= i_xy + FLOAT_TOL:
            problems.append(f"{what}: I_Y = {i_y} outside [0, {i_xy}] at beta {b}")


def check_bracket(problems, bracket, beta_c, what):
    lo, hi = bracket
    if not lo <= beta_c <= hi:
        problems.append(f"{what}: bracket [{lo}, {hi}] misses beta_c = {beta_c}")


def check_layers(problems, pxy, weights, biases, bins, beta, rows, what):
    """rows: (layer, I_X, I_Y, criterion) against the checker's forward pass."""
    codes = checks.layer_codes(weights, biases, pxy.shape[0], bins)
    if len(rows) != len(codes):
        problems.append(f"{what}: {len(rows)} layers, the network has {len(codes)}")
        return
    for k, (layer, i_x, i_y, crit) in enumerate(rows):
        want_x, want_y = checks.code_information(pxy, codes[k])
        want_c = 0.0
        if k > 0:
            nb = int(codes[k].max()) + 1
            h_pair, i_pair = checks.code_information(pxy, codes[k - 1] * nb + codes[k])
            prev_x, _ = checks.code_information(pxy, codes[k - 1])
            want_c = prev_x + want_x - h_pair + beta * (i_pair - want_y)
        off = max(abs(i_x - want_x), abs(i_y - want_y), abs(crit - want_c))
        if layer != k or off > FLOAT_TOL * max(1.0, beta):
            problems.append(f"{what}: layer {k} at ({i_x}, {i_y}, {crit}), "
                            f"checker gives ({want_x}, {want_y}, {want_c})")


# ---------------------------------------------------------------------------
# Workloads. Each has setup(seed); run(state, tracer) -> (ops, output), ops
# being one (label, seconds) per operation; check(state, output) -> (problems,
# failed), failed being one flag per operation; and close(state).
# ---------------------------------------------------------------------------

README_COMMANDS = [
    "gen --preset symmetric --eps 0.2 --out j.json",
    "ib-solve --joint j.json --t-card 2 --beta 5 --out sol.json",
    "ib-curve --joint j.json --t-card 2 --beta-min 0.1 --beta-max 50 "
    "--out curve.csv --bifurcations-out bifs.json",
    "train --joint j.json --n 1000 --hidden 4,3 --epochs 300 --out net.json --loss-out loss.csv",
    "bounds --curve curve.csv --n 1000 --joint j.json --net net.json "
    "--gaps-out gaps.json --out bounds.csv",
    "analyze --joint j.json --net net.json --bins 8 --beta 2 --sweep 0.5,2,8 --out plane.csv",
    "plane --joint j.json --net net.json --curve curve.csv --bounds bounds.csv --out plane.svg",
]


def _cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # no timeout: waiting with one polls in steps of up to 50 ms, which
    # would quantize every time measured around it
    return subprocess.run([sys.executable, "-m", "ibplane.cli", *args], cwd=cwd,
                          env=child_env(), capture_output=True, text=True)


def _run_cli(argv: list[str], tracer) -> int:
    """Exit status of one command through the function `python -m ibplane.cli`
    calls."""
    from ibplane import cli
    try:
        if tracer is None:
            return cli.run(argv)
        return tracer.call(f"cli.{argv[0]}", cli.run, argv)
    except SystemExit as e:
        return e.code


class ReadmePipeline:
    """The README's seven commands, verbatim, through `ibplane.cli.run(argv)`
    in this process. Timed as fresh processes they drifted by 19% between two
    sets of ten runs here; the start-up of a fresh process shows in
    `setup_s` and in the traced `cli.startup_s` instead."""

    def setup(self, seed):
        from ibplane import cli
        work = WORK / f"work-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cli.build_parser()
        return {"work": work}

    def run(self, state, tracer, clock):
        work = state["work"]
        for f in work.iterdir():
            f.unlink()
        ops, exits = [], []
        with chdir(work), redirect_stdout(text_io.StringIO()), \
                redirect_stderr(text_io.StringIO()):
            for cmd in README_COMMANDS:
                argv = cmd.split()
                code, seconds = clock.measure(_run_cli, argv, tracer)
                ops.append((argv[0], seconds))
                exits.append(code == 0)
        files = {f.name: f.read_text() for f in work.iterdir() if not f.name.endswith("~")}
        return ops, (exits, files)

    def check(self, state, output):
        exits, files = output
        failed = [not ok for ok in exits]
        problems = []
        if failed[:4] != [False] * 4:
            return [f"commands before bounds exited {exits[:4]}"], failed
        joint = json.loads(files["j.json"])
        pxy = np.array(joint["p"], dtype=float)
        sol = json.loads(files["sol.json"])
        check_solution(problems, pxy, sol["beta"], np.array(sol["encoder"]), sol["R"],
                       sol["I_Y"], sol["L"], sol["converged"], "ib-solve")
        if sol["L"] > checks.best_deterministic_L(pxy, 2, sol["beta"]) + FLOAT_TOL:
            problems.append("ib-solve: worse than the best deterministic encoder")
        rows = [(float(r["beta"]), float(r["R"]), float(r["I_Y"]), float(r["L"]))
                for r in csv.DictReader(text_io.StringIO(files["curve.csv"]))]
        check_curve(problems, pxy, rows, "ib-curve")
        bifs = json.loads(files["bifs.json"])
        beta_c = checks.critical_beta(pxy, pxy.sum(axis=1))
        if len(bifs) != 1:
            problems.append(f"ib-curve: {len(bifs)} brackets, the symmetric joint has one")
        else:
            check_bracket(problems, (bifs[0]["beta_low"], bifs[0]["beta_high"]), beta_c, "ib-curve")
            pred = bifs[0]["beta_predicted"]
            if pred is None or abs(pred - beta_c) > 1e-6 * beta_c:
                problems.append(f"ib-curve: spectral prediction {pred}, checker gives {beta_c}")
        net = json.loads(files["net.json"])
        loss = [float(r["loss"]) for r in csv.DictReader(text_io.StringIO(files["loss.csv"]))]
        if len(loss) != 300 or not all(map(math.isfinite, loss)) or not loss[-1] < loss[0]:
            problems.append("train: the loss trace is not 300 finite epochs ending lower")
        if "plane.csv" in files:
            layers = [(int(r["layer"]), float(r["I_X"]), float(r["I_Y"]), float(r["criterion"]))
                      for r in csv.DictReader(text_io.StringIO(files["plane.csv"]))]
            check_layers(problems, pxy, net["weights"], net["biases"], 8, 2.0, layers, "analyze")
        if "bounds.csv" in files:
            for r in csv.DictReader(text_io.StringIO(files["bounds.csv"])):
                if float(r["I_Y_worst"]) > float(r["I_Y_hat"]):
                    problems.append("bounds: worst-case relevance above the empirical one")
            json.loads(files["gaps.json"])
        if "plane.svg" in files:
            ET.fromstring(files["plane.svg"])
        return problems, failed

    def close(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)


class HierarchicalSweep:
    """anneal_curve + detect_bifurcations with the ib-curve defaults on
    hierarchical(0.2, 0.05, L=2), T=4, beta 0.5..90 x1.07."""

    def setup(self, seed):
        from ibplane import curve, presets, solver
        j = presets.hierarchical_joint(0.2, 0.05, 2)
        solver.ib_solve(j, 4, 1.0)
        return {"joint": j, "grid": curve.geometric_grid(0.5, 90.0, 1.07)}

    def run(self, state, tracer, clock):
        from ibplane import curve
        j = state["joint"]

        def sweep():
            traced = curve.anneal_curve(j, 4, state["grid"], perturb_mag=1e-3, restarts=3,
                                        tol=1e-8, max_iter=10_000, seed=0)
            return traced, curve.detect_bifurcations(traced, j, 4, restarts=3, tol=1e-8,
                                                     max_iter=10_000, seed=0)

        output, seconds = clock.measure(sweep)
        return [("sweep", seconds)], output

    def check(self, state, output):
        traced, bifs = output
        pxy = state["joint"].p
        problems = []
        check_curve(problems, pxy, [(p.beta, p.R, p.I_Y, p.L) for p in traced.points], "sweep")
        if len(bifs) != 2:
            return problems + [f"sweep: {len(bifs)} brackets, expected 2"], [False]
        px = pxy.sum(axis=1)
        check_bracket(problems, (bifs[0].beta_low, bifs[0].beta_high),
                      checks.critical_beta(pxy, px), "first split")
        # the hard clusters {0,1} and {2,3} split at 1/lambda_2 of their own
        # correlation matrices; the optimum with four clusters already wins a
        # little earlier (a first-order jump), hence at or below, within 0.1%
        second = min(checks.critical_beta(pxy, px * m / (px * m).sum())
                     for m in (np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])))
        if not (bifs[1].beta_high <= second and bifs[1].beta_low >= second * (1 - 1e-3)):
            problems.append(f"second split: bracket [{bifs[1].beta_low}, {bifs[1].beta_high}] "
                            f"not within 0.1% below {second}")
        return problems, [False]

    def close(self, state):
        pass


REPRO = (4, 2, 0, 2, 20.0)  # gen --preset random --x-card 4 --y-card 2 --seed 0; T=2, beta=20
POOL_SIZE = 80
POOL_DESIGN_SEED = 1


class SolveBatch:
    """ib_solve_multistart with restarts=10 (the ib-solve query) over a fixed
    pool of flat-Dirichlet joints, X 4-10, Y 2-4, T 2-4, beta log-uniform in
    [0.5, 50]. The pool is the same for every seed, so the solves that miss
    the deterministic optimum fail on every run; the seed orders the pool."""

    def setup(self, seed):
        from ibplane import presets, solver
        rng = np.random.default_rng(POOL_DESIGN_SEED)
        specs = [REPRO]
        for _ in range(POOL_SIZE):
            specs.append((int(rng.integers(4, 11)), int(rng.integers(2, 5)),
                          int(rng.integers(2**31)), int(rng.integers(2, 5)),
                          float(np.exp(rng.uniform(math.log(0.5), math.log(50.0))))))
        order = np.random.default_rng(seed).permutation(len(specs))
        pool = [(presets.random_joint(x, y, seed=s), t, b) for x, y, s, t, b in
                (specs[i] for i in order)]
        solver.ib_solve_multistart(pool[0][0], 2, 1.0, restarts=2)
        return {"pool": pool}

    def run(self, state, tracer, clock):
        from ibplane import solver
        ops, sols = [], []
        for j, t_card, beta in state["pool"]:
            sol, seconds = clock.measure(solver.ib_solve_multistart, j, t_card, beta,
                                         restarts=10)
            sols.append(sol)
            ops.append(("solve", seconds))
        return ops, sols

    def check(self, state, sols):
        if "best" not in state:
            state["best"] = [checks.best_deterministic_L(j.p, t, b) for j, t, b in state["pool"]]
        # a solve worse than a deterministic encoder counts as failed, not wrong
        failed = [sol.L > best + FLOAT_TOL for sol, best in zip(sols, state["best"])]
        problems = []
        for (j, t_card, beta), sol, bad in zip(state["pool"], sols, failed):
            if bad:
                continue
            what = f"solve {j.x_card}x{j.y_card} T={t_card} beta={beta:.4g}"
            check_solution(problems, j.p, beta, sol.encoder.matrix, sol.R, sol.I_Y,
                           sol.L, sol.converged, what)
        return problems, failed

    def close(self, state):
        pass


NETS = (  # (preset, params, hidden widths)
    ("xor", {"d": 3}, (6, 4)),
    ("random", {"x_card": 8, "y_card": 3}, (6, 5, 4)),
    ("hierarchical", {"eps1": 0.2, "eps2": 0.05, "levels": 3}, (5, 4, 3)),
)
TRAIN_N, TRAIN_EPOCHS, SWEEP_BETAS = 4000, 40, (0.5, 1.0, 2.0, 4.0, 8.0)


class TrainAnalyze:
    """train_sgd on seeded samples of three joints, then info_plane_path with
    exact and binned codes over a beta sweep, and network_distortion_rate."""

    def setup(self, seed):
        from ibplane import mlp, presets, prob
        rng = np.random.default_rng(seed)
        jobs = []
        for name, params, hidden in NETS:
            j = presets.gen_preset(name, seed=int(rng.integers(2**31)), **params)
            cells = rng.choice(j.p.size, size=TRAIN_N, p=j.p.ravel() / j.p.sum())
            pairs = np.stack([cells // j.y_card, cells % j.y_card], axis=1)
            samples = prob.SampleSet.from_pairs(pairs)
            net = mlp.init_network([j.x_card, *hidden, j.y_card], seed=int(rng.integers(2**31)))
            cfg = mlp.TrainConfig(learning_rate=0.5, epochs=TRAIN_EPOCHS, batch_size=32,
                                  seed=int(rng.integers(2**31)))
            jobs.append((j, samples, net, cfg))
        j, samples, net, cfg = jobs[0]
        mlp.train_sgd(net, samples, mlp.TrainConfig(0.5, 1, 32, 0))
        return {"jobs": jobs}

    def run(self, state, tracer, clock):
        from ibplane import analyzer, mlp

        def analyze(j, net):
            paths = {bins: [analyzer.info_plane_path(j, net, None if bins is None
                                                     else analyzer.QuantizerConfig(bins), beta=b)
                            for b in SWEEP_BETAS] for bins in (None, 8)}
            return paths, analyzer.network_distortion_rate(j, net, None)

        ops, out = [], []
        for j, samples, net, cfg in state["jobs"]:
            (trained, loss), train_s = clock.measure(mlp.train_sgd, net, samples, cfg)
            (paths, rate), analyze_s = clock.measure(analyze, j, trained)
            ops.append(("train+analyze", train_s + analyze_s))
            out.append({"net": trained, "loss": loss, "paths": paths, "rate": rate,
                        "train_s": train_s, "analyze_s": analyze_s})
        return ops, out

    def check(self, state, out):
        problems = []
        for (j, samples, net0, cfg), o in zip(state["jobs"], out):
            net, what = o["net"], f"{j.x_card}x{j.y_card} net {net0.layer_sizes}"
            xs, ys = samples.pairs[:, 0], samples.pairs[:, 1]
            final = checks.sample_loss(net.weights, net.biases, j.x_card, xs, ys)
            floor = checks.conditional_entropy(xs, ys, j.x_card, j.y_card)
            start = checks.sample_loss(net0.weights, net0.biases, j.x_card, xs, ys)
            if not floor - FLOAT_TOL <= final < start:
                problems.append(f"{what}: loss {final} not in [H(Y|X) = {floor}, initial {start})")
            if len(o["loss"]) != cfg.epochs or not all(map(math.isfinite, o["loss"])):
                problems.append(f"{what}: loss trace is not {cfg.epochs} finite epochs")
            for bins, paths in o["paths"].items():
                for beta, path in zip(SWEEP_BETAS, paths):
                    rows = [(p.layer_index, p.I_X, p.I_Y, p.layer_criterion) for p in path.points]
                    check_layers(problems, j.p, net.weights, net.biases, bins, beta, rows,
                                 f"{what} bins={bins} beta={beta}")
                    rises = any(b[2] > a[2] + FLOAT_TOL for a, b in zip(rows, rows[1:]))
                    if bins is None and rises:
                        problems.append(f"{what}: exact-code relevance rises with depth")
            codes = checks.layer_codes(net.weights, net.biases, j.x_card, None)[-1]
            r_n, i_y = checks.code_information(j.p, codes)
            d_n = checks.mutual_information(j.p) - i_y
            if max(abs(o["rate"][0] - r_n), abs(o["rate"][1] - d_n)) > FLOAT_TOL:
                problems.append(f"{what}: (R_N, D_N) = {o['rate']}, checker gives ({r_n}, {d_n})")
        return problems, [False] * len(out)

    def close(self, state):
        pass


WORKLOADS = {
    "readme-pipeline": ReadmePipeline,
    "hierarchical-sweep": HierarchicalSweep,
    "solve-batch": SolveBatch,
    "train-analyze": TrainAnalyze,
}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def timed_setup(clock: Clock, wl, seed: int):
    """(state, reference seconds) of importing the package afresh, building
    the workload's inputs and warming up."""
    for name in [m for m in sys.modules if m == "ibplane" or m.startswith("ibplane.")]:
        del sys.modules[name]
    return clock.measure(wl.setup, seed)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def workload_figures(workload: str, rounds) -> dict:
    """The workload-specific figures, printed for reading alongside the JSON."""
    first = rounds[0][1]
    if workload == "readme-pipeline":
        return {f"{label}_s": statistics.median(r[1][k][1] for r in rounds)
                for k, (label, _) in enumerate(first)}
    if workload == "solve-batch":
        lat = [op[1] for r in rounds for op in r[1]]
        return {"solve_p50_ms": 1e3 * statistics.median(lat),
                "solves_per_s": len(lat) / sum(r[0] for r in rounds)}
    if workload == "train-analyze":
        outs = [o for r in rounds for o in r[2]]
        return {"train_ms_per_epoch": 1e3 * sum(o["train_s"] for o in outs)
                / (TRAIN_EPOCHS * len(outs)),
                "analyze_ms": 1e3 * statistics.median(o["analyze_s"] for o in outs)}
    return {"curve_s": statistics.median(r[0] for r in rounds)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    library()
    wl = WORKLOADS[args.workload]()
    # the host's CPUs drift in speed independently, so the run and every
    # child it starts stay on one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    setups = []
    for _ in range(SETUP_SAMPLES):
        state, seconds = timed_setup(clock, wl, args.seed)
        setups.append(seconds)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    rounds = []  # (reference seconds, ops, output)
    try:
        timed = 0.0
        while not rounds or timed < args.seconds:
            t0 = time.perf_counter()
            ops, output = wl.run(state, tracer, clock)
            rounds.append((sum(op[1] for op in ops), ops, output))
            timed += time.perf_counter() - t0
        problems, failed = [], []
        for _, _, output in rounds:
            p, f = wl.check(state, output)
            problems += p
            failed += f
    finally:
        clock.close()
        if tracer is not None:
            tracer.restore()
        wl.close(state)

    ops = [op for r in rounds for op in r[1]]
    for p in problems[:20]:
        print(f"check failed: {p}")
    for (label, _), bad in zip(rounds[0][1], failed):
        if bad:
            print(f"failed: {label}")
    figures = workload_figures(args.workload, rounds)
    for name, value in figures.items():
        print(f"{name} {value:.6g}")
    if args.trace:
        stages = figures if args.workload == "readme-pipeline" else {}
        startup = statistics.median(unscaled(_cli, ["--help"], ROOT)[1]
                                    for _ in range(SETUP_SAMPLES))
        metrics = spans.per_layer(tracer, len(rounds), stages, startup, spans.iterate_once_us())
        units = spans.PER_LAYER
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r[0] for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(op[1] for op in ops),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
