"""Span tracing from outside the library, and the per-layer metrics.

The tracer replaces public names at the module attribute the caller looks
up, so a call is told apart by who made it: `ibplane.curve.ib_solve` is a
grid solve of the annealing sweep, `ibplane.curve.ib_solve_multistart` a
bisection probe (inside `anneal_curve`) or a detection solve (inside
`detect_bifurcations`), and `ibplane.solver.ib_solve` every single restart.
Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

IO_READERS = ("joint_from_json", "solution_from_json", "network_from_json",
              "samples_from_csv", "curve_from_csv", "bifurcations_from_json",
              "bound_points_from_csv", "layer_points_from_csv",
              "loss_trace_from_csv")
IO_WRITERS = ("atomic_write", "joint_to_json", "solution_to_json",
              "network_to_json", "samples_to_csv", "curve_to_csv",
              "bifurcations_to_json", "bound_curve_to_csv", "gaps_to_json",
              "layer_path_to_csv", "loss_trace_to_csv")


class Tracer:
    """Spans (name, start, end, parent, info) recorded around patched calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._open[-1] if self._open else None,
                           "info": {}})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(i)

    def patch(self, module, attr: str, name: str, info=None, target=None) -> None:
        """Record a span for every call of module.attr; info(span_info,
        args, result) may add counts. target replaces the function called."""
        original = getattr(module, attr)
        fn = target or original

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    info(self.spans[i]["info"], args, kwargs, result)
                return result
            finally:
                self.end(i)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)

    def under(self, span: dict, ancestor: str) -> bool:
        p = span["parent"]
        while p is not None:
            if self.spans[p]["name"] == ancestor:
                return True
            p = self.spans[p]["parent"]
        return False


def _solution_info(info, args, kwargs, sol):
    info["iterations"] = sol.iterations
    info["converged"] = sol.converged


def _curve_info(info, args, kwargs, curve):
    info["brackets"] = len(curve.bifurcations)


def _bytes_info(info, args, kwargs, result):
    if len(args) > 1:
        info["bytes"] = len(args[1].encode())


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the library."""
    from ibplane import analyzer, bounds, cli, curve, io, mlp, solver, svgplot

    tracer.patch(solver, "ib_solve", "solver.ib_solve", _solution_info)
    # the sweep imported ib_solve by name; routing its grid solves through the
    # patched solver attribute nests each restart span under the grid span
    tracer.patch(curve, "ib_solve", "curve.grid_solve",
                 target=lambda *a, **k: solver.ib_solve(*a, **k))
    tracer.patch(curve, "ib_solve_multistart", "curve.multistart")
    tracer.patch(curve, "anneal_curve", "curve.anneal_curve", _curve_info)
    tracer.patch(curve, "detect_bifurcations", "curve.detect_bifurcations")
    tracer.patch(mlp, "train_sgd", "mlp.train_sgd")
    tracer.patch(mlp, "batch_gradients", "mlp.batch_gradients")
    tracer.patch(analyzer, "info_plane_path", "analyzer.info_plane_path")
    tracer.patch(analyzer, "network_distortion_rate", "analyzer.distortion_rate")
    tracer.patch(bounds, "bound_curve", "bounds.bound_curve")
    tracer.patch(svgplot, "render_plane", "svgplot.render_plane")
    tracer.patch(cli, "_read", "io.read")
    for name in IO_READERS:
        tracer.patch(io, name, "io.read")
    for name in IO_WRITERS:
        tracer.patch(io, name, "io.write", _bytes_info if name == "atomic_write" else None)


def iterate_once_us(shapes=((2, 2), (4, 4), (8, 4)), seconds: float = 0.2) -> dict:
    """Microseconds per `ib_iterate_once` call on an X x T encoder, median of
    five timed batches, on flat-Dirichlet joints with |Y| = 3."""
    from ibplane import presets, solver

    out = {}
    for x_card, t_card in shapes:
        j = presets.random_joint(x_card, 3, seed=x_card)
        e = solver.Encoder.noisy_uniform(x_card, t_card, seed=0)
        solver.ib_iterate_once(j, e, 5.0)
        n = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(n):
                solver.ib_iterate_once(j, e, 5.0)
            if time.perf_counter() - t0 > seconds / 5:
                break
            n *= 2
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                solver.ib_iterate_once(j, e, 5.0)
            batches.append((time.perf_counter() - t0) / n * 1e6)
        out[f"solver.iterate_once_us.{x_card}x{t_card}"] = statistics.median(batches)
    return out


PER_LAYER = {
    # name: unit
    "cli.startup_s": "s", "cli.gen_s": "s", "cli.ib-solve_s": "s",
    "cli.ib-curve_s": "s", "cli.train_s": "s", "cli.bounds_s": "s",
    "cli.analyze_s": "s", "cli.plane_s": "s",
    "solver.solves": "count", "solver.evals": "count",
    "solver.unconverged": "count", "solver.evals_per_solve_p50": "count",
    "solver.evals_per_solve_p90": "count", "solver.evals_per_solve_max": "count",
    "solver.us_per_eval": "us", "solver.iterate_once_us.2x2": "us",
    "solver.iterate_once_us.4x4": "us", "solver.iterate_once_us.8x4": "us",
    "curve.grid_s": "s", "curve.grid_solves": "count", "curve.grid_evals": "count",
    "curve.probe_s": "s", "curve.probes": "count", "curve.probe_solves": "count",
    "curve.probe_evals": "count", "curve.probe_unconverged": "count",
    "curve.probes_per_bracket": "count", "curve.detect_s": "s",
    "curve.detect_evals": "count",
    "mlp.train_s": "s", "mlp.batch_gradients_calls": "count",
    "mlp.batch_gradients_us": "us", "mlp.outside_gradients_share": "share",
    "analyzer.info_plane_path_ms": "ms", "analyzer.calls": "count",
    "analyzer.distortion_rate_ms": "ms",
    "bounds.bound_curve_ms": "ms", "io.read_ms": "ms", "io.write_ms": "ms",
    "io.bytes_written": "bytes", "svgplot.render_ms": "ms",
}


def per_layer(tracer: Tracer, rounds: int, cli_stages: dict, startup_s: float,
              kernel_us: dict) -> dict:
    """Per-layer figures of a traced run; counts and summed times are per
    round. cli_stages maps "<stage>_s" to the stage's seconds. A layer the
    workload does not reach reports 0."""
    def dur(s):
        return s["end"] - s["start"]

    def named(name, under=None):
        return [s for s in tracer.spans
                if s["name"] == name and (under is None or tracer.under(s, under))]

    def total(spans):
        return sum(dur(s) for s in spans) / rounds

    def mean_ms(spans):
        return 1e3 * sum(dur(s) for s in spans) / len(spans) if spans else 0.0

    def evals(spans):
        return sum(s["info"].get("iterations", 0) for s in spans)

    solves = named("solver.ib_solve")
    its = [s["info"]["iterations"] for s in solves if "iterations" in s["info"]]
    grid = named("curve.grid_solve")
    probes = named("curve.multistart", under="curve.anneal_curve")
    probe_solves = named("solver.ib_solve", under="curve.anneal_curve")
    probe_solves = [s for s in probe_solves if tracer.under(s, "curve.multistart")]
    brackets = sum(s["info"].get("brackets", 0) for s in named("curve.anneal_curve"))
    train = named("mlp.train_sgd")
    grads = named("mlp.batch_gradients")
    paths = named("analyzer.info_plane_path")

    m = {name: 0.0 for name in PER_LAYER}
    m["cli.startup_s"] = startup_s
    for stage, seconds in cli_stages.items():
        m[f"cli.{stage}"] = seconds
    m.update(kernel_us)
    if solves:
        m.update({
            "solver.solves": len(solves) / rounds,
            "solver.evals": sum(its) / rounds,
            "solver.unconverged": sum(not s["info"]["converged"] for s in solves) / rounds,
            "solver.evals_per_solve_p50": float(np.percentile(its, 50)),
            "solver.evals_per_solve_p90": float(np.percentile(its, 90)),
            "solver.evals_per_solve_max": float(max(its)),
            "solver.us_per_eval": 1e6 * sum(map(dur, solves)) / max(1, sum(its)),
        })
    m.update({
        "curve.grid_s": total(grid),
        "curve.grid_solves": len(grid) / rounds,
        "curve.grid_evals": evals(named("solver.ib_solve", under="curve.grid_solve")) / rounds,
        "curve.probe_s": total(probes),
        "curve.probes": len(probes) / rounds,
        "curve.probe_solves": len(probe_solves) / rounds,
        "curve.probe_evals": evals(probe_solves) / rounds,
        "curve.probe_unconverged": sum(not s["info"]["converged"] for s in probe_solves) / rounds,
        "curve.probes_per_bracket": len(probes) / brackets if brackets else 0.0,
        "curve.detect_s": total(named("curve.detect_bifurcations")),
        "curve.detect_evals":
            evals(named("solver.ib_solve", under="curve.detect_bifurcations")) / rounds,
        "mlp.train_s": total(train),
        "mlp.batch_gradients_calls": len(grads) / rounds,
        "mlp.batch_gradients_us": 1e3 * mean_ms(grads),
        "mlp.outside_gradients_share":
            1.0 - sum(map(dur, grads)) / sum(map(dur, train)) if train else 0.0,
        "analyzer.info_plane_path_ms": mean_ms(paths),
        "analyzer.calls": len(paths) / rounds,
        "analyzer.distortion_rate_ms": mean_ms(named("analyzer.distortion_rate")),
        "bounds.bound_curve_ms": mean_ms(named("bounds.bound_curve")),
        "io.read_ms": 1e3 * total(named("io.read")),
        "io.write_ms": 1e3 * total(named("io.write")),
        "io.bytes_written": sum(s["info"].get("bytes", 0) for s in named("io.write")) / rounds,
        "svgplot.render_ms": mean_ms(named("svgplot.render_plane")),
    })
    return m
