"""Command-line orchestration.

Each subcommand runs one pipeline, writes its declared output files
atomically, and prints a one-line JSON summary to stdout. Exit codes: 0 on
success, 2 on argument errors, 1 on computation errors (the error class name
goes to stderr). Reruns with identical flags and seed produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import analyzer, bounds, curve, io, mlp, presets, prob, solver, svgplot
from .errors import IBError


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _emit(text_by_path: dict[str, str], summary: dict) -> int:
    for path, text in text_by_path.items():
        io.atomic_write(path, text)
    print(io.json_dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    params = {
        "symmetric": {"eps": args.eps},
        "product": {"x_card": args.x_card, "y_card": args.y_card},
        "deterministic": {"k": args.k},
        "hierarchical": {"eps1": args.eps1, "eps2": args.eps2, "levels": args.levels},
        "xor": {"d": args.d},
        "random": {"x_card": args.x_card, "y_card": args.y_card},
    }[args.preset]
    j = presets.gen_preset(args.preset, seed=args.seed, **params)
    summary = {
        "cmd": "gen", "preset": args.preset, "x_card": j.x_card,
        "y_card": j.y_card, "I_XY": prob.mutual_information(j), "out": args.out,
    }
    return _emit({args.out: io.joint_to_json(j)}, summary)


def _cmd_ib_solve(args) -> int:
    j = io.joint_from_json(_read(args.joint))
    sol = solver.ib_solve_multistart(
        j, args.t_card, args.beta, restarts=args.restarts, tol=args.tol,
        max_iter=args.max_iter, seed=args.seed)
    summary = {
        "cmd": "ib-solve", "beta": sol.beta, "R": sol.R, "I_Y": sol.I_Y,
        "D_IB": sol.D_IB, "L": sol.L, "converged": sol.converged,
        "iterations": sol.iterations, "out": args.out,
    }
    return _emit({args.out: io.solution_to_json(sol)}, summary)


def _cmd_ib_curve(args) -> int:
    j = io.joint_from_json(_read(args.joint))
    grid = curve.geometric_grid(args.beta_min, args.beta_max, args.grid_factor)
    traced = curve.anneal_curve(j, args.t_card, grid, restarts=args.restarts,
                                tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    files = {args.out: io.curve_to_csv(traced)}
    if args.bifurcations_out:
        files[args.bifurcations_out] = io.bifurcations_to_json(traced.bifurcations)
    summary = {
        "cmd": "ib-curve", "points": len(traced.points),
        "bifurcations": len(traced.bifurcations), "out": args.out,
    }
    return _emit(files, summary)


def _cmd_bounds(args) -> int:
    traced = io.curve_from_csv(_read(args.curve))
    if args.joint:
        y_card = io.joint_from_json(_read(args.joint)).y_card
    else:
        y_card = args.y_card
    b = bounds.bound_curve(traced, args.n, args.c_bound, y_card=y_card)
    files = {args.out: io.bound_curve_to_csv(b)}
    summary = {
        "cmd": "bounds", "n": b.n, "c_bound": b.c_bound,
        "R_star": b.R_star, "D_star": b.D_star,
        "rate_corr_star": b.rate_corrections[b.star_index], "out": args.out,
    }
    if args.net:
        j = io.joint_from_json(_read(args.joint))
        net = io.network_from_json(_read(args.net))
        r_n, d_n = analyzer.network_distortion_rate(j, net, None)
        gaps = bounds.network_gaps(b, r_n, d_n)
        files[args.gaps_out] = io.gaps_to_json(gaps, b)
        summary["delta_G"] = gaps.delta_G
        summary["delta_C"] = gaps.delta_C
    return _emit(files, summary)


def _cmd_train(args) -> int:
    j = io.joint_from_json(_read(args.joint))
    samples = prob.sample_pairs(j, args.n, args.seed)
    hidden = [int(s) for s in args.hidden.split(",")] if args.hidden else []
    sizes = [j.x_card, *hidden, j.y_card]
    net = mlp.init_network(sizes, seed=args.seed + 1)
    cfg = mlp.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                          batch_size=args.batch_size, seed=args.seed + 2)
    trained, trace = mlp.train_sgd(net, samples, cfg)
    files = {args.out: io.network_to_json(trained)}
    if args.samples_out:
        files[args.samples_out] = io.samples_to_csv(samples)
    if args.loss_out:
        files[args.loss_out] = io.loss_trace_to_csv(trace)
    summary = {
        "cmd": "train", "layer_sizes": sizes, "n": args.n,
        "epochs": args.epochs,
        "final_loss": trace[-1] if trace else None,
        "accuracy": mlp.accuracy(trained, samples), "out": args.out,
    }
    return _emit(files, summary)


def _cmd_analyze(args) -> int:
    j = io.joint_from_json(_read(args.joint))
    net = io.network_from_json(_read(args.net))
    q = None if args.exact else analyzer.QuantizerConfig(bins=args.bins)
    path = analyzer.info_plane_path(j, net, q, beta=args.beta)
    pred = path.points[-1]  # the prediction layer holds (R_N, D_N)
    summary = {
        "cmd": "analyze", "layers": len(path.points), "beta": args.beta,
        "R_N": pred.I_X, "D_N": prob.mutual_information(j) - pred.I_Y,
        "dpi_violations": [[list(pair), mag] for pair, mag in path.dpi_violations],
        "out": args.out,
    }
    if args.sweep:
        inner = path.points[1:]  # input layer has no criterion
        assignment = []
        for b in (float(s) for s in args.sweep.split(",")):
            best = min(inner, key=lambda pt: pt.criterion(b))
            assignment.append({"beta": b, "best_layer": best.layer_index,
                               "criterion": best.criterion(b)})
        summary["criterion_sweep"] = assignment
    return _emit({args.out: io.layer_path_to_csv(path)}, summary)


def _cmd_plane(args) -> int:
    j = io.joint_from_json(_read(args.joint))
    net = io.network_from_json(_read(args.net))
    traced = io.curve_from_csv(_read(args.curve))
    bound_pts = io.bound_points_from_csv(_read(args.bounds))
    q = analyzer.QuantizerConfig(bins=args.bins)
    path = analyzer.info_plane_path(j, net, q)
    svg = svgplot.render_plane(
        [(p.R, p.I_Y) for p in traced.points],
        [(p.R_hat, p.I_Y_worst) for p in bound_pts],
        [(p.I_X, p.I_Y) for p in path.points],
    )
    summary = {"cmd": "plane", "series": 3, "layers": len(path.points),
               "out": args.out}
    return _emit({args.out: svg}, summary)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibplane",
        description="Tradeoff curves, phase transitions, finite-sample bounds "
                    "and information-plane placement for discrete joints.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_solver_opts(p):
        p.add_argument("--t-card", type=int, required=True)
        p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=solver.DEFAULT_MAX_ITER)
        p.add_argument("--seed", type=int, default=0)

    def add_sweep_opts(p):
        p.add_argument("--beta-min", type=float, required=True)
        p.add_argument("--beta-max", type=float, required=True)
        p.add_argument("--grid-factor", type=float, default=1.05)
        p.add_argument("--restarts", type=int, default=3)

    p = sub.add_parser("gen", help="write a preset joint distribution")
    p.add_argument("--preset", choices=presets.PRESET_NAMES, required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--eps1", type=float, default=0.2)
    p.add_argument("--eps2", type=float, default=0.05)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--x-card", type=int, default=3)
    p.add_argument("--y-card", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ib-solve", help="solve at a single beta")
    p.add_argument("--joint", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--restarts", type=int, default=10)
    add_solver_opts(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ib_solve)

    p = sub.add_parser("ib-curve", help="anneal the tradeoff curve over beta")
    p.add_argument("--joint", required=True)
    add_solver_opts(p)
    add_sweep_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--bifurcations-out")
    p.set_defaults(func=_cmd_ib_curve)

    p = sub.add_parser("bounds", help="worst-case finite-sample curve and gaps")
    p.add_argument("--curve", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-bound", type=float, default=1.0)
    p.add_argument("--joint", help="joint file supplying |Y| (else --y-card)")
    p.add_argument("--y-card", type=int, default=2)
    p.add_argument("--net", help="network file for gap computation")
    p.add_argument("--gaps-out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("train", help="sample a joint and train a network")
    p.add_argument("--joint", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--hidden", default="4,3",
                   help="comma-separated hidden layer widths (empty for none)")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; sampling, init and shuffling derive from it")
    p.add_argument("--out", required=True)
    p.add_argument("--loss-out")
    p.add_argument("--samples-out", help="also write the drawn sample CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze", help="place the layers on the information plane")
    p.add_argument("--joint", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--exact", action="store_true",
                   help="use exact activation tuples instead of bins")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--sweep", help="comma-separated betas; reports the "
                                   "criterion-minimizing layer per beta")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plane", help="render curve, bound and layer path as SVG")
    p.add_argument("--joint", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plane)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "bounds" and (args.net or args.gaps_out):
        if not (args.joint and args.net and args.gaps_out):
            parser.error("gap computation needs --joint, --net and --gaps-out")
    try:
        return args.func(args)
    except (IBError, ValueError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
