"""Command-line orchestration.

A run parses with the parser of its one subcommand only, built on its first
use in the process and reused after; help, a missing or an unknown command
get the full parser, so their output lists all seven. A command imports the
modules it uses when it first runs, and no parser imports a library module,
so help and argument errors load no numpy. Each subcommand runs one
pipeline, writes its declared output files atomically (a failed write leaves
no temp file and replaces no output), and prints a one-line JSON summary to
stdout. Exit codes: 0 on success, 2 on argument errors, 1 on computation
errors (the error class name goes to stderr). Reruns with identical flags
and seed produce byte-identical outputs.
"""

import argparse
import sys

from .errors import IBError


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _list_of(kind):
    """argparse type for a comma-separated list of kind values, "" for none;
    a malformed entry is an argument error that names the flag."""
    def parse(text: str) -> list:
        try:
            return [kind(s) for s in text.split(",")] if text else []
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


def _seed(text: str) -> int:
    """argparse type for --seed: an int >= 0, as numpy's generators need."""
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


_seed.__name__ = "int"  # a non-integer reads "invalid int value: ...", as with type=int


def _emit(outputs: list[tuple[str, str]], summary: dict) -> int:
    from . import io
    line = io.json_dumps(summary)  # a summary that cannot be written replaces no output
    io.write_all(outputs)
    print(line)
    return 0


_PRESET_ARGS = {  # preset: the flags its function reads, in presets.PRESET_NAMES order
    "symmetric": ("eps",),
    "product": ("x_card", "y_card"),
    "deterministic": ("k",),
    "hierarchical": ("eps1", "eps2", "levels"),
    "random": ("x_card", "y_card"),
    "xor": ("d",),
}


def _cmd_gen(args) -> int:
    from . import io, presets
    params = {k: getattr(args, k) for k in _PRESET_ARGS[args.preset]}
    j = presets.gen_preset(args.preset, seed=args.seed, **params)
    summary = {
        "cmd": "gen", "preset": args.preset, "x_card": j.x_card,
        "y_card": j.y_card, "I_XY": j.i_xy, "out": args.out,
    }
    return _emit([(args.out, io.joint_to_json(j))], summary)


def _solver_opts(args) -> dict:
    """The --tol and --max-iter given; the solver's signatures hold their defaults."""
    return {k: v for k, v in vars(args).items() if k in ("tol", "max_iter")}


def _cmd_ib_solve(args) -> int:
    from . import io, solver
    j = io.joint_from_json(_read(args.joint))
    sol = solver.ib_solve_multistart(j, args.t_card, args.beta, restarts=args.restarts,
                                     seed=args.seed, **_solver_opts(args))
    summary = {
        "cmd": "ib-solve", "beta": sol.beta, "R": sol.R, "I_Y": sol.I_Y,
        "D_IB": sol.D_IB, "L": sol.L, "converged": sol.converged,
        "iterations": sol.iterations, "out": args.out,
    }
    return _emit([(args.out, io.solution_to_json(sol))], summary)


def _cmd_ib_curve(args) -> int:
    from . import curve, io
    j = io.joint_from_json(_read(args.joint))
    grid = curve.geometric_grid(args.beta_min, args.beta_max, args.grid_factor)
    traced = curve.anneal_curve(j, args.t_card, grid, restarts=args.restarts,
                                seed=args.seed, **_solver_opts(args))
    files = [(args.out, io.curve_to_csv(traced))]
    if args.bifurcations_out:
        files.append((args.bifurcations_out, io.bifurcations_to_json(traced.bifurcations)))
    summary = {"cmd": "ib-curve", "points": traced.beta.size,
               "bifurcations": len(traced.bifurcations),
               "unconverged": traced.unconverged, "out": args.out}
    return _emit(files, summary)


def _cmd_bounds(args) -> int:
    from . import bounds, io
    traced = io.curve_from_csv(_read(args.curve))
    j = io.joint_from_json(_read(args.joint)) if args.joint else None
    b = bounds.bound_curve(traced, args.n, args.c_bound, y_card=j.y_card if j else args.y_card)
    files = [(args.out, io.bound_curve_to_csv(b))]
    summary = {
        "cmd": "bounds", "n": b.n, "c_bound": b.c_bound,
        "R_star": b.R_star, "D_star": b.D_star,
        "rate_corr_star": b.rate_correction(b.star_index), "out": args.out,
    }
    if args.net:
        from . import analyzer
        net = io.network_from_json(_read(args.net))
        r_n, d_n = analyzer.network_distortion_rate(j, net, None)
        gaps = bounds.network_gaps(b, r_n, d_n)
        files.append((args.gaps_out, io.gaps_to_json(gaps, b)))
        summary["delta_G"] = gaps.delta_G
        summary["delta_C"] = gaps.delta_C
    return _emit(files, summary)


def _cmd_train(args) -> int:
    from . import io, mlp, prob
    j = io.joint_from_json(_read(args.joint))
    samples = prob.sample_pairs(j, args.n, args.seed)
    sizes = [j.x_card, *args.hidden, j.y_card]
    net = mlp.init_network(sizes, seed=args.seed + 1)
    cfg = mlp.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                          batch_size=args.batch_size, seed=args.seed + 2)
    trained, trace = mlp.train_sgd(net, samples, cfg)
    files = [(args.out, io.network_to_json(trained))]
    if args.samples_out:
        files.append((args.samples_out, io.samples_to_csv(samples)))
    if args.loss_out:
        files.append((args.loss_out, io.loss_trace_to_csv(trace)))
    summary = {
        "cmd": "train", "layer_sizes": sizes, "n": args.n,
        "epochs": args.epochs, "steps": len(trace) * -(-samples.n // cfg.batch_size),
        "final_loss": trace[-1] if trace else None,
        "accuracy": mlp.accuracy(trained, samples), "out": args.out,
    }
    return _emit(files, summary)


def _cmd_analyze(args) -> int:
    from . import analyzer, io
    j = io.joint_from_json(_read(args.joint))
    net = io.network_from_json(_read(args.net))
    q = None if args.exact else analyzer.QuantizerConfig(bins=args.bins)
    path = analyzer.info_plane_path(j, net, q, beta=args.beta)
    pred = path.points[-1]  # the prediction layer holds (R_N, D_N)
    summary = {
        "cmd": "analyze", "layers": len(path.points), "beta": args.beta,
        "R_N": pred.I_X, "D_N": analyzer.relevance_lost(j.i_xy, pred.I_Y),
        "dpi_violations": [[list(pair), mag] for pair, mag in path.dpi_violations],
        "out": args.out,
    }
    if args.sweep:
        inner = path.points[1:]  # input layer has no criterion
        assignment = []
        for b in args.sweep:
            best = min(inner, key=lambda pt: pt.criterion(b))
            assignment.append({"beta": b, "best_layer": best.layer_index,
                               "criterion": best.criterion(b)})
        summary["criterion_sweep"] = assignment
    return _emit([(args.out, io.layer_path_to_csv(path))], summary)


def _cmd_plane(args) -> int:
    from . import analyzer, io, svgplot
    j = io.joint_from_json(_read(args.joint))
    net = io.network_from_json(_read(args.net))
    traced = io.curve_from_csv(_read(args.curve))
    R_hat, _, I_Y_worst, _ = io.bound_points_from_csv(_read(args.bounds))
    q = analyzer.QuantizerConfig(bins=args.bins)
    path = analyzer.info_plane_path(j, net, q)
    svg = svgplot.render_plane(zip(traced.R.tolist(), traced.I_Y.tolist()),
                               zip(R_hat.tolist(), I_Y_worst.tolist()),
                               [(p.I_X, p.I_Y) for p in path.points])
    summary = {"cmd": "plane", "series": 3, "layers": len(path.points), "out": args.out}
    return _emit([(args.out, svg)], summary)


def _add_solver_opts(p):
    p.add_argument("--t-card", type=int, required=True)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=_seed, default=0)


def _gen_args(p):
    p.add_argument("--preset", choices=_PRESET_ARGS, required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--eps1", type=float, default=0.2)
    p.add_argument("--eps2", type=float, default=0.05)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--x-card", type=int, default=3)
    p.add_argument("--y-card", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)


def _ib_solve_args(p):
    p.add_argument("--joint", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--restarts", type=int, default=10)
    _add_solver_opts(p)
    p.add_argument("--out", required=True)


def _ib_curve_args(p):
    p.add_argument("--joint", required=True)
    _add_solver_opts(p)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--grid-factor", type=float, default=1.05)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--bifurcations-out")


def _bounds_args(p):
    p.add_argument("--curve", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-bound", type=float, default=1.0)
    y_card = p.add_mutually_exclusive_group(required=True)
    y_card.add_argument("--joint", help="joint file supplying |Y| (else --y-card)")
    y_card.add_argument("--y-card", type=int)
    p.add_argument("--net", help="network file for gap computation")
    p.add_argument("--gaps-out")
    p.add_argument("--out", required=True)
    parse = p.parse_known_args

    def parse_known_args(*a):  # a rule across flags, with this command's usage
        ns, rest = parse(*a)
        if (ns.net or ns.gaps_out) and not (ns.joint and ns.net and ns.gaps_out):
            p.error("gap computation needs --joint, --net and --gaps-out")
        return ns, rest
    p.parse_known_args = parse_known_args


def _train_args(p):
    p.add_argument("--joint", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--hidden", type=_list_of(int), default="4,3",
                   help="comma-separated hidden layer widths (empty for none)")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=_seed, default=0,
                   help="base seed; sampling, init and shuffling derive from it")
    p.add_argument("--out", required=True)
    p.add_argument("--loss-out")
    p.add_argument("--samples-out", help="also write the drawn sample CSV")


def _analyze_args(p):
    p.add_argument("--joint", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--exact", action="store_true",
                   help="use exact activation tuples instead of bins")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--sweep", type=_list_of(float),
                   help="comma-separated betas; reports the criterion-minimizing "
                        "layer per beta")
    p.add_argument("--out", required=True)


def _plane_args(p):
    p.add_argument("--joint", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--out", required=True)


_COMMANDS = {  # name: (help, argument-adding function, handler), in help order
    "gen": ("write a preset joint distribution", _gen_args, _cmd_gen),
    "ib-solve": ("solve at a single beta", _ib_solve_args, _cmd_ib_solve),
    "ib-curve": ("anneal the tradeoff curve over beta", _ib_curve_args, _cmd_ib_curve),
    "bounds": ("worst-case finite-sample curve and gaps", _bounds_args, _cmd_bounds),
    "train": ("sample a joint and train a network", _train_args, _cmd_train),
    "analyze": ("place the layers on the information plane", _analyze_args, _cmd_analyze),
    "plane": ("render curve, bound and layer path as SVG", _plane_args, _cmd_plane),
}
_PARSERS: dict = {}  # command (None: all seven): its parser, built on first use by run


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A fresh parser with only `command`'s subparser when it names one,
    else with all seven; either way the top-level usage lists every command.
    No parser imports a library module."""
    only = command in _COMMANDS
    parser = argparse.ArgumentParser(
        prog="ibplane",
        description="Tradeoff curves, phase transitions, finite-sample bounds "
                    "and information-plane placement for discrete joints.")
    sub = parser.add_subparsers(
        dest="cmd", required=True,
        metavar="{%s}" % ",".join(_COMMANDS) if only else None)
    for name, (help_, add_args, func) in _COMMANDS.items():
        if name == command or not only:
            p = sub.add_parser(name, help=help_)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    key = argv[0] if argv and argv[0] in _COMMANDS else None
    if key not in _PARSERS:
        _PARSERS[key] = build_parser(key)
    args = _PARSERS[key].parse_args(argv)
    try:
        return args.func(args)
    except (IBError, ValueError, OSError, MemoryError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
