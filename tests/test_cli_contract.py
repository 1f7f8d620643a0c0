"""The command line's exit-code contract, fuzzed over every command.

Each example runs one `cli.run(argv)` in a fresh directory of good and
malformed input files, with flag values drawn from small pools of good and
bad values. Whatever the input, the run exits 0, 1 or 2; a computation error
(1) is one `<ErrorClass>: message` line on stderr; a success writes nothing
to stderr and outputs the io readers read back; no temp file is left, and a
failed run replaces no existing output. Every pool is bounded (alphabets of
at most 8 symbols, at most 50 samples, 3 epochs, 50 iterations and a few
grid points) so that no example allocates much or solves for long; values
large enough to allocate gigabytes are not drawn.
"""

import contextlib
import functools
import io as text_io
import json
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibplane import cli, io
from ibplane.bounds import bound_curve
from ibplane.curve import anneal_curve, geometric_grid
from ibplane.mlp import init_network
from ibplane.presets import random_joint, symmetric_joint

REALS = ["nan", "inf", "-inf", "-1", "0", "1e-320", "1e308", "x"]
INTS = ["-1", "0", "x", "1.5"]
BAD_JSON = {"empty.json": "", "open.json": "{", "list.json": "[]", "null.json": "null",
            "text.json": '"text"', "deep.json": "[" * 5000 + "]" * 5000, "inf.json": "1e400"}
OLD = "old\n"


@functools.cache
def input_files() -> dict[str, tuple[dict, dict]]:
    """For each input flag, its good and its bad files, each by name: text,
    bytes (not UTF-8), or None for a directory."""
    sym = symmetric_joint(0.2)
    curve = anneal_curve(sym, 2, geometric_grid(0.5, 8.0, 2.0), restarts=1, max_iter=200)
    joint = {"x_card": 2, "y_card": 2, "p": [[0.4, 0.1], [0.1, 0.4]]}
    net = {"layer_sizes": [2, 2], "weights": [[[0.5, -0.5], [-0.5, 0.5]]], "biases": [[0, 0]]}
    return {
        "--joint": ({
            "sym.json": io.joint_to_json(sym),
            "rand.json": io.joint_to_json(random_joint(3, 2, seed=1)),
            "gappy.json": json.dumps({"x_card": 3, "y_card": 2,
                                      "p": [[0.5, 0.0], [0.0, 0.0], [0.1, 0.4]]}),
        }, {
            "ragged.json": json.dumps({**joint, "p": [[0.5, 0.5], [1.0]]}),
            "negative.json": json.dumps({**joint, "p": [[0.6, -0.1], [0.1, 0.4]]}),
            "unnormed.json": json.dumps({**joint, "p": [[1, 1], [1, 1]]}),
            "strings.json": json.dumps({**joint, "p": [["a", "b"], ["c", "d"]]}),
            "bools.json": json.dumps({**joint, "x_card": True}),
            "nulls.json": json.dumps({**joint, "p": None}),
            **BAD_JSON,
            "latin1.json": b"\xff\xfe{}",
            "dir.json": None,
        }),
        "--net": ({
            "net.json": io.network_to_json(init_network([2, 3, 2], seed=0)),
            "flat.json": json.dumps(net),
            "wide.json": io.network_to_json(init_network([3, 2, 2], seed=1)),
        }, {
            "nounit.json": json.dumps({"layer_sizes": [2, 0, 2], "weights": [[], [[], []]],
                                       "biases": [[], [0, 0]]}),
            "raggednet.json": json.dumps({**net, "weights": [[[0.5], [-0.5, 0.5]]]}),
            "nanweight.json": json.dumps(net).replace("0.5", "NaN", 1),
            **BAD_JSON,
            "dir.json": None,
        }),
        "--curve": ({
            "curve.csv": io.curve_to_csv(curve),
            "one.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,0,0,0.2,0,1\n",
        }, {
            "header.csv": "beta,R,I_Y,D_IB,L,eff_card\n",
            "empty.csv": "",
            "short.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,0,0\n",
            "huge.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,2000,0,0,2000,1\n",
            "nan.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,nan,0,0.2,nan,1\n",
            "latin1.csv": b"beta,R\xff\n",
            "dir.csv": None,
        }),
        "--bounds": ({
            "bounds.csv": io.bound_curve_to_csv(bound_curve(curve, 1000, 1.0, y_card=2)),
        }, {
            "above.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\n0,0.1,0.9,0.3\n",
            "bheader.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\n",
            "bshort.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\n0,0.1\n",
            "dir.csv": None,
        }),
    }


def flag(name, good, bad=(), absent=1, spoilt=1):
    """At most one (name, value) pair: of 20 draws, `absent` leave the flag
    out, `spoilt` take a value from bad and the rest one from good."""
    @st.composite
    def pairs(draw):
        roll = draw(st.integers(0, 19))
        if roll < absent:
            return []
        pool = bad if roll < absent + spoilt and bad else good
        return [(name, draw(st.sampled_from(pool)))]
    return pairs()


def inputs(name, absent=1):
    good, bad = input_files()[name]
    return flag(name, sorted(good), sorted(bad) + ["absent.file"], absent, spoilt=4)


def outs(name, absent=1):
    return flag(name, ["o1", "o2", "o3", "o4", "o5", "o6"], ["./o1", "adir", "absent/o7"], absent)


def together(*flags):
    return st.tuples(*flags).map(lambda groups: [pair for group in groups for pair in group])


SOLVER_FLAGS = [
    flag("--t-card", ["1", "2", "3"], INTS),
    flag("--tol", ["1e-6", "1e-10"], REALS, absent=10),
    flag("--max-iter", ["1", "5", "50"], INTS, absent=0),  # the default is 10,000
    flag("--restarts", ["1", "2"], INTS, absent=0),
    flag("--seed", ["0", "1"], ["-1"], absent=10),
]

COMMANDS = {  # command: its flags; each strategy draws a list of (flag, value)
    "gen": [
        flag("--preset", ["symmetric", "product", "deterministic", "hierarchical", "xor",
                          "random"], ["nope"]),
        flag("--eps", ["0.2", "0.5"], ["1", *REALS], absent=10),
        flag("--eps1", ["0.2", "0.4"], REALS, absent=10),
        flag("--eps2", ["0.05", "0.2"], REALS, absent=10),
        flag("--levels", ["1", "2", "3"], INTS, absent=10),
        flag("--k", ["1", "2", "4"], INTS, absent=10),
        flag("--d", ["1", "2"], INTS, absent=10),
        flag("--x-card", ["1", "2", "4"], INTS, absent=10),
        flag("--y-card", ["1", "2", "3"], INTS, absent=10),
        flag("--seed", ["0", "1"], ["-1"], absent=10),
        outs("--out"),
    ],
    "ib-solve": [
        inputs("--joint"),
        flag("--beta", ["0.5", "2.78", "5", "40"], REALS),
        *SOLVER_FLAGS,
        outs("--out"),
    ],
    "ib-curve": [
        inputs("--joint"),
        flag("--beta-min", ["0.5", "1", "4"], ["0", "-1", "nan", "inf", "1e-320", "8", "x"]),
        flag("--beta-max", ["2", "8"], ["0.5", "nan", "inf", "x"]),
        flag("--grid-factor", ["1.5", "2"], ["1", "0.5", "-2", "nan", "inf", "1.000000000001"],
             absent=0),  # the default makes dozens of grid points
        *SOLVER_FLAGS,
        outs("--out"),
        outs("--bifurcations-out", absent=10),
    ],
    "train": [
        inputs("--joint"),
        flag("--n", ["1", "10", "50"], INTS, absent=0),
        flag("--hidden", ["", "2", "3,2"], ["0", "-1", "2,,3"], absent=10),
        flag("--epochs", ["0", "1", "3"], INTS, absent=0),
        flag("--lr", ["0.5", "2"], REALS, absent=10),
        flag("--batch-size", ["1", "8", "64"], INTS, absent=10),
        flag("--seed", ["0", "1"], ["-1"], absent=10),
        outs("--out"),
        outs("--loss-out", absent=10),
        outs("--samples-out", absent=10),
    ],
    "bounds": [
        inputs("--curve"),
        flag("--n", ["1", "1000"], [*INTS, "1" + "0" * 400]),
        flag("--c-bound", ["1", "0", "2.5"], REALS, absent=10),
        st.one_of(  # |Y| from a joint or a flag, and the gaps, which need the joint
            flag("--y-card", ["1", "2", "3"], INTS, absent=0),
            inputs("--joint"),
            together(inputs("--joint", absent=0), inputs("--net"), outs("--gaps-out"))),
        outs("--out"),
    ],
    "analyze": [
        inputs("--joint"),
        inputs("--net"),
        flag("--bins", ["2", "8"], ["1", *INTS], absent=10),
        flag("--exact", [None], absent=10),
        flag("--beta", ["1", "2"], REALS, absent=10),
        flag("--sweep", ["0.5,2", ""], ["nan", "1,x", "inf,1"], absent=10),
        outs("--out"),
    ],
    "plane": [
        inputs("--joint"),
        inputs("--net"),
        inputs("--curve"),
        inputs("--bounds"),
        flag("--bins", ["2", "8"], ["1", *INTS], absent=10),
        outs("--out"),
    ],
}

OUTPUTS = {  # (command, flag): a reader of the file, given the parsed flags
    ("gen", "--out"): lambda text, f: io.joint_from_json(text),
    ("ib-solve", "--out"): lambda text, f: io.solution_from_json(
        text, io.joint_from_json(Path(f["--joint"]).read_text())),
    ("ib-curve", "--out"): lambda text, f: io.curve_from_csv(text),
    ("ib-curve", "--bifurcations-out"): lambda text, f: io.bifurcations_from_json(text),
    ("train", "--out"): lambda text, f: io.network_from_json(text),
    ("train", "--loss-out"): lambda text, f: io.loss_trace_from_csv(text),
    ("train", "--samples-out"): lambda text, f: io.samples_from_csv(text),
    ("bounds", "--out"): lambda text, f: io.bound_points_from_csv(text),
    ("bounds", "--gaps-out"): lambda text, f: json.loads(text),
    ("analyze", "--out"): lambda text, f: io.layer_points_from_csv(text),
    ("plane", "--out"): lambda text, f: ET.fromstring(text),
}


@st.composite
def invocations(draw):
    """(command, [(flag, value), ...]); a switch such as --exact has the
    value None."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return command, [pair for group in map(draw, COMMANDS[command]) for pair in group]


def populate(d: Path) -> None:
    for good, bad in input_files().values():
        for name, content in {**good, **bad}.items():
            path = d / name
            if content is None:
                path.mkdir(exist_ok=True)
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
    (d / "o1").write_text(OLD)
    (d / "o2").write_text(OLD)
    (d / "adir").mkdir()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(invocations())
# the two breaks a hand fuzz found: a RecursionError traceback from a deeply
# nested JSON file, and an OverflowError traceback from 2^R for R >= 1024
@example(("ib-solve", [("--joint", "deep.json"), ("--beta", "5"), ("--t-card", "2"),
                       ("--max-iter", "5"), ("--restarts", "1"), ("--out", "o1")]))
@example(("bounds", [("--curve", "huge.csv"), ("--n", "1000"), ("--y-card", "2"),
                     ("--out", "o1")]))
def test_every_command_keeps_the_exit_code_contract(invocation):
    command, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        populate(d)
        paths = {name: str(d / value) for name, value in flags
                 if name.endswith("-out") or name in input_files()}
        argv = [command]
        for name, value in flags:
            argv += [name] if value is None else [f"{name}={paths.get(name, value)}"]
        before = {f: f.read_bytes() for f in d.rglob("*") if f.is_file()}
        out, err = text_io.StringIO(), text_io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as e:
                code = e.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert not list(d.rglob("*.tmp~")), argv
        if code == 1:
            assert re.fullmatch(r"[A-Z]\w*: [^\n]*\n", err), (argv, err)
        if code == 2:
            assert err.startswith("usage: ibplane"), (argv, err)
        if code != 0:
            after = {f: f.read_bytes() for f in d.rglob("*") if f.is_file()}
            assert after == before, argv
            return
        assert err == "", (argv, err)
        assert json.loads(out)["cmd"] == command
        for name in paths:
            if (command, name) in OUTPUTS:
                OUTPUTS[command, name](Path(paths[name]).read_text(), paths)
