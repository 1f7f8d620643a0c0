"""Serialization round-trips and end-to-end command-line pipelines."""

import argparse
import contextlib
import functools
import inspect
import io as text_io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibplane import analyzer, cli, io, presets
from ibplane.analyzer import InfoPlanePoint, LayerPath, QuantizerConfig, info_plane_path
from ibplane.bounds import BoundCurve, bound_curve
from ibplane.curve import CurvePoint, anneal_curve, geometric_grid
from ibplane.errors import DimensionError
from ibplane.mlp import TrainConfig, forward_all, init_network, train_sgd
from ibplane.presets import symmetric_joint
from ibplane.prob import SampleSet, sample_pairs
from ibplane.solver import ib_solve, ib_solve_multistart

SYM = symmetric_joint(0.2)
read_solution = functools.partial(io.solution_from_json, j=SYM)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ibplane.cli", *map(str, args)],
        capture_output=True, text=True)


# --- round trips -----------------------------------------------------------------

def test_real_formatting_round_trips():
    for x in (0.1, 1 / 3, 2.0, 1e-300, 123456.789e10, 5e-324):
        assert float(io.fmt_real(x)) == x


def test_joint_round_trip():
    text = io.joint_to_json(SYM)
    back = io.joint_from_json(text)
    assert np.array_equal(back.p, SYM.p)
    assert io.joint_to_json(back) == text


def test_solution_round_trip():
    sol = ib_solve(SYM, 2, beta=5.0, seed=0)
    text = io.solution_to_json(sol)
    back = io.solution_from_json(text, SYM)
    assert back.L == sol.L
    assert np.array_equal(back.encoder.matrix, sol.encoder.matrix)
    assert io.solution_to_json(back) == text


def test_network_round_trip():
    net = init_network([3, 4, 2], seed=1)
    text = io.network_to_json(net)
    back = io.network_from_json(text)
    for a, b in zip(net.weights, back.weights):
        assert np.array_equal(a, b)
    assert io.network_to_json(back) == text


def test_samples_round_trip():
    s = sample_pairs(SYM, 50, seed=3)
    text = io.samples_to_csv(s)
    back = io.samples_from_csv(text)
    assert np.array_equal(back.pairs, s.pairs)
    assert io.samples_to_csv(back) == text


def test_curve_round_trip():
    curve = anneal_curve(SYM, 2, geometric_grid(0.5, 10.0, 1.3), restarts=2, seed=0)
    text = io.curve_to_csv(curve)
    back = io.curve_from_csv(text)
    assert len(back.points) == len(curve.points)
    for a, b in zip(curve.points, back.points):
        assert (a.beta, a.R, a.I_Y, a.D_IB, a.L, a.eff_card) == \
            (b.beta, b.R, b.I_Y, b.D_IB, b.L, b.eff_card)
    assert io.curve_to_csv(back) == text


def test_bound_curve_round_trip():
    curve = anneal_curve(SYM, 2, geometric_grid(0.5, 10.0, 1.3), restarts=2, seed=0)
    b = bound_curve(curve, 1000, 1.0, y_card=2)
    text = io.bound_curve_to_csv(b)
    back = BoundCurve(*io.bound_points_from_csv(text), b.n, b.c_bound)
    for k in ("R_hat", "I_Y_hat", "I_Y_worst", "D_worst"):
        assert getattr(back, k).tolist() == getattr(b, k).tolist()
    assert io.bound_curve_to_csv(back) == text


def test_bifurcations_round_trip():
    from ibplane.curve import Bifurcation
    bifs = (Bifurcation(2.5, 2.6, 1, 2, 2.55), Bifurcation(8.0, 8.1, 2, 3, None))
    text = io.bifurcations_to_json(bifs)
    assert io.bifurcations_from_json(text) == bifs


@pytest.mark.parametrize("text, key", [
    ('{"beta": 1.0}', "'encoder'"),
    ([3], "'iterations'"),
    (True, "'iterations'"),
], ids=["missing-key", "wrong-typed-key", "boolean-key"])
def test_solution_reader_names_the_bad_key(text, key):
    if not isinstance(text, str):
        obj = json.loads(io.solution_to_json(ib_solve(SYM, 2, beta=5.0, seed=0)))
        obj["iterations"] = text
        text = json.dumps(obj)
    with pytest.raises(ValueError, match=f"solution JSON .*{key}"):
        io.solution_from_json(text, SYM)


@pytest.mark.parametrize("text, key", [
    ('[{"beta_low": 1.0}]', "'beta_high'"),
    ('[{"beta_low": "1.0", "beta_high": 2.0, "card_before": 1, "card_after": 2, '
     '"beta_predicted": null}]', "'beta_low'"),
    ('[{"beta_low": 1.0, "beta_high": 2.0, "card_before": 1, "card_after": 2, '
     '"beta_predicted": NaN}]', "'beta_predicted'"),
    ('[{"beta_low": 1.0, "beta_high": 2.0, "card_before": true, "card_after": 2, '
     '"beta_predicted": null}]', "'card_before'"),
], ids=["missing-key", "wrong-typed-key", "non-finite-key", "boolean-key"])
def test_bifurcations_reader_names_the_bad_key(text, key):
    with pytest.raises(ValueError, match=f"bifurcation JSON .*{key}"):
        io.bifurcations_from_json(text)


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # past the JSON parser's recursion limit


@pytest.mark.parametrize("reader, what", [
    (io.joint_from_json, "joint"), (read_solution, "solution"),
    (io.network_from_json, "network"), (io.bifurcations_from_json, "bifurcations"),
], ids=["joint", "solution", "network", "bifurcations"])
def test_json_readers_refuse_too_deep_nesting(reader, what):
    with pytest.raises(ValueError, match=f"^{what} JSON is nested too deeply to parse$"):
        reader(DEEP_JSON)


BIFURCATION = {"beta_low": 1.0, "beta_high": 2.0, "card_before": 1, "card_after": 2,
               "beta_predicted": 1.5}


def shifted(d):
    """A change that moves a real by d."""
    return lambda v: v + d


def off(name):
    return f"solution {name} is not the one its encoder and joint give"


# beta = 5, so an I_Y moved by 1e-6 moves L by -5e-6; a file whose L moves
# with its R or I_Y is accepted by a reader that checks L alone
@pytest.mark.parametrize("reader, changes, error, expected", [
    (read_solution, {"iterations": -7}, ValueError, "solution has negative iterations"),
    (read_solution, {"L": 0.0}, ValueError, "solution violates L = R - beta * I_Y"),
    (read_solution, {"marginal": [0.2, 0.3, 0.5], "decoder": [[1.0]]}, ValueError,
     off("marginal")),
    (read_solution, {"decoder": [[1.0], [1.0]]}, ValueError, off("decoder")),
    (read_solution, {"marginal": lambda p: [(p[0] + 1e-6) / (1 + 1e-6), p[1] / (1 + 1e-6)]},
     ValueError, off("marginal")),
    (read_solution, {"R": shifted(1e-6), "L": shifted(1e-6)}, ValueError, off("R")),
    (read_solution, {"I_Y": shifted(1e-6), "L": shifted(-5e-6)}, ValueError, off("I_Y")),
    (read_solution, {"D_IB": shifted(1e-6)}, ValueError, off("D_IB")),
    (read_solution, {"encoder": [[0.5, 0.5]] * 3}, DimensionError,
     "encoder has shape (3, 2), not (2, 2)"),
    (io.bifurcations_from_json, {"beta_low": -5.0}, ValueError,
     "bifurcation has negative beta_low"),
    (io.bifurcations_from_json, {"card_before": -3, "card_after": 0}, ValueError,
     "card_before must be >= 1, got -3"),
    (io.bifurcations_from_json, {"beta_predicted": -1.0}, ValueError,
     "bifurcation has negative beta_predicted"),
], ids=["solution-negative-iterations", "solution-L-off-R-minus-beta-I_Y",
        "solution-marginal-and-decoder-off-the-encoder", "solution-decoder-off-the-joint",
        "solution-marginal-off-the-encoder", "solution-R-off-the-encoder",
        "solution-I_Y-off-the-encoder", "solution-D_IB-off-the-encoder",
        "solution-encoder-off-the-joint",
        "bifurcation-negative-beta-low", "bifurcation-card-before-below-1",
        "bifurcation-negative-beta-predicted"])
def test_json_readers_reject_impossible_values(reader, changes, error, expected):
    # each file is well-formed; one value breaks a rule of its record or
    # disagrees with the value the others determine
    solution = reader is read_solution
    good = json.loads(io.solution_to_json(ib_solve(SYM, 2, beta=5.0, seed=0))) if solution \
        else BIFURCATION
    reader(json.dumps(good if solution else [good]))
    bad = {**good, **{k: v(good[k]) if callable(v) else v for k, v in changes.items()}}
    with pytest.raises(error, match=re.escape(expected)):
        reader(json.dumps(bad if solution else [bad]))


def test_loss_trace_round_trip():
    trace = [1.0, 0.5, 1 / 3]
    text = io.loss_trace_to_csv(trace)
    assert io.loss_trace_from_csv(text) == trace


def test_layer_path_round_trip():
    path = info_plane_path(SYM, init_network([2, 3, 2], seed=0), QuantizerConfig(bins=8), beta=2.0)
    text = io.layer_path_to_csv(path)
    rows = io.layer_points_from_csv(text)
    assert rows == tuple((p.layer_index, p.I_X, p.I_Y, p.layer_criterion) for p in path.points)
    back = LayerPath(tuple(InfoPlanePoint(*row, p.I_prev, p.I_Y_lost)
                           for row, p in zip(rows, path.points)), ())
    assert io.layer_path_to_csv(back) == text


# one well-formed row per CSV format, keyed by the name its reader's errors use
CSV_FORMATS = {
    "sample": (io.samples_from_csv, "x,y", "1,0"),
    "curve": (io.curve_from_csv, "beta,R,I_Y,D_IB,L,eff_card", "1,0,0,0.2,0,1"),
    "bound": (io.bound_points_from_csv, "R_hat,I_Y_hat,I_Y_worst,D_worst", "0,0.1,0,0.3"),
    "info-plane": (io.layer_points_from_csv, "layer,I_X,I_Y,criterion", "0,1,0.5,0"),
    "loss": (io.loss_trace_from_csv, "epoch,loss", "0,0.5"),
}


@pytest.mark.parametrize("fault", ["short-row", "long-row", "non-numeric-cell", "wrong-header"])
@pytest.mark.parametrize("kind", CSV_FORMATS)
def test_csv_readers_reject_malformed_rows(kind, fault):
    reader, header, row = CSV_FORMATS[kind]
    reader(f"{header}\n{row}\n")
    first, *rest = row.split(",")
    bad_row = {"short-row": ",".join([first, *rest[:-1]]), "long-row": row + ",0",
               "non-numeric-cell": ",".join(["one", *rest]), "wrong-header": row}[fault]
    bad_header = "wrong," + header if fault == "wrong-header" else header
    # the blank line still counts: the bad row is line 4 of the file
    text = f"{bad_header}\n{row}\n\n{bad_row}\n"
    match = "must start with the header" if fault == "wrong-header" else f"^{kind} CSV line 4: "
    with pytest.raises(ValueError, match=match):
        reader(text)


# small valid files of both tables, every value exact in binary
TABLES = {
    "curve": ("beta,R,I_Y,D_IB,L,eff_card\n1.0,0.0,0.0,0.25,0.0,1\n"
              "2.0,0.5,0.125,0.125,0.25,2\n4.0,1.0,0.25,0.0,0.0,2\n"),
    "bound": ("R_hat,I_Y_hat,I_Y_worst,D_worst\n0.0,0.0,0.0,0.25\n"
              "0.5,0.125,0.0,0.25\n1.0,0.25,0.125,0.125\n"),
}
READERS = {"curve": io.curve_from_csv, "bound": io.bound_points_from_csv}


def record_per_row_error(kind, text):
    """The error a record-per-row reading gives first, or None: each row's
    width, then its cells through float and int, then its record (a
    CurvePoint with the L and D_IB + I_Y checks, or a bound row's rules:
    each field finite and >= 0, I_Y_worst <= I_Y_hat, R_hat < 1024)."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    convert = [float] * 5 + [int] if kind == "curve" else [float] * 4
    first = None
    for k, ln in lines[1:]:
        cells = ln.split(",")
        try:
            if len(cells) != len(convert):
                raise ValueError(f"{len(cells)} cells, not {len(convert)}")
            values = [conv(c) for conv, c in zip(convert, cells)]
            if kind == "bound":
                for name, v in zip(("R_hat", "I_Y_hat", "I_Y_worst", "D_worst"), values):
                    if not 0 <= v < math.inf:
                        what = "negative" if math.isfinite(v) else "non-finite"
                        raise ValueError(f"bound point has {what} {name}")
                R_hat, I_Y_hat, I_Y_worst, _ = values
                if I_Y_worst > I_Y_hat:
                    raise ValueError("bound point has I_Y_worst above I_Y_hat")
                if R_hat >= 1024:
                    raise ValueError(f"bound point R_hat = {R_hat!r} bits: 2^R_hat overflows")
                continue
            beta, R, I_Y, D_IB, L, card = values
            if not abs(L - CurvePoint(beta, R, I_Y, D_IB, card).L) <= 1e-9:
                raise ValueError("curve point violates L = R - beta * I_Y")
            first = D_IB + I_Y if first is None else first
            if abs(D_IB + I_Y - first) > 2e-9:
                raise ValueError(f"curve point has D_IB + I_Y = {D_IB + I_Y!r}, not {first!r}")
        except ValueError as e:
            return f"{kind} CSV line {k}: {e}"
    return None


CELLS = st.one_of(st.sampled_from(["", "x", "nan", "-inf", "1e400", "-0.0", "1.5", "+2", "1_0",
                                   "0x1", " 3", "1e308", "1024", "2000", "-1e-300", "0.125"]),
                  st.integers(-3, 3).map(str),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(TABLES)), st.integers(0, 2), st.integers(0, 5), CELLS)
def test_one_corrupted_cell_is_rejected_as_its_row_record_rejects_it(kind, row, column, cell):
    # the column reader checks whole columns, but it must refuse exactly what
    # reading one record per row refuses, naming the same first line
    lines = TABLES[kind].splitlines()
    cells = lines[1 + row].split(",")
    cells[column % len(cells)] = cell
    lines[1 + row] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    want = record_per_row_error(kind, text)
    if want is None:
        try:  # no row is bad: only the table's own rules (increasing beta, monotone) remain
            READERS[kind](text)
        except ValueError as e:
            assert kind == "curve" and "CSV line" not in str(e)
    else:
        with pytest.raises(ValueError) as e:
            READERS[kind](text)
        assert str(e.value) == want


@pytest.mark.parametrize("kind, record_error, short_row, message", [
    ("curve", "1.5,-0.5,0.0,0.25,-0.5,1", "2.0,0.5,0.125", "curve point has negative R"),
    ("bound", "0.25,0.0,0.125,0.25", "0.5,0.125", "bound point has I_Y_worst above I_Y_hat"),
], ids=["curve", "bound"])
@pytest.mark.parametrize("swapped", [False, True])
def test_the_first_bad_line_is_named(kind, record_error, short_row, message, swapped):
    # a record error on line 3 and a short row on line 4 name line 3, and so
    # do the two swapped
    header, first, *_ = TABLES[kind].splitlines()
    rows = [short_row, record_error] if swapped else [record_error, short_row]
    width = len(header.split(","))
    expected = f"{len(short_row.split(','))} cells, not {width}" if swapped else message
    with pytest.raises(ValueError, match=f"^{kind} CSV line 3: {re.escape(expected)}$"):
        READERS[kind]("\n".join([header, first, *rows]) + "\n")


@st.composite
def malformed_tables(draw):
    """A command, the table it reads that is broken and that table's text:
    a valid table with cells changed at random, and then one change that no
    reader accepts (a bad cell, a row of the wrong width, a bad header, bytes
    that are not UTF-8 or a directory in the file's place)."""
    command = draw(st.sampled_from(["bounds", "plane"]))
    kind = "curve" if command == "bounds" else draw(st.sampled_from(sorted(TABLES)))
    lines = TABLES[kind].splitlines()
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 3))
        cells = lines[k].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CELLS)
        lines[k] = ",".join(cells)
    k, bad = draw(st.integers(1, 3)), draw(st.sampled_from(
        ["cell", "cell", "cell", "short", "long", "header", "bytes", "directory"]))
    cells = lines[k].split(",")
    if bad == "cell":
        at = draw(st.integers(0, len(cells) - 1))
        eff_card, L = kind == "curve" and at == 5, kind == "curve" and at == 4
        cells[at] = draw(st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "0,5"]
                                         + ([] if L else ["-1"])  # an L of -1 can hold
                                         + (["1.5", "0", "99999999999999999999"] if eff_card
                                            else [])))
    elif bad in ("short", "long"):
        cells = cells[:-1] if bad == "short" else cells + ["0"]
    lines[k] = ",".join(cells)
    if bad == "header":
        lines[0] = draw(st.sampled_from(["", "beta", "R_hat,I_Y_hat", lines[0] + ",x"]))
    text = ("\n".join(lines) + "\n").encode()
    return command, kind, b"\xff\xfe" + text if bad == "bytes" else text, bad == "directory"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(malformed_tables())
def test_bounds_and_plane_refuse_malformed_tables_on_one_line(case):
    # exit 1, one `<ErrorClass>: message` line on stderr, no temp file left
    # and the existing output untouched
    command, kind, data, directory = case
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        files = {"j.json": io.joint_to_json(SYM).encode(),
                 "net.json": io.network_to_json(init_network([2, 3, 2], seed=0)).encode(),
                 "curve.csv": TABLES["curve"].encode(), "bounds.csv": TABLES["bound"].encode(),
                 "out": b"old"}
        files["curve.csv" if kind == "curve" else "bounds.csv"] = data
        for name, content in files.items():
            (d / name).write_bytes(content)
        if directory:
            (d / "bad").mkdir()
        table = str(d / ("bad" if directory else "curve.csv" if kind == "curve" else "bounds.csv"))
        argv = (["bounds", "--curve", table, "--n", "1000", "--y-card", "2"] if command == "bounds"
                else ["plane", "--joint", str(d / "j.json"), "--net", str(d / "net.json"),
                      "--curve", table if kind == "curve" else str(d / "curve.csv"),
                      "--bounds", table if kind == "bound" else str(d / "bounds.csv")])
        err = text_io.StringIO()
        with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv + ["--out", str(d / "out")])
        assert code == 1
        assert re.fullmatch(r"[A-Z]\w*Error: [^\n]+\n", err.getvalue()), err.getvalue()
        assert not list(d.glob("*.tmp~"))
        assert (d / "out").read_bytes() == b"old"


def test_json_rejects_non_finite():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            io.fmt_real(value)
        for wrapped in (value, [1.0, value], {"a": {"b": value}}, np.array([[0.5, value]]),
                        np.float64(value)):
            with pytest.raises(ValueError):
                io.json_dumps(wrapped)


def test_json_writer_converts_numpy_and_rejects_other_types():
    assert io.json_dumps({"a": np.array([[1.0, 0.1]]), "n": np.int64(3), "t": (1, None, True)}) \
        == '{"a": [[1.0, 0.1]], "n": 3, "t": [1, null, true]}'
    for value in (object(), np.float32(0.5), {1, 2}):
        with pytest.raises(TypeError):
            io.json_dumps(value)


# excerpts of files written with 17 significant digits, as earlier versions
# wrote every real; each must read to the same values as its shortest repr
SEVENTEEN_DIGIT_FILES = [
    (io.joint_from_json, '{"x_card": 2, "y_card": 2, "p": [[0.40000000000000002, '
     '0.10000000000000001], [0.10000000000000001, 0.40000000000000002]]}',
     lambda j: j.p.tolist(), [[0.4, 0.1], [0.1, 0.4]]),
    (io.bifurcations_from_json, '[{"beta_low": 2.7770150290350024, "beta_high": '
     '2.779171096604129, "card_before": 1, "card_after": 2, "beta_predicted": '
     '2.7777777777777777}]', lambda b: b[0].beta_predicted, 25 / 9),
    (io.curve_from_csv, "beta,R,I_Y,D_IB,L,eff_card\n0.10000000000000001,0,0,"
     "0.27807190511263774,0,1\n", lambda c: (c.points[0].beta, c.points[0].D_IB),
     (0.1, 0.27807190511263774)),
    (io.loss_trace_from_csv, "epoch,loss\n0,1.0083931527413739\n1,0.99420279992371285\n",
     list, [1.0083931527413739, 0.99420279992371285]),
]


@pytest.mark.parametrize("reader, text, values, expected", SEVENTEEN_DIGIT_FILES,
                         ids=["joint", "bifurcations", "curve", "loss"])
def test_seventeen_digit_files_read_to_the_same_values(reader, text, values, expected):
    assert values(reader(text)) == expected
    reals = re.findall(r"\d\.\d{15,}", text)
    assert reals and all(float(io.fmt_real(float(r))) == float(r) for r in reals)
    assert all(len(io.fmt_real(float(r))) <= len(r) for r in reals)


def test_atomic_write(tmp_path, monkeypatch, capsys):
    p = tmp_path / "out.txt"
    io.atomic_write(str(p), "payload")
    assert p.read_text() == "payload"
    assert not (tmp_path / "out.txt.tmp~").exists()
    # a failed write leaves no temp file and replaces no output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    with pytest.raises(IsADirectoryError):
        io.atomic_write("adir", "payload")
    assert cli.run(["gen", "--preset", "symmetric", "--out", "adir"]) == 1
    assert capsys.readouterr().err.startswith("IsADirectoryError: ")
    (tmp_path / "c.csv").write_text("old")
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    assert cli.run(CURVE_ARGV.replace("--out out", "--out c.csv").split()
                   + ["--bifurcations-out", "absent/b.json"]) == 1
    assert capsys.readouterr().err.startswith("FileNotFoundError: ")
    assert (tmp_path / "c.csv").read_text() == "old"
    with pytest.raises(IsADirectoryError):
        io.write_all([("c.csv", "new"), ("adir", "payload")])
    assert (tmp_path / "c.csv").read_text() == "old"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["adir", "c.csv", "j.json", "out.txt"]


# --- CLI pipelines ------------------------------------------------------------------

def test_cli_gen_and_summary(tmp_path):
    out = tmp_path / "j.json"
    r = run_cli("gen", "--preset", "symmetric", "--eps", "0.2", "--out", out)
    assert r.returncode == 0, r.stderr
    summary = json.loads(r.stdout)
    assert summary["cmd"] == "gen"
    assert abs(summary["I_XY"] - 0.2780719051126377) < 1e-12
    j = io.joint_from_json(out.read_text())
    assert np.allclose(j.p, [[0.4, 0.1], [0.1, 0.4]])


def test_cli_unknown_preset_is_argument_error(tmp_path):
    r = run_cli("gen", "--preset", "nope", "--out", tmp_path / "j.json")
    assert r.returncode == 2


@pytest.mark.parametrize("cmd, flag, value", [
    ("train --joint j.json", "--hidden", "4,,3"),
    ("analyze --joint j.json --net net.json", "--sweep", "1,,"),
], ids=["train-hidden", "analyze-sweep"])
def test_cli_malformed_list_is_argument_error(cmd, flag, value):
    r = run_cli(*cmd.split(), flag, value, "--out", "out")
    assert r.returncode == 2
    assert f"argument {flag}: expected comma-separated" in r.stderr


def test_cli_empty_hidden_trains_without_hidden_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    assert cli.run(["train", "--joint", "j.json", "--hidden", "", "--epochs", "1",
                    "--out", "net.json"]) == 0
    assert json.loads(capsys.readouterr().out)["layer_sizes"] == [2, 2]


def test_cli_missing_file_is_computation_error(tmp_path):
    r = run_cli("ib-solve", "--joint", tmp_path / "absent.json",
                "--t-card", 2, "--beta", 1.0, "--out", tmp_path / "s.json")
    assert r.returncode == 1
    assert "Error" in r.stderr or "error" in r.stderr


def test_cli_overflowing_L_is_one_line_error(tmp_path):
    # beta * I(X;Y) = 1e308 * 2 bits overflows; no numpy warning reaches stderr
    j, out = tmp_path / "j.json", tmp_path / "s.json"
    assert run_cli("gen", "--preset", "deterministic", "--k", 4, "--out", j).returncode == 0
    r = run_cli("ib-solve", "--joint", j, "--t-card", 4, "--beta", "1e308", "--out", out)
    assert r.returncode == 1
    assert r.stderr == "ValueError: solution has non-finite L\n"
    assert not out.exists()


def test_cli_joint_with_infinite_I_XY_is_one_line_error(tmp_path):
    # p(x) p(y) of the 5e-324 cell underflows to 0; the joint is refused as
    # it is read, with no RuntimeWarning and no second error on stderr
    j, out = tmp_path / "j.json", tmp_path / "s.json"
    j.write_text('{"x_card": 2, "y_card": 2, "p": [[0.5, 5e-324], [0.5, 0.0]]}\n')
    r = run_cli("ib-solve", "--joint", j, "--t-card", 2, "--beta", 1, "--out", out)
    assert r.returncode == 1
    assert r.stderr == "ValueError: JointDistribution has non-finite I(X;Y) = inf\n"
    assert not out.exists()


@pytest.mark.parametrize("card", [["--x-card", 0], ["--y-card", 0], ["--x-card", -1]])
@pytest.mark.parametrize("preset", ["product", "random"])
def test_cli_gen_empty_alphabet_is_one_line_error(tmp_path, preset, card):
    r = run_cli("gen", "--preset", preset, *card, "--out", tmp_path / "j.json")
    assert r.returncode == 1
    assert r.stderr == "ValueError: cardinalities must be >= 1\n"
    assert not (tmp_path / "j.json").exists()


# 2^40 symbols: refused by the preset's cell count, before anything is allocated
@pytest.mark.parametrize("args", [["--preset", "xor", "--d", 40],
                                  ["--preset", "hierarchical", "--levels", 40]])
def test_cli_gen_too_large_is_one_line_error(tmp_path, args):
    r = run_cli("gen", *args, "--out", tmp_path / "j.json")
    assert r.returncode == 1
    assert r.stderr.startswith("ValueError: ") and r.stderr.count("\n") == 1
    assert "MAX_CELLS = 1000000" in r.stderr
    assert not (tmp_path / "j.json").exists()


@pytest.mark.parametrize("args, cells", [
    ("product --x-card 100000 --y-card 100000", "100000 x 100000 = 10000000000"),
    ("random --x-card 1000 --y-card 1001", "1000 x 1001 = 1001000"),
    ("deterministic --k 100000", "100000 x 100000 = 10000000000"),
    ("hierarchical --levels 30", "2^30 x 2"),
    ("hierarchical --levels 19", "2^19 x 2"),
    ("xor --d 40", "2^40 x 2"),
])
def test_cli_gen_refuses_an_oversize_preset_before_allocating(tmp_path, capsys, args, cells):
    # every case here would allocate at least 8 MB, or loop over 2^n rows,
    # were it not refused; run one refusal first, so that the imports and
    # the parser are not counted
    argv = ["gen", "--preset", *args.split(), "--out", str(tmp_path / "j.json")]
    assert cli.run(argv) == 1
    tracemalloc.start()
    try:
        code = cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**20
    err = capsys.readouterr().err
    assert err == 2 * f"ValueError: {cells} cells exceeds MAX_CELLS = 1000000\n"
    assert not (tmp_path / "j.json").exists()


def test_cli_curve_summary_reports_unconverged_solves(tmp_path, capsys):
    # the count goes to the stdout summary, not into the curve file
    j, out = tmp_path / "j.json", tmp_path / "curve.csv"
    assert cli.run(["gen", "--preset", "symmetric", "--out", str(j)]) == 0
    argv = ["ib-curve", "--joint", str(j), "--t-card", "2", "--beta-min", "0.5",
            "--beta-max", "20", "--grid-factor", "1.25", "--out", str(out)]
    capsys.readouterr()
    assert cli.run(argv + ["--max-iter", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["unconverged"] > 0
    assert "unconverged" not in out.read_text()
    assert cli.run(argv) == 0
    assert json.loads(capsys.readouterr().out)["unconverged"] == 0


def test_cli_joint_without_y_card_is_one_line_error(tmp_path, capsys):
    j = tmp_path / "j.json"
    j.write_text('{"x_card": 2, "p": [[0.5, 0], [0, 0.5]]}')
    code = cli.run(["ib-solve", "--joint", str(j), "--t-card", "2", "--beta", "1",
                    "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ValueError: ") and "'y_card'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "s.json").exists()


def test_cli_network_without_weights_is_one_line_error(tmp_path, capsys):
    j, net = tmp_path / "j.json", tmp_path / "net.json"
    j.write_text(io.joint_to_json(SYM))
    net.write_text('{"layer_sizes": [2, 2], "biases": [[0, 0]]}')
    code = cli.run(["analyze", "--joint", str(j), "--net", str(net),
                    "--out", str(tmp_path / "plane.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ValueError: ") and "'weights'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "plane.csv").exists()


def test_cli_joint_with_wrong_typed_x_card_is_one_line_error(tmp_path, capsys):
    j = tmp_path / "j.json"
    j.write_text('{"x_card": [2], "y_card": 2, "p": [[0.5, 0], [0, 0.5]]}')
    code = cli.run(["ib-solve", "--joint", str(j), "--t-card", "2", "--beta", "1",
                    "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ValueError: ") and "'x_card'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "s.json").exists()


def test_cli_joint_with_cards_off_its_shape_is_one_line_error(tmp_path, capsys):
    # the file's x_card and y_card are checked against p by the reader, then dropped
    j = tmp_path / "j.json"
    j.write_text('{"x_card": 2, "y_card": 3, "p": [[0.5, 0], [0, 0.5]]}')
    code = cli.run(["ib-solve", "--joint", str(j), "--t-card", "2", "--beta", "1",
                    "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "DimensionError: JointDistribution has shape (2, 2), not a nonempty (2, 3)\n"
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("reader, text, key", [
    (io.joint_from_json, '{"x_card": true, "y_card": true, "p": [[1.0]]}', "'x_card'"),
    (io.joint_from_json, '{"x_card": 1, "y_card": true, "p": [[1.0]]}', "'y_card'"),
    (io.network_from_json, '{"layer_sizes": [true, true], "weights": [[[0.0]]], '
     '"biases": [[0.0]]}', "'layer_sizes'"),
], ids=["joint-x-card", "joint-y-card", "network-layer-sizes"])
def test_json_readers_reject_true_as_an_integer(reader, text, key):
    with pytest.raises(ValueError, match=f"JSON {key} has the wrong type"):
        reader(text)


def test_cli_network_with_wrong_typed_layer_sizes_is_one_line_error(tmp_path, capsys):
    j, net = tmp_path / "j.json", tmp_path / "net.json"
    j.write_text(io.joint_to_json(SYM))
    net.write_text('{"layer_sizes": 2, "weights": [[[0, 0], [0, 0]]], "biases": [[0, 0]]}')
    code = cli.run(["analyze", "--joint", str(j), "--net", str(net),
                    "--out", str(tmp_path / "plane.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ValueError: ") and "'layer_sizes'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "plane.csv").exists()


GOOD_CURVE = "beta,R,I_Y,D_IB,L,eff_card\n1,0,0,0.2,0,1\n"
BOUNDS_ARGV = "bounds --curve curve.csv --n 1000 --y-card 2 --out out"
PLANE_ARGV = "plane --joint j.json --net net.json --curve curve.csv --bounds bounds.csv --out out"
CURVE_ARGV = "ib-curve --joint j.json --t-card 2 --beta-min 1 --beta-max 2 --out out"
ANALYZE_ARGV = "analyze --joint j.json --net net.json --out out"
NO_UNIT_NET = '{"layer_sizes": [2, 0, 2], "weights": [[], [[], []]], "biases": [[], [0, 0]]}'


@pytest.mark.parametrize("files, argv, expected", [
    ({"curve.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,nan,0.1,0.2,nan,1\n"}, BOUNDS_ARGV,
     "curve CSV line 2: curve point has non-finite R"),
    ({"curve.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,0,-0.25,0.2,0.25,1\n"}, BOUNDS_ARGV,
     "curve CSV line 2: curve point has negative I_Y"),
    ({"curve.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,0,0,-0.1,0,1\n"}, BOUNDS_ARGV,
     "curve CSV line 2: curve point has negative D_IB"),
    ({"curve.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,-0.5,0,0.2,-0.5,1\n"}, BOUNDS_ARGV,
     "curve CSV line 2: curve point has negative R"),
    ({"curve.csv": "beta,R,I_Y,D_IB,L,eff_card\n2,0.5,0.1,0.2,0.5,1\n"}, BOUNDS_ARGV,
     "curve CSV line 2: curve point violates L = R - beta * I_Y"),
    ({"curve.csv": GOOD_CURVE + "2,0,0,0.2\n"}, BOUNDS_ARGV, "curve CSV line 3: "),
    ({"curve.csv": GOOD_CURVE + "2,0,0,0.3,0,1\n"}, BOUNDS_ARGV,
     "curve CSV line 3: curve point has D_IB + I_Y = 0.3, not 0.2"),
    ({"curve.csv": "beta,R,I_Y,D_IB,L,eff_card\n1,2000,0,0,2000,1\n"}, BOUNDS_ARGV,
     "R = 2000.0 bits gives 2^R beyond the float range"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV + " --c-bound -1", "c_bound must be finite and >= 0"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV + " --c-bound nan", "c_bound must be finite and >= 0"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV + " --c-bound inf", "c_bound must be finite and >= 0"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV.replace("--n 1000", "--n 1") + " --c-bound 1e308",
     "c_bound = 1e+308 gives a slack c * K * |Y| / sqrt(n) beyond the float range"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV + " --y-card -2", "y_card must be >= 1"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV.replace("--n 1000", "--n 1" + "0" * 400),
     "sample size must be >= 1 and at most the largest float"),
    ({"curve.csv": GOOD_CURVE}, BOUNDS_ARGV.replace("--y-card 2", "--y-card 2" + "0" * 400),
     "y_card must be >= 1 and at most the largest float"),
    ({"curve.csv": GOOD_CURVE, "bounds.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\nnan,0.1,0,0.3\n"},
     PLANE_ARGV, "bound CSV line 2: bound point has non-finite R_hat"),
    ({"curve.csv": GOOD_CURVE, "bounds.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\n0,0.1,-0.4,0.3\n"},
     PLANE_ARGV, "bound CSV line 2: bound point has negative I_Y_worst"),
    ({"curve.csv": GOOD_CURVE, "bounds.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\n0,0.1,0\n"},
     PLANE_ARGV, "bound CSV line 2: "),
    ({"curve.csv": GOOD_CURVE, "bounds.csv": "R_hat,I_Y_hat,I_Y_worst,D_worst\n0,0.1,0.9,0.3\n"},
     PLANE_ARGV, "bound CSV line 2: bound point has I_Y_worst above I_Y_hat"),
    ({"j.json": DEEP_JSON}, "ib-solve --joint j.json --t-card 2 --beta 1 --out out",
     "joint JSON is nested too deeply to parse"),
    ({"net.json": DEEP_JSON}, ANALYZE_ARGV, "network JSON is nested too deeply to parse"),
    ({"net.json": ""}, ANALYZE_ARGV, "network JSON is not valid JSON: Expecting value"),
    ({"j.json": ""}, ANALYZE_ARGV, "joint JSON is not valid JSON: Expecting value"),
    ({}, "ib-solve --joint j.json --t-card 2 --beta inf --out out", "beta must be finite"),
    ({}, "ib-solve --joint j.json --t-card 2 --beta 1 --tol nan --out out", "tol must be finite"),
    ({}, "ib-solve --joint j.json --t-card 2 --beta 1 --tol inf --out out", "tol must be finite"),
    ({}, "ib-solve --joint j.json --t-card 2 --beta 1 --max-iter -3 --out out",
     "max_iter must be >= 1"),
    ({}, "ib-solve --joint j.json --t-card 2 --beta 1 --max-iter 0 --out out",
     "max_iter must be >= 1"),
    ({}, CURVE_ARGV + " --tol nan", "tol must be finite"),
    ({}, CURVE_ARGV + " --max-iter -1", "max_iter must be >= 1"),
    ({}, CURVE_ARGV + " --grid-factor nan", "must be finite"),
    ({}, CURVE_ARGV + " --grid-factor 1.000000000001", "points from 1.0 to 2.0, more than 100000"),
    ({}, CURVE_ARGV.replace("--beta-max 2", "--beta-max inf"), "must be finite"),
    ({}, "train --joint j.json --hidden 0 --epochs 1 --out out", "at least one unit"),
    ({"net.json": NO_UNIT_NET}, ANALYZE_ARGV, "at least one unit"),
    ({}, ANALYZE_ARGV + " --beta inf", "beta must be finite, got inf"),
    ({}, ANALYZE_ARGV + " --beta nan", "beta must be finite, got nan"),
    ({}, ANALYZE_ARGV + " --sweep 1,nan", "beta must be finite, got nan"),
    # I_prev + beta * I_Y_lost would reward lost relevance
    ({}, ANALYZE_ARGV + " --beta -1", "layer criterion beta must be >= 0, got -1.0"),
    ({}, ANALYZE_ARGV + " --sweep=0.5,-1", "layer criterion beta must be >= 0, got -1.0"),
], ids=["bounds-non-finite-curve-point", "bounds-negative-curve-I_Y",
        "bounds-negative-curve-D_IB", "bounds-negative-curve-R",
        "bounds-curve-L-off-R-minus-beta-I_Y", "bounds-short-curve-row",
        "bounds-curve-rows-disagree-on-I_XY", "bounds-curve-R-past-the-float-range",
        "bounds-negative-c-bound", "bounds-nan-c-bound", "bounds-infinite-c-bound",
        "bounds-slack-past-the-float-range",
        "bounds-negative-y-card", "bounds-n-past-the-float-range",
        "bounds-y-card-past-the-float-range", "plane-non-finite-bound-point",
        "plane-negative-bound-I_Y_worst", "plane-short-bound-row",
        "plane-bound-I_Y_worst-above-I_Y_hat",
        "ib-solve-deeply-nested-joint", "analyze-deeply-nested-network",
        "analyze-empty-network", "analyze-empty-joint",
        "ib-solve-infinite-beta", "ib-solve-nan-tol", "ib-solve-infinite-tol",
        "ib-solve-negative-max-iter", "ib-solve-zero-max-iter", "ib-curve-nan-tol",
        "ib-curve-negative-max-iter", "ib-curve-nan-grid-factor", "ib-curve-grid-too-fine",
        "ib-curve-infinite-beta-max", "train-empty-hidden-layer",
        "analyze-empty-hidden-layer", "analyze-infinite-beta", "analyze-nan-beta",
        "analyze-nan-sweep-beta", "analyze-negative-beta", "analyze-negative-sweep-beta"])
def test_cli_bad_input_is_one_line_error(tmp_path, monkeypatch, capsys, files, argv, expected):
    monkeypatch.chdir(tmp_path)
    files = {"j.json": io.joint_to_json(SYM),
             "net.json": io.network_to_json(init_network([2, 3, 2], seed=0)), **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = cli.run(argv.split())
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ValueError: ") and expected in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    "gen --preset random --seed -1 --out out",
    "ib-solve --joint j.json --t-card 2 --beta 2 --seed -1 --out out",
    CURVE_ARGV + " --seed=-1",
    "train --joint j.json --n 20 --epochs 1 --seed -1 --out out",
], ids=["gen", "ib-solve", "ib-curve", "train"])
def test_negative_seed_is_an_argument_error(tmp_path, monkeypatch, capsys, argv):
    # numpy's generators refuse it; the parser names the flag and the value first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    assert exit_code(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ibplane ")
    assert err.endswith(": error: argument --seed: expected a non-negative integer, got -1\n")
    assert not (tmp_path / "out").exists()
    assert exit_code(argv.replace("-1", "x").split()) == 2
    assert capsys.readouterr().err.endswith("argument --seed: invalid int value: 'x'\n")


@pytest.mark.parametrize("argv", [
    "train --joint j.json --n 20 --epochs 1 --out o --loss-out o",
    "train --joint j.json --n 20 --epochs 1 --out n.json --loss-out o --samples-out ./o",
    "train --joint j.json --n 20 --epochs 1 --out o --samples-out link",
    CURVE_ARGV.replace("--out out", "--out o --bifurcations-out ./o"),
    "bounds --curve curve.csv --n 1000 --joint j.json --net net.json --gaps-out o --out o",
], ids=["train-out-loss-out", "train-loss-out-samples-out", "train-out-symlinked-samples-out",
        "ib-curve-out-bifurcations-out", "bounds-gaps-out-out"])
def test_cli_outputs_that_name_one_file_are_one_line_error(tmp_path, monkeypatch, capsys, argv):
    # refused before any temp file is written: no output is lost or replaced
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    (tmp_path / "net.json").write_text(io.network_to_json(init_network([2, 3, 2], seed=0)))
    (tmp_path / "curve.csv").write_text(GOOD_CURVE)
    (tmp_path / "o").write_text("old")
    (tmp_path / "link").symlink_to("o")
    before = sorted(f.name for f in tmp_path.iterdir())
    assert cli.run(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValueError: two outputs name one file: ") and err.count("\n") == 1
    assert (tmp_path / "o").read_text() == "old"
    assert sorted(f.name for f in tmp_path.iterdir()) == before


def test_cli_summary_that_cannot_be_written_replaces_no_output(tmp_path, monkeypatch, capsys):
    # rate_corr_star would be c * 2^R / sqrt(n) = inf here, which JSON cannot
    # hold: the slack c * K * |Y| / sqrt(n) that bounds it is refused first,
    # naming c_bound, before any output is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.csv").write_text("beta,R,I_Y,D_IB,L,eff_card\n1.0,1.0,0.5,0.5,0.5,2\n")
    (tmp_path / "b.csv").write_text("old")
    before = sorted(f.name for f in tmp_path.iterdir())
    argv = "bounds --curve curve.csv --n 1 --c-bound 1e308 --y-card 2 --out b.csv"
    assert cli.run(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("ValueError: c_bound = 1e+308 gives a slack c * K * |Y| / sqrt(n) "
                   "beyond the float range\n")
    assert (tmp_path / "b.csv").read_text() == "old"
    assert sorted(f.name for f in tmp_path.iterdir()) == before


def test_cli_analyze_sweep_runs_one_forward_pass(tmp_path, monkeypatch):
    # the path's stored terms serve every beta, its last point (R_N, D_N)
    calls = []
    monkeypatch.setattr(analyzer, "forward_all", lambda *a: calls.append(a) or forward_all(*a))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    (tmp_path / "net.json").write_text(io.network_to_json(init_network([2, 3, 2], seed=0)))
    assert cli.run((ANALYZE_ARGV + " --beta 2 --sweep 0.5,2,8").split()) == 0
    assert len(calls) == 1


def test_cli_bifurcations_out_solves_nothing_outside_the_sweep(tmp_path, monkeypatch):
    # the sweep's bisection already holds the solution each prediction needs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    argv = CURVE_ARGV.replace("--beta-max 2", "--beta-max 4").split()
    counts = []
    for extra in ([], ["--bifurcations-out", "bifs.json"]):
        calls = []
        monkeypatch.setattr("ibplane.curve.ib_solve_multistart",
                            lambda *a, **k: calls.append(a) or ib_solve_multistart(*a, **k))
        assert cli.run(argv + extra) == 0
        counts.append(len(calls))
    assert len(io.bifurcations_from_json((tmp_path / "bifs.json").read_text())) == 1
    assert counts[0] == counts[1] > 0


def test_cli_solve_curve_bounds_train_analyze_plane(tmp_path):
    j = tmp_path / "j.json"
    curve = tmp_path / "curve.csv"
    bifs = tmp_path / "bifs.json"
    bnd = tmp_path / "bounds.csv"
    gaps = tmp_path / "gaps.json"
    net = tmp_path / "net.json"
    loss = tmp_path / "loss.csv"
    plane = tmp_path / "plane.csv"
    svg = tmp_path / "plane.svg"

    assert run_cli("gen", "--preset", "symmetric", "--out", j).returncode == 0

    r = run_cli("ib-curve", "--joint", j, "--t-card", 2, "--beta-min", 0.5,
                "--beta-max", 30, "--grid-factor", 1.25, "--restarts", 2,
                "--out", curve, "--bifurcations-out", bifs)
    assert r.returncode == 0, r.stderr
    parsed = io.curve_from_csv(curve.read_text())
    betas = [p.beta for p in parsed.points]
    assert betas == sorted(betas)
    assert len(io.bifurcations_from_json(bifs.read_text())) == 1

    r = run_cli("train", "--joint", j, "--n", 400, "--hidden", "4,3",
                "--epochs", 150, "--lr", 0.5, "--batch-size", 32,
                "--seed", 0, "--out", net, "--loss-out", loss)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["accuracy"] > 0.6

    r = run_cli("bounds", "--curve", curve, "--n", 1000, "--joint", j,
                "--net", net, "--gaps-out", gaps, "--out", bnd)
    assert r.returncode == 0, r.stderr
    gapobj = json.loads(gaps.read_text())
    assert set(gapobj) == {"R_N", "D_N", "delta_G", "delta_C",
                           "R_star", "D_star", "n", "c_bound"}
    assert gapobj["delta_G"] == pytest.approx(gapobj["D_N"] - gapobj["D_star"])

    r = run_cli("analyze", "--joint", j, "--net", net, "--bins", 8,
                "--beta", 2.0, "--sweep", "0.5,2,8", "--out", plane)
    assert r.returncode == 0, r.stderr
    rows = io.layer_points_from_csv(plane.read_text())
    assert [row[0] for row in rows] == [0, 1, 2, 3]
    assert len(json.loads(r.stdout)["criterion_sweep"]) == 3

    r = run_cli("plane", "--joint", j, "--net", net, "--curve", curve,
                "--bounds", bnd, "--out", svg)
    assert r.returncode == 0, r.stderr
    root = ET.fromstring(svg.read_text())
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 3
    text = svg.read_text()
    for label in ("ib-curve", "worst-case-bound", "layer-path"):
        assert label in text


def test_cli_bounds_gap_flags_must_come_together(tmp_path):
    curve = tmp_path / "c.csv"
    curve.write_text("beta,R,I_Y,D_IB,L,eff_card\n1,0,0,0.2,0,1\n")
    r = run_cli("bounds", "--curve", curve, "--n", 100,
                "--net", tmp_path / "net.json", "--out", tmp_path / "b.csv")
    assert r.returncode == 2
    r = run_cli("bounds", "--curve", curve, "--n", 100, "--y-card", 2,
                "--net", tmp_path / "net.json", "--out", tmp_path / "b.csv")
    assert r.returncode == 2
    assert r.stderr.startswith("usage: ibplane bounds ")
    assert r.stderr.endswith(
        "ibplane bounds: error: gap computation needs --joint, --net and --gaps-out\n")


def test_cli_bounds_needs_joint_or_y_card(tmp_path, monkeypatch, capsys):
    # |Y| sets the bound; there is no default to fall back on silently
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text(GOOD_CURVE)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    argv = "bounds --curve c.csv --n 100 --out b.csv".split()
    with pytest.raises(SystemExit) as e:
        cli.run(argv)
    assert e.value.code == 2
    assert "ibplane bounds: error: one of the arguments --joint --y-card is required" \
        in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()
    assert cli.run(argv + ["--y-card", "2"]) == 0
    by_card = (tmp_path / "b.csv").read_text()
    assert cli.run(argv + ["--joint", "j.json"]) == 0
    assert (tmp_path / "b.csv").read_text() == by_card


def test_cli_bounds_refuses_joint_with_y_card(tmp_path, monkeypatch, capsys):
    # the joint fixes |Y|; a second, conflicting value is refused, not ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text(GOOD_CURVE)
    (tmp_path / "j.json").write_text(io.joint_to_json(SYM))
    with pytest.raises(SystemExit) as e:
        cli.run("bounds --curve c.csv --n 100 --joint j.json --y-card 7 --out b.csv".split())
    assert e.value.code == 2
    assert "argument --y-card: not allowed with argument --joint" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_cli_train_samples_out_round_trips(tmp_path):
    j, net, samples = tmp_path / "j.json", tmp_path / "n.json", tmp_path / "s.csv"
    run_cli("gen", "--preset", "symmetric", "--out", j)
    r = run_cli("train", "--joint", j, "--n", 50, "--epochs", 1, "--seed", 3,
                "--out", net, "--samples-out", samples)
    assert r.returncode == 0, r.stderr
    back = io.samples_from_csv(samples.read_text())
    assert np.array_equal(back.pairs, sample_pairs(SYM, 50, seed=3).pairs)


def test_cli_train_reports_its_step_count(tmp_path):
    # 50 samples in minibatches of 16: three full ones and a ragged one of 2
    j, net = tmp_path / "j.json", tmp_path / "n.json"
    run_cli("gen", "--preset", "symmetric", "--out", j)
    r = run_cli("train", "--joint", j, "--n", 50, "--epochs", 3, "--batch-size", 16,
                "--out", net)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["steps"] == 3 * 4
    assert "steps" not in net.read_text()


def readme_pipeline():
    """The argv of every `ibplane` command in the README's pipeline block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(ibplane gen .*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ibplane ")]


def test_readme_pipeline_runs_verbatim(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs = readme_pipeline()
    assert [a[0] for a in argvs] == ["gen", "ib-solve", "ib-curve", "train",
                                     "bounds", "analyze", "plane"]
    for argv in argvs:
        assert cli.run(argv) == 0, (argv, capsys.readouterr().err)
    polylines = [e for e in ET.parse(tmp_path / "plane.svg").getroot().iter()
                 if e.tag.endswith("polyline")]
    assert len(polylines) == 3
    # every output file that has a reader is written back byte for byte
    rewrite = {
        "j.json": lambda t: io.joint_to_json(io.joint_from_json(t)),
        "sol.json": lambda t: io.solution_to_json(
            io.solution_from_json(t, io.joint_from_json((tmp_path / "j.json").read_text()))),
        "curve.csv": lambda t: io.curve_to_csv(io.curve_from_csv(t)),
        "bifs.json": lambda t: io.bifurcations_to_json(io.bifurcations_from_json(t)),
        "net.json": lambda t: io.network_to_json(io.network_from_json(t)),
        "loss.csv": lambda t: io.loss_trace_to_csv(io.loss_trace_from_csv(t)),
        "bounds.csv": lambda t: io.bound_curve_to_csv(
            BoundCurve(*io.bound_points_from_csv(t), 1000, 1.0)),
        "plane.csv": lambda t: io.layer_path_to_csv(LayerPath(
            [InfoPlanePoint(*row, 0.0, 0.0) for row in io.layer_points_from_csv(t)], ())),
    }
    for name, again in rewrite.items():
        text = (tmp_path / name).read_text()
        assert again(text) == text, name


def test_cli_reruns_are_byte_identical(tmp_path):
    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        j, curve, net = d / "j.json", d / "curve.csv", d / "net.json"
        run_cli("gen", "--preset", "random", "--x-card", 4, "--seed", 5, "--out", j)
        run_cli("ib-curve", "--joint", j, "--t-card", 3, "--beta-min", 0.5,
                "--beta-max", 10, "--grid-factor", 1.4, "--restarts", 2, "--out", curve)
        run_cli("train", "--joint", j, "--n", 200, "--epochs", 50,
                "--seed", 1, "--out", net)
        outputs[tag] = (j.read_bytes(), curve.read_bytes(), net.read_bytes())
    assert outputs["a"] == outputs["b"]


# --- one subparser per run ------------------------------------------------------

COMMANDS = ["gen", "ib-solve", "ib-curve", "bounds", "train", "analyze", "plane"]


def parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of parse(argv); the code is None when
    parse returns instead of exiting."""
    try:
        parse(argv)
        code = None
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def subcommands(parser):
    """The names of the subcommands registered on parser."""
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize("cmd", COMMANDS)
def test_command_help_is_the_same_from_the_one_command_parser(cmd, capsys):
    full = parse_outcome(cli.build_parser().parse_args, [cmd, "--help"], capsys)
    alone = parse_outcome(cli.build_parser(cmd).parse_args, [cmd, "--help"], capsys)
    assert full[0] == 0 and full[1].startswith(f"usage: ibplane {cmd} ")
    assert alone == full


def test_readme_argv_parses_the_same_from_the_one_command_parser():
    for argv in readme_pipeline():
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


ARGUMENT_ERRORS = {  # id: an argv that is an argument error
    "missing-required": "gen --out j.json",
    "bad-choice": "gen --preset nope --out j.json",
    "unknown-option": "gen --preset symmetric --out j.json --bogus 1",
    "extra-argument": "ib-solve --joint j.json --t-card 2 --beta 1 --out s.json extra",
    "malformed-hidden": "train --joint j.json --hidden 4,,3 --out net.json",
}


@pytest.mark.parametrize("argv", ARGUMENT_ERRORS.values(), ids=ARGUMENT_ERRORS)
def test_argument_errors_are_the_same_from_the_one_command_parser(argv, capsys):
    # an unknown option is reported by the top-level parser, whose usage
    # line must still list every command
    full = parse_outcome(cli.build_parser().parse_args, argv.split(), capsys)
    assert full[0] == 2 and full[2].startswith("usage: ibplane ")
    assert parse_outcome(cli.run, argv.split(), capsys) == full


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["nope"], ["-x", "gen"]],
                         ids=["none", "help", "h", "unknown-command", "leading-option"])
def test_help_and_unknown_commands_get_the_full_parser(argv, capsys):
    outcome = parse_outcome(cli.run, argv, capsys)
    assert outcome == parse_outcome(cli.build_parser().parse_args, argv, capsys)
    text = outcome[1] + outcome[2]
    assert text.startswith(
        "usage: ibplane [-h] {gen,ib-solve,ib-curve,bounds,train,analyze,plane} ...\n"
        if argv[:1] != ["-x"] else "usage: ibplane gen ")
    if argv[:1] in (["--help"], ["-h"]):
        assert all(f"\n    {cmd} " in text for cmd in COMMANDS)


def test_run_builds_only_the_requested_subparser(monkeypatch, capsys):
    built = []

    def spy(command=None):
        built.append(build(command))
        return built[-1]
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_PARSERS", {})  # as in a fresh process
    assert subcommands(build()) == COMMANDS
    for cmd in COMMANDS:
        assert parse_outcome(cli.run, [cmd, "--help"], capsys)[0] == 0
        assert subcommands(built[-1]) == [cmd]
    parse_outcome(cli.run, ["nope"], capsys)
    assert subcommands(built[-1]) == COMMANDS
    # each of the eight is built once per process; later runs reuse it
    for argv in [*([cmd, "--help"] for cmd in COMMANDS), ["nope"], [], ["--help"]]:
        parse_outcome(cli.run, argv, capsys)
    assert len(built) == 8


@pytest.mark.parametrize("argv", ["--help", *(f"{cmd} --help" for cmd in COMMANDS),
                                  *ARGUMENT_ERRORS.values()])
def test_help_and_argument_errors_load_no_library_module(argv):
    # a fresh interpreter: only the parser runs, and no parser imports
    # presets, solver or anything else that loads numpy
    code = ("import json, sys\nfrom ibplane import cli\ntry:\n    code = cli.run(sys.argv[1:])\n"
            "except SystemExit as e:\n    code = e.code\n"
            "print(json.dumps([code, sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('ibplane', 'numpy'))]))")
    r = subprocess.run([sys.executable, "-c", code, *argv.split()],
                       capture_output=True, text=True)
    code, loaded = json.loads(r.stdout.splitlines()[-1])
    assert code == (0 if argv.endswith("--help") else 2), r.stderr
    assert loaded == ["ibplane", "ibplane.cli", "ibplane.errors"]


def test_preset_table_names_each_preset_functions_parameters():
    # gen's flags per preset, kept in cli so the parser need not import presets
    assert tuple(cli._PRESET_ARGS) == presets.PRESET_NAMES
    for name, flags in cli._PRESET_ARGS.items():
        params = inspect.signature(getattr(presets, f"{name}_joint")).parameters
        assert sorted(flags) == sorted(set(params) - {"seed"}), name


def test_no_parser_is_built_at_import():
    # a fresh process that parses nothing pays for no parser
    code = "import sys; from ibplane import cli; sys.exit(len(cli._PARSERS))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


README_LOADS = {  # command: the ibplane modules a fresh interpreter loads to run it
    "gen": "cli errors io presets prob",
    "ib-solve": "cli errors io prob solver",
    "ib-curve": "cli curve errors io prob solver",
    "train": "cli errors io mlp prob",
    "bounds": "analyzer bounds cli curve errors io mlp prob solver",
    "analyze": "analyzer cli errors io mlp prob",
    "plane": "analyzer bounds cli curve errors io mlp prob solver svgplot",
}


def test_each_readme_command_loads_only_the_modules_it_uses(tmp_path):
    # one fresh interpreter per command, on the files the commands before it wrote
    code = ("import json, os, sys\nos.chdir(sys.argv[1])\nfrom ibplane import cli\n"
            "assert cli.run(sys.argv[2:]) == 0\n"
            "print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith('ibplane.'))))")
    loaded = {}
    for argv in readme_pipeline():
        r = subprocess.run([sys.executable, "-c", code, str(tmp_path), *argv],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        loaded[argv[0]] = " ".join(json.loads(r.stdout.splitlines()[-1]))
    assert loaded == README_LOADS


def exit_code(argv) -> int:
    try:
        return cli.run(argv)
    except SystemExit as e:
        return e.code


def test_shared_parsers_carry_nothing_between_runs(tmp_path, monkeypatch, capsys):
    # every kind of outcome in between, on the parsers the pipeline reuses;
    # the one success in between uses values other than the README's
    between = [
        (2, "train --joint j.json --hidden 4,,3 --out x.json"),
        (2, "bounds --curve curve.csv --n 1 --y-card 2 --net net.json --out x.csv"),
        (0, "ib-curve --help"),
        (0, "--help"),
        (2, "nope"),
        (1, "ib-solve --joint absent.json --t-card 2 --beta 5 --out x.json"),
        (0, "train --joint j.json --n 20 --hidden= --epochs 1 --seed 7 --out x.json"),
    ]
    runs = []
    for tag in ("a", "b"):
        (tmp_path / tag).mkdir()
        monkeypatch.chdir(tmp_path / tag)
        assert [exit_code(argv) for argv in readme_pipeline()] == [0] * 7
        out = capsys.readouterr()
        assert out.err == ""
        runs.append((out.out, {f.name: f.read_bytes() for f in (tmp_path / tag).iterdir()}))
        if tag == "a":
            assert [exit_code(argv.split()) for _, argv in between] == [c for c, _ in between]
            capsys.readouterr()
    assert len(runs[0][0].splitlines()) == 7 and len(runs[0][1]) == 10
    assert runs[0] == runs[1]
    for k in range(50):
        exit_code([f"nope-{k}"])
    capsys.readouterr()
    assert len(cli._PARSERS) <= 8


def test_console_script_reads_sys_argv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["ibplane", "gen", "--preset", "symmetric",
                                      "--out", "j.json"])
    with pytest.raises(SystemExit) as e:
        cli.main()
    assert e.value.code == 0
    assert json.loads(capsys.readouterr().out)["cmd"] == "gen"
    assert io.joint_from_json((tmp_path / "j.json").read_text()).x_card == 2
