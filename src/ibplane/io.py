"""File formats: JSON for structured objects, CSV for tabular series.

Reals are serialized as Python's repr, the shortest decimal that reads back
to the same binary64, and JSON is written and parsed by the standard library
with keys in a fixed insertion order, so identical inputs produce
byte-identical files. Every integer field is read by `_int`, which rejects
`true` and `false`. Every CSV format is written by `_csv_text` and read by
`_csv_columns` a column at a time, with no record per row: a cell goes
through the builtin `float` or `int`, whole columns are checked at once, and
an error names the first bad line, with the message a record of that row
would give. A reader imports its record type's module on first call. Writes
go through a temp-file-then-rename so readers never observe a partial file;
`write_all` refuses two outputs that name one file, writes every temp file
before it renames any, and leaves none on failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import math
import operator
import os

import numpy as np

from .errors import DimensionError
from .prob import JointDistribution, SampleSet


def fmt_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x}")
    return repr(x)


def _plain(value):
    """The list or int json.dumps writes for a numpy array or integer."""
    if isinstance(value, (np.ndarray, np.integer)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_dumps(value) -> str:
    """JSON text with dicts in insertion order and reals as the shortest
    repr; a non-finite real is a ValueError."""
    return json.dumps(value, allow_nan=False, default=_plain)


def atomic_write(path: str, text: str, staged: list | None = None) -> None:
    """Write text to path via a temp file and rename; a failed write or
    rename removes the temp file. With `staged`, the rename is left to the
    caller: the (temp, path) pair is appended there instead."""
    # refused before anything is written: a rename onto a directory fails
    # only after write_all may have renamed the files before it
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = path + ".tmp~"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        if staged is None:
            os.replace(tmp, path)
        else:
            staged.append((tmp, path))
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_all(outputs: list[tuple[str, str]]) -> None:
    """atomic_write for several (path, text) pairs, refusing two paths to
    one file: every temp file is written before any is renamed, and a
    failure removes them all, so a failed write replaces no output."""
    real = [os.path.realpath(path) for path, _ in outputs]
    for k, (path, _) in enumerate(outputs):
        if real[k] in real[:k]:
            raise ValueError(f"two outputs name one file: {path!r}")
    staged: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            atomic_write(path, text, staged)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# Joint distribution JSON: {"x_card": i, "y_card": i, "p": [[...]]}
# ---------------------------------------------------------------------------

def joint_to_json(j: JointDistribution) -> str:
    return json_dumps({"x_card": j.x_card, "y_card": j.y_card, "p": j.p}) + "\n"


def _load(text: str, what: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply to parse") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} JSON is not valid JSON: {e}") from None


def _json_fields(obj, what: str, **convert) -> list:
    """The values of keys in a parsed JSON object, each passed through its
    converter; a missing key or a value of the wrong type is a ValueError
    naming the key."""
    missing = [k for k in convert if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ValueError(f"{what} JSON has no {', '.join(map(repr, missing))}")
    values = []
    for key, conv in convert.items():
        try:
            values.append(conv(obj[key]))
        except (TypeError, ValueError) as e:
            raise ValueError(f"{what} JSON {key!r} has the wrong type or shape: {e}") from None
    return values


def _reals(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise TypeError(f"expected a finite number, got {v!r}")
    return float(v)


def _int(v) -> int:
    if isinstance(v, bool):
        raise TypeError(f"expected an integer, got {v!r}")
    return operator.index(v)


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, got {v!r}")
    return v


def joint_from_json(text: str) -> JointDistribution:
    """The joint, once the file's x_card and y_card agree with p's shape."""
    x_card, y_card, p = _json_fields(_load(text, "joint"), "joint",
                                     x_card=_int, y_card=_int, p=_reals)
    if p.shape != (x_card, y_card):
        raise DimensionError(f"JointDistribution has shape {p.shape}, "
                             f"not a nonempty ({x_card}, {y_card})")
    return JointDistribution(p)


# ---------------------------------------------------------------------------
# Solution JSON
# ---------------------------------------------------------------------------

def solution_to_json(sol: IBSolution) -> str:
    return json_dumps({
        "beta": sol.beta,
        "R": sol.R,
        "I_Y": sol.I_Y,
        "D_IB": sol.D_IB,
        "L": sol.L,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "encoder": sol.encoder.matrix,
        "decoder": sol.decoder,
        "marginal": sol.marginal,
    }) + "\n"


def solution_from_json(text: str, j: JointDistribution) -> IBSolution:
    """The solution on j of the file's beta, encoder, iterations and converged
    flag, once the file's R, I_Y, D_IB, marginal, decoder and L are within
    1e-9 of the values it computes from them, in shape too."""
    from .solver import Encoder, IBSolution
    beta, enc, iters, conv, L, *copies = _json_fields(
        _load(text, "solution"), "solution", beta=_real, encoder=_reals, iterations=_int,
        converged=_flag, L=_real, R=_real, I_Y=_real, D_IB=_real, marginal=_reals,
        decoder=_reals)
    sol = IBSolution(j, beta, Encoder(enc), iters, conv)
    derived = sol.R, sol.I_Y, sol.D_IB, sol.marginal, sol.decoder
    for name, copy, value in zip(("R", "I_Y", "D_IB", "marginal", "decoder"), copies, derived):
        if np.shape(copy) != np.shape(value) or not np.all(np.abs(copy - value) <= 1e-9):
            raise ValueError(f"solution {name} is not the one its encoder and joint give")
    if not abs(L - sol.L) <= 1e-9:  # NaN fails too
        raise ValueError("solution violates L = R - beta * I_Y")
    return sol


# ---------------------------------------------------------------------------
# Network JSON
# ---------------------------------------------------------------------------

def network_to_json(net: NetworkParams) -> str:
    return json_dumps({
        "layer_sizes": list(net.layer_sizes),
        "weights": [w for w in net.weights],
        "biases": [b for b in net.biases],
    }) + "\n"


def network_from_json(text: str) -> NetworkParams:
    from .mlp import NetworkParams
    sizes, weights, biases = _json_fields(
        _load(text, "network"), "network", layer_sizes=lambda v: tuple(map(_int, v)),
        weights=lambda v: tuple(map(_reals, v)), biases=lambda v: tuple(map(_reals, v)))
    return NetworkParams(sizes, weights, biases)


# ---------------------------------------------------------------------------
# Bifurcations JSON (a list of bracket records) and gaps JSON
# ---------------------------------------------------------------------------

def bifurcations_to_json(bifs) -> str:
    """One record per bracket, its fields in the order Bifurcation declares."""
    return json_dumps([dataclasses.asdict(b) for b in bifs]) + "\n"


def bifurcations_from_json(text: str) -> tuple[Bifurcation, ...]:
    from .curve import Bifurcation
    records = _load(text, "bifurcations")
    if not isinstance(records, list):
        raise ValueError("bifurcations JSON must be a list of records")
    keys = dict(beta_low=_real, beta_high=_real, card_before=_int, card_after=_int,
                beta_predicted=lambda v: None if v is None else _real(v))
    return tuple(Bifurcation(*_json_fields(o, "bifurcation", **keys)) for o in records)


def gaps_to_json(g: NetworkGaps, b: BoundCurve) -> str:
    return json_dumps({
        "R_N": g.R_N, "D_N": g.D_N,
        "delta_G": g.delta_G, "delta_C": g.delta_C,
        "R_star": b.R_star, "D_star": b.D_star,
        "n": b.n, "c_bound": b.c_bound,
    }) + "\n"


# ---------------------------------------------------------------------------
# CSV: a header line, then one line of comma-separated cells per row
# ---------------------------------------------------------------------------

def _csv_text(header: str, *columns) -> str:
    """CSV text of integer and real columns, reals as `fmt_real` writes them."""
    cells = []
    for c in map(np.asarray, columns):
        if c.dtype.kind not in "iu":
            c = c.astype(float)
            for x in c[~np.isfinite(c)][:1]:
                fmt_real(x)  # refuses it
        cells.append(map(str if c.dtype.kind in "iu" else repr, c.tolist()))
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _csv_columns(text: str, what: str, header: str, *convert, faults=lambda *c: []) -> list:
    """The columns of CSV text under the given header, blank lines skipped,
    each cell through its column's converter (`int` into int64), as read-only
    arrays. A wrong header is a ValueError, and so is the first row of the
    wrong width, with a cell its converter rejects, or that a check of
    `faults(*columns)` flags (see `solver._raise_first`), naming its line."""
    from .solver import _raise_first
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ValueError(f"{what} CSV must start with the header {header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    wrong = np.array(list(map(len, rows))) != len(convert)
    checks, columns = [(wrong, lambda i: f"{len(rows[i])} cells, not {len(convert)}")], []
    end = int(wrong.argmax()) if wrong.any() else len(rows)  # columns read up to a wrong row
    for conv, cells in zip(convert, list(zip(*rows[:end])) or [()] * len(convert)):
        dtype = np.int64 if conv is int else float
        try:
            columns.append(np.fromiter(map(conv, cells), dtype, len(cells)))
        except (ValueError, OverflowError):  # this one up to the first cell it rejects
            i, why = next((i, w) for i, w in enumerate(map(_rejects, [dtype] * end, cells))
                          if w is not None)
            columns.append(np.fromiter(map(conv, cells[:i]), dtype, i))
            checks.append((np.arange(i + 1) == i, lambda _, why=why: why))
    columns = [c[:min(map(len, columns))] for c in columns]
    for c in columns:
        c.setflags(write=False)
    _raise_first([*checks, *faults(*columns)], lambda i: f"{what} CSV line "
                 f"{[k for k, ln in enumerate(text.splitlines(), 1) if ln.strip()][i + 1]}: ")
    return columns


def _rejects(dtype, cell: str) -> str | None:
    """Why `int` into an int64, or `float`, rejects a CSV cell, or None."""
    try:
        np.array((int if dtype is np.int64 else float)(cell), dtype)
    except ValueError as e:
        return str(e)
    except OverflowError:
        return f"integer {cell!r} is out of range"
    return None


def samples_to_csv(s: SampleSet) -> str:
    return _csv_text("x,y", *s.pairs.T)


def samples_from_csv(text: str) -> SampleSet:
    return SampleSet(np.stack(_csv_columns(text, "sample", "x,y", int, int), axis=1))


_CURVE_HEADER = "beta,R,I_Y,D_IB,L,eff_card"


def curve_to_csv(curve: InfoCurve) -> str:
    return _csv_text(_CURVE_HEADER, curve.beta, curve.R, curve.I_Y, curve.D_IB, curve.L,
                     curve.eff_card)


def _curve_row_faults(beta, R, I_Y, D_IB, L, eff_card) -> list:
    """A curve row's checks: CurvePoint's, then its L is R - beta * I_Y and its
    D_IB + I_Y, the I(X;Y) that `bounds` reads from any row, is within 2e-9
    of the first row's: I_Y may pass I(X;Y) by the solver's 1e-9, where D_IB
    clamps at 0."""
    from .curve import _curve_faults
    with np.errstate(over="ignore", invalid="ignore"):
        i_xy = D_IB + I_Y
        off_L = ~(np.abs(L - (R - beta * I_Y)) <= 1e-9)  # NaN is off too
        drift = np.abs(i_xy - i_xy[:1]) > 2e-9
    return [*_curve_faults(beta, R, I_Y, D_IB, eff_card),
            (off_L, lambda i: "curve point violates L = R - beta * I_Y"),
            (drift, lambda i: f"curve point has D_IB + I_Y = {float(i_xy[i])!r}, "
                              f"not {float(i_xy[0])!r}")]


def curve_from_csv(text: str) -> InfoCurve:
    """The curve, once each row passes `_curve_row_faults`; it keeps no L."""
    from .curve import InfoCurve
    beta, R, I_Y, D_IB, _, eff_card = _csv_columns(
        text, "curve", _CURVE_HEADER, *[float] * 5, int, faults=_curve_row_faults)
    return InfoCurve(beta, R, I_Y, D_IB, eff_card)


_BOUND_HEADER = "R_hat,I_Y_hat,I_Y_worst,D_worst"


def bound_curve_to_csv(b: BoundCurve) -> str:
    return _csv_text(_BOUND_HEADER, b.R_hat, b.I_Y_hat, b.I_Y_worst, b.D_worst)


def bound_points_from_csv(text: str) -> tuple[np.ndarray, ...]:
    """The R_hat, I_Y_hat, I_Y_worst and D_worst columns, once each row
    keeps a bound row's rules (`bounds._bound_faults`);
    `BoundCurve(*columns, n, c_bound)` takes them."""
    from .bounds import _bound_faults
    return tuple(_csv_columns(text, "bound", _BOUND_HEADER, *[float] * 4, faults=_bound_faults))


_LAYER_HEADER = "layer,I_X,I_Y,criterion"


def layer_path_to_csv(path: LayerPath) -> str:
    return _csv_text(_LAYER_HEADER, *zip(*((p.layer_index, p.I_X, p.I_Y, p.layer_criterion)
                                          for p in path.points)))


def layer_points_from_csv(text: str) -> tuple[tuple[int, float, float, float], ...]:
    columns = _csv_columns(text, "info-plane", _LAYER_HEADER, int, float, float, float)
    return tuple(zip(*(c.tolist() for c in columns)))


def loss_trace_to_csv(trace) -> str:
    return _csv_text("epoch,loss", range(len(trace)), trace)


def loss_trace_from_csv(text: str) -> list[float]:
    return _csv_columns(text, "loss", "epoch,loss", int, float)[1].tolist()
