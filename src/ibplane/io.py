"""File formats: JSON for structured objects, CSV for tabular series.

Reals are serialized as Python's repr, the shortest decimal that reads back
to the same binary64, and JSON is written and parsed by the standard library
with keys in a fixed insertion order, so identical inputs produce
byte-identical files. Every integer field is read by `_int`, which rejects
`true` and `false`. Every CSV format is written by `_csv_text` and read by
`_csv_rows`, which builds each row's record, so a rejected record names its
line. Writes go through a temp-file-then-rename so readers never observe a
partial file; `write_all` writes every temp file before it renames any, and
a failure leaves no temp file behind.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import operator
import os

import numpy as np

from .analyzer import LayerPath
from .bounds import BoundCurve, BoundPoint, NetworkGaps
from .curve import Bifurcation, CurvePoint, InfoCurve
from .errors import DimensionError
from .mlp import NetworkParams
from .prob import JointDistribution, SampleSet
from .solver import Encoder, IBSolution


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


def write_all(text_by_path: dict[str, str]) -> None:
    """atomic_write for several files: every temp file is written before
    any is renamed, and a failure removes them all, so a failed write
    replaces no output."""
    staged: list[tuple[str, str]] = []
    try:
        for path, text in text_by_path.items():
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


def _with_L(point, L: float, what: str):
    """point, once a file's L is within 1e-9 of the L = R - beta * I_Y it computes."""
    if not abs(L - point.L) <= 1e-9:  # NaN fails too
        raise ValueError(f"{what} violates L = R - beta * I_Y")
    return point


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
    beta, enc, iters, conv, L, *copies = _json_fields(
        _load(text, "solution"), "solution", beta=_real, encoder=_reals, iterations=_int,
        converged=_flag, L=_real, R=_real, I_Y=_real, D_IB=_real, marginal=_reals,
        decoder=_reals)
    sol = IBSolution(j, beta, Encoder(enc), iters, conv)
    derived = sol.R, sol.I_Y, sol.D_IB, sol.marginal, sol.decoder
    for name, copy, value in zip(("R", "I_Y", "D_IB", "marginal", "decoder"), copies, derived):
        if np.shape(copy) != np.shape(value) or not np.all(np.abs(copy - value) <= 1e-9):
            raise ValueError(f"solution {name} is not the one its encoder and joint give")
    return _with_L(sol, L, "solution")


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
    sizes, weights, biases = _json_fields(
        _load(text, "network"), "network", layer_sizes=lambda v: tuple(map(_int, v)),
        weights=lambda v: tuple(map(_reals, v)), biases=lambda v: tuple(map(_reals, v)))
    return NetworkParams(sizes, weights, biases)


# ---------------------------------------------------------------------------
# Bifurcations JSON (a list of bracket records) and gaps JSON
# ---------------------------------------------------------------------------

def bifurcations_to_json(bifs) -> str:
    return json_dumps([
        {
            "beta_low": b.beta_low,
            "beta_high": b.beta_high,
            "card_before": b.card_before,
            "card_after": b.card_after,
            "beta_predicted": b.beta_predicted,
        }
        for b in bifs
    ]) + "\n"


def bifurcations_from_json(text: str) -> tuple[Bifurcation, ...]:
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

def _csv_text(header: str, rows) -> str:
    """CSV text of rows of integer and real cells, reals as `fmt_real` writes them."""
    lines = [header]
    lines += [",".join(str(c) if isinstance(c, (int, np.integer)) else fmt_real(c) for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, what: str, header: str, *convert, record=lambda *cells: cells) -> list:
    """The records of CSV text under the given header, blank lines skipped,
    each cell passed through its column's converter and each row's cells
    through record; a wrong header, a row of the wrong width, or a row its
    converters or record reject is a ValueError naming the line."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"{what} CSV must start with the header {header!r}")
    rows = []
    for k, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(convert):
            raise ValueError(f"{what} CSV line {k}: {len(cells)} cells, not {len(convert)}")
        try:
            rows.append(record(*(conv(c) for conv, c in zip(convert, cells))))
        except ValueError as e:
            raise ValueError(f"{what} CSV line {k}: {e}") from None
    return rows


def samples_to_csv(s: SampleSet) -> str:
    return _csv_text("x,y", s.pairs)


def samples_from_csv(text: str) -> SampleSet:
    return SampleSet.from_pairs(_csv_rows(text, "sample", "x,y", int, int))


_CURVE_HEADER = "beta,R,I_Y,D_IB,L,eff_card"


def curve_to_csv(curve: InfoCurve) -> str:
    return _csv_text(_CURVE_HEADER, ((p.beta, p.R, p.I_Y, p.D_IB, p.L, p.eff_card)
                                     for p in curve.points))


def curve_from_csv(text: str) -> InfoCurve:
    """The curve, once each row's L is R - beta * I_Y and its D_IB + I_Y, the
    I(X;Y) that `bounds` reads from any row, is within 2e-9 of the first
    row's: I_Y may pass I(X;Y) by the solver's 1e-9, where D_IB clamps at 0."""
    i_xy = []

    def point(b, R, I_Y, D, L, k):
        p = _with_L(CurvePoint(b, R, I_Y, D, k), L, "curve point")
        i_xy.append(D + I_Y)
        if abs(i_xy[-1] - i_xy[0]) > 2e-9:  # the point's check rejected NaN
            raise ValueError(f"curve point has D_IB + I_Y = {i_xy[-1]!r}, not {i_xy[0]!r}")
        return p

    return InfoCurve(_csv_rows(text, "curve", _CURVE_HEADER, *[float] * 5, int, record=point))


_BOUND_HEADER = "R_hat,I_Y_hat,I_Y_worst,D_worst"


def bound_curve_to_csv(b: BoundCurve) -> str:
    return _csv_text(_BOUND_HEADER, ((p.R_hat, p.I_Y_hat, p.I_Y_worst, p.D_worst)
                                     for p in b.points))


def bound_points_from_csv(text: str) -> tuple[BoundPoint, ...]:
    return tuple(_csv_rows(text, "bound", _BOUND_HEADER, float, float, float, float,
                           record=BoundPoint))


_LAYER_HEADER = "layer,I_X,I_Y,criterion"


def layer_path_to_csv(path: LayerPath) -> str:
    return _csv_text(_LAYER_HEADER, ((p.layer_index, p.I_X, p.I_Y, p.layer_criterion)
                                     for p in path.points))


def layer_points_from_csv(text: str) -> tuple[tuple[int, float, float, float], ...]:
    return tuple(_csv_rows(text, "info-plane", _LAYER_HEADER, int, float, float, float))


def loss_trace_to_csv(trace) -> str:
    return _csv_text("epoch,loss", enumerate(trace))


def loss_trace_from_csv(text: str) -> list[float]:
    return [loss for _, loss in _csv_rows(text, "loss", "epoch,loss", int, float)]
