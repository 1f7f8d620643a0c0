"""File formats: JSON for structured objects, CSV for tabular series.

Reals are serialized with 17 significant digits, which round-trips binary64
exactly, and JSON is emitted by a small writer with fixed key order so that
identical inputs produce byte-identical files. Parsing uses the standard
library. Writes go through a temp-file-then-rename so readers never observe
a partial file.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .analyzer import LayerPath
from .bounds import BoundCurve, BoundPoint, NetworkGaps
from .curve import Bifurcation, CurvePoint, InfoCurve
from .mlp import NetworkParams
from .prob import (
    ConditionalMatrix,
    DiscreteDistribution,
    JointDistribution,
    SampleSet,
)
from .solver import Encoder, IBSolution


def fmt_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x}")
    return f"{x:.17g}"


def json_dumps(value) -> str:
    """Minimal JSON writer: insertion-ordered dicts, 17-digit reals."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return fmt_real(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return json_dumps(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(json_dumps(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {json_dumps(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file and rename."""
    tmp = path + ".tmp~"
    with open(tmp, "w", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Joint distribution JSON: {"x_card": i, "y_card": i, "p": [[...]]}
# ---------------------------------------------------------------------------

def joint_to_json(j: JointDistribution) -> str:
    return json_dumps({"x_card": j.x_card, "y_card": j.y_card, "p": j.p}) + "\n"


def _json_fields(text: str, what: str, *keys) -> list:
    """The values of keys in a JSON object; a missing key is a ValueError."""
    obj = json.loads(text)
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ValueError(f"{what} JSON has no {', '.join(map(repr, missing))}")
    return [obj[k] for k in keys]


def joint_from_json(text: str) -> JointDistribution:
    x_card, y_card, p = _json_fields(text, "joint", "x_card", "y_card", "p")
    return JointDistribution(int(x_card), int(y_card), np.asarray(p, dtype=float))


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
        "decoder": sol.decoder.p,
        "marginal": sol.marginal.p,
    }) + "\n"


def solution_from_json(text: str) -> IBSolution:
    obj = json.loads(text)
    return IBSolution(
        beta=float(obj["beta"]),
        encoder=Encoder.from_matrix(np.asarray(obj["encoder"], dtype=float)),
        decoder=ConditionalMatrix.from_matrix(np.asarray(obj["decoder"], dtype=float)),
        marginal=DiscreteDistribution(np.asarray(obj["marginal"], dtype=float)),
        R=float(obj["R"]),
        I_Y=float(obj["I_Y"]),
        D_IB=float(obj["D_IB"]),
        L=float(obj["L"]),
        iterations=int(obj["iterations"]),
        converged=bool(obj["converged"]),
    )


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
    sizes, weights, biases = _json_fields(text, "network", "layer_sizes", "weights", "biases")
    return NetworkParams(
        tuple(int(s) for s in sizes),
        tuple(np.asarray(w, dtype=float) for w in weights),
        tuple(np.asarray(b, dtype=float) for b in biases),
    )


# ---------------------------------------------------------------------------
# Sample CSV: header x,y then one integer pair per line
# ---------------------------------------------------------------------------

def samples_to_csv(s: SampleSet) -> str:
    lines = ["x,y"]
    lines += [f"{int(x)},{int(y)}" for x, y in s.pairs]
    return "\n".join(lines) + "\n"


def samples_from_csv(text: str) -> SampleSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "x,y":
        raise ValueError("sample CSV must start with the header 'x,y'")
    pairs = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    return SampleSet.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Curve CSV: beta,R,I_Y,D_IB,L,eff_card
# ---------------------------------------------------------------------------

def curve_to_csv(curve: InfoCurve) -> str:
    lines = ["beta,R,I_Y,D_IB,L,eff_card"]
    for p in curve.points:
        lines.append(",".join([
            fmt_real(p.beta), fmt_real(p.R), fmt_real(p.I_Y),
            fmt_real(p.D_IB), fmt_real(p.L), str(p.eff_card),
        ]))
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str) -> InfoCurve:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "beta,R,I_Y,D_IB,L,eff_card":
        raise ValueError("curve CSV header mismatch")
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        points.append(CurvePoint(
            beta=float(cells[0]), R=float(cells[1]), I_Y=float(cells[2]),
            D_IB=float(cells[3]), L=float(cells[4]), eff_card=int(cells[5]),
        ))
    return InfoCurve(tuple(points), ())


# ---------------------------------------------------------------------------
# Bifurcations JSON: list of bracket records
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
    return tuple(
        Bifurcation(
            beta_low=float(o["beta_low"]), beta_high=float(o["beta_high"]),
            card_before=int(o["card_before"]), card_after=int(o["card_after"]),
            beta_predicted=None if o["beta_predicted"] is None
            else float(o["beta_predicted"]),
        )
        for o in json.loads(text)
    )


# ---------------------------------------------------------------------------
# Bound curve CSV: R_hat,I_Y_hat,I_Y_worst,D_worst
# ---------------------------------------------------------------------------

def bound_curve_to_csv(b: BoundCurve) -> str:
    lines = ["R_hat,I_Y_hat,I_Y_worst,D_worst"]
    for p in b.points:
        lines.append(",".join([
            fmt_real(p.R_hat), fmt_real(p.I_Y_hat),
            fmt_real(p.I_Y_worst), fmt_real(p.D_worst),
        ]))
    return "\n".join(lines) + "\n"


def bound_points_from_csv(text: str) -> tuple[BoundPoint, ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "R_hat,I_Y_hat,I_Y_worst,D_worst":
        raise ValueError("bound CSV header mismatch")
    return tuple(
        BoundPoint(*(float(c) for c in ln.split(",")))
        for ln in lines[1:]
    )


def gaps_to_json(g: NetworkGaps, b: BoundCurve) -> str:
    return json_dumps({
        "R_N": g.R_N, "D_N": g.D_N,
        "delta_G": g.delta_G, "delta_C": g.delta_C,
        "R_star": b.R_star, "D_star": b.D_star,
        "n": b.n, "c_bound": b.c_bound,
    }) + "\n"


# ---------------------------------------------------------------------------
# Info-plane CSV: layer,I_X,I_Y,criterion
# ---------------------------------------------------------------------------

def layer_path_to_csv(path: LayerPath) -> str:
    lines = ["layer,I_X,I_Y,criterion"]
    for p in path.points:
        lines.append(",".join([
            str(p.layer_index), fmt_real(p.I_X), fmt_real(p.I_Y),
            fmt_real(p.layer_criterion),
        ]))
    return "\n".join(lines) + "\n"


def layer_points_from_csv(text: str) -> tuple[tuple[int, float, float, float], ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "layer,I_X,I_Y,criterion":
        raise ValueError("info-plane CSV header mismatch")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        out.append((int(cells[0]), float(cells[1]), float(cells[2]), float(cells[3])))
    return tuple(out)


# ---------------------------------------------------------------------------
# Loss trace CSV: epoch,loss
# ---------------------------------------------------------------------------

def loss_trace_to_csv(trace) -> str:
    lines = ["epoch,loss"]
    lines += [f"{i},{fmt_real(v)}" for i, v in enumerate(trace)]
    return "\n".join(lines) + "\n"


def loss_trace_from_csv(text: str) -> list[float]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "epoch,loss":
        raise ValueError("loss CSV header mismatch")
    return [float(ln.split(",")[1]) for ln in lines[1:]]
