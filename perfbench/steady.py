"""Steadiness of the benchmark: run each workload with several seeds and
print, for every end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) next to the bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out runs.json]
                                [--baseline earlier.json]

With --baseline, also prints how far each median moved from the earlier set
of runs, as a share of the earlier median, against the same bound. Run from
the root of the checkout; each run is `perfbench/run.py --trace 0`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"), help="e.g. 1-10")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--out", help="write every run's result to this JSON file")
    ap.add_argument("--baseline", help="JSON file written by an earlier --out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    base = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    results = {}
    for name in names:
        results[name] = []
        for seed in args.seeds:
            r = run(name, seed, bench["run_seconds"])
            results[name].append(r)
            print(f"{name} seed {seed}: correct={r['correct']} failed {r['failed']}/"
                  f"{r['attempted']} " + " ".join(f"{k}={v['value']:.4g}"
                                                  for k, v in r["metrics"].items()),
                  flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results))

    print(f"\n{'workload':20} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'moved':>7}")
    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            print(f"{name}: failed shares {sorted(shares)}, correct "
                  f"{[r['correct'] for r in runs]}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            moved = ""
            if name in base:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in base[name])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                moved = f"{worse:+.3f}"
            print(f"{name:20} {m['name']:12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{(q3 - q1) / med:7.3f} {m['bound']:6.2f} {moved:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
