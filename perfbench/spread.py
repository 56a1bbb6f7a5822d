"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 0]

Every workload in ``BENCHMARK.json`` runs for its ``run_seconds``.  Seeds
are interleaved across workloads (seed 0 of each workload, then seed 1 of
each, ...), so a slow spell of the machine lands on all of them.  For each
end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median next to the bound in ``BENCHMARK.json``.  It exits 1 if a
run was incorrect or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """Result line of one run."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, timeout=300)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stderr.decode()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            res = run_once(w, seed, spec["run_seconds"])
            ok = ok and res["correct"]
            for name in bounds:
                values[w][name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{n}={v['value']:.4g}{v['unit']}"
                             for n, v in res["metrics"].items()), flush=True)

    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, bound in bounds.items():
            vals = values[w][name]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "  over bound"
                ok = False
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"{w:14} {name:12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
