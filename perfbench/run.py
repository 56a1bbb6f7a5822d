"""lepage benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload {cli-symbolic,selftest,minsurf} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it puts ``src`` on the children's
``PYTHONPATH`` and builds nothing.  One client drives the program in a closed
loop: each operation starts when the previous one has finished.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (see ``END_TO_END``).  With ``--trace 1`` the run makes
one untraced and one traced pass and the metrics are the per-layer ones (see
``per_layer_units``).  The line before it is a JSON record of the
environment, the unbounded timings (``wall_s``, median and slowest
operation), every operation's time and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl
from cli_boot import TRACE_MARK
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workers are single-threaded: one BLAS thread each keeps runs comparable.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# every child is killed by then, so a run ends within 180 s
RUN_BUDGET_S = 170.0

# On the 2-vCPU host the machine's speed drifts by up to 1.8x over minutes,
# so the run time of the operation list (wall_s) and the per-operation
# percentiles spread 0.22-0.54 across ten seeds (quartile distance over
# median), beyond the largest allowed bound; they are in the record line.
# setup_s is required whatever its spread.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}

# public functions reported one by one in the traced run
NAMED_FUNCTIONS = {
    "expr": ("mul", "add", "truediv", "diff", "substitute", "evaluate",
             "parse", "to_dsl", "equal"),
    "charts": ("formal_derivative",),
    "forms": ("wedge", "ext_d", "contract", "horizontalize", "basis_convert",
              "form_equal", "pullback_immersion", "lie_derivative"),
    "equivalents": ("poincare_cartan", "fundamental", "caratheodory",
                    "fundamental_homogeneous", "hilbert_caratheodory",
                    "euler_lagrange", "is_lepage"),
    "homogeneity": ("zermelo_residuals", "grassmann_form"),
    "variation": ("noether_current", "first_variation_check",
                  "reparameterization_invariance"),
}
MINSURF_LABELS = ("scherk-N257", "scherk-N513", "paraboloid-N257")


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s", "cli.start_exit_s": "s",
             "cli.main.calls": "count",
             "cli.emit.calls": "count", "cli.emit_s": "s"}
    for layer, names in NAMED_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update({"expr.diff.distinct_ratio": "ratio",
                  "expr.equal.samples": "count",
                  "expr.equal.structural_share": "ratio",
                  "minimal.factor.calls": "count", "minimal.factor_s": "s",
                  "minimal.assemble_s": "s", "minimal.residual.calls": "count",
                  "minimal.residual_s": "s", "minimal.newton_iters": "count",
                  "minimal.damping_halvings": "count",
                  "minimal.conservation_s": "s"})
    for label in MINSURF_LABELS:
        units[f"minimal.solve_s.{label}"] = "s"
    units["minimal.factor_share.scherk-N513"] = "ratio"
    for k in range(1, wl.SELFTEST_CRITERIA + 1):
        units[f"acceptance.crit{k}_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s",
                  "trace.spans": "count"})
    return units


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Run:
    """Samples and failures of one benchmark run."""

    def __init__(self, seconds_left: float):
        self.deadline = time.perf_counter() + seconds_left
        self.setup: list[float] = []
        self.walls: list[float] = []
        self.op_times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.errors: list[str] = []
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in BLAS_VARS:
            self.env[var] = str(BLAS_THREADS)

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def op(self, label: str, seconds: float, error: str | None) -> None:
        self.attempted += 1
        self.op_times[label].append(seconds)
        if error:
            self.errors.append(f"{label}: {error}")

    def process(self, argv: list[str]) -> tuple[float, int, bytes, bytes]:
        """Run one child to completion: (wall seconds, status, stdout, stderr)."""
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=self.timeout())
        except subprocess.TimeoutExpired as ex:
            return (time.perf_counter() - start, -9, ex.stdout or b"",
                    ex.stderr or b"")
        return (time.perf_counter() - start, done.returncode, done.stdout,
                done.stderr)

    def worker(self, workload: str, seed: int, mode: str,
               passes: int = 1) -> tuple[float | None, dict | None]:
        """Start a worker, time it up to READY, and return its result line."""
        argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
                mode, str(passes)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.timeout())
            line = proc.stdout.readline() if ready else b""
            setup = time.perf_counter() - start
            if line.strip() != b"READY":
                self.errors.append(f"{workload} worker: no READY line")
                return None, None
            out, _ = proc.communicate(timeout=self.timeout())
        except subprocess.TimeoutExpired:
            self.errors.append(f"{workload} worker: timed out")
            return setup, None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            self.errors.append(f"{workload} worker: exit status {proc.returncode}")
            return setup, None
        lines = out.decode().strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else {})

    def setup_probe(self, workload: str, seed: int) -> None:
        self.attempted += 1
        if workload == "cli-symbolic":
            seconds, status, _, err = self.process(
                [sys.executable, "-c", "import lepage.cli"])
            if status != 0:
                self.errors.append(f"import lepage.cli: exit status {status}: "
                                   f"{err.decode(errors='replace')[-300:]}")
                return
        else:
            seconds, _ = self.worker(workload, seed, "setup")
            if seconds is None:
                return
        self.setup.append(seconds)


def _cli_argv(inv: wl.Invocation, seed: int, traced: bool) -> list[str]:
    entry = [str(HERE / "cli_boot.py")] if traced else ["-m", "lepage.cli"]
    return [sys.executable, *entry, *inv.with_seed(seed)]


def _cli_pass(run: Run, invs: list[wl.Invocation], seed: int, traced: bool,
              probe_before=frozenset(), reference=None) -> list[dict]:
    """One pass over the invocations; returns per-invocation records."""
    records = []
    for i, inv in enumerate(invs):
        if i in probe_before:
            run.setup_probe("cli-symbolic", seed)
        seconds, status, out, err = run.process(_cli_argv(inv, seed, traced))
        first = None
        if inv.repeat_of is not None:
            first = records[inv.repeat_of]["stdout"]
        elif reference is not None:
            first = reference[i]["stdout"]
        error = wl.check_cli(inv, status, out, first)
        # a repeat is a sample of the command it repeats
        run.op(invs[inv.repeat_of].label if inv.repeat_of is not None
               else inv.label, seconds, error)
        trace = None
        if traced:
            marked = [ln for ln in err.decode(errors="replace").splitlines()
                      if ln.startswith(TRACE_MARK)]
            if marked:
                trace = json.loads(marked[-1][len(TRACE_MARK):])
            elif not error:
                run.errors.append(f"{inv.label}: traced process left no trace")
        records.append({"stdout": out, "seconds": seconds, "trace": trace})
    return records


# ---------------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------------

def _mix_seconds(invs: list[wl.Invocation], records: list[dict]) -> float:
    """Time of the fixed mix: every command once, the seeded repeats left out."""
    return sum(r["seconds"] for inv, r in zip(invs, records)
               if inv.repeat_of is None)


def _spread_slots(samples: int, total: int) -> list[int]:
    return [round(j * total / samples) for j in range(samples)]


def timed_run(workload: str, seed: int, seconds: int) -> tuple[Run, dict]:
    run = Run(RUN_BUDGET_S)
    passes = max(1, round(seconds / wl.NOMINAL_PASS_S[workload]))
    if workload == "cli-symbolic":
        invs = wl.cli_invocations(seed)
        slots = _spread_slots(wl.SETUP_SAMPLES, passes * len(invs))
        for p in range(passes):
            here = {s - p * len(invs) for s in slots
                    if p * len(invs) <= s < (p + 1) * len(invs)}
            records = _cli_pass(run, invs, seed, False, frozenset(here))
            run.walls.append(_mix_seconds(invs, records))
    else:
        probes = wl.SETUP_SAMPLES - 1
        for _ in range(probes // 2):
            run.setup_probe(workload, seed)
        run.attempted += 1  # the worker's own set-up
        setup, out = run.worker(workload, seed, "run", passes)
        if setup is not None and out is not None:
            run.setup.append(setup)
            for rec in out["passes"]:
                run.walls.append(rec["wall_s"])
                for op in rec["ops"]:
                    run.op(op["label"], op["seconds"], op["error"])
        for _ in range(probes - probes // 2):
            run.setup_probe(workload, seed)
    return run, {"passes": passes}


def end_to_end_metrics(run: Run) -> dict[str, float]:
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"setup_s": statistics.median(run.setup) if run.setup else 0.0,
            "peak_rss_mb": rss_kb / 1024.0}


def timings(run: Run) -> dict:
    """Run time of the operation list, and the median and slowest operation."""
    per_op = [statistics.median(v) for v in run.op_times.values()]
    if not per_op:
        return {}
    return {"wall_s": statistics.median(run.walls) if run.walls else None,
            "op_p50_s": statistics.median(per_op), "op_max_s": max(per_op),
            "operations": len(per_op),
            "samples": sum(len(v) for v in run.op_times.values())}


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def _merge(into: dict, names: dict) -> None:
    for name, rec in names.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key in acc:
            acc[key] += rec[key]


def traced_run(workload: str, seed: int) -> tuple[Run, dict]:
    """One untraced and one traced pass; returns the per-layer metrics."""
    run = Run(RUN_BUDGET_S)
    names: dict = {}
    obs: dict = defaultdict(int)
    extra = {"import_s": 0.0, "start_exit_s": 0.0, "damping_halvings": 0,
             "solve_s": {},
             "factor_share": 0.0, "untraced_wall_s": 0.0, "wall_s": 0.0,
             "spans": 0}
    if workload == "cli-symbolic":
        invs = wl.cli_invocations(seed)
        plain = _cli_pass(run, invs, seed, False)
        traced = _cli_pass(run, invs, seed, True, reference=plain)
        # every invocation, repeats included, as the span summaries are
        extra["untraced_wall_s"] = sum(r["seconds"] for r in plain)
        extra["wall_s"] = sum(r["seconds"] for r in traced)
        for rec in traced:
            t = rec["trace"]
            if t is None:
                continue
            _merge(names, t["summary"]["names"])
            for key, value in t["observations"].items():
                obs[key] += value
            extra["import_s"] += t["import_s"]
            # interpreter start and exit, seen from the parent
            extra["start_exit_s"] += rec["seconds"] - t["in_process_s"]
            extra["spans"] += t["summary"]["spans"]
    else:
        _, out = run.worker(workload, seed, "trace")
        if out is not None:
            plain, traced = out["passes"]
            for rec in (plain, traced):
                for op in rec["ops"]:
                    run.op(op["label"], op["seconds"], op["error"])
            extra["untraced_wall_s"] = plain["wall_s"]
            extra["wall_s"] = traced["wall_s"]
            _merge(names, out["summary"]["names"])
            obs.update(out["observations"])
            extra["spans"] = out["summary"]["spans"]
            for op in traced["ops"]:
                if "solve" not in op:
                    continue
                solve = op["solve"]
                total = solve["minimal.solve_minimal_surface"]["total_s"]
                residuals = solve.get("minimal.interior_residual", {}).get("calls", 0)
                extra["damping_halvings"] += residuals - op["iterations"] - 1
                extra["solve_s"][op["label"]] = total
                if op["label"] == "scherk-N513":
                    factor = solve.get("minimal.spsolve", {}).get("self_s", 0.0)
                    extra["factor_share"] = factor / total
    return run, layer_metrics(names, obs, extra)


def layer_metrics(names: dict, obs: dict, extra: dict) -> dict[str, float]:
    def get(name: str, key: str):
        return names.get(name, {}).get(key, 0)

    m: dict[str, float] = {
        "cli.import_s": extra["import_s"],
        "cli.start_exit_s": extra["start_exit_s"],
        "cli.main.calls": get("cli.main", "calls"),
        "cli.emit.calls": get("cli.emit", "calls"),
        "cli.emit_s": get("cli.emit", "total_s"),
    }
    for layer, fns in NAMED_FUNCTIONS.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls"] = get(f"{layer}.{fn}", "calls")
            m[f"{layer}.{fn}.self_s"] = get(f"{layer}.{fn}", "self_s")
    diff_calls = obs.get("diff_calls", 0)
    equal_calls = obs.get("equal_calls", 0)
    m["expr.diff.distinct_ratio"] = (obs.get("diff_distinct", 0) / diff_calls
                                     if diff_calls else 0.0)
    m["expr.equal.samples"] = obs.get("equal_samples", 0)
    m["expr.equal.structural_share"] = (obs.get("equal_structural", 0) / equal_calls
                                        if equal_calls else 0.0)
    m["minimal.factor.calls"] = get("minimal.spsolve", "calls")
    m["minimal.factor_s"] = get("minimal.spsolve", "self_s")
    m["minimal.assemble_s"] = (get("minimal.interior_jacobian_coo", "self_s")
                               + get("minimal.csr_matrix", "self_s"))
    m["minimal.residual.calls"] = get("minimal.interior_residual", "calls")
    m["minimal.residual_s"] = get("minimal.interior_residual", "self_s")
    m["minimal.newton_iters"] = obs.get("newton_iters", 0)
    m["minimal.damping_halvings"] = extra["damping_halvings"]
    m["minimal.conservation_s"] = get("bench.conservation", "total_s")
    for label in MINSURF_LABELS:
        m[f"minimal.solve_s.{label}"] = extra["solve_s"].get(label, 0.0)
    m["minimal.factor_share.scherk-N513"] = extra["factor_share"]
    for k in range(1, wl.SELFTEST_CRITERIA + 1):
        m[f"acceptance.crit{k}_s"] = get(f"acceptance.crit{k}", "total_s")
    self_by_layer = defaultdict(float)
    for name, rec in names.items():
        self_by_layer[name.split(".", 1)[0]] += rec["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    # benchmark glue and installing the wrappers: time in no layer's span
    unattributed = (extra["wall_s"] - extra["import_s"] - extra["start_exit_s"]
                    - sum(self_by_layer[layer] for layer in LAYERS))
    m.update({"trace.wall_s": extra["wall_s"],
              "trace.untraced_wall_s": extra["untraced_wall_s"],
              "trace.overhead_s": extra["wall_s"] - extra["untraced_wall_s"],
              "trace.unattributed_s": unattributed,
              "trace.spans": extra["spans"]})
    return m


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src" / "lepage").rglob("*.py")))


def environment(run: Run) -> dict:
    _, status, out, _ = run.process(
        [sys.executable, str(HERE / "worker.py"), "-", "0", "env"])
    env = json.loads(out.decode().strip().splitlines()[-1]) if status == 0 else {}
    env.update({"blas_threads": BLAS_THREADS, "blas_vars": list(BLAS_VARS),
                "src_lepage_lines": src_lines()})
    return env


def missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "lepage" / "cli.py", ROOT / wl.ARCLENGTH,
              ROOT / wl.MINIMAL_R3]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"error: not a lepage checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.trace:
        run, values = traced_run(args.workload, args.seed)
        units = per_layer_units()
        info = {}
    else:
        run, info = timed_run(args.workload, args.seed, args.seconds)
        values = end_to_end_metrics(run)
        units = END_TO_END
    failed = len(run.errors)
    attempted = max(run.attempted, 1)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, **info,
              "environment": environment(run),
              "error_rate": failed / attempted,
              "setup_samples": run.setup, "pass_walls": run.walls,
              "timings": timings(run),
              "op_samples": run.op_times, "errors": run.errors}
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
