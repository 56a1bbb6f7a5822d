"""Fresh worker process for the in-process workloads, selftest and minsurf.

    python3 perfbench/worker.py <workload> <seed> <mode> [passes]

mode ``setup`` imports lepage and builds the inputs, prints READY and exits;
``run`` then runs the operation list ``passes`` times; ``trace`` runs it once
untraced and once traced.  ``env`` prints the environment record.  The last
stdout line is one JSON object; the parent times set-up up to READY.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

import workloads as wl


def _setup(workload: str, seed: int):
    if workload == "selftest":
        import lepage.acceptance
        return lepage.acceptance
    if workload == "minsurf":
        from lepage.minimal import BUILTIN_SURFACES, GridField
        return [(label, boundary,
                 GridField.dirichlet(wl.SQUARE, (N, N), BUILTIN_SURFACES[boundary]))
                for label, boundary, N in wl.minsurf_grids(seed)]
    raise SystemExit(f"unknown worker workload {workload!r}")


def _selftest_pass(acceptance, seed: int, tracer=None) -> dict:
    span = nullcontext() if tracer is None else tracer.span("bench.op")
    start = time.perf_counter()
    with span:
        # looked up per pass, so a traced pass calls the wrapped function
        results = acceptance.run_all(seed)
    wall = time.perf_counter() - start
    ops = [{"label": f"crit{r.number}", "seconds": r.seconds,
            "error": None if r.passed else r.detail} for r in results]
    if len(ops) != wl.SELFTEST_CRITERIA:
        ops.append({"label": "criteria", "seconds": 0.0,
                    "error": f"{len(ops)} criteria ran, expected "
                             f"{wl.SELFTEST_CRITERIA}"})
    return {"wall_s": wall, "ops": ops}


def _minsurf_pass(inputs, tracer=None) -> dict:
    from lepage.minimal import (conservation_residuals, reconstruct_and_check,
                                solve_minimal_surface)

    ops = []
    for label, boundary, field in inputs:
        lo = 0 if tracer is None else len(tracer)
        t0 = time.perf_counter()
        with nullcontext() if tracer is None else tracer.span("bench.op"):
            res = solve_minimal_surface(field, tol=wl.SOLVE_TOL,
                                        max_iter=wl.SOLVE_MAX_ITER)
            mid = 0 if tracer is None else len(tracer)
            with (nullcontext() if tracer is None
                  else tracer.span("bench.conservation")):
                cons = conservation_residuals(res.field)
                rec = reconstruct_and_check(res.field)
        seconds = time.perf_counter() - t0
        op = {"label": label, "seconds": seconds,
              "error": wl.check_minsurf(boundary, res.field.values,
                                        res.field.xs, res.field.ys,
                                        res.converged, cons.passed(10.0),
                                        rec.passed),
              "iterations": res.iterations}
        if tracer is not None:
            # spans lo+1 .. mid-1 are the solve and everything under it
            op["solve"] = tracer.summary(lo + 1, mid)["names"]
        ops.append(op)
    # the known-answer checks run between operations, outside the timing
    return {"wall_s": sum(op["seconds"] for op in ops), "ops": ops}


def _environment() -> dict:
    import importlib.util
    import os
    import platform

    import numpy
    import scipy

    import lepage._kernels as kernels

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernel_backend": kernels.BACKEND}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode == "env":
        print(json.dumps(_environment()))
        return 0
    passes = int(argv[3]) if len(argv) > 3 else 1
    state = _setup(workload, seed)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    def one_pass(tracer=None):
        if workload == "selftest":
            return _selftest_pass(state, seed, tracer)
        return _minsurf_pass(state, tracer)

    if mode == "run":
        out = {"passes": [one_pass() for _ in range(passes)]}
    elif mode == "trace":
        import tracer as tr
        untraced = one_pass()
        tracer, obs = tr.Tracer(), tr.Observations()
        tr.install(tracer, obs)
        traced = one_pass(tracer)
        out = {"passes": [untraced, traced], "summary": tracer.summary(),
               "observations": obs.to_json()}
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
