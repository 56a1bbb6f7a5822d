"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def test_self_time_subtracts_direct_children():
    t = tr.Tracer()
    # a [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3]
    for name, parent, start, end in (("a", -1, 0, 10), ("b", 0, 1, 4),
                                     ("d", 1, 2, 3), ("c", 0, 5, 6)):
        t.name_of.append(t.name_id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    s = t.summary()
    assert {n: r["self_s"] for n, r in s["names"].items()} == \
        {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert s["root_s"] == 10.0
    # a sub-range treats spans whose parent lies before it as roots
    assert t.summary(1, 3)["root_s"] == 3.0


def test_install_rebinds_names_imported_elsewhere_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import lepage.forms
    import lepage.minimal
    from lepage.expr import Expr, diff

    original_mul = Expr.__mul__
    t, obs = tr.Tracer(), tr.Observations()
    restore = tr.install(t, obs)
    try:
        assert lepage.forms.diff is not diff
        assert inspect.unwrap(lepage.forms.diff) is diff
        assert lepage.minimal.spsolve.__name__ == "spsolve"
        assert hasattr(lepage.minimal.spsolve, "__wrapped__")
        assert hasattr(Expr.__rmul__, "__wrapped__")
        from lepage.expr import x
        _ = x(1) * x(2)
        assert t.summary()["names"]["expr.mul"]["calls"] == 1
    finally:
        restore()
    assert lepage.forms.diff is diff
    assert Expr.__mul__ is original_mul


_COUNT_SCRIPT = """
import json, tracer
t, obs = tracer.Tracer(), tracer.Observations()
tracer.install(t, obs)
from lepage import acceptance, minimal
for k in (4, 5):
    assert acceptance.run_one(k, 1).passed
field = minimal.GridField.dirichlet((-1.0, 1.0, -1.0, 1.0), (33, 33),
                                    minimal.BUILTIN_SURFACES["paraboloid"])
assert minimal.solve_minimal_surface(field).converged
calls = {n: r["calls"] for n, r in t.summary()["names"].items()}
print(json.dumps({"calls": calls, "obs": obs.to_json()}))
"""


def _traced_counts() -> dict:
    out = subprocess.run([sys.executable, "-c", _COUNT_SCRIPT], cwd=ROOT,
                         env=_env(), capture_output=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.decode().splitlines()[-1])


def _traced_cli_calls() -> tuple[bytes, dict]:
    inv = next(i for i in wl.CLI_MIX if i.label == "check-lepage/krupka")
    out = subprocess.run(bench._cli_argv(inv, 3, traced=True), cwd=ROOT,
                         env=_env(), capture_output=True, timeout=300)
    assert out.returncode == 0
    line = out.stderr.decode().splitlines()[-1]
    assert line.startswith(bench.TRACE_MARK)
    trace = json.loads(line[len(bench.TRACE_MARK):])
    # the import is part of the time the process spent in cli_boot.main
    assert 0 < trace["import_s"] < trace["in_process_s"]
    calls = {n: r["calls"] for n, r in trace["summary"]["names"].items()}
    return out.stdout, {"calls": calls, "obs": trace["observations"]}


def test_two_traced_runs_at_one_seed_count_the_same_calls():
    # fresh processes, so string hashing differs between the two runs
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["calls"]["acceptance.crit4"] == 1
    assert first["calls"]["expr.mul"] > 0
    assert first["calls"]["minimal.spsolve"] == first["obs"]["newton_iters"]


def test_traced_cli_keeps_its_output_and_counts():
    out1, counts1 = _traced_cli_calls()
    out2, counts2 = _traced_cli_calls()
    assert out1 == out2
    assert counts1 == counts2
    assert counts1["calls"]["cli.main"] == 1
    plain = subprocess.run(bench._cli_argv(
        next(i for i in wl.CLI_MIX if i.label == "check-lepage/krupka"), 3,
        traced=False), cwd=ROOT, env=_env(), capture_output=True, timeout=300)
    assert plain.stdout == out1


def test_cli_mix_is_seeded_and_repeats_earlier_light_commands():
    assert wl.cli_invocations(5) == wl.cli_invocations(5)
    invs = wl.cli_invocations(5)
    assert len(invs) == len(wl.CLI_MIX) + wl.CLI_REPEATS
    for inv in invs[len(wl.CLI_MIX):]:
        first = invs[inv.repeat_of]
        assert not first.heavy and first.argv == inv.argv


def test_check_cli_rejects_wrong_answers():
    inv = next(i for i in wl.CLI_MIX if i.label == "check-lepage/krupka")
    good = json.dumps({"schema": "lepage-report/1", "command": "check-lepage",
                       "passed": True}).encode()
    bad = json.dumps({"schema": "lepage-report/1", "command": "check-lepage",
                      "passed": False}).encode()
    assert wl.check_cli(inv, 0, good, None) is None
    assert wl.check_cli(inv, 1, good, None)
    assert wl.check_cli(inv, 0, bad, None)
    assert wl.check_cli(inv, 0, good, good + b" ")
    assert wl.check_cli(inv, 0, b"not json", None)


@pytest.mark.parametrize("boundary", ["scherk", "paraboloid"])
def test_check_minsurf_accepts_solutions_and_rejects_perturbed_ones(boundary):
    sys.path.insert(0, str(ROOT / "src"))
    from lepage.minimal import BUILTIN_SURFACES, GridField, solve_minimal_surface

    field = GridField.dirichlet(wl.SQUARE, (33, 33), BUILTIN_SURFACES[boundary])
    res = solve_minimal_surface(field)
    u = res.field.values
    xs, ys = res.field.xs, res.field.ys
    assert wl.check_minsurf(boundary, u, xs, ys, True, True, True) is None
    assert wl.check_minsurf(boundary, u, xs, ys, False, True, True)
    bent = u.copy()
    bent[5, 7] += 1e-6
    assert wl.check_minsurf(boundary, bent, xs, ys, True, True, True)


def test_graph_residual_matches_the_closed_form_equation():
    xs = np.linspace(-1.0, 1.0, 41)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h = xs[1] - xs[0]
    # central differences are exact on quadratics: a plane solves the
    # equation and x^2 + y^2 leaves 2(1 + 4y^2) + 2(1 + 4x^2)
    assert np.max(np.abs(wl.graph_residual(0.5 * X - 0.25 * Y, h, h))) < 1e-12
    r = wl.graph_residual(X ** 2 + Y ** 2, h, h)
    exact = 2 * (1 + 4 * Y ** 2) + 2 * (1 + 4 * X ** 2)
    assert np.max(np.abs(r - exact[1:-1, 1:-1])) < 1e-9


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_a_directory_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", HERE)
    assert bench.main(["--workload", "minsurf"]) != 0
    assert capsys.readouterr().out == ""
