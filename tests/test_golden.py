"""Golden corpus: byte-for-byte stdout of fixed CLI commands at seed 0.

The corpus holds the nine commands of the benchmark's symbolic CLI mix,
``check-lepage`` for every equivalent kind on both problem files,
``minsurf`` on both builtin surfaces at an even and an odd grid and with
the defaults of ``minimal_r3.json`` (the solver's iterates, its residual
history and the conservation figures; ``minsurf`` samples nothing and
takes no seed), the LaTeX output of ``lepage``, ``derive-el`` and
``noether``, and ``selftest --format json``.  The selftest file is checked by
``tests/test_cli.py`` against the session's one ``python -m lepage.cli``
selftest process (``conftest.selftest_json``), which the acceptance tests
read too, so the criteria run once per test session.  A change that alters printed output on
purpose re-baselines it with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes changed, prints each one's
changed lines (old, then new) and ends by naming them, or by saying that
nothing changed; the change log lists the outputs that moved.  For a wider
check than this corpus, ``tests/output_sweep.py`` records stdout, stderr
and exit status of every symbolic subcommand in fresh processes, to be
compared between two checkouts with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import sys
from pathlib import Path

import pytest

from lepage.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PROBLEMS = {"arclength": str(ROOT / "problems/arclength_r2.json"),
            "minimal_r3": str(ROOT / "problems/minimal_r3.json")}
KINDS = ("poincare-cartan", "fundamental", "caratheodory",
         "fundamental-homogeneous", "hilbert-caratheodory", "krupka")


def _cases() -> dict[str, tuple[tuple[str, ...], int]]:
    """Golden file stem -> (argv without --seed, exit status)."""
    cases = {
        "derive-el_arclength": (("derive-el", "--problem",
                                 PROBLEMS["arclength"]), 0),
        "check-zermelo_arclength": (("check-zermelo", "--problem",
                                     PROBLEMS["arclength"]), 0),
        "noether_minimal_r3": (("noether", "--problem",
                                PROBLEMS["minimal_r3"]), 0),
        "lepage-w_minimal_r3": (("lepage", "--problem", PROBLEMS["minimal_r3"],
                                 "--kind", "w"), 0),
    }
    for surface in ("scherk", "paraboloid"):
        for grid in ("64", "65"):
            cases[f"minsurf_{surface}_{grid}"] = (
                ("minsurf", "--boundary", surface, "--grid", grid), 0)
    cases["minsurf_minimal_r3"] = (("minsurf", "--problem",
                                    PROBLEMS["minimal_r3"]), 0)
    for pname, path in PROBLEMS.items():
        for kind in KINDS:
            # krupka needs a metric problem: exit 2, nothing on stdout
            status = 2 if (pname, kind) == ("arclength", "krupka") else 0
            cases[f"check-lepage_{pname}_{kind}"] = (
                ("check-lepage", "--problem", path, "--kind", kind), status)
    # LaTeX output: the covector and atom spellings; the other minimal_r3
    # kinds print 40-188 KB each and add no spelling these do not
    latex = ("--format", "latex")
    for kind in KINDS:
        status = 2 if kind == "krupka" else 0
        cases[f"lepage-latex_arclength_{kind}"] = (
            ("lepage", "--problem", PROBLEMS["arclength"], "--kind", kind,
             *latex), status)
    for kind in ("poincare-cartan", "hilbert-caratheodory", "krupka"):
        cases[f"lepage-latex_minimal_r3_{kind}"] = (
            ("lepage", "--problem", PROBLEMS["minimal_r3"], "--kind", kind,
             *latex), 0)
    cases["derive-el-latex_arclength"] = (
        ("derive-el", "--problem", PROBLEMS["arclength"], *latex), 0)
    cases["noether-latex_minimal_r3"] = (
        ("noether", "--problem", PROBLEMS["minimal_r3"], *latex), 0)
    return cases


CASES = _cases()
SELFTEST = {"selftest_json": (("selftest", "--format", "json"), 0)}


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        seed = () if argv[0] == "minsurf" else ("--seed", "0")
        status = main([*argv, *seed])
    return status, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    argv, status = CASES[name]
    got_status, got = run(argv)
    assert got_status == status
    assert got == (GOLDEN / f"{name}.out").read_text()


def rebaseline() -> list[str]:
    """Run every golden case, rewrite each file whose bytes changed, print
    its changed lines, and return the names of the files that changed."""
    GOLDEN.mkdir(exist_ok=True)
    cases = sorted({**CASES, **SELFTEST}.items())
    changed = []
    for name, (argv, status) in cases:
        got_status, got = run(argv)
        if got_status != status:
            sys.exit(f"{name}: exit status {got_status}, expected {status}")
        path = GOLDEN / f"{name}.out"
        old = path.read_text() if path.exists() else None
        if got == old:
            continue
        changed.append(name)
        path.write_text(got)
        if old is None:
            print(f"{name}: new file, {len(got)} bytes")
            continue
        print(f"{name}: changed, {len(old)} -> {len(got)} bytes")
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), got.splitlines(keepends=True),
            f"{path.name} (old)", f"{path.name} (new)", n=0))
    if changed:
        print(f"{len(changed)} of {len(cases)} golden files changed: "
              + ", ".join(changed))
    else:
        print(f"nothing changed: all {len(cases)} golden files are "
              f"byte-identical")
    return changed


def test_rebaseline_names_the_files_that_moved(monkeypatch, tmp_path,
                                              capsys):
    case = "check-zermelo_arclength"
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "CASES",
                        {case: CASES[case]})
    monkeypatch.setattr(sys.modules[__name__], "SELFTEST", {})
    assert rebaseline() == [case]
    assert capsys.readouterr().out.startswith(f"{case}: new file, ")
    assert rebaseline() == []
    assert capsys.readouterr().out == ("nothing changed: all 1 golden files "
                                       "are byte-identical\n")
    path = tmp_path / f"{case}.out"
    text = path.read_text()
    path.write_text(text.replace("\n", "\nstale line\n", 1))
    assert rebaseline() == [case]
    out = capsys.readouterr().out
    assert f"{case}: changed, {len(text) + 11} -> {len(text)} bytes" in out
    assert "\n-stale line\n" in out
    assert out.endswith(f"1 of 1 golden files changed: {case}\n")
    assert path.read_text() == text


if __name__ == "__main__":
    rebaseline()
