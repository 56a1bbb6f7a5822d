"""Golden corpus: byte-for-byte stdout of fixed CLI commands at seed 0.

The corpus holds the nine commands of the benchmark's symbolic CLI mix,
``check-lepage`` for every equivalent kind on both problem files, and
``selftest --format json``.  The selftest file is checked against a
``python -m lepage.cli`` process by ``tests/test_cli.py``, not here, so the
criteria run once per test session.  A change that alters printed output on
purpose re-baselines it with

    PYTHONPATH=src python tests/test_golden.py

and says in its change log which outputs moved.
"""

from __future__ import annotations

import contextlib
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
    for pname, path in PROBLEMS.items():
        for kind in KINDS:
            # krupka needs a metric problem: exit 2, nothing on stdout
            status = 2 if (pname, kind) == ("arclength", "krupka") else 0
            cases[f"check-lepage_{pname}_{kind}"] = (
                ("check-lepage", "--problem", path, "--kind", kind), status)
    return cases


CASES = _cases()
SELFTEST = {"selftest_json": (("selftest", "--format", "json"), 0)}


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = main([*argv, "--seed", "0"])
    return status, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    argv, status = CASES[name]
    got_status, got = run(argv)
    assert got_status == status
    assert got == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, status) in sorted({**CASES, **SELFTEST}.items()):
        got_status, got = run(argv)
        if got_status != status:
            sys.exit(f"{name}: exit status {got_status}, expected {status}")
        (GOLDEN / f"{name}.out").write_text(got)
        print(name, len(got), "bytes")
