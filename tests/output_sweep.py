"""Record what CLI commands print, to compare two checkouts.

    python tests/output_sweep.py OUTDIR

runs ``python -m lepage.cli`` from this checkout's ``src`` as a fresh
process per command, one at a time, and writes, for each command NAME, its
stdout to ``OUTDIR/NAME.out``, its stderr to ``OUTDIR/NAME.err`` and its
exit status to ``OUTDIR/NAME.status``.  The commands, at ``--seed 0``, are ``lepage``
and ``lepage --format latex`` for every equivalent kind, ``check-lepage``
for every kind, ``derive-el`` in both formats, ``check-zermelo`` and
``noether`` in both formats, on each ``problems/*.json`` and on two Noether
problems whose fields are not all symmetries (written here, to a temporary
directory), and ``selftest --format json``.  Five small ``minsurf`` runs,
which take no seed, follow: three solves and two that exit 2.  Paths are
passed relative to the working directory, so no output names a checkout.
A change that should print the same bytes is checked with

    python tests/output_sweep.py /tmp/before      # in the parent checkout
    python tests/output_sweep.py /tmp/after       # in the changed one
    diff -r /tmp/before /tmp/after

which shows nothing when no byte moved.  The script needs only the standard
library; it is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("poincare-cartan", "fundamental", "caratheodory",
         "fundamental-homogeneous", "hilbert-caratheodory", "krupka")
# Noether problems with fields that are not symmetries of the Lagrangian
WRITTEN_PROBLEMS = {
    "noether_graph_n2m1": {
        "chart": {"n": 2, "m": 1},
        "metric": {"kind": "euclidean", "dim": 3},
        "fields": [["1", "0", "0"], ["y2", "-y1", "0"], ["y1", "0", "0"],
                   ["0", "0", "y3^2"]],
        "immersion": ["x1", "x2", "x1*x2"]},
    "noether_diagonal_n2m2": {
        "chart": {"n": 2, "m": 2},
        "metric": {"kind": "diagonal", "entries": ["exp(y1)", "1", "1", "1"]},
        "fields": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "y4", "-y3"]]},
}
# the numeric workbench on small grids; the last two exit 2, on a directory
# that does not exist and on a rectangle whose grid spacing squares to zero
MINSURF = {
    "minsurf_scherk_17": ["--boundary", "scherk", "--grid", "17"],
    "minsurf_paraboloid_16": ["--boundary", "paraboloid", "--grid", "16"],
    "minsurf_minimal_r3": ["--problem", "problems/minimal_r3.json"],
    "minsurf_csv_missing_dir": ["--csv", "missing/x.csv"],
    "minsurf_thin_domain": ["--domain=0,1,0,1e-300"],
}


def problem_commands(name: str, path: str) -> dict[str, list[str]]:
    """Sweep name -> argv (without --seed) of the commands on one problem."""
    latex = ["--format", "latex"]
    cmds = {}
    for kind in KINDS:
        cmds[f"lepage_{name}_{kind}"] = ["lepage", "--problem", path,
                                         "--kind", kind]
        cmds[f"lepage-latex_{name}_{kind}"] = ["lepage", "--problem", path,
                                               "--kind", kind, *latex]
        cmds[f"check-lepage_{name}_{kind}"] = ["check-lepage", "--problem",
                                               path, "--kind", kind]
    for cmd in ("derive-el", "noether"):
        cmds[f"{cmd}_{name}"] = [cmd, "--problem", path]
        cmds[f"{cmd}-latex_{name}"] = [cmd, "--problem", path, *latex]
    cmds[f"check-zermelo_{name}"] = ["check-zermelo", "--problem", path]
    return cmds


def run(argv: list[str], cwd: Path, outdir: Path, name: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    seed = [] if argv[0] == "minsurf" else ["--seed", "0"]
    proc = subprocess.run([sys.executable, "-m", "lepage.cli", *argv, *seed],
                          cwd=cwd, env=env, capture_output=True)
    (outdir / f"{name}.out").write_bytes(proc.stdout)
    (outdir / f"{name}.err").write_bytes(proc.stderr)
    (outdir / f"{name}.status").write_text(f"{proc.returncode}\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp)
        (written / "problems").mkdir()
        for name, problem in WRITTEN_PROBLEMS.items():
            (written / "problems" / f"{name}.json").write_text(
                json.dumps(problem))
        jobs = [(["selftest", "--format", "json"], ROOT, "selftest_json")]
        for cwd in (ROOT, written):
            for path in sorted((cwd / "problems").glob("*.json")):
                rel = str(path.relative_to(cwd))
                for name, cmd in problem_commands(path.stem, rel).items():
                    jobs.append((cmd, cwd, name))
        jobs += [(["minsurf", *flags], ROOT, name)
                 for name, flags in MINSURF.items()]
        for cmd, cwd, name in jobs:
            run(cmd, cwd, args.outdir, name)
    print(f"{len(jobs)} commands recorded in {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
