"""Operation lists of the three workloads and the known answers they are checked against.

Everything here is plain data and pure checks, so the parent process can use
it without importing lepage; the workers import lepage themselves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("cli-symbolic", "selftest", "minsurf")

# Passes of the fixed operation list per run: max(1, round(seconds / nominal)).
# A fixed count, rather than "until the clock runs out", keeps every run of a
# workload the same amount of work whatever the machine's speed that minute.
NOMINAL_PASS_S = {"cli-symbolic": 32.0, "selftest": 30.0, "minsurf": 14.0}

# Set-up samples per run; the median is reported as setup_s.
SETUP_SAMPLES = 5

ARCLENGTH = "problems/arclength_r2.json"
MINIMAL_R3 = "problems/minimal_r3.json"

SELFTEST_CRITERIA = 11

# max |u - log(cos x / cos y)| <= SCHERK_ERROR_C * h^2 for the converged grid
# solution; central differences are second order and the observed constant
# is 0.0122 at N = 65 ... 513.
SCHERK_ERROR_C = 0.1
# max |graph residual| of a returned solution, recomputed independently
RESIDUAL_TOL = 1e-9
# |u(x, y) - u(y, x)| and |u(x, y) - u(-x, y)| on the symmetric paraboloid data
SYMMETRY_TOL = 1e-8
SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 20
SQUARE = (-1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI process: arguments, and the known exit status and verdict."""

    label: str
    argv: tuple[str, ...]
    command: str
    status: int
    passed: bool | None  # expected "passed" field; None if the report has none
    heavy: bool
    repeat_of: int | None = None  # index of the invocation it must match byte for byte

    def with_seed(self, seed: int) -> tuple[str, ...]:
        return (*self.argv, "--seed", str(seed))


def _inv(label, command, problem, *extra, passed=None, heavy=False):
    return Invocation(label, (command, *extra, "--problem", problem), command,
                      0, passed, heavy)


# Every check here is a theorem about the problem, not a recorded output:
# each constructor yields a Lepage equivalent of the area integrand, the
# arclength integrand is positively homogeneous, and translations are
# symmetries of the Euclidean area.
CLI_MIX = (
    _inv("derive-el/arclength", "derive-el", ARCLENGTH),
    _inv("check-zermelo/arclength", "check-zermelo", ARCLENGTH, passed=True),
    _inv("check-lepage/krupka", "check-lepage", MINIMAL_R3, "--kind", "krupka",
         passed=True),
    _inv("check-lepage/poincare-cartan", "check-lepage", MINIMAL_R3,
         "--kind", "poincare-cartan", passed=True),
    _inv("noether/minimal_r3", "noether", MINIMAL_R3, passed=True),
    _inv("lepage-w/minimal_r3", "lepage", MINIMAL_R3, "--kind", "w"),
    _inv("check-lepage/caratheodory", "check-lepage", MINIMAL_R3,
         "--kind", "caratheodory", passed=True, heavy=True),
    _inv("check-lepage/fundamental", "check-lepage", MINIMAL_R3,
         "--kind", "fundamental", passed=True, heavy=True),
    _inv("check-lepage/fundamental-homogeneous", "check-lepage", MINIMAL_R3,
         "--kind", "fundamental-homogeneous", passed=True, heavy=True),
)
CLI_REPEATS = 2


def cli_invocations(seed: int) -> list[Invocation]:
    """The mix in a seeded order, then two light commands run again."""
    rng = random.Random(seed)
    order = list(CLI_MIX)
    rng.shuffle(order)
    light = [i for i, inv in enumerate(order) if not inv.heavy]
    repeats = [Invocation(f"{order[i].label}#repeat", order[i].argv,
                          order[i].command, order[i].status, order[i].passed,
                          order[i].heavy, repeat_of=i)
               for i in sorted(rng.sample(light, CLI_REPEATS))]
    return order + repeats


def check_cli(inv: Invocation, status: int, stdout: bytes,
              first_stdout: bytes | None) -> str | None:
    """None when the process gave the known answer, else what went wrong."""
    if status != inv.status:
        return f"exit status {status}, expected {inv.status}"
    try:
        report = json.loads(stdout)
    except ValueError as ex:
        return f"stdout is not a JSON report: {ex}"
    if report.get("schema") != "lepage-report/1" or report.get("command") != inv.command:
        return "report schema or command differs"
    if report.get("passed") != inv.passed:
        return f"passed is {report.get('passed')!r}, expected {inv.passed!r}"
    if inv.command == "derive-el" and len(report.get("components", ())) != 2:
        return "arclength in R^2 has two extremal equations"
    if inv.command == "noether":
        currents = report.get("currents", ())
        if len(currents) != 3 or not all(
                c.get("invariant") and c.get("closed_along_immersion")
                for c in currents):
            return "three translations must be invariant with closed currents"
    if inv.command == "lepage" and report.get("kind") != "fundamental-homogeneous":
        return "kind w is the fundamental-homogeneous form"
    if first_stdout is not None and stdout != first_stdout:
        return "stdout differs from the first invocation with the same seed"
    return None


def minsurf_grids(seed: int) -> list[tuple[str, str, int]]:
    """(label, boundary, N) of the three solves, in a seeded order."""
    grids = [("scherk-N257", "scherk", 257), ("scherk-N513", "scherk", 513),
             ("paraboloid-N257", "paraboloid", 257)]
    random.Random(seed).shuffle(grids)
    return grids


def graph_residual(u, hx: float, hy: float):
    """Central-difference graph equation at the interior nodes.

    Written out here, apart from lepage's kernels, so that a solution is
    checked against the equation rather than against the solver's own view.
    """
    ux = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * hx)
    uy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * hy)
    uxx = (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hx ** 2
    uyy = (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hy ** 2
    uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * hx * hy)
    return (1 + uy ** 2) * uxx - 2 * ux * uy * uxy + (1 + ux ** 2) * uyy


def check_minsurf(boundary: str, values, xs, ys, converged: bool,
                  cons_passed: bool, rec_passed: bool) -> str | None:
    """None when the solve meets its known answers, else what went wrong."""
    import numpy as np

    if not converged:
        return "Newton solve did not converge"
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    res = float(np.max(np.abs(graph_residual(values, hx, hy))))
    if not res <= RESIDUAL_TOL:
        return f"graph equation residual {res:.3e} above {RESIDUAL_TOL:g}"
    if boundary == "scherk":
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        err = float(np.max(np.abs(values - np.log(np.cos(X) / np.cos(Y)))))
        bound = SCHERK_ERROR_C * max(hx, hy) ** 2
        if not err <= bound:
            return f"max error {err:.3e} against the closed form above {bound:.3e}"
        # the gate assumes a smooth solution, which the Scherk surface is
        if not (cons_passed and rec_passed):
            return "conservation gate failed on a smooth solution"
    else:
        sym = max(float(np.max(np.abs(values - values.T))),
                  float(np.max(np.abs(values - values[::-1, :]))))
        if not sym <= SYMMETRY_TOL:
            return f"solution breaks the symmetry of its data by {sym:.3e}"
    return None
