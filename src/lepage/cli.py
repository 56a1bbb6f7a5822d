"""Command line interface: problem files in, schema-versioned reports out.

A problem file is a JSON document declaring a chart and exactly one of a
metric or a Lagrange function, both written in the expression DSL, plus
optional vector fields, an immersion, solver parameters, and sampling
parameters.  Reports are JSON documents printed to stdout with sorted keys,
so a fixed seed reproduces them byte for byte.  Exit status 0 means every
requested check passed, 1 means a mathematical check failed and the payload
carries a witness, 2 means the input could not be used.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import Frozen
from ._numpy import lazy, np
from .charts import AdaptedChart, ChartError, JetChart
from .equivalents import (Lagrangian, caratheodory, euler_lagrange,
                          fundamental, fundamental_homogeneous,
                          hilbert_caratheodory, is_lepage, poincare_cartan)
from .expr import (EqualResult, Expr, ExprError, ParseError, PointAssignment,
                   parse, to_dsl, to_latex)
from .forms import (DiffForm, FormError, Immersion, ext_d, form_to_json,
                    form_vanishes, pullback_immersion)

if TYPE_CHECKING:
    from .metric import MetricSpec
    from .variation import VectorFieldSpec

# The other layers run their module bodies when a command first uses them,
# so a process compiles only what its subcommand runs.  They are in
# sys.modules from here on: perfbench/tracer.py reads each layer's module
# there right after `import lepage.cli`.
acceptance = lazy("lepage.acceptance")
homogeneity = lazy("lepage.homogeneity")
metric = lazy("lepage.metric")
minimal = lazy("lepage.minimal")
variation = lazy("lepage.variation")

__all__ = ["ProblemError", "ProblemSpec", "load_problem", "main"]

PROBLEM_SCHEMA = "lepage-problem/1"
REPORT_SCHEMA = "lepage-report/1"

_PROBLEM_KEYS = {"schema", "chart", "metric", "lagrangian", "fields",
                 "immersion", "solver", "seed", "tol", "trials"}
_SOLVER_KEYS = {"grid", "domain", "boundary", "tol", "max_iter"}


class ProblemError(Exception):
    """Raised when a problem file or command input cannot be used."""


class ProblemSpec(Frozen):
    """Validated problem file: chart, integrand, and optional geometry.

    ``seed``, ``tol`` and ``trials`` are the sampling defaults as the file
    gives them; the function ``_sampling`` checks them after the
    command-line flags are merged in.
    """

    __slots__ = ("chart", "lagrangian", "metric", "fields", "immersion",
                 "solver", "seed", "tol", "trials")

    def __init__(self, chart: JetChart, lagrangian: Lagrangian,
                 metric: MetricSpec | None,
                 fields: tuple[VectorFieldSpec, ...],
                 immersion: Immersion | None, solver: dict,
                 seed: object, tol: object, trials: object):
        self._freeze(chart, lagrangian, metric, fields, immersion, solver,
                     seed, tol, trials)


# ---------------------------------------------------------------------------
# problem ingestion
# ---------------------------------------------------------------------------

def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemError(message)


def _integer_setting(value: object, name: str, least: int) -> int:
    """An integer of at least ``least``; an integral float such as 2.0 counts."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ProblemError(f"{name} is out of range: an integer of "
                           f"{len(str(abs(value)))} digits")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ProblemError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ProblemError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _finite_number(value: object) -> bool:
    """An int or float within float range, not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _positive_tol(value: object) -> float:
    """A tolerance: a positive finite number, not a bool."""
    if not (_finite_number(value) and value > 0):
        raise ProblemError(f"tol must be a positive number, got {value!r}")
    return float(value)


def _domain_setting(value: object) -> tuple:
    """The solver domain: four finite numbers, none a bool."""
    if not (isinstance(value, (list, tuple)) and len(value) == 4
            and all(map(_finite_number, value))):
        raise ProblemError(f"solver domain takes four numbers a,b,c,d, "
                           f"finite and not bools, got {value!r}")
    return tuple(value)


def _parse_expr(text: object, chart: JetChart, where: str) -> Expr:
    _expect(isinstance(text, str), f"{where} must be a DSL string")
    try:
        return parse(text, chart)
    except ParseError as ex:
        raise ProblemError(f"{where}: {ex}") from ex


def _parse_metric(obj: object, chart: JetChart) -> MetricSpec:
    _expect(isinstance(obj, dict), "metric must be an object")
    kind = obj.get("kind")
    try:
        if kind == "euclidean":
            _expect(set(obj) == {"kind", "dim"}, "euclidean metric takes only 'dim'")
            _expect(obj["dim"] == chart.M,
                    f"metric dimension {obj.get('dim')} does not match the "
                    f"chart fiber dimension {chart.M}")
            return metric.MetricSpec.euclidean(chart.M)
        if kind == "diagonal":
            entries = obj.get("entries")
            _expect(isinstance(entries, list) and len(entries) == chart.M,
                    f"diagonal metric needs {chart.M} entries")
            return metric.MetricSpec.diagonal(*[
                _parse_expr(e, chart, "metric entry") for e in entries])
        if kind == "matrix":
            entries = obj.get("entries")
            _expect(isinstance(entries, list) and len(entries) == chart.M,
                    f"matrix metric needs {chart.M} rows")
            rows = []
            for row in entries:
                _expect(isinstance(row, list) and len(row) == chart.M,
                        f"matrix metric rows need {chart.M} entries")
                rows.append(tuple(_parse_expr(e, chart, "metric entry")
                                  for e in row))
            return metric.MetricSpec(tuple(rows))
    except (ChartError, ExprError) as ex:
        raise ProblemError(f"metric: {ex}") from ex
    raise ProblemError(f"unknown metric kind {kind!r}")


def load_problem(path: str | Path) -> ProblemSpec:
    """Read and validate a problem file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as ex:
        raise ProblemError(f"cannot read problem file: {ex}") from ex
    except ValueError as ex:  # bad JSON, or an integer past Python's digit cap
        raise ProblemError(f"problem file is not valid JSON: {ex}") from ex
    _expect(isinstance(raw, dict), "problem file must hold a JSON object")
    unknown = set(raw) - _PROBLEM_KEYS
    _expect(not unknown, f"unknown problem keys: {sorted(unknown)}")
    schema = raw.get("schema", PROBLEM_SCHEMA)
    _expect(schema == PROBLEM_SCHEMA, f"unsupported problem schema {schema!r}")

    chart_obj = raw.get("chart")
    _expect(isinstance(chart_obj, dict) and set(chart_obj) == {"n", "m"},
            "problem file must declare a chart object with keys 'n' and 'm'")
    n = _integer_setting(chart_obj["n"], "chart n", 1)
    m = _integer_setting(chart_obj["m"], "chart m", 1)
    try:
        chart = JetChart(n, m, 1)
    except ChartError as ex:
        raise ProblemError(f"chart: {ex}") from ex

    has_metric = "metric" in raw
    has_lagrangian = "lagrangian" in raw
    _expect(has_metric != has_lagrangian,
            "problem file must declare exactly one of 'metric' or 'lagrangian'")
    g: MetricSpec | None = None
    if has_metric:
        g = _parse_metric(raw["metric"], chart)
        try:
            lagrangian = metric.minimal_lagrangian(g, chart.n)
        except (ChartError, ExprError) as ex:
            raise ProblemError(f"metric: {ex}") from ex
    else:
        lagrangian = Lagrangian(chart, _parse_expr(raw["lagrangian"], chart,
                                                   "lagrangian"))

    raw_fields = raw.get("fields", [])
    _expect(isinstance(raw_fields, list),
            f"fields must be a list of vector fields, got {raw_fields!r}")
    fields: list[VectorFieldSpec] = []
    for pos, comps in enumerate(raw_fields):
        _expect(isinstance(comps, list) and len(comps) == chart.M,
                f"field {pos} needs {chart.M} components")
        try:
            fields.append(variation.VectorFieldSpec(chart, tuple(
                _parse_expr(c, chart, f"field {pos} component") for c in comps)))
        except ChartError as ex:
            raise ProblemError(f"field {pos}: {ex}") from ex

    immersion: Immersion | None = None
    if "immersion" in raw:
        comps = raw["immersion"]
        _expect(isinstance(comps, list) and len(comps) == chart.M,
                f"immersion needs {chart.M} components")
        try:
            immersion = Immersion(chart, tuple(
                _parse_expr(c, chart, "immersion component") for c in comps))
        except (ChartError, FormError) as ex:
            raise ProblemError(f"immersion: {ex}") from ex

    solver = raw.get("solver", {})
    _expect(isinstance(solver, dict) and set(solver) <= _SOLVER_KEYS,
            f"solver block accepts keys {sorted(_SOLVER_KEYS)}")

    return ProblemSpec(chart, lagrangian, g, tuple(fields), immersion,
                       dict(solver), raw.get("seed", 0), raw.get("tol", 1e-9),
                       raw.get("trials", 20))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _form_to_latex(a: DiffForm) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for word, coeff in a.items():
        factors = " \\wedge ".join(c.latex() for c in word)
        if not factors:
            parts.append(to_latex(coeff))
        else:
            parts.append(f"\\left({to_latex(coeff)}\\right) {factors}")
    return " + ".join(parts)


def _point_json(assign: PointAssignment) -> dict:
    return {str(s): v for s, v in sorted(assign.symbols.items(),
                                         key=lambda kv: str(kv[0]))}


def _word_json(word: tuple | None) -> list[str] | None:
    return None if word is None else [c.name() for c in word]


def _witness(res: EqualResult, **fields: object) -> dict:
    """A failing verdict's witness: ``fields``, then the sampled values and
    point when the verdict has a witness point (an unknown one has none)."""
    if res.witness is not None:
        fields["values"] = list(res.witness_values)
        fields["point"] = _point_json(res.witness)
    return fields


def _report(command: str, **payload: object) -> dict:
    return {"schema": REPORT_SCHEMA, "command": command, **payload}


def _json_default(obj: object) -> object:
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _finite(obj: object) -> object:
    """obj with each non-finite float replaced by None, printed as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_finite(payload), indent=2, sort_keys=True,
                     default=_json_default))


# ---------------------------------------------------------------------------
# equivalent constructors by kind
# ---------------------------------------------------------------------------

_KIND_ALIASES = {
    "theta": "poincare-cartan",
    "z": "fundamental",
    "w": "fundamental-homogeneous",
    "omega": "krupka",
}


def _krupka(prob: ProblemSpec, sampling: dict) -> DiffForm:
    if prob.metric is None:
        raise ProblemError("kind 'krupka' needs a metric problem")
    return metric.krupka_form(prob.metric, prob.chart.n).form


# each kind's constructor, from the problem and the sampling settings
_EQUIVALENTS = {
    "poincare-cartan": lambda prob, s: poincare_cartan(prob.lagrangian),
    "fundamental": lambda prob, s: fundamental(prob.lagrangian),
    "caratheodory": lambda prob, s: caratheodory(prob.lagrangian),
    "fundamental-homogeneous":
        lambda prob, s: fundamental_homogeneous(prob.lagrangian, **s),
    "hilbert-caratheodory":
        lambda prob, s: hilbert_caratheodory(prob.lagrangian, **s),
    "krupka": _krupka,
}


def _build_equivalent(kind: str, prob: ProblemSpec,
                      **sampling) -> tuple[str, DiffForm]:
    kind = _KIND_ALIASES.get(kind, kind)
    return kind, _EQUIVALENTS[kind](prob, sampling)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sampling(args: argparse.Namespace, prob: ProblemSpec) -> tuple[int, float, int]:
    """Seed, tol and trials, each flag in place of the file's value, checked."""
    seed = prob.seed if args.seed is None else args.seed
    tol = prob.tol if args.tol is None else args.tol
    trials = prob.trials if args.trials is None else args.trials
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ProblemError(f"seed must be an integer, got {seed!r}")
    return seed, _positive_tol(tol), _integer_setting(trials, "trials", 1)


def _cmd_derive_el(args: argparse.Namespace) -> int:
    prob = load_problem(args.problem)
    _sampling(args, prob)  # nothing is sampled, but bad settings still exit 2
    components = euler_lagrange(prob.lagrangian)
    if args.format == "latex":
        for e in components:
            print(to_latex(e))
        return 0
    _emit(_report("derive-el",
                  chart={"n": prob.chart.n, "m": prob.chart.m},
                  components=[to_dsl(e) for e in components]))
    return 0


def _cmd_lepage(args: argparse.Namespace) -> int:
    prob = load_problem(args.problem)
    seed, tol, trials = _sampling(args, prob)
    kind, rho = _build_equivalent(args.kind, prob, seed=seed, tol=tol,
                                  trials=trials)
    if args.format == "latex":
        print(_form_to_latex(rho))
        return 0
    _emit(_report("lepage", kind=kind,
                  chart={"n": prob.chart.n, "m": prob.chart.m},
                  form=form_to_json(rho)))
    return 0


def _cmd_check_lepage(args: argparse.Namespace) -> int:
    prob = load_problem(args.problem)
    seed, tol, trials = _sampling(args, prob)
    kind, rho = _build_equivalent(args.kind, prob, seed=seed, tol=tol,
                                  trials=trials)
    verdicts = is_lepage(rho, prob.lagrangian, trials=trials, tol=tol,
                         seed=seed, guards=[prob.lagrangian.L])
    # a failing jet direction is the witness before the horizontal part
    label, res = verdicts.witness() or (None, None)
    payload = _report("check-lepage", kind=kind, passed=verdicts.passed,
                      vertical_contractions_vanish=label in (None, "horizontal"),
                      carries_lagrangian=bool(verdicts.get("horizontal", True)))
    if label == "horizontal":
        payload["witness"] = {"detail": "horizontal part differs from the "
                                        "Lagrangian volume form",
                              "word": _word_json(res.word)}
    elif label is not None:
        payload["witness"] = _witness(res, direction=str(label),
                                      word=_word_json(res.word))
    _emit(payload)
    return 0 if verdicts.passed else 1


def _cmd_check_zermelo(args: argparse.Namespace) -> int:
    prob = load_problem(args.problem)
    seed, tol, trials = _sampling(args, prob)
    lam = prob.lagrangian
    verdicts = homogeneity.zermelo_residuals(lam, trials=trials, tol=tol,
                                             seed=seed)
    payload = _report("check-zermelo", passed=verdicts.passed,
                      verdicts={f"{i},{j}": res.verdict
                                for (i, j), res in verdicts.items()})
    bad = verdicts.witness()
    if bad is not None:
        (i, j), res = bad
        residual = homogeneity.zermelo_residual(lam, i, j)
        payload["witness"] = _witness(res, index=[i, j],
                                      residual=to_dsl(residual))
    _emit(payload)
    return 0 if verdicts.passed else 1


def _cmd_noether(args: argparse.Namespace) -> int:
    prob = load_problem(args.problem)
    if prob.metric is None:
        raise ProblemError("noether needs a metric problem")
    if not prob.fields:
        raise ProblemError("noether needs at least one entry under 'fields'")
    seed, tol, trials = _sampling(args, prob)
    adapted = AdaptedChart(prob.chart, tuple(range(1, prob.chart.n + 1)))
    WG = homogeneity.grassmann_form(
        metric.krupka_form(prob.metric, prob.chart.n), adapted)
    entries = []
    currents = []
    witness = None
    for pos, xi in enumerate(prob.fields):
        # built once: the verdict, and the witness if this field fails first
        residual = variation.noether_residual(xi, WG)
        invariant = bool(form_vanishes(residual, trials=trials, tol=tol,
                                       seed=seed))
        current = variation.noether_current(xi, WG)
        currents.append(current)
        entry = {
            "components": [to_dsl(c) for c in xi.components],
            "invariant": invariant,
            "current": form_to_json(current),
        }
        if prob.immersion is not None:
            closure = ext_d(pullback_immersion(current, prob.immersion))
            entry["closed_along_immersion"] = bool(form_vanishes(
                closure, trials=trials, tol=tol, seed=seed))
        if not invariant and witness is None:
            witness = {"field": pos, "residual": form_to_json(residual)}
        entries.append(entry)
    passed = all(e["invariant"] for e in entries)
    if args.format == "latex":
        for current in currents:
            print(_form_to_latex(current))
        return 0 if passed else 1
    payload = _report("noether", passed=passed, currents=entries)
    if witness is not None:
        payload["witness"] = witness
    _emit(payload)
    return 0 if passed else 1


def _domain(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("domain takes four numbers a,b,c,d")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex)) from ex
    return a, b, c, d


# reconstruct_and_check takes differences across the interior nodes, so
# every side needs at least three of them
MIN_GRID = 5


def _load_grid_values(path: Path) -> np.ndarray:
    try:
        if path.suffix.lower() == ".csv":
            values = np.loadtxt(path, delimiter=",", dtype=float)
        else:
            values = np.asarray(json.loads(path.read_text()), dtype=float)
    except OSError as ex:
        raise ProblemError(f"cannot read boundary file: {ex}") from ex
    except (json.JSONDecodeError, ValueError) as ex:
        raise ProblemError(f"boundary file is not a numeric grid: {ex}") from ex
    if values.ndim != 2:
        raise ProblemError("boundary file must hold a 2D grid")
    return values


def _require_finite(values: np.ndarray, rect: tuple) -> None:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ProblemError(f"boundary data is not finite: {bad} of "
                           f"{values.size} grid values are nan or inf "
                           f"on domain {list(rect)}")


def _cmd_minsurf(args: argparse.Namespace) -> int:
    solver = {}
    if args.problem is not None:
        solver = load_problem(args.problem).solver
    grid = args.grid if args.grid is not None else solver.get("grid")
    if grid is not None:
        grid = _integer_setting(grid, "grid", MIN_GRID)
    rect = args.domain if args.domain is not None else \
        _domain_setting(solver.get("domain", (-1.0, 1.0, -1.0, 1.0)))
    boundary = args.boundary if args.boundary is not None else \
        solver.get("boundary", "scherk")
    if not isinstance(boundary, str):
        raise ProblemError(f"boundary must be a builtin surface name or a "
                           f"file path, got {boundary!r}")
    tol = _positive_tol(args.tol if args.tol is not None
                        else solver.get("tol", 1e-10))
    max_iter = _integer_setting(
        args.max_iter if args.max_iter is not None
        else solver.get("max_iter", 20), "max_iter", 0)

    surfaces = minimal.BUILTIN_SURFACES
    if boundary in surfaces:
        n = grid if grid is not None else 33
        fn, shape, values = surfaces[boundary], (n, n), None
    else:
        path = Path(boundary)
        if not path.exists():
            raise ProblemError(
                f"boundary {boundary!r} is neither a builtin "
                f"({', '.join(sorted(surfaces))}) nor a file")
        values = _load_grid_values(path)
        _require_finite(values, rect)
        shape = values.shape
        if min(shape) < MIN_GRID:
            raise ProblemError(f"boundary file grid {shape} is smaller "
                               f"than {MIN_GRID}x{MIN_GRID}")
        if grid is not None and shape != (grid, grid):
            raise ProblemError(f"boundary file shape {shape} does not "
                               f"match --grid {grid}")
    try:
        try:
            if values is None:
                # off its domain a builtin surface gives nan/inf, caught below
                with np.errstate(invalid="ignore", divide="ignore"):
                    start = minimal.GridField.dirichlet(rect, shape, fn)
            else:
                start = minimal.GridField(rect, values)
        except ValueError as ex:
            raise ProblemError(f"domain {list(rect)}: {ex}") from ex
        _require_finite(start.values, rect)
        # a solve that overflows reports its figures as null, not warnings
        with np.errstate(all="ignore"):
            result = minimal.solve_minimal_surface(start, tol=tol,
                                                   max_iter=max_iter)
            rec = minimal.reconstruct_and_check(result.field)
            cons = rec.conservation
    except MemoryError as ex:
        raise ProblemError(f"a {shape[0]}x{shape[1]} grid does not fit in "
                           f"memory: {ex}") from ex
    payload = _report(
        "minsurf",
        grid={"nx": result.field.nx, "ny": result.field.ny,
              "domain": list(result.field.rect)},
        boundary=boundary if boundary in surfaces else "file",
        converged=result.converged,
        iterations=result.iterations,
        message=result.message,
        convergence=list(result.history),
        residuals={"equation": result.final_residual,
                   "relation": rec.rovnice_residual,
                   "reconstruction_stage": rec.stage},
        circulations={**dict(sorted(cons.circulations.items())),
                      "gate": cons.gate()},
    )
    # the field first, so that a path it cannot write leaves stdout empty
    if args.csv is not None:
        np.savetxt(args.csv, result.field.values, delimiter=",")
    _emit(payload)
    return 0 if result.converged else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    results = acceptance.run_all(seed=seed)
    passed = sum(r.passed for r in results)
    if args.format == "json":
        _emit(_report("selftest", seed=seed,
                      passed=passed == len(results),
                      criteria=[{"number": r.number, "title": r.title,
                                 "passed": r.passed, "detail": r.detail}
                                for r in results]))
    else:
        for r in results:
            print(r.line())
        print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lepage",
        description="Equivalents, extremal equations, invariants, and a "
                    "minimal-surface workbench over jet charts.")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = sorted(set(_EQUIVALENTS) | set(_KIND_ALIASES))

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", required=True, help="problem JSON file")
    common.add_argument("--format", choices=("json", "latex"), default="json")
    common.add_argument("--seed", type=int, default=None,
                        help="sampling seed (overrides the problem file)")
    common.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance (overrides the problem file)")
    common.add_argument("--trials", type=int, default=None,
                        help="sample count (overrides the problem file)")

    p = sub.add_parser("derive-el", parents=[common],
                       help="source expressions of the extremal equations")
    p.set_defaults(handler=_cmd_derive_el)

    p = sub.add_parser("lepage", parents=[common],
                       help="construct an equivalent of the problem integrand")
    p.add_argument("--kind", required=True, choices=kinds)
    p.set_defaults(handler=_cmd_lepage)

    p = sub.add_parser("check-lepage", parents=[common],
                       help="verify the constructed equivalent")
    p.add_argument("--kind", required=True, choices=kinds)
    p.set_defaults(handler=_cmd_check_lepage)

    p = sub.add_parser("check-zermelo", parents=[common],
                       help="homogeneity residuals of the problem integrand")
    p.set_defaults(handler=_cmd_check_zermelo)

    p = sub.add_parser("noether", parents=[common],
                       help="currents and invariance residuals of the "
                            "declared fields")
    p.set_defaults(handler=_cmd_noether)

    p = sub.add_parser("minsurf",
                       help="solve the graph equation on a rectangle")
    p.add_argument("--problem", default=None,
                   help="problem JSON file supplying solver defaults")
    p.add_argument("--grid", type=int, default=None, help="grid points per axis")
    p.add_argument("--domain", type=_domain, default=None,
                   help="rectangle a,b,c,d")
    p.add_argument("--boundary", default=None,
                   help="builtin surface name or grid file (.csv or JSON)")
    p.add_argument("--tol", type=float, default=None,
                   help="Newton residual target")
    p.add_argument("--max-iter", type=int, default=None,
                   help="Newton step limit")
    p.add_argument("--csv", default=None,
                   help="write the solved grid to this CSV file")
    p.set_defaults(handler=_cmd_minsurf)

    p = sub.add_parser("selftest", help="run every registered criterion")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ProblemError, ExprError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
