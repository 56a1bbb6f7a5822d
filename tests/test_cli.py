"""Tests for the command line interface: exit codes, schemas, determinism."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import lepage.acceptance
import lepage.metric
import lepage.minimal
import lepage.variation
from lepage import cli
from lepage.acceptance import CriterionResult
from lepage.cli import main
from lepage.equivalents import is_lepage, poincare_cartan
from lepage.expr import EqualResult, ONE, const, parse, sqrt_expr
from lepage.forms import DiffForm, dw, dx

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
MINIMAL = str(PROBLEMS / "minimal_r3.json")
ARCLENGTH = str(PROBLEMS / "arclength_r2.json")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def write_problem(tmp_path, payload: dict) -> str:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


def base_problem(**overrides) -> dict:
    payload = {
        "schema": "lepage-problem/1",
        "chart": {"n": 2, "m": 1},
        "metric": {"kind": "euclidean", "dim": 3},
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# derive-el
# ---------------------------------------------------------------------------


def test_derive_el_reports_components(capsys):
    code, report = run_json(capsys, "derive-el", "--problem", ARCLENGTH)
    assert code == 0
    assert report["schema"] == "lepage-report/1"
    assert report["command"] == "derive-el"
    assert len(report["components"]) == 2


def test_derive_el_latex(capsys):
    code, out, _ = run_cli(capsys, "derive-el", "--problem", ARCLENGTH,
                           "--format", "latex")
    assert code == 0
    assert "\\frac" in out


# ---------------------------------------------------------------------------
# lepage and check-lepage
# ---------------------------------------------------------------------------


def test_lepage_form_json(capsys):
    code, report = run_json(capsys, "lepage", "--problem", MINIMAL,
                            "--kind", "w")
    assert code == 0
    assert report["kind"] == "fundamental-homogeneous"
    form = report["form"]
    assert form["degree"] == 2
    assert all(len(term["word"]) == 2 for term in form["terms"])


def test_lepage_kind_aliases_agree(capsys):
    _, via_alias = run_json(capsys, "lepage", "--problem", MINIMAL,
                            "--kind", "theta")
    _, via_name = run_json(capsys, "lepage", "--problem", MINIMAL,
                           "--kind", "poincare-cartan")
    assert via_alias == via_name


@pytest.mark.parametrize("kind", ["poincare-cartan", "fundamental",
                                  "caratheodory", "fundamental-homogeneous",
                                  "hilbert-caratheodory", "krupka"])
def test_check_lepage_passes_each_kind(capsys, monkeypatch, kind):
    # every kind is decided by the contact comparison, which stays internal
    import lepage.cli as cli
    verdicts = []

    def recorded(*args, **kwargs):
        verdicts.append(is_lepage(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(cli, "is_lepage", recorded)
    code, out, _ = run_cli(capsys, "check-lepage", "--problem", MINIMAL,
                           "--kind", kind)
    report = json.loads(out)
    assert code == 0, report
    assert report["passed"] is True
    assert report["carries_lagrangian"] is True
    assert report["vertical_contractions_vanish"] is True
    assert [list(v) for v in verdicts] == [["contact"]]
    assert verdicts[0]["contact"].decided_by == "structural"
    assert "decided_by" not in out


# stdout of a failing check-lepage at seed 0, one report per witness shape
CHECK_LEPAGE_FAILURES = {
    "volume form": (
        '{\n'
        '  "carries_lagrangian": true,\n'
        '  "command": "check-lepage",\n'
        '  "kind": "poincare-cartan",\n'
        '  "passed": false,\n'
        '  "schema": "lepage-report/1",\n'
        '  "vertical_contractions_vanish": false,\n'
        '  "witness": {\n'
        '    "direction": "y1_1",\n'
        '    "point": {\n'
        '      "y1_1": -0.3416433777220934,\n'
        '      "y1_2": -1.5364787639477437,\n'
        '      "y2_1": -1.882135688122143,\n'
        '      "y2_2": 0.8156659015199832,\n'
        '      "y3_1": 1.694519742534911,\n'
        '      "y3_2": 1.5716221578655523\n'
        '    },\n'
        '    "values": [\n'
        '      0.11494572989297092,\n'
        '      0.0\n'
        '    ],\n'
        '    "word": [\n'
        '      "dx1",\n'
        '      "dx2"\n'
        '    ]\n'
        '  }\n'
        '}\n'
    ),
    "doubled Poincare-Cartan form": (
        '{\n'
        '  "carries_lagrangian": false,\n'
        '  "command": "check-lepage",\n'
        '  "kind": "poincare-cartan",\n'
        '  "passed": false,\n'
        '  "schema": "lepage-report/1",\n'
        '  "vertical_contractions_vanish": true,\n'
        '  "witness": {\n'
        '    "detail": "horizontal part differs from the Lagrangian volume form",\n'
        '    "word": [\n'
        '      "dx1",\n'
        '      "dx2"\n'
        '    ]\n'
        '  }\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("label", sorted(CHECK_LEPAGE_FAILURES))
def test_check_lepage_failure_reports(capsys, monkeypatch, label):
    # the volume form alone keeps its horizontal part but not the vertical
    # contractions; twice the Poincare-Cartan form keeps the contractions but
    # carries twice the Lagrangian
    import lepage.cli as cli

    def build(kind, prob, **_):
        lam = prob.lagrangian
        if label == "volume form":
            return "poincare-cartan", lam.volume()
        return "poincare-cartan", poincare_cartan(lam).scale(const(2))

    monkeypatch.setattr(cli, "_build_equivalent", build)
    code, out, _ = run_cli(capsys, "check-lepage", "--problem", MINIMAL,
                           "--kind", "theta", "--seed", "0")
    assert code == 1
    assert out == CHECK_LEPAGE_FAILURES[label]


def test_check_lepage_reports_unknown_defect(capsys, monkeypatch):
    # with every sample skipped the volume form's defect is undecided: the
    # report fails, and its witness has no sampled values or point
    import lepage.cli as cli
    import lepage.forms as forms

    monkeypatch.setattr(cli, "_build_equivalent", lambda kind, prob, **_: (
        "poincare-cartan", prob.lagrangian.volume()))
    monkeypatch.setattr(forms, "equal",
                        lambda a, b, **_: EqualResult("unknown"))
    code, report = run_json(capsys, "check-lepage", "--problem", MINIMAL,
                            "--kind", "theta")
    assert code == 1
    assert report["passed"] is False
    assert report["carries_lagrangian"] is False
    assert report["witness"] == {"direction": "y1_1", "word": ["dx1", "dx2"]}


def test_krupka_requires_metric(capsys):
    code, _, err = run_cli(capsys, "lepage", "--problem", ARCLENGTH,
                           "--kind", "krupka")
    assert code == 2
    assert "metric" in err


@pytest.mark.parametrize("kind", ["w", "hilbert-caratheodory"])
def test_homogeneous_kinds_name_the_failing_residual(capsys, tmp_path, kind):
    # both constructors first require the Zermelo conditions; the message
    # names the first failing index pair and its sampled witness
    path = write_problem(tmp_path, {"chart": {"n": 1, "m": 1},
                                    "lagrangian": "y1_1^2 + y2_1^2"})
    code, out, err = run_cli(capsys, "lepage", "--problem", path,
                             "--kind", kind, "--seed", "0")
    assert (code, out) == (2, "")
    assert err == ("error: Lagrange function is not positive homogeneous: "
                   "residual at (j=1, l=1) is unequal: lhs=3.65915495 rhs=0 "
                   "at y1_1=-0.341643, y2_1=-1.88214\n")


# ---------------------------------------------------------------------------
# check-zermelo
# ---------------------------------------------------------------------------


def test_check_zermelo_passes_minimal(capsys):
    code, report = run_json(capsys, "check-zermelo", "--problem", MINIMAL)
    assert code == 0
    assert report["passed"] is True
    assert set(report["verdicts"]) == {"1,1", "1,2", "2,1", "2,2"}


def test_check_zermelo_fails_with_witness(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "schema": "lepage-problem/1",
        "chart": {"n": 2, "m": 1},
        "lagrangian": "y1_1^2 + y1_2^2",
    })
    code, report = run_json(capsys, "check-zermelo", "--problem", path)
    assert code == 1
    assert report["passed"] is False
    assert report["witness"]["index"]
    assert report["witness"]["point"]


def test_check_zermelo_accepts_a_metric_symmetric_up_to_its_normal_form(
        capsys, tmp_path):
    # sqrt(2)*sqrt(3) and sqrt(6) have different normal forms; the symmetry
    # check compares them with the sampled zero test
    path = write_problem(tmp_path, base_problem(metric={
        "kind": "matrix",
        "entries": [["2", "sqrt(2)*sqrt(3)", "0"], ["sqrt(6)", "4", "0"],
                    ["0", "0", "1"]]}))
    code, report = run_json(capsys, "check-zermelo", "--problem", path)
    assert code == 0
    assert report["passed"] is True


def test_check_zermelo_rejects_an_asymmetric_metric(capsys, tmp_path):
    path = write_problem(tmp_path, base_problem(metric={
        "kind": "matrix",
        "entries": [["2", "sqrt(5)", "0"], ["sqrt(6)", "4", "0"],
                    ["0", "0", "1"]]}))
    code, out, err = run_cli(capsys, "check-zermelo", "--problem", path)
    assert (code, out) == (2, "")
    assert err == "error: metric: metric not symmetric at (1, 2)\n"


@pytest.mark.parametrize("factor", ["1", "1/1000000000000", "1000000000000"])
@pytest.mark.parametrize("lagrangian, passed", [
    ("y1_1^2", False), ("sqrt(y1_1^2 + y2_1^2)", True)])
def test_check_zermelo_verdict_ignores_a_constant_factor(
        capsys, tmp_path, lagrangian, passed, factor):
    # the sampled comparison is relative to the residual's terms, so a
    # residual that is small only because the integrand is does not pass
    payload = json.loads(Path(ARCLENGTH).read_text())
    payload["lagrangian"] = f"{factor}*({lagrangian})"
    path = write_problem(tmp_path, payload)
    code, report = run_json(capsys, "check-zermelo", "--problem", path)
    assert report["passed"] is passed
    assert code == (0 if passed else 1)


def test_check_zermelo_reports_unknown_verdict(capsys, tmp_path):
    # every sample violates the radicand guard, so the residual is undecided
    path = write_problem(tmp_path, {
        "schema": "lepage-problem/1",
        "chart": {"n": 1, "m": 1},
        "lagrangian": "sqrt(-1 - y1_1^2)",
    })
    code, report = run_json(capsys, "check-zermelo", "--problem", path)
    assert code == 1
    assert report["passed"] is False
    assert report["verdicts"] == {"1,1": "unknown"}
    assert set(report["witness"]) == {"index", "residual"}
    assert report["witness"]["index"] == [1, 1]


@pytest.mark.parametrize("lagrangian, residual", [
    # |y1_1| > 1 overflows a float, and |y1_1| < 1 underflows to 0, so no
    # sample can tell the residual from 0
    ("y1_1^99999999", "99999998*y1_1^99999999"),
    # the constant itself is too large for a float, and its residual has
    # more digits than one literal may hold
    ("2^1000000", "-2^1000000"),
])
def test_check_zermelo_overflowing_samples_give_a_verdict(
        capsys, tmp_path, lagrangian, residual):
    path = write_problem(tmp_path, {"schema": "lepage-problem/1",
                                    "chart": {"n": 1, "m": 1},
                                    "lagrangian": lagrangian})
    code, out, err = run_cli(capsys, "check-zermelo", "--problem", path)
    report = json.loads(out)
    assert err == ""
    assert code == 1 and report["passed"] is False
    assert report["verdicts"]["1,1"] in {"unequal", "unknown"}
    assert parse(report["witness"]["residual"]) == parse(residual)


def nonhomogeneous_problem(tmp_path, extra: str = "") -> str:
    """A problem whose integrand y1_1^2 fails the Zermelo conditions.

    ``extra`` is spliced into the JSON text as written, so that literals such
    as 1e999 reach the parser unchanged.
    """
    path = tmp_path / "problem.json"
    path.write_text('{"schema": "lepage-problem/1", "chart": {"n": 1, "m": 1}, '
                    '"lagrangian": "y1_1^2"' + extra + '}')
    return str(path)


@pytest.mark.parametrize("flags, message", [
    (("--trials", "0"), "trials must be at least 1, got 0"),
    (("--trials", "-2"), "trials must be at least 1, got -2"),
    (("--tol", "nan"), "tol must be a positive number, got nan"),
    (("--tol", "inf"), "tol must be a positive number, got inf"),
    (("--tol", "-1"), "tol must be a positive number, got -1.0"),
])
def test_check_zermelo_rejects_bad_sampling_flags(capsys, tmp_path, flags,
                                                  message):
    path = nonhomogeneous_problem(tmp_path)
    code, out, err = run_cli(capsys, "check-zermelo", "--problem", path, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("extra, message", [
    (', "tol": 1e999', "tol must be a positive number, got inf"),
    (', "tol": true', "tol must be a positive number, got True"),
    (', "trials": 2.5', "trials must be an integer, got 2.5"),
    (', "seed": true', "seed must be an integer, got True"),
])
def test_check_zermelo_rejects_bad_sampling_settings(capsys, tmp_path, extra,
                                                     message):
    path = nonhomogeneous_problem(tmp_path, extra)
    code, out, err = run_cli(capsys, "check-zermelo", "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_sampling_flags_are_checked_after_overriding_the_file(capsys,
                                                              tmp_path):
    path = nonhomogeneous_problem(tmp_path, ', "trials": 0, "tol": -1')
    code, report = run_json(capsys, "check-zermelo", "--problem", path,
                            "--trials", "5", "--tol", "1e-9", "--seed", "-3")
    assert code == 1
    assert report["passed"] is False


@pytest.mark.parametrize("command", ["derive-el", "check-zermelo"])
@pytest.mark.parametrize("lagrangian, message", [
    ("(" * 250 + "y1_1" + ")" * 250,
     "lagrangian: more than 100 nested parentheses and function "
     "applications (at offset 100)"),
    ("1" * 4400 + "*y1_1",
     "lagrangian: cannot read the number '1111111111...1111111111' of "
     "4400 characters (at offset 0)"),
])
def test_unparseable_lagrangians_exit_2(capsys, tmp_path, command, lagrangian,
                                        message):
    path = write_problem(tmp_path, {"chart": {"n": 1, "m": 1},
                                    "lagrangian": lagrangian})
    code, out, err = run_cli(capsys, command, "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [("derive-el", "--problem", ARCLENGTH),
                                  ("noether", "--problem", MINIMAL)])
@pytest.mark.parametrize("flags, message", [
    (("--trials", "0"), "trials must be at least 1, got 0"),
    (("--tol", "nan"), "tol must be a positive number, got nan"),
    (("--tol", "-1"), "tol must be a positive number, got -1.0"),
])
def test_derive_el_and_noether_reject_bad_sampling_flags(
        capsys, monkeypatch, argv, flags, message):
    # derive-el samples nothing but takes the flags; noether checks them
    # before it builds any form
    def unreachable(*args, **kwargs):
        raise AssertionError("built the Krupka form before checking flags")

    monkeypatch.setattr(lepage.metric, "krupka_form", unreachable)
    code, out, err = run_cli(capsys, *argv, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["derive-el", "noether"])
@pytest.mark.parametrize("extra, message", [
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"tol": True}, "tol must be a positive number, got True"),
])
def test_derive_el_and_noether_reject_bad_sampling_settings(
        capsys, tmp_path, command, extra, message):
    path = write_problem(tmp_path, base_problem(fields=[["1", "0", "0"]],
                                                **extra))
    code, out, err = run_cli(capsys, command, "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# noether
# ---------------------------------------------------------------------------


def test_noether_translations_invariant(capsys):
    code, report = run_json(capsys, "noether", "--problem", MINIMAL)
    assert code == 0
    assert report["passed"] is True
    assert len(report["currents"]) == 3
    for entry in report["currents"]:
        assert entry["invariant"] is True
        assert entry["closed_along_immersion"] is True
        assert entry["current"]["degree"] == 1


def test_noether_scaling_field_fails(capsys, tmp_path):
    path = write_problem(tmp_path, base_problem(
        fields=[["0", "0", "y3"]]))
    code, report = run_json(capsys, "noether", "--problem", path)
    assert code == 1
    assert report["passed"] is False
    assert report["witness"]["field"] == 0


def test_noether_builds_each_invariance_residual_once(capsys, tmp_path,
                                                     monkeypatch):
    # a translation and a rotation are isometries, a scaling of y1 is not;
    # each residual decides its field's verdict, and the failing one is also
    # the witness, so three fields take three residuals
    build = lepage.variation.noether_residual
    calls = []

    def counting_residual(xi, eta):
        calls.append(xi)
        return build(xi, eta)

    monkeypatch.setattr(lepage.variation, "noether_residual", counting_residual)
    path = write_problem(tmp_path, base_problem(
        fields=[["1", "0", "0"], ["y2", "-y1", "0"], ["y1", "0", "0"]]))
    code, out, err = run_cli(capsys, "noether", "--problem", path)
    assert (code, err) == (1, "")
    assert len(calls) == 3
    assert out == (GOLDEN / "noether_failing_field.out").read_text()


def test_noether_residual_zero_but_not_canonical(capsys, monkeypatch):
    # sqrt(2)*sqrt(3) - sqrt(6) does not simplify to structural zero, yet it
    # vanishes at every sample, so each field is still an invariance generator
    import lepage.variation as variation
    reduce = variation.reduce_contact_ideal
    root2, root3, root6 = (sqrt_expr(const(k)) for k in (2, 3, 6))

    def residual(a):
        r = reduce(a)
        extra = DiffForm(r.chart, r.degree, r.mode,
                         {(dw(1), dw(2)): root2 * root3 - root6},
                         adapted=r.adapted)
        return r + extra

    monkeypatch.setattr(variation, "reduce_contact_ideal", residual)
    code, report = run_json(capsys, "noether", "--problem", MINIMAL)
    assert code == 0
    assert report["passed"] is True
    assert all(entry["invariant"] is True for entry in report["currents"])
    assert "witness" not in report


@pytest.mark.parametrize("extra, closed", [
    (sqrt_expr(const(2)) * sqrt_expr(const(3)) - sqrt_expr(const(6)), True),
    (ONE, False),
])
def test_noether_closedness_is_sampled(capsys, monkeypatch, extra, closed):
    # d of each pulled-back current gains extra*dx1^dx2; sqrt(2)*sqrt(3) -
    # sqrt(6) is not a structural zero, yet it vanishes at every sample
    import lepage.cli as cli
    exterior = cli.ext_d

    def ext_d(a):
        d = exterior(a)
        return d + DiffForm(d.chart, d.degree, d.mode, {(dx(1), dx(2)): extra})

    monkeypatch.setattr(cli, "ext_d", ext_d)
    code, report = run_json(capsys, "noether", "--problem", MINIMAL)
    assert code == 0
    assert [entry["closed_along_immersion"] for entry in report["currents"]] \
        == [closed] * 3


def test_noether_requires_fields(capsys, tmp_path):
    path = write_problem(tmp_path, base_problem())
    code, _, err = run_cli(capsys, "noether", "--problem", path)
    assert code == 2
    assert "fields" in err


@pytest.mark.parametrize("fields, shown", [
    (5, "5"), (None, "None"), (True, "True"), ("abc", "'abc'"),
])
def test_problem_rejects_fields_that_are_not_a_list(capsys, tmp_path, fields,
                                                    shown):
    path = write_problem(tmp_path, base_problem(fields=fields))
    code, out, err = run_cli(capsys, "noether", "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: fields must be a list of vector fields, got {shown}\n"


# ---------------------------------------------------------------------------
# minsurf
# ---------------------------------------------------------------------------


def test_minsurf_converges_and_reports(capsys):
    code, report = run_json(capsys, "minsurf", "--grid", "17",
                            "--boundary", "scherk",
                            "--domain=-1,1,-1,1")
    assert code == 0
    assert report["converged"] is True
    assert report["iterations"] <= 12
    assert report["residuals"]["equation"] < 1e-10
    gate = report["circulations"]["gate"]
    assert report["circulations"]["f"] <= gate
    assert report["residuals"]["relation"] <= gate


@pytest.mark.parametrize("boundary", ["scherk", "paraboloid"])
def test_minsurf_stagnation_at_the_roundoff_floor_exits_zero(capsys, boundary):
    # tol 1e-14 is below what double precision can reach on a 65 x 65 grid
    code, report = run_json(capsys, "minsurf", "--grid", "65",
                            "--boundary", boundary, "--tol", "1e-14")
    assert code == 0
    assert report["converged"] is True
    assert report["message"].startswith("stagnated at the roundoff floor ")
    floor = float(report["message"].rsplit(" ", 1)[1])
    assert 1e-14 < report["residuals"]["equation"] <= floor


def test_minsurf_solver_block_defaults(capsys):
    code, report = run_json(capsys, "minsurf", "--problem", MINIMAL)
    assert code == 0
    assert report["grid"]["nx"] == 33
    assert report["grid"]["ny"] == 33


def test_minsurf_csv_to_an_unwritable_path_prints_only_the_error(capsys,
                                                                  tmp_path):
    csv = tmp_path / "missing" / "surface.csv"
    code, out, err = run_cli(capsys, "minsurf", "--grid", "9",
                             "--csv", str(csv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(csv) in err


def test_minsurf_csv_roundtrip(capsys, tmp_path):
    csv = tmp_path / "surface.csv"
    code, _ = run_json(capsys, "minsurf", "--grid", "17",
                       "--boundary", "scherk", "--domain=-1,1,-1,1",
                       "--csv", str(csv))
    assert code == 0
    values = np.loadtxt(csv, delimiter=",")
    assert values.shape == (17, 17)

    code, report = run_json(capsys, "minsurf", "--boundary", str(csv),
                            "--domain=-1,1,-1,1")
    assert code == 0
    assert report["boundary"] == "file"
    assert report["iterations"] == 0


def test_minsurf_overflow_prints_strict_json(capsys, tmp_path):
    # every value of row i is (i + 1) * 1e200: the solve overflows
    csv = tmp_path / "huge.csv"
    csv.write_text("".join(",".join([repr((i + 1) * 1e200)] * 7) + "\n"
                           for i in range(7)))

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "minsurf", "--boundary", str(csv))
    assert (code, err) == (1, "")
    report = json.loads(out, parse_constant=reject)
    assert report["converged"] is False
    assert report["residuals"]["equation"] is None
    assert report["residuals"]["relation"] is None
    assert report["circulations"]["g"] is None
    assert None in report["convergence"]


def test_minsurf_unknown_boundary(capsys):
    code, _, err = run_cli(capsys, "minsurf", "--grid", "17",
                           "--boundary", "nonsense")
    assert code == 2
    assert "scherk" in err


def test_minsurf_degenerate_domain(capsys):
    code, out, err = run_cli(capsys, "minsurf", "--grid", "5",
                             "--domain=1,-1,-1,1")
    assert code == 2
    assert out == ""
    assert "degenerate rectangle" in err


@pytest.mark.parametrize("argv", [
    ["--domain=0,1e-170,0,1e-170"],
    ["--boundary", "plane", "--domain=0,1e-170,0,1"],
    ["--boundary", "paraboloid", "--domain=0,1e-170,0,1"],
    ["--boundary", "plane", "--domain=0,1e200,0,1e200"],
    ["--boundary", "paraboloid", "--domain=0,1e-159,0,1e-159"],
    ["--boundary", "scherk", "--domain=0,1e-159,0,1e-159"],
])
def test_minsurf_rejects_grid_spacings_that_square_to_0_or_inf(capsys, argv):
    # the floor and the gate square the spacings; hx * hx underflows to 0
    # at 1e-170 / 8 and overflows at 1e200 / 8, and at 1e-159 / 8 it is
    # subnormal, so the stencils' 1 / (hx * hx) overflows
    code, out, err = run_cli(capsys, "minsurf", "--grid", "9", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: domain [")
    assert err.endswith("must be positive and finite\n")
    assert err.count("\n") == 1


def test_minsurf_rejects_non_finite_builtin_boundary(capsys):
    # log(cos x / cos y) is nan where cos x and cos y differ in sign
    code, out, err = run_cli(capsys, "minsurf", "--grid", "9",
                             "--boundary", "scherk", "--domain=-2,2,-2,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: boundary data is not finite")
    assert "Warning" not in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_minsurf_rejects_non_finite_boundary_file(capsys, tmp_path, bad):
    csv = tmp_path / "surface.csv"
    csv.write_text(f"0,0,0\n0,0,0\n0,0,{bad}\n")
    code, out, err = run_cli(capsys, "minsurf", "--boundary", str(csv))
    assert code == 2
    assert out == ""
    assert "1 of 9 grid values are nan or inf" in err


@pytest.mark.parametrize("grid", ["3", "4"])
def test_minsurf_rejects_grid_below_five(capsys, grid):
    code, out, err = run_cli(capsys, "minsurf", "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"error: grid must be at least 5, got {grid}\n"


@pytest.mark.parametrize("solver, message", [
    ({"grid": "abc"}, "grid must be an integer, got 'abc'"),
    ({"grid": [33]}, "grid must be an integer, got [33]"),
    ({"grid": 4.5}, "grid must be an integer, got 4.5"),
    ({"grid": 4}, "grid must be at least 5, got 4"),
    ({"tol": None}, "tol must be a positive number, got None"),
    ({"tol": 0}, "tol must be a positive number, got 0"),
    ({"max_iter": None}, "max_iter must be an integer, got None"),
    ({"domain": None}, "solver domain takes four numbers"),
    ({"boundary": None}, "boundary must be a builtin surface name"),
    ({"domain": [[1], 2, 3, 4]}, "solver domain takes four numbers a,b,c,d, "
     "finite and not bools, got [[1], 2, 3, 4]"),
    ({"domain": ["-1", "1", "-1", "1"]}, "solver domain takes four numbers"),
    ({"domain": True}, "solver domain takes four numbers"),
    ({"domain": [-1, 1, -1, True]}, "solver domain takes four numbers"),
    ({"domain": [-1, 1e400, -1, 1]}, "solver domain takes four numbers"),
    ({"domain": [-1, 1, -1, 10 ** 400]}, "solver domain takes four numbers"),
    ({"tol": 10 ** 400}, "tol must be a positive number"),
])
def test_minsurf_rejects_bad_solver_block(capsys, tmp_path, solver, message):
    path = write_problem(tmp_path, base_problem(solver=solver))
    code, out, err = run_cli(capsys, "minsurf", "--problem", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


HUGE = 10 ** 400  # beyond the float range


@pytest.mark.parametrize("argv, name", [
    (("minsurf", "--grid", str(HUGE)), "grid"),
    (("minsurf", "--max-iter", str(HUGE)), "max_iter"),
    (("check-zermelo", "--problem", MINIMAL, "--trials", str(HUGE)), "trials"),
])
def test_huge_integer_flags_are_rejected(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {name} is out of range: an integer of 401 digits\n"


@pytest.mark.parametrize("payload, name", [
    (base_problem(solver={"grid": HUGE}), "grid"),
    ({"schema": "lepage-problem/1", "chart": {"n": 1, "m": HUGE},
      "lagrangian": "y1_1^2"}, "chart m"),
])
def test_huge_integer_settings_are_rejected(capsys, tmp_path, payload, name):
    path = write_problem(tmp_path, payload)
    command = "minsurf" if "solver" in payload else "derive-el"
    code, out, err = run_cli(capsys, command, "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: {name} is out of range: an integer of 401 digits\n"


def test_problem_integer_past_digit_limit_is_rejected(capsys, tmp_path):
    # Python refuses to parse integers of more than 4300 digits
    path = tmp_path / "problem.json"
    path.write_text('{"schema": "lepage-problem/1", "chart": {"n": 1'
                    + "0" * 5000 + ', "m": 1}, "lagrangian": "y1_1^2"}')
    code, out, err = run_cli(capsys, "derive-el", "--problem", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: problem file is not valid JSON: ")
    assert err.count("\n") == 1


def test_minsurf_solver_block_accepts_integral_float_grid(capsys, tmp_path):
    path = write_problem(tmp_path, base_problem(solver={"grid": 9.0}))
    code, report = run_json(capsys, "minsurf", "--problem", path)
    assert code == 0
    assert report["grid"]["nx"] == 9


def test_minsurf_grid_beyond_memory_is_a_problem_error(capsys):
    # 10^7 x 10^7 float64 nodes are 728 TiB: the allocation fails at once
    code, out, err = run_cli(capsys, "minsurf", "--grid", "10000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: a 10000000x10000000 grid does not fit "
                          "in memory: ")
    assert err.count("\n") == 1


def test_minsurf_solve_beyond_memory_is_a_problem_error(capsys, monkeypatch):
    # a grid that fits can still need more memory than the solve finds
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB")

    monkeypatch.setattr(lepage.minimal, "solve_minimal_surface", out_of_memory)
    code, out, err = run_cli(capsys, "minsurf", "--grid", "9")
    assert (code, out) == (2, "")
    assert err == ("error: a 9x9 grid does not fit in memory: "
                   "Unable to allocate 2.00 GiB\n")


def test_minsurf_rejects_boundary_file_below_five(capsys, tmp_path):
    csv = tmp_path / "surface.csv"
    np.savetxt(csv, np.zeros((4, 4)), delimiter=",")
    code, out, err = run_cli(capsys, "minsurf", "--boundary", str(csv))
    assert (code, out) == (2, "")
    assert err == "error: boundary file grid (4, 4) is smaller than 5x5\n"


# ---------------------------------------------------------------------------
# problem file validation
# ---------------------------------------------------------------------------


def test_missing_problem_file(capsys):
    code, _, err = run_cli(capsys, "derive-el", "--problem", "absent.json")
    assert code == 2
    assert err


def test_problem_requires_chart(capsys, tmp_path):
    path = write_problem(tmp_path, {"schema": "lepage-problem/1",
                                    "lagrangian": "y1_1"})
    code, _, err = run_cli(capsys, "derive-el", "--problem", path)
    assert code == 2
    assert "chart" in err


def test_problem_rejects_unknown_keys(capsys, tmp_path):
    path = write_problem(tmp_path, base_problem(extra=1))
    code, _, err = run_cli(capsys, "derive-el", "--problem", path)
    assert code == 2
    assert "extra" in err


def test_problem_rejects_metric_and_lagrangian(capsys, tmp_path):
    path = write_problem(tmp_path, base_problem(lagrangian="y1_1"))
    code, _, err = run_cli(capsys, "derive-el", "--problem", path)
    assert code == 2


@pytest.mark.parametrize("chart, message", [
    ({"n": 1.9, "m": 1}, "chart n must be an integer, got 1.9"),
    ({"n": "1", "m": 1}, "chart n must be an integer, got '1'"),
    ({"n": 1, "m": True}, "chart m must be an integer, got True"),
    ({"n": 0, "m": 1}, "chart n must be at least 1, got 0"),
    ({"n": 5, "m": 1}, "chart: base dimension must lie in 1..4, got 5"),
])
def test_problem_rejects_bad_chart_sizes(capsys, tmp_path, chart, message):
    path = write_problem(tmp_path, {"schema": "lepage-problem/1",
                                    "chart": chart, "lagrangian": "y1_1^2"})
    code, out, err = run_cli(capsys, "derive-el", "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_problem_accepts_integral_float_chart_sizes(capsys, tmp_path):
    reports = []
    for n in (1, 1.0):
        path = write_problem(tmp_path, {"schema": "lepage-problem/1",
                                        "chart": {"n": n, "m": 1},
                                        "lagrangian": "y1_1^2"})
        reports.append(run_cli(capsys, "derive-el", "--problem", path))
    assert reports[0][0] == 0
    assert reports[0] == reports[1]


@pytest.mark.parametrize("symbol, message", [
    ("y5_1", "fiber index 5 outside 1..3"),
    ("y1_3", "base index 3 outside 1..2"),
    ("x3", "base index 3 outside 1..2"),
    ("y2_11", "second-order symbol on a first-order chart"),
    ("w4", "fiber index 4 outside 1..3"),
])
def test_out_of_range_symbols_name_the_index(capsys, tmp_path, symbol,
                                             message):
    path = write_problem(tmp_path, {"chart": {"n": 2, "m": 1},
                                    "lagrangian": symbol})
    code, out, err = run_cli(capsys, "derive-el", "--problem", path)
    assert (code, out) == (2, "")
    assert err == f"error: lagrangian: {message} (at offset 0)\n"


@pytest.mark.parametrize("command", ["derive-el", "check-zermelo"])
@pytest.mark.parametrize("lagrangian", ["w1_1*y1_1", "z1_2 + y1_1",
                                        "a1_1*y1_1"])
def test_adapted_chart_symbols_are_input_errors(capsys, tmp_path, command,
                                                lagrangian):
    # w^K_j, z^k_i and a^l_j are no jet-chart coordinates: neither command
    # reads such a Lagrangian as a function of a free variable
    path = write_problem(tmp_path, {"chart": {"n": 2, "m": 1},
                                    "lagrangian": lagrangian})
    code, out, err = run_cli(capsys, command, "--problem", path)
    name = lagrangian.split("*")[0].split(" ")[0]
    assert (code, out) == (2, "")
    assert err == (f"error: lagrangian: {name} is not a jet-chart coordinate "
                   f"(at offset 0)\n")


def test_problem_rejects_bad_fiber_index(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "schema": "lepage-problem/1",
        "chart": {"n": 2, "m": 1},
        "lagrangian": "y9_1",
    })
    code, _, err = run_cli(capsys, "derive-el", "--problem", path)
    assert code == 2
    assert "fiber index" in err


# ---------------------------------------------------------------------------
# determinism and selftest
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "lepage", "--problem", MINIMAL,
                          "--kind", "w")
    _, second, _ = run_cli(capsys, "lepage", "--problem", MINIMAL,
                           "--kind", "w")
    assert first == second

    _, first, _ = run_cli(capsys, "minsurf", "--grid", "17",
                          "--boundary", "scherk", "--domain=-1,1,-1,1")
    _, second, _ = run_cli(capsys, "minsurf", "--grid", "17",
                           "--boundary", "scherk", "--domain=-1,1,-1,1")
    assert first == second


def test_selftest_json_subprocess_matches_golden(selftest_json):
    proc = selftest_json
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == (PROBLEMS.parent / "tests" / "golden"
                           / "selftest_json.out").read_text()


def test_selftest_text_reports_each_criterion_and_fails(capsys, monkeypatch):
    results = [CriterionResult(1, "one", True, "fine", 0.5),
               CriterionResult(2, "two", False, "broken", 1.25)]
    monkeypatch.setattr(lepage.acceptance, "run_all", lambda seed: results)
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["PASS  1 one: fine [0.50s]",
                                "FAIL  2 two: broken [1.25s]",
                                "1/2 criteria passed"]
