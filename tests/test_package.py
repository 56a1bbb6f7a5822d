"""Tests of the package layout itself."""

from __future__ import annotations

import ast
import builtins
import copy
import importlib
import inspect
import pickle
import pkgutil
import symtable
from pathlib import Path

import pytest

import lepage
from conftest import fresh_python
from lepage.acceptance import CriterionResult
from lepage.charts import AdaptedChart, JetChart
from lepage.cli import load_problem
from lepage.equivalents import HorizontalNForm, Lagrangian
from lepage.expr import PointAssignment, Sym, equal, x, yj
from lepage.forms import DiffForm, Immersion, VectorField, dy
from lepage.metric import MetricSpec
from lepage.minimal import (ConservationReport, GridField,
                            ReconstructionReport, SolveResult)
from lepage.variation import (FirstVariationReport, ReparameterizationReport,
                              VectorFieldSpec)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def test_public_names_exist_and_functions_are_defined_where_listed():
    # a function re-exported through another module's __all__ would be
    # skipped by per-module function wrappers such as the benchmark's tracer;
    # and a public module lists every public class it defines
    for info in pkgutil.iter_modules(lepage.__path__):
        module = importlib.import_module(f"lepage.{info.name}")
        listed = getattr(module, "__all__", ())
        for name in listed:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, \
                    f"{module.__name__}.{name} is {obj.__module__}.{name}"
        if not info.name.startswith("_"):
            unlisted = [name for name, obj in vars(module).items()
                        if inspect.isclass(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__
                        and name not in listed]
            assert unlisted == [], module.__name__


def _module_level_imports(body):
    # the names bound by imports outside functions and classes, with the
    # imports under a module-level if or try
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          *(h.body for h in getattr(node, "handlers", ())),
                          getattr(node, "finalbody", ())):
                yield from _module_level_imports(block)


def _used_names(tree):
    # every name read, every name in __all__, and the names inside string
    # annotations
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.returns]
    for annotation in annotations:
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used_names(ast.parse(n.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return used


def test_every_module_level_import_is_used():
    dead = []
    for path in sorted(Path(lepage.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        dead += [f"{path.name}:{line} {name}"
                 for name, line in _module_level_imports(tree.body)
                 if name not in used]
    assert not dead, dead


def test_every_global_name_a_module_reads_is_bound_in_it():
    # a name read in a function that nothing at module level binds raises
    # NameError only when that function runs; modules that share names
    # across an import cycle bind each by an explicit import
    undefined = []
    for path in sorted(Path(lepage.__file__).parent.glob("*.py")):
        top = symtable.symtable(path.read_text(), path.name, "exec")
        bound = {s.get_name() for s in top.get_symbols()
                 if s.is_assigned() or s.is_imported()}
        bound |= set(dir(builtins)) | {"__file__", "__path__"}
        tables = [top]
        while tables:
            table = tables.pop()
            tables += table.get_children()
            undefined += [f"{path.name}:{table.get_name()} {s.get_name()}"
                          for s in table.get_symbols()
                          if s.is_referenced() and s.get_name() not in bound
                          and (s.is_global() or table is top)]
    assert not undefined, undefined


CLI_MODULES = [
    "lepage", "lepage._dsl", "lepage._numpy", "lepage._sampling",
    "lepage.charts", "lepage.cli", "lepage.equivalents", "lepage.expr",
    "lepage.forms"]


def test_cli_import_runs_the_bodies_of_exactly_these_modules():
    # a layer that starts loading eagerly fails here before it shows as a
    # benchmark regression; a module lepage.cli binds lazily sits in
    # sys.modules with the lazy loader's type until a command uses it
    out = fresh_python("-c", "import sys, types, lepage.cli\n"
                       "print(*sorted(m for m, mod in sys.modules.items() "
                       "if m.partition('.')[0] == 'lepage' "
                       "and type(mod) is types.ModuleType))").stdout
    assert out.split() == CLI_MODULES


# Without a bytecode cache a process compiles each module it runs from
# source, and CPython holds the module's tokens and syntax tree while it
# does: compile() in a bare Python 3.11 interpreter peaks 70-90 B of RSS
# above it per source byte, 4.5 MB for a 55.6 KB expr.py and 2.5 MB for
# the 30.7 KB forms.py, so the largest module every command compiles sets
# much of its peak memory.  A bytecode cache removes this cost, and the
# cap holds only for the modules every CLI process runs
MODULE_BYTES_CAP = 40_000


def test_no_module_every_cli_process_runs_is_larger_than_the_compile_cap():
    root = Path(lepage.__file__).parent
    sizes = {name: (root / f"{name.partition('.')[2] or '__init__'}.py")
             .stat().st_size for name in CLI_MODULES}
    assert {name: size for name, size in sizes.items()
            if size > MODULE_BYTES_CAP} == {}


# What `import dataclasses` loads with it: inspect, which imports ast, dis
# and tokenize, and copy.  With the methods each @dataclass compiles, they
# cost a CLI process 0.7-1.0 MB of peak RSS and about 10 ms, and lepage
# needs none of them
DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy")

# the nine commands of the benchmark's cli-symbolic workload
CLI_COMMANDS = [
    ["derive-el", "--problem", str(PROBLEMS / "arclength_r2.json")],
    ["check-zermelo", "--problem", str(PROBLEMS / "arclength_r2.json")],
    *(["check-lepage", "--problem", str(PROBLEMS / "minimal_r3.json"),
       "--kind", kind]
      for kind in ("krupka", "poincare-cartan", "caratheodory", "fundamental",
                   "fundamental-homogeneous")),
    ["noether", "--problem", str(PROBLEMS / "minimal_r3.json")],
    ["lepage", "--problem", str(PROBLEMS / "minimal_r3.json"), "--kind", "w"],
]


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(Path(lepage.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


@pytest.mark.parametrize("argv", [None, *CLI_COMMANDS],
                         ids=["import", *("-".join([a[0], *a[4:]])
                                          for a in CLI_COMMANDS)])
def test_cli_processes_load_nothing_dataclasses_loads(argv):
    run = "0" if argv is None else f"lepage.cli.main({argv!r})"
    out = fresh_python("-c", f"import sys, lepage.cli\nstatus = {run}\n"
                       f"print(status, sorted(m for m in "
                       f"{DATACLASS_MODULES!r} if m in sys.modules))").stdout
    assert out.splitlines()[-1] == "0 []"


def test_the_exact_core_imports_from_any_of_its_modules_first():
    # lepage.expr imports its private modules at its end and they import
    # it at theirs: evaluate, parse and to_dsl recurse through the moved
    # helpers, and stay in expr so that per-module wrappers see them.  No
    # order of first import may find a name missing
    for first in ("lepage._dsl", "lepage._sampling", "lepage.expr"):
        out = fresh_python("-c", f"import {first}\n"
                           "from lepage.expr import equal, parse, to_dsl\n"
                           "e = parse('sqrt(x1)*y1_2 + g_d1(x2)')\n"
                           "print(to_dsl(e), equal(e, e + 1).verdict)").stdout
        assert out == "y1_2*sqrt(x1) + g_d1(x2) unequal\n", first


# one instance of each class whose fields are fixed at construction
CH21 = JetChart(2, 1)
CIRCULATIONS = ConservationReport({"f": 1e-6, "g": 2e-6, "h": 0.0}, 0.5, 0.5)
FROZEN_EXAMPLES = {
    "PointAssignment": lambda: PointAssignment({Sym("x", 1): 0.5}),
    "EqualResult": lambda: equal(yj(1, 1), yj(2, 1)),
    "JetChart": lambda: JetChart(2, 1),
    "AdaptedChart": lambda: AdaptedChart(CH21, (1, 3)),
    "ProblemSpec": lambda: load_problem(PROBLEMS / "arclength_r2.json"),
    "Lagrangian": lambda: Lagrangian(CH21, yj(3, 1) * yj(3, 2)),
    "HorizontalNForm": lambda: HorizontalNForm(
        CH21, DiffForm(CH21, 2, "coordinate", {(dy(1), dy(2)): x(1)})),
    "VectorField": lambda: VectorField(CH21, {Sym("y", 1): x(1)},
                                       AdaptedChart(CH21, (1, 2))),
    "Immersion": lambda: Immersion(CH21, (x(1), x(2), x(1) * x(2))),
    "MetricSpec": lambda: MetricSpec.euclidean(3),
    "VectorFieldSpec": lambda: VectorFieldSpec.constant(CH21, (1, 0, 0)),
    "CriterionResult": lambda: CriterionResult(1, "title", True, "detail", 0.5),
    "SolveResult": lambda: SolveResult(
        GridField((0.0, 1.0, 0.0, 1.0), [[0.0] * 3] * 3), True, 2,
        [1e-3, 1e-9], "converged"),
    "ConservationReport": lambda: CIRCULATIONS,
    "ReconstructionReport": lambda: ReconstructionReport(
        "ok", CIRCULATIONS, 1e-10, 2e-9, 1e-6),
    "FirstVariationReport": lambda: FirstVariationReport(1.5, 1.0, 0.5),
    "ReparameterizationReport": lambda: ReparameterizationReport(2.0, 2.0),
}

def _fields(obj) -> list:
    # a GridField compares by identity, so its copy by rectangle and nodes
    return [(v.rect, v.values.tolist()) if isinstance(v, GridField) else v
            for v in (getattr(obj, name)
                      for name in inspect.signature(type(obj)).parameters)]


@pytest.mark.parametrize("name", FROZEN_EXAMPLES)
def test_frozen_classes_refuse_assignment_and_copy_field_by_field(name):
    # as the frozen dataclasses they were did; copy, deepcopy and pickle
    # call the constructor, since they cannot set the fields either
    obj = FROZEN_EXAMPLES[name]()
    assert type(obj).__name__ == name
    first = next(iter(inspect.signature(type(obj)).parameters))
    with pytest.raises(AttributeError) as assigned:
        setattr(obj, first, None)
    with pytest.raises(AttributeError) as deleted:
        delattr(obj, first)
    assert str(assigned.value) == f"cannot assign to field {first!r}"
    assert str(deleted.value) == f"cannot delete field {first!r}"
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and _fields(twin) == _fields(obj)


# the same values built in each process: an opaque atom, a root over it, an
# expression of both, a Lagrangian whose L is opaque in every coordinate, and
# a form with such coefficients; a Fun's key holds its name, and covectors
# hash a string with their key, so their hashes differ between processes
TWO_PROCESS_VALUES = """
import pickle, sys
from lepage.charts import JetChart
from lepage.equivalents import Lagrangian
from lepage.expr import opaque, parse, to_dsl, x, yj, yy
from lepage.forms import DiffForm, dx, dy

chart = JetChart(2, 1)
g, root = (parse(text).num[0][0][0][0] for text in ("g(x1)", "sqrt(g(x1))"))
e = parse("g(x1)*y1") + parse("sqrt(g(x1))") / x(2)
lam = Lagrangian(chart, opaque("L", x(1), x(2), yy(1), yj(1, 1), yj(1, 2)))
rho = DiffForm(chart, 2, "coordinate",
               {(dx(1), dx(2)): lam.L, (dx(1), dy(1)): e})
fresh = {"Fun": g, "Root": root, "Expr": e, "Lagrangian": lam, "DiffForm": rho}
hashed = ("Fun", "Root", "Expr", "Lagrangian")  # a DiffForm has no hash
"""

HASH_AND_DUMP = """
for name in hashed:
    hash(fresh[name])  # an expression caches its hash when it is first taken
print(pickle.dumps(fresh).hex())
"""

LOAD_AND_COMPARE = """
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
failed = [name for name, value in fresh.items() if loaded[name] != value]
failed += [f"hash {name}" for name in hashed
           if fresh[name] not in {loaded[name]}]
failed += [f"sum {to_dsl(loaded['Expr'] + e)}"] * (
    not (loaded["Expr"] - e).is_zero)
failed += ["form difference"] * (not (loaded["DiffForm"] - rho).is_zero)
print(failed)
"""


def test_values_pickled_in_one_process_hash_anew_in_another():
    dumped = fresh_python("-c", TWO_PROCESS_VALUES + HASH_AND_DUMP,
                          env={"PYTHONHASHSEED": "1"}).stdout
    out = fresh_python("-c", TWO_PROCESS_VALUES + LOAD_AND_COMPARE,
                       env={"PYTHONHASHSEED": "2"}, input=dumped).stdout
    assert out == "[]\n"


# the classes whose ==, hash and copies every other class takes: records
# from Frozen, atoms and covectors from the keyed base, and the term-wise
# equality of expressions and forms
VALUE_RULES = ("Frozen", "_Keyed", "Expr", "DiffForm")


def test_only_the_value_rules_define_equality_hash_and_copies():
    # a class whose compared fields hold a dict may set __hash__ = None
    found = []
    for path in sorted(Path(lepage.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or cls.name in VALUE_RULES:
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name) and not (
                                 t.id == "__hash__"
                                 and isinstance(node.value, ast.Constant)
                                 and node.value.value is None)]
                else:
                    continue
                found += [f"{path.name}:{cls.name}.{name}" for name in names
                          if name in ("__eq__", "__hash__", "__reduce__")]
    assert found == []
