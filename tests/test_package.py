"""Tests of the package layout itself."""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import os
import pkgutil
import subprocess
import symtable
import sys
from pathlib import Path

import lepage


def test_public_names_exist_and_functions_are_defined_where_listed():
    # a function re-exported through another module's __all__ would be
    # skipped by per-module function wrappers such as the benchmark's tracer
    for info in pkgutil.iter_modules(lepage.__path__):
        module = importlib.import_module(f"lepage.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, \
                    f"{module.__name__}.{name} is {obj.__module__}.{name}"


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


def _fresh_process(code: str) -> str:
    src = str(Path(lepage.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_runs_the_bodies_of_exactly_these_modules():
    # a layer that starts loading eagerly fails here before it shows as a
    # benchmark regression; a module lepage.cli binds lazily sits in
    # sys.modules with the lazy loader's type until a command uses it
    out = _fresh_process("import sys, types, lepage.cli\n"
                         "print(*sorted(m for m, mod in sys.modules.items() "
                         "if m.partition('.')[0] == 'lepage' "
                         "and type(mod) is types.ModuleType))")
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


def test_the_exact_core_imports_from_any_of_its_modules_first():
    # lepage.expr imports its private modules at its end and they import
    # it at theirs: evaluate, parse and to_dsl recurse through the moved
    # helpers, and stay in expr so that per-module wrappers see them.  No
    # order of first import may find a name missing
    for first in ("lepage._dsl", "lepage._sampling", "lepage.expr"):
        out = _fresh_process(f"import {first}\n"
                             "from lepage.expr import equal, parse, to_dsl\n"
                             "e = parse('sqrt(x1)*y1_2 + g_d1(x2)')\n"
                             "print(to_dsl(e), equal(e, e + 1).verdict)")
        assert out == "y1_2*sqrt(x1) + g_d1(x2) unequal\n", first
