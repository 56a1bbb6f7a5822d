"""Tests of the package layout itself."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
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
