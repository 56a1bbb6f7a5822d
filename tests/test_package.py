"""Tests of the package layout itself."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

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
