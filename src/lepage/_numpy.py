"""numpy, bound lazily: its package body runs on the first attribute access."""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# _kernels, minimal, variation, acceptance and cli take np from here, so the
# symbolic commands never run numpy.  Those modules are still imported by
# `import lepage.cli`: perfbench/tracer.py wraps each layer's functions by
# reading its module from sys.modules right after that import.
np = _lazy("numpy")
