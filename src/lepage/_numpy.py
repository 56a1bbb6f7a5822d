"""numpy, bound lazily: its package body runs on the first attribute access.

``lazy`` binds any module that way; ``lepage.cli`` uses it for the layers a
subcommand may not need.  The rule: bind a module lazily only if some
command or criterion that imports its binder never runs it.  One that all
of them run gains nothing from waiting, and compiled after numpy has
loaded, its compile adds to the process's peak memory.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy(name: str):
    """The module ``name``, in sys.modules and on its package, unexecuted."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


# _kernels, minimal, variation, acceptance and cli take np from here (the
# exact layers and metric do not), so the symbolic commands never run numpy.
np = lazy("numpy")
