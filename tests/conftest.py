"""Session fixtures shared by several test modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves through importorskip
    set_hypothesis_home_dir = None
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("lepage", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("lepage")


@pytest.fixture(scope="session", autouse=True)
def hypothesis_home(tmp_path_factory) -> None:
    """Hypothesis also caches the constants it reads from the code under
    test; that cache goes to pytest's temporary directory, not the checkout."""
    if set_hypothesis_home_dir is not None:
        set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))


def fresh_python(*args: str, check: bool = True, env: dict | None = None,
                 **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports lepage from src.

    Its output is captured as text.  ``env`` adds variables to this process's
    environment, and the other keywords go to ``subprocess.run``.
    """
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=check, **kwargs)


@pytest.fixture(scope="session")
def selftest_json() -> subprocess.CompletedProcess:
    """One ``python -m lepage.cli selftest --format json --seed 0`` process.

    The acceptance tests read each criterion's verdict from it and the
    golden test its bytes, so the eleven criteria run once per session.
    """
    return fresh_python("-m", "lepage.cli", "selftest", "--format", "json",
                        "--seed", "0", check=False, timeout=600)
