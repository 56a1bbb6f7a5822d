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


@pytest.fixture(scope="session")
def selftest_json() -> subprocess.CompletedProcess:
    """One ``python -m lepage.cli selftest --format json --seed 0`` process.

    The acceptance tests read each criterion's verdict from it and the
    golden test its bytes, so the eleven criteria run once per session.
    """
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "lepage.cli", "selftest", "--format", "json",
         "--seed", "0"], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600)
