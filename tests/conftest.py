"""Session fixtures shared by several test modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
