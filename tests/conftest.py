"""Run the tests against this checkout.

`pythonpath` in pyproject.toml puts src/ on this process's import path; the
CLI runs that the acceptance tests start as subprocesses get it through
PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

import lenumbers.cycles as cycles

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def serial_trials(monkeypatch):
    """Compute every frame trial of generic_le in this process.

    Workers are forked processes that run the code as it stood when they were
    forked, and what they record stays in their own memory.  A test that
    patches or spies on code under lambda_numbers and then reaches generic_le
    takes this fixture, so that the patched code runs every trial."""
    cycles._drop_pool()
    monkeypatch.setattr(cycles, "_pool_size", lambda trials: 0)
