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


@pytest.fixture(autouse=True)
def empty_le_slot():
    """Start every test with no record kept by generic_le, so that no test
    gets a record that an earlier test computed."""
    cycles._generic_le.cache_clear()


@pytest.fixture
def serial_trials(monkeypatch):
    """Compute every frame trial of generic_le, and check_leiom's transform
    record, in this process.

    Workers are forked processes that run the code as it stood when they were
    forked, and what they record stays in their own memory.  Both callers
    hand work to workers through cycles._beside, which reads _pool_size, so
    with a pool size of 0 the caller computes everything.  A test that
    patches or spies on code under lambda_numbers and then reaches generic_le
    or check_leiom takes this fixture, so that the patched code runs every
    computation: the fixture also empties the record generic_le keeps."""
    cycles._drop_pool()
    cycles._generic_le.cache_clear()
    monkeypatch.setattr(cycles, "_pool_size", lambda trials: 0)
