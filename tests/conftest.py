"""Run the tests against this checkout.

`pythonpath` in pyproject.toml puts src/ on this process's import path; the
CLI runs that the acceptance tests start as subprocesses get it through
PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
