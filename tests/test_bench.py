"""The benchmark's contract with the package.

bench/ calls and wraps functions of lenumbers by name.  These tests run it
the way its command line does, so a function it uses that is renamed or
re-signed fails here rather than only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# bench/ stays as checked out: no bytecode is written next to it
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def _runs_clean(workload):
    budget = 120
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=budget,
    )
    assert perf_counter() - t0 <= budget
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0, done.stderr
    assert result["attempted"] > 0


def test_corpus_sweep_runs_clean():
    _runs_clean("corpus_sweep")


def test_surface_recursion_runs_clean():
    _runs_clean("surface_recursion")


def test_leiom_transform_runs_clean():
    _runs_clean("leiom_transform")


def test_tracer_wraps_every_traced_function():
    # bench/ is the script's directory, hence on its import path; the run
    # puts src/ on it the way run.main does
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import run, spans; spans.Tracer().install(run.fresh_import())"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        cwd=ROOT / "bench", env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
