#!/usr/bin/env python3
"""Benchmark of the lenumbers pipeline, run from the root of the repository:

    python3 bench/run.py --workload corpus_sweep --seed 0 --seconds 10 --trace 0

The workloads are corpus_sweep, surface_recursion and leiom_transform (see
bench/README.md).  A run sets up (imports lenumbers and parses the inputs)
SETUPS times, then computes every input of the workload in rounds until
--seconds have passed, at least one round, and checks the outputs of each
round after timing it.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run wraps the package's public
functions, reports the per-layer metrics instead and writes every span's
aggregates to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("poly", "groebner", "local", "cycles", "milnor", "checks")
SETUPS = 11

import spans  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402


def fresh_import():
    """Import lenumbers anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "lenumbers"]:
        del sys.modules[name]
    importlib.import_module("lenumbers")
    # sys.modules, not attributes: lenumbers.milnor is the function milnor
    return SimpleNamespace(**{m: sys.modules[f"lenumbers.{m}"] for m in MODULES})


def set_up(build, seed: int):
    """(lib, inputs, median set-up seconds) over SETUPS imports and builds."""
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        lib = fresh_import()
        inputs = build(lib, seed)
        times.append(perf_counter() - t0)
    return lib, inputs, statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lenumbers" / "__init__.py").is_file():
        print(f"error: no lenumbers package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    build, compute, check = workloads.WORKLOADS[args.workload]
    lib, inputs, setup_s = set_up(build, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(lib)

    walls, slowest, attempted, failed, wrong = [], [], 0, 0, []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        outcomes = compute(lib, inputs)
        walls.append(perf_counter() - t0)
        with tracer.paused() if tracer else nullcontext():
            check(lib, inputs, outcomes)
        timed = [o for o in outcomes if o.seconds is not None]
        slow = max(timed, key=lambda o: o.seconds, default=None)
        slowest.append(slow.seconds if slow else walls[-1])
        attempted += len(outcomes)
        failed += sum(o.failed for o in outcomes)
        wrong += [o for o in outcomes if o.seconds is not None and o.problems]
        for o in outcomes:
            if o.failed:
                print(f"FAILED {o.label}: {'; '.join(o.problems)}", file=sys.stderr)
        if perf_counter() - start >= args.seconds:
            break
    rounds = len(walls)

    if tracer is not None:
        metrics = tracer.metrics(rounds)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                 "wall_s": walls, "spans": tracer.table()},
                indent=1,
            )
        )
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "slowest_input_s": {"value": statistics.median(slowest), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(
        f"{args.workload} seed {args.seed}: {rounds} round(s), "
        f"{attempted} inputs, {failed} failed, wall {statistics.median(walls):.3f} s, "
        f"slowest input {slow.label if slow else None}",
        file=sys.stderr,
    )
    result = {
        # an input that raised is only failed; one that computed and then
        # failed a check is also wrong
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
