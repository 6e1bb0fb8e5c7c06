"""The command line's output, bit for bit.

cli_golden.json holds the argv, exit code and standard output of 67
commands: the README examples, every compute target, and every check verb
on bn0 and tx in text, --json and a given frame, plus a family search.  It
was recorded from the command line before the frame, Teissier and Le-record
routes were folded into one each, and stands as the reference for any
refactor that promises the same numbers: regenerate it only when an output
is meant to change.  "{family}" and "{frame}" in an argv stand for files
written from the recorded family and frame matrix.
"""

import contextlib
import io
import json
from pathlib import Path
from time import perf_counter

from lenumbers.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def test_cli_output_matches_the_recorded_bytes(tmp_path):
    budget = 5.0
    family = tmp_path / "family.jsonl"
    family.write_text("".join(json.dumps(e) + "\n" for e in GOLDEN["family"]))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"matrix": GOLDEN["frame"]}))
    files = {"{family}": str(family), "{frame}": str(frame)}
    t0 = perf_counter()
    mismatched = []
    for cmd in GOLDEN["commands"]:
        argv = [files.get(a, a) for a in cmd["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if (code, out.getvalue()) != (cmd["exit"], cmd["stdout"]):
            mismatched.append(" ".join(cmd["argv"]))
    elapsed = perf_counter() - t0
    print(f"PASS {len(GOLDEN['commands'])} commands in {elapsed:.2f} s")
    assert not mismatched
    assert elapsed <= budget
