"""generic_le's frame trials, and check_leiom's transform record, in forked
worker processes.

Records cross a pipe as pickles, so the tests check that they survive the
trip, that generic_le returns what the serial loop of tests/_oracles.py
returns, that check_leiom reports what it reports with every computation in
the caller, and that a failing or dying worker changes no answer and no
worker outlives the process that forked it.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
import traceback

import pytest

import lenumbers.checks as checks
import lenumbers.cycles as cycles
from lenumbers.checks import check_leiom
from lenumbers.cycles import LeRecord, _lambda_trials, generic_le, lambda_numbers
from lenumbers.groebner import Ideal
from lenumbers.local import germ_in_hyperplane
from lenumbers.poly import Frame, iomdine, parse

from _corpus import CORPUS, SEEDS, generic_record
from _oracles import serial_generic_le

XY = ("x", "y")
BN0 = parse("(x^2-z^2+y^2)*(x-z)", ("x", "y", "z"))

needs_workers = pytest.mark.skipif(
    cycles._pool_size(3) == 0, reason="no os.fork or fewer than 2 usable CPUs"
)


def _same_record(a, b):
    assert a == b
    assert repr(a) == repr(b)
    assert a.h == b.h
    assert [P.gens for P in a.polar] == [P.gens for P in b.polar]


def test_ideal_pickles_without_its_bases():
    I = Ideal([parse("x^2-y^3", XY), parse("x*y", XY)])
    basis = I.groebner()
    J = pickle.loads(pickle.dumps(I))
    assert (J.gens, J.vars, repr(J)) == (I.gens, I.vars, repr(I))
    assert J._cache == {}
    assert J.groebner().elements == basis.elements


def test_frame_pickles_with_its_inverse():
    frame = Frame.random(3, 7, 10)
    copy = pickle.loads(pickle.dumps(frame))
    assert copy == frame
    assert (copy.matrix, copy.seed, copy.inverse) == (frame.matrix, 7, frame.inverse)


@pytest.mark.parametrize("name", ["cuspsus", "cuspsheet"])
def test_le_record_pickles_with_its_germ_and_polar_varieties(name):
    rec = generic_record(name, 0)
    copy = pickle.loads(pickle.dumps(rec))
    _same_record(copy, rec)
    # unpickling restores the slots without __init__; the hash is recomputed
    assert hash(copy) == hash(rec)
    assert hash(copy.h) == hash(rec.h)
    assert [hash(g) for P in copy.polar for g in P.gens] == [
        hash(g) for P in rec.polar for g in P.gens
    ]
    assert copy.h * copy.h == rec.h * rec.h


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_generic_le_matches_the_serial_loop(member):
    f = member.poly
    for seed in SEEDS:
        for trials in (1, 2, 3, 5):
            _same_record(
                generic_le(f, seed=seed, trials=trials),
                serial_generic_le(f, seed=seed, trials=trials),
            )


@needs_workers
def test_pool_is_kept_between_calls():
    generic_le(BN0, seed=0)
    pids = [w.pid for w in cycles._POOL]
    assert len(pids) >= 2
    generic_le(BN0, seed=1)
    assert [w.pid for w in cycles._POOL] == pids


@needs_workers
def test_killed_workers_change_no_answer():
    generic_le(BN0, seed=0)
    killed = [w.pid for w in cycles._POOL]
    assert killed
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    _same_record(generic_le(BN0, seed=4), serial_generic_le(BN0, seed=4))
    # the pool was dropped, its workers reaped, and the next call forks anew
    for pid in killed:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    _same_record(generic_le(BN0, seed=5), serial_generic_le(BN0, seed=5))
    assert cycles._POOL
    assert not {w.pid for w in cycles._POOL} & set(killed)


@needs_workers
def test_worker_exception_is_raised_in_the_caller():
    f = parse("x+y^2", XY)
    frames = [Frame.random(2, t, 10) for t in range(2)]
    with pytest.raises(ValueError) as serial:
        lambda_numbers(f, frames[0], s=0)
    # the first frame goes to a worker, whose exception comes first
    with pytest.raises(ValueError) as pooled:
        _lambda_trials(f, frames, 0)
    assert str(pooled.value) == str(serial.value)
    assert traceback.extract_tb(pooled.tb)[-1].name == "_lambda_trials"
    # the pool is still in step: the next call gets its own answers
    _same_record(generic_le(BN0, seed=2), serial_generic_le(BN0, seed=2))


@needs_workers
def test_no_worker_outlives_its_parent():
    # exit hooks run last in, first out: the script's own hook runs after
    # the one the pool registered, and reports whether it reaped each worker
    code = """
import atexit, os
from lenumbers import generic_le, parse
import lenumbers.cycles as cycles

def reaped():
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
            print("unreaped", pid)
        except ChildProcessError:
            print("reaped", pid)

atexit.register(reaped)
generic_le(parse("x^2*y^2", ("x", "y")))
pids = [w.pid for w in cycles._POOL]
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert len(lines) == 2
    assert all(word == "reaped" for word, _ in lines)
    for pid in (int(p) for _, p in lines):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _gone_or_zombie(pid):
    # a reparented worker may stay a zombie: PID 1 of a container need not
    # reap it
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_worker_dies_with_a_killed_caller():
    # SIGKILL skips the exit hook that drops the pool, so only the kernel's
    # parent-death signal stops the worker in the middle of its task
    code = """
import sys, time
import lenumbers.cycles as cycles

cycles._attempt = lambda *task: time.sleep(30)
(w,) = cycles._workers(1)
w.send((None, None, None))
print(w.pid, flush=True)
sys.stdin.read()
"""
    with subprocess.Popen(
        [sys.executable, "-c", code],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as caller:
        try:
            pid = int(caller.stdout.readline())
        finally:
            caller.kill()
    deadline = time.monotonic() + 1
    while not _gone_or_zombie(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    alive = not _gone_or_zombie(pid)
    if alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive, "the worker outlived its killed caller"


def test_one_usable_cpu_forks_nothing(monkeypatch):
    cycles._drop_pool()

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    _same_record(generic_le(BN0, seed=3), serial_generic_le(BN0, seed=3))
    assert cycles._POOL == []


@needs_workers
def test_failed_fork_changes_no_answer(monkeypatch):
    cycles._drop_pool()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    def lowest_free_fds():
        fds = os.pipe()
        for fd in fds:
            os.close(fd)
        return fds

    free = lowest_free_fds()
    monkeypatch.setattr(os, "fork", no_fork)
    _same_record(generic_le(BN0, seed=6), serial_generic_le(BN0, seed=6))
    assert cycles._POOL == []
    # the pipes made for the workers that were never forked are closed
    assert lowest_free_fds() == free


def test_serial_trials_runs_every_frame_in_the_caller(monkeypatch, serial_trials):
    # spies on code under lambda_numbers rely on this fixture to see every frame
    frames = []
    attempt = cycles.lambda_numbers

    def counting(f, frame, s=None):
        frames.append(frame)
        return attempt(f, frame, s=s)

    monkeypatch.setattr(cycles, "lambda_numbers", counting)
    generic_le(BN0, seed=0, trials=3)
    assert len(frames) == 3
    assert cycles._POOL == []


def _leiom_reports(f, **kwargs):
    return [repr(check_leiom(f, seed=0, a=a, **kwargs)) for a in (None, 3)]


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_check_leiom_matches_the_caller_only_run(member, request):
    pooled = _leiom_reports(member.poly)
    request.getfixturevalue("serial_trials")
    assert _leiom_reports(member.poly) == pooled


def _spy_answers(monkeypatch) -> list:
    """The (task, reply) pairs check_leiom hands to cycles._answer."""
    seen = []
    answer = checks._answer

    def spy(task, reply):
        seen.append((task, reply))
        return answer(task, reply)

    monkeypatch.setattr(checks, "_answer", spy)
    return seen


def _first_gate_fails(monkeypatch) -> None:
    """Make the first germ_in_hyperplane call of check_leiom, the
    critical-locus gate of its first coefficient, fail."""
    calls = []

    def first_fails(I, i):
        calls.append(i)
        return len(calls) > 1 and germ_in_hyperplane(I, i)

    monkeypatch.setattr(checks, "germ_in_hyperplane", first_fails)


@needs_workers
def test_check_leiom_uses_the_workers_transform_record(monkeypatch):
    seen = _spy_answers(monkeypatch)
    reports = check_leiom(BN0, m=9, seed=0)
    (((g, gframe, sg), reply),) = seen
    assert isinstance(reply, LeRecord)
    _same_record(reply, lambda_numbers(g, gframe, s=sg))
    assert all(r.context["lam_transform"] == reply.lam for r in reports)


def test_failed_first_gate_discards_the_speculative_record(monkeypatch, request):
    seen = _spy_answers(monkeypatch)
    _first_gate_fails(monkeypatch)
    pooled = check_leiom(BN0, m=9, seed=0)
    assert all(r.context["a"] == -1 for r in pooled)
    # only the second coefficient's record is asked for, and no worker has it
    assert [reply for _, reply in seen] == [None]
    # the discarded reply was read: the pool is still in step
    _same_record(generic_le(BN0, seed=2), serial_generic_le(BN0, seed=2))
    request.getfixturevalue("serial_trials")
    _first_gate_fails(monkeypatch)
    assert repr(check_leiom(BN0, m=9, seed=0)) == repr(pooled)


def test_transform_error_surfaces_only_when_its_record_is_used(monkeypatch, request):
    # workers forked from here on inherit the patch; drop them afterwards
    cycles._drop_pool()
    request.addfinalizer(cycles._drop_pool)
    identity = Frame.identity(3)
    first, _ = iomdine(BN0, 9, 1)
    real = cycles.lambda_numbers

    def fails_on_first(f, frame=None, *, s=None):
        if f == first:
            raise ArithmeticError("boom")
        return real(f, frame, s=s)

    monkeypatch.setattr(cycles, "lambda_numbers", fails_on_first)
    with pytest.raises(ArithmeticError, match="boom"):
        check_leiom(BN0, m=9, frame=identity)
    _first_gate_fails(monkeypatch)
    reports = check_leiom(BN0, m=9, frame=identity)
    assert all(r.context["a"] == -1 for r in reports)
    assert len(cycles._POOL) == min(1, cycles._pool_size(2))
