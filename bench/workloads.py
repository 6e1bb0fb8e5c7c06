"""The benchmark's three workloads.

Each workload has a build step (parse the inputs; part of set-up), a
compute step that times each input, and a check step, run after the
compute step and outside its time, that tests the outputs of each input.
One input is one operation: it fails when its computation raises or when
its outputs fail a check.  Every check tests a property derived by hand or
a relation that must hold for any seed; none compares against a recorded
output of the program.

The functions of the library are always looked up through ``lib`` at call
time, so that a traced run sees them through its wrappers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# The corpus of tests/_corpus.py, copied so that the benchmark's inputs stay
# fixed when the test suite changes.  (name, polynomial, variables, s,
# homogeneous, Milnor number of the isolated members).  s and mu are derived
# by hand: s from the Jacobian ideal, mu by the Brieskorn product formula or
# for an ordinary multiple point.
CORPUS = (
    ("a2", "x^2+y^3", "x,y", 0, False, 2),
    ("e6ish", "x^3+y^4", "x,y", 0, False, 6),
    ("cubic3", "x^3+y^3+z^3", "x,y,z", 0, True, 8),
    ("quad3", "x^2+y^2+z^2", "x,y,z", 0, True, 1),
    ("a2sus", "x^2+y^2+z^3", "x,y,z", 0, False, 2),
    ("cubic4", "x^3+y^3+z^3+w^3", "x,y,z,w", 0, True, 16),
    ("triple", "x^2*y+x*y^2", "x,y", 0, True, 4),
    ("shear", "x^2+2*x*y+y^2+y^3", "x,y", 0, False, 2),
    ("brieskorn", "x^2+y^3+z^5", "x,y,z", 0, False, 8),
    ("bn0", "(x^2-z^2+y^2)*(x-z)", "x,y,z", 1, True, None),
    ("tx", "y^3-x^4-t^2*x^2", "t,x,y", 1, False, None),
    ("umbrella", "x^2-y^2*z", "x,y,z", 1, False, None),
    ("cylinder", "y^2+z^2", "x,y,z", 1, True, None),
    ("x2y2", "x^2*y^2", "x,y", 1, True, None),
    ("fatline", "(x+y)^2*(x-y)", "x,y", 1, True, None),
    ("axes", "x^2*y^2+z^4", "x,y,z", 1, True, None),
    ("cuspsus", "z^2+(x^2+y^3)^2", "x,y,z", 1, False, None),
    ("twolines", "y^2-x^2*t^2", "t,x,y", 1, False, None),
    ("fatcusp", "x^3+x^2*y", "x,y", 1, True, None),
    ("fatcircle", "(x^2+y^2)^2", "x,y", 1, True, None),
    ("planes", "x^2*y^2", "x,y,z", 2, True, None),
    ("fatsurf", "(y^2+z^3)^2", "x,y,z", 2, False, None),
    ("sheet4", "z^2+x^2*y^2", "x,y,z,w", 2, False, None),
    ("q4", "y^2+z^2", "w,x,y,z", 2, True, None),
    ("cuspsheet", "w^2+(x^2+y^3)^2", "x,y,z,w", 2, False, None),
)

# The family of tests/test_acceptance.py::test_family_sweep_finds_no_counterexample.
FAMILY = (
    {
        "template": "(x^2 - z^2 + y^2)*(x - c*z)",
        "params": {"c": [1, 2, 3]},
        "vars": ["x", "y", "z"],
    },
    {
        "template": "y^a - x^b - t^2*x^2",
        "params": {"a": [2, 3], "b": [3, 4, 5]},
    },
)

SURFACE = ("z^2+(w^4+x^3+y^2)^2", "w,x,y,z")
# generic Le numbers of the surface; a generic invariant, so any seed gives it
SURFACE_LAM = (14, 3, 2)
# surface_recursion, leiom_transform, the family sweep and the corpus members
# in FIXED_FRAMES run at this frame seed whatever --seed is.  Their time is
# dominated by a few inputs whose cost depends on the random frame: on the
# reference machine the surface took 37 to 73 s over frame seeds 0 to 5, the
# Le-Iomdine transform of tx 8 to 19 s, and cuspsheet in the corpus 2.2 to
# 3.8 s.  With those frames drawn from --seed, the quartiles of wall_s over
# ten seeds lay 0.22 of the median apart on corpus_sweep alone.  The family
# sweep at other seeds also meets the sectional fault described at
# NO_SECTIONS.
FRAME_SEED = 0

# The corpus members that took over 0.3 s per input at frame seed 0, about
# four fifths of the corpus sweep's time between them.  The other members
# draw their frames from --seed.
FIXED_FRAMES = frozenset(("cubic4", "tx", "cuspsus", "fatsurf", "sheet4", "cuspsheet"))

# Members whose zero set contains a line or plane through the origin that a
# random section in milnor.sectional can pick.  The restriction of f is then
# zero, milnor raises ValueError, and check_teissier skips while check_dagger
# raises, at some seeds only (triple fails at frame seeds 3, 5, 6, 13, ...).
# Those two checkers are left out for these members.
NO_SECTIONS = frozenset(
    ("cubic3", "cubic4", "triple", "bn0", "cylinder", "x2y2", "fatline", "axes", "fatcusp")
)


@dataclass(frozen=True)
class Member:
    name: str
    f: Any
    s: int
    homogeneous: bool
    mu: int | None


@dataclass
class Outcome:
    """One input of one round: its compute time and output (None and the
    exception when it raised), and the problems its check found."""

    label: str
    seconds: float | None
    out: Any
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.seconds is None or bool(self.problems)


def _members(lib, rows) -> list[Member]:
    return [
        Member(name, lib.poly.parse(text, tuple(vs.split(","))), s, homog, mu)
        for name, text, vs, s, homog, mu in rows
    ]


def _timed(label: str, fn: Callable, *args, **kwargs) -> Outcome:
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as e:  # an input that raises counts as failed
        return Outcome(label, None, e, [f"raised {e!r}"])
    return Outcome(label, perf_counter() - t0, out)


def _check_each(outcomes: list[Outcome], check: Callable) -> None:
    for o in outcomes:
        if o.seconds is not None:
            try:
                o.problems += check(o)
            except Exception as e:  # outputs of an unexpected shape
                o.problems.append(f"check raised {e!r}")


# -- corpus_sweep ------------------------------------------------------------


def corpus_seeds(seed: int) -> range:
    """The three frame seeds of a corpus member under the workload seed."""
    return range(3 * seed, 3 * seed + 3)


def build_corpus(lib, seed: int):
    """Each member with the three frame seeds it runs at."""
    return [
        (m, corpus_seeds(FRAME_SEED if m.name in FIXED_FRAMES else seed))
        for m in _members(lib, CORPUS)
    ]


def _corpus_compute(lib, m: Member, seed: int) -> dict:
    cycles, checks = lib.cycles, lib.checks
    f = m.f
    rec = cycles.generic_le(f, seed=seed, trials=3)
    out = {
        "rec": rec,
        "slice": cycles.slice_check(f, rec.frame, rec),
        "polar": [cycles.polar_mult(f, rec.frame, j) for j in range(1, rec.s + 1)],
        "reports": checks.check_newmpr_and_easybound(f, seed=seed),
    }
    if m.name not in NO_SECTIONS:
        if m.s == 0:
            out["teissier"] = checks.check_teissier(f, seed=seed)
        if m.homogeneous:
            out["dagger"] = checks.check_dagger(f, seed=seed)
    return out


def _corpus_check(m: Member, out: dict) -> list[str]:
    rec, f = out["rec"], m.f
    bad = []
    if rec.s != m.s:
        bad.append(f"s = {rec.s}, expected {m.s}")
        return bad
    if m.mu is not None and rec.lam[0] != m.mu:
        bad.append(f"lambda^0 = {rec.lam[0]}, Milnor number is {m.mu}")
    m1 = f.mult_origin() - 1
    lhs = sum(m1**j * rec.lam[j] for j in range(rec.s + 1))
    floor = m1 ** len(f.vars)
    if lhs < floor:
        bad.append(f"sum (mult-1)^j lambda^j = {lhs} < {floor}")
    if (lhs == floor) != m.homogeneous:
        bad.append(f"equality {lhs == floor} but homogeneous {m.homogeneous}")
    if out["slice"] is False or (rec.s >= 1 and out["slice"] is not True):
        bad.append(f"slice_check gave {out['slice']}")
    if list(rec.gam) != out["polar"]:
        bad.append(f"gamma {rec.gam} != polar_mult {out['polar']}")
    if not out["reports"]:
        bad.append("check_newmpr_and_easybound returned no report")
    for r in out["reports"]:
        if not (r.skipped or r.holds):
            bad.append(f"{r.name} fails")
    if "teissier" in out:
        (t,) = out["teissier"]
        if t.skipped or not t.holds:
            bad.append("teissier skipped or fails")
    if "dagger" in out:
        (d,) = out["dagger"]
        if not (d.skipped or d.holds):
            bad.append("dagger fails")
    return bad


def _family_compute(lib, seed: int) -> list[Outcome]:
    """search_dagger over FAMILY; one input per family instance, timed from
    one report to the next.  Each output is (report, sweep result)."""
    marks, reps = [perf_counter()], []

    def on_report(params, rep):
        marks.append(perf_counter())
        reps.append(rep)

    try:
        res = lib.checks.search_dagger(FAMILY, seed=seed, on_report=on_report)
    except Exception as e:
        n = sum(len(list(itertools.product(*f["params"].values()))) for f in FAMILY)
        return [Outcome(f"family#{i}", None, e, [f"raised {e!r}"]) for i in range(n)]
    return [
        Outcome(f"family:{rep.context['instance']}", marks[i + 1] - marks[i], (rep, res))
        for i, rep in enumerate(reps)
    ]


def _family_check(o: Outcome) -> list[str]:
    rep, res = o.out
    bad = []
    if not rep.skipped and not (rep.holds and rep.lhs >= rep.rhs):
        bad.append(f"counterexample, margin {rep.lhs - rep.rhs}")
    if not res.candidates:
        bad.append("the sweep found no candidate")
    return bad


def corpus_compute(lib, inputs) -> list[Outcome]:
    outcomes = [
        _timed(f"{m.name}@{seed}", _corpus_compute, lib, m, seed)
        for m, seeds in inputs
        for seed in seeds
    ]
    return outcomes + _family_compute(lib, FRAME_SEED)


def corpus_check(lib, inputs, outcomes: list[Outcome]) -> None:
    k = len(inputs[0][1])
    for i, (m, _) in enumerate(inputs):
        group = outcomes[i * k : (i + 1) * k]
        _check_each(group, lambda o: _corpus_check(m, o.out))
        # the generic Le numbers do not depend on the seed
        lams = {o.out["rec"].lam for o in group if o.seconds is not None}
        if len(lams) > 1:
            for o in group:
                o.problems.append(f"generic lambda differs across seeds: {sorted(lams)}")
    _check_each(outcomes[len(inputs) * k :], _family_check)


# -- leiom_transform ---------------------------------------------------------


def build_leiom(lib, seed: int):
    return [m for m in _members(lib, CORPUS) if m.s >= 1], FRAME_SEED


def _leiom_check(lib, m: Member, seed: int, reports) -> list[str]:
    by_name = {r.name: r for r in reports}
    bad = [f"{r.name} skipped or fails" for r in reports if r.skipped or not r.holds]
    if bad or "leiom-equality" not in by_name:
        return bad or ["no leiom-equality report"]
    eq = by_name["leiom-equality"]
    if m.s == 1:
        # recount lambda^0 of the transform through the Jacobian colength
        ctx = eq.context
        rec = lib.cycles.generic_le(m.f, seed=seed)
        g, _ = lib.poly.iomdine(lib.poly.apply_frame(m.f, rec.frame), ctx["m"], ctx["a"])
        want = ctx["lam"][0] + (ctx["m"] - 1) * ctx["lam"][1]
        mu = lib.milnor.milnor(g)
        if mu != want:
            bad.append(f"milnor of the transform {mu} != lambda^0 + (m-1) lambda^1 = {want}")
    if m.s == 2 and "leiom-shift-1" not in by_name:
        bad.append("no leiom-shift-1 report")
    return bad


def leiom_compute(lib, inputs) -> list[Outcome]:
    members, seed = inputs
    return [_timed(m.name, lib.checks.check_leiom, m.f, seed=seed) for m in members]


def leiom_check(lib, inputs, outcomes: list[Outcome]) -> None:
    members, seed = inputs
    for m, o in zip(members, outcomes):
        _check_each([o], lambda done: _leiom_check(lib, m, seed, done.out))


# -- surface_recursion -------------------------------------------------------


def build_surface(lib, seed: int):
    text, vs = SURFACE
    return lib.poly.parse(text, tuple(vs.split(","))), FRAME_SEED


def _surface_check(reports) -> list[str]:
    (rep,) = reports
    bad = []
    if rep.skipped:
        return [f"skipped: {rep.reason}"]
    if not rep.lhs >= rep.rhs:
        bad.append(f"lhs {rep.lhs} < rhs {rep.rhs}")
    if not rep.holds:
        bad.append("report does not hold")
    false = [k for k, v in rep.context["identities"].items() if not v]
    if false:
        bad.append(f"identities fail: {false}")
    if tuple(rep.context["lam"]) != SURFACE_LAM:
        bad.append(f"lambda = {rep.context['lam']}, expected {SURFACE_LAM}")
    return bad


def surface_compute(lib, inputs) -> list[Outcome]:
    f, seed = inputs
    return [_timed("surface", lib.checks.check_mainmany, f, seed=seed)]


def surface_check(lib, inputs, outcomes: list[Outcome]) -> None:
    _check_each(outcomes, lambda o: _surface_check(o.out))


# name: (build, compute, check).  build parses the inputs; compute returns one
# Outcome per input; check adds the problems it finds to each Outcome.
WORKLOADS = {
    "corpus_sweep": (build_corpus, corpus_compute, corpus_check),
    "surface_recursion": (build_surface, surface_compute, surface_check),
    "leiom_transform": (build_leiom, leiom_compute, leiom_check),
}
