"""End-to-end acceptance runs.

One test per scenario, in increasing order of cost; each block times
itself against a wall-clock budget and prints a summary line.  Everything
asserted here is an exact value, never a tolerance.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from lenumbers.checks import (
    check_dagger,
    check_funbound,
    check_leiom,
    check_mainmany,
    check_mainone,
    check_newmpr_and_easybound,
    check_teissier,
    search_dagger,
)
from lenumbers.cycles import (
    generic_le,
    lambda_numbers,
    polar_mult,
    sigma_ideal,
    slice_check,
)
from lenumbers.local import local_dim, local_quotient_dim
from lenumbers.milnor import milnor, sectional
from lenumbers.poly import Frame, apply_frame, iomdine, parse, restrict

from _corpus import BY_NAME, CORPUS, SEEDS, generic_record
from _oracles import m_primary_colength, mora_quotient_dim

XYZ = ("x", "y", "z")


@contextmanager
def budget(label, seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label} ({time.perf_counter() - t0:.1f}s, budget {seconds}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < seconds else "FAIL"
    print(f"{verdict} {label} ({dt:.1f}s, budget {seconds}s)")
    assert dt < seconds, f"{label} took {dt:.1f}s, budget {seconds}s"


def test_three_plane_arrangement_exact():
    with budget("three-plane arrangement, identity frame", 5):
        f = parse("(x^2-z^2+y^2)*(x-z)", XYZ)
        rec = lambda_numbers(f)
        assert rec.lam == (2, 3)
        (rep,) = check_funbound(f, frame=Frame.identity(3))
        assert (rep.lhs, rep.rhs) == (8, 8)
        assert rep.holds and rep.equality


def test_curve_family_exact():
    with budget("plane curve family, identity frame", 5):
        f = parse("y^3-x^4-t^2*x^2", ("t", "x", "y"))
        rec = lambda_numbers(f)
        assert rec.lam == (12, 2)
        (rep,) = check_funbound(f, frame=Frame.identity(3))
        assert (rep.lhs, rep.rhs) == (16, 8)
        assert rep.holds and not rep.equality


def test_one_dimensional_ratio_bounds():
    with budget("curve family ratio bound", 30):
        (rep,) = check_mainone(BY_NAME["tx"].poly, seed=0)
        assert (rep.lhs, rep.rhs) == (Fraction(11, 3), 3)
        assert (rep.context["mu_top"], rep.context["mu_next"]) == (6, 2)
        assert rep.holds
    with budget("three-plane ratio bound", 30):
        (rep,) = check_mainone(BY_NAME["bn0"].poly, seed=0)
        assert (rep.lhs, rep.rhs) == (Fraction(11, 4), 2)
        assert (rep.context["mu_top"], rep.context["mu_next"]) == (4, 2)
        assert rep.holds


def test_surface_recursion_exact():
    with budget("two-dimensional recursion", 300):
        f = parse("z^2+(w^4+x^3+y^2)^2", ("w", "x", "y", "z"))
        (rep,) = check_mainmany(f, seed=0)
        assert rep.context["lam"] == (14, 3, 2)
        assert rep.context["slice_lam"] == (5, 2)
        assert rep.context["next_lam"] == (3,)
        assert rep.context["ks"] == (5, 15)
        assert rep.context["D"] == 15
        assert (rep.lhs, rep.rhs) == (Fraction(179, 15), 5)
        assert rep.holds and not rep.context["shifted"]
        assert all(rep.context["identities"].values())
        assert sectional(f, 2, seed=0) == 3


def test_surface_recursion_within_budget():
    # the polar saturations run on the surface's own sparse partials
    with budget("two-dimensional recursion, regression budget", 60):
        f = parse("z^2+(w^4+x^3+y^2)^2", ("w", "x", "y", "z"))
        (rep,) = check_mainmany(f, seed=0)
        assert rep.context["lam"] == (14, 3, 2)


def test_power_perturbation_exact():
    with budget("power perturbation", 120):
        f = BY_NAME["bn0"].poly
        reports = {r.name: r for r in check_leiom(f, m=9, seed=0)}
        eq = reports["leiom-equality"]
        assert (eq.lhs, eq.rhs) == (26, 26) and eq.holds
        # rebuild the transform from public pieces and recount
        rec = generic_le(f, seed=0)
        g, gframe = iomdine(apply_frame(f, rec.frame), 9, eq.context["a"])
        assert lambda_numbers(g, gframe).lam[0] == 26
        # below the threshold only the upper bound is claimed
        reports = {r.name: r for r in check_leiom(f, m=2, seed=0)}
        assert "leiom-equality" not in reports
        b = reports["leiom-bound"]
        assert b.holds and b.rhs == 5
        # isolated case: m = mu + 1 preserves the Milnor number
        a2 = BY_NAME["a2"].poly
        reports = {r.name: r for r in check_leiom(a2, m=3, seed=0)}
        eq = reports["leiom-equality"]
        assert (eq.lhs, eq.rhs) == (2, 2) and eq.holds
        rec = generic_le(a2, seed=0)
        g, _ = iomdine(apply_frame(a2, rec.frame), 3, eq.context["a"])
        assert milnor(g) == 2


def test_large_power_perturbation_within_budget():
    with budget("power perturbation, m = 24", 60):
        f = BY_NAME["tx"].poly
        reports = {r.name: r for r in check_leiom(f, m=24, seed=0)}
        eq = reports["leiom-equality"]
        # lambda^0 + (m - 1) lambda^1 with (lambda^0, lambda^1) = (12, 2)
        assert eq.context["lam"] == (12, 2)
        assert eq.context["lam_transform"][0] == 58 == 12 + 2 * 23
        assert (eq.lhs, eq.rhs) == (58, 58) and eq.holds


def test_property_sweep_over_corpus():
    with budget("property sweep over the corpus", 1800):
        assert len(CORPUS) >= 20
        assert {m.s for m in CORPUS} == {0, 1, 2}
        for m in CORPUS:
            f = m.poly
            for seed in SEEDS:
                rec = generic_record(m.name, seed)
                where = (m.name, seed)

                m1 = f.mult_origin() - 1
                lhs = sum(m1**j * rec.lam[j] for j in range(rec.s + 1))
                assert lhs >= m1 ** len(f.vars), where
                assert (lhs == m1 ** len(f.vars)) == m.homogeneous, where

                sc = slice_check(f, rec.frame, rec)
                assert sc is not False, where
                if rec.s >= 1:
                    assert sc is True, where

                for j in range(1, rec.s + 1):
                    assert rec.gam[j - 1] == polar_mult(f, rec.frame, j), where

                reports = check_newmpr_and_easybound(f, seed=seed)
                assert reports
                for r in reports:
                    assert r.skipped or r.holds, where + (r.name,)

                if m.s == 0:
                    (t,) = check_teissier(f, seed=seed)
                    assert not t.skipped and t.holds, where

                if m.homogeneous:
                    (d,) = check_dagger(f, seed=seed)
                    assert d.skipped or d.holds, where


def test_counting_routes_agree():
    with budget("independent counting routes", 120):
        for m in CORPUS:
            J = sigma_ideal(m.poly)
            if local_dim(J) != 0:
                g = restrict(m.poly, len(m.vars) - m.s, seed=1)
                J = sigma_ideal(g)
                assert local_dim(J) == 0, m.name
            d = local_quotient_dim(J)
            assert d is not None, m.name
            assert mora_quotient_dim(J) == d, m.name
            assert m_primary_colength(J) == d, m.name
        for a in range(2, 7):
            for b in range(2, 7):
                f = parse(f"x^{a}+y^{b}", ("x", "y"))
                assert milnor(f) == (a - 1) * (b - 1)


def test_json_is_byte_identical_per_seed():
    with budget("deterministic JSON", 120):
        check_cmd = [
            sys.executable, "-m", "lenumbers.cli", "check", "funbound",
            "-f", "(x^2-z^2+y^2)*(x-z)", "--vars", "x,y,z",
            "--seed", "3", "--json",
        ]
        le_cmd = [
            sys.executable, "-m", "lenumbers.cli", "compute", "le",
            "-f", "y^3-x^4-t^2*x^2", "--vars", "t,x,y",
            "--seed", "5", "--json",
        ]
        for cmd in (check_cmd, le_cmd):
            runs = [
                subprocess.run(cmd, capture_output=True, check=True).stdout
                for _ in range(2)
            ]
            assert runs[0] == runs[1]
            json.loads(runs[0])  # and it is valid JSON


def test_family_sweep_finds_no_counterexample():
    with budget("family sweep for the open inequality", 600):
        family = [
            {
                "template": "(x^2 - z^2 + y^2)*(x - c*z)",
                "params": {"c": [1, 2, 3]},
                "vars": ["x", "y", "z"],
            },
            {
                "template": "y^a - x^b - t^2*x^2",
                "params": {"a": [2, 3], "b": [3, 4, 5]},
            },
        ]
        res = search_dagger(family, seed=0)
        assert res.counterexamples == ()
        assert res.candidates
        for _, rep in res.candidates:
            margin = rep.lhs - rep.rhs
            print(f"  margin {margin}: {rep.context['instance']}")
            assert margin >= 0
