from fractions import Fraction

import pytest

import lenumbers.checks as checks
import lenumbers.cycles as cycles
from lenumbers.checks import (
    check_dagger,
    check_funbound,
    check_leiom,
    check_mainmany,
    check_mainone,
    check_newmpr_and_easybound,
    check_suspension,
    check_teissier,
    search_dagger,
)
from lenumbers.cycles import LeRecord, lambda_numbers, sigma_ideal
from lenumbers.groebner import Ideal
from lenumbers.local import germ_in_hyperplane, local_dim
from lenumbers.poly import Frame, Polynomial, apply_frame, iomdine, parse

from _corpus import BY_NAME, CORPUS, SEEDS, generic_record
from _oracles import germ_subset_by_saturation

BN0 = BY_NAME["bn0"].poly
TX = BY_NAME["tx"].poly


def test_funbound_homogeneous_equality():
    (rep,) = check_funbound(BN0, seed=0)
    assert (rep.lhs, rep.rhs) == (8, 8)
    assert rep.holds and rep.equality
    assert rep.context["homogeneous"]


def test_funbound_strict_when_not_homogeneous():
    (rep,) = check_funbound(TX, seed=0)
    assert (rep.lhs, rep.rhs) == (16, 8)
    assert rep.holds and not rep.equality


def test_funbound_skips_on_degenerate_frame():
    (rep,) = check_funbound(BY_NAME["x2y2"].poly, frame=Frame.identity(2))
    assert rep.skipped
    assert "undefined" in rep.reason


# every checker that reads a Le record
RECORD_READERS = (
    check_funbound,
    check_mainone,
    check_mainmany,
    check_dagger,
    check_suspension,
    check_newmpr_and_easybound,
    check_leiom,
)


def _reports(checker, f, frame):
    """checker's reports on f in frame; none for an input check_suspension
    rejects by its shape."""
    try:
        return checker(f, frame=frame, seed=0)
    except ValueError as e:
        assert checker is check_suspension and "not a suspension" in str(e)
        return []


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_checkers_read_only_fully_defined_records(member):
    # a frame with one undefined lambda^j has no Le numbers, so nothing is
    # read off it; check_mainmany's shifted statement reads only generic
    # slice profiles, not the framed record
    f = member.poly
    n1 = len(f.vars)
    for frame in (Frame.identity(n1), Frame.rotation(n1)):
        if lambda_numbers(f, frame).fully_defined:
            continue
        for checker in RECORD_READERS:
            for rep in _reports(checker, f, frame):
                assert rep.skipped or rep.context.get("shifted"), (checker, frame, rep)
                if rep.skipped and checker is not check_mainmany:
                    assert rep.reason == "Le numbers undefined for this frame"


def _reports_from_the_kept_record(checker, f, seed, monkeypatch) -> str:
    """repr of checker(f, seed=seed) right after generic_le(f, seed=seed);
    the checker must run no frame trial."""
    cycles.generic_le(f, seed=seed)
    with monkeypatch.context() as patch:
        patch.setattr(cycles, "_lambda_trials", _no_trials)
        return repr(checker(f, seed=seed))


def _no_trials(f, frames, s):
    raise AssertionError("a frame trial ran")


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_newmpr_reads_the_record_generic_le_kept(member, monkeypatch, serial_trials):
    f = member.poly
    for seed in SEEDS:
        warm = _reports_from_the_kept_record(check_newmpr_and_easybound, f, seed, monkeypatch)
        cycles._LAST = (None, None)
        assert warm == repr(check_newmpr_and_easybound(f, seed=seed)), seed


@pytest.mark.parametrize("name", ["quad3", "fatcircle", "planes", "q4"])
def test_dagger_reads_the_record_generic_le_kept(name, monkeypatch, serial_trials):
    f = BY_NAME[name].poly
    warm = _reports_from_the_kept_record(check_dagger, f, 0, monkeypatch)
    cycles._LAST = (None, None)
    assert warm == repr(check_dagger(f, seed=0))


def test_checker_errors_propagate_instead_of_skipping(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(checks, "generic_le", boom)
    with pytest.raises(ValueError, match="boom"):
        check_funbound(BN0, seed=0)


def test_recursion_error_is_not_undefined(monkeypatch):
    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(checks, "generic_le", deep)
    with pytest.raises(RecursionError):
        check_funbound(BN0, seed=0)


def test_checker_skips_nonsingular_input_and_rejects_bad_arguments():
    (rep,) = check_funbound(parse("x+y^2", ("x", "y")))
    assert rep.skipped
    # the same with a frame given
    (rep,) = check_funbound(parse("x+y^2", ("x", "y")), frame=Frame.identity(2))
    assert rep.skipped
    with pytest.raises(ValueError, match="trials"):
        check_funbound(BN0, trials=0)
    with pytest.raises(ValueError, match="bound"):
        check_funbound(BN0, bound=0)


def test_mainone_values():
    (rep,) = check_mainone(TX, seed=0)
    assert (rep.lhs, rep.rhs) == (Fraction(11, 3), 3)
    assert rep.holds
    (rep,) = check_mainone(BN0, seed=0)
    assert (rep.lhs, rep.rhs) == (Fraction(11, 4), 2)
    assert rep.holds


def test_mainone_isolated_case():
    (rep,) = check_mainone(BY_NAME["a2"].poly, seed=0)
    assert (rep.lhs, rep.rhs) == (2, 1)
    assert rep.holds


def test_mainone_skips_high_dimension():
    (rep,) = check_mainone(BY_NAME["planes"].poly, seed=0)
    assert rep.skipped
    assert "dimension 2" in rep.reason


def test_dagger_skips_when_lambda0_vanishes():
    (rep,) = check_dagger(BY_NAME["cylinder"].poly, seed=0)
    assert rep.skipped
    assert "lambda^0 = 0" in rep.reason


def test_dagger_skips_when_mu_too_small():
    (rep,) = check_dagger(TX, seed=0)
    assert rep.skipped
    assert "does not exceed" in rep.reason


def test_dagger_candidate_on_three_lines():
    (rep,) = check_dagger(BN0, seed=0)
    assert not rep.skipped
    assert rep.context["candidate"]
    assert (rep.lhs, rep.rhs) == (2, 2)
    assert rep.holds and rep.context["margin"] == 0


def test_mainmany_curve_singularity():
    (rep,) = check_mainmany(TX, seed=0)
    assert rep.context["ks"] == (6,)
    assert rep.context["D"] == 6
    assert not rep.context["shifted"]
    assert (rep.lhs, rep.rhs) == (4, 3)
    assert rep.holds
    assert all(rep.context["identities"].values())


def test_mainmany_shifts_past_vanishing_lambda0():
    (rep,) = check_mainmany(BY_NAME["q4"].poly, seed=0)
    assert rep.context["shifted"]
    assert rep.context["omega"] == 2
    assert (rep.lhs, rep.rhs) == (1, 1)
    assert rep.holds


def test_mainmany_reads_the_lower_slice_profiles():
    # a plane curve: the next slice is 0-dimensional, lambda^0 = 1
    (rep,) = check_mainmany(parse("x^2*y^2", ("x", "y")), seed=0)
    assert rep.context["next_lam"] is None
    assert (rep.lhs, rep.rhs) == (3, 3)
    assert rep.context["identities"] == {"slice0": True}
    # s = 3: the next slice has a Le number above lambda^0 to shift
    (rep,) = check_mainmany(parse("x*y*z*u", ("x", "y", "z", "u", "v")), seed=0)
    assert rep.context["slice_lam"] == (3, 8, 6)
    assert rep.context["next_lam"] == (9, 6)
    assert rep.context["ks"] == (3, 27, 513)
    assert (rep.lhs, rep.rhs) == (Fraction(27775, 57), 19)
    assert rep.context["identities"] == dict.fromkeys(
        ("slice0", "slice1", "shift_1", "shift_2", "shift2_1"), True
    )
    assert rep.holds


def test_leiom_equality_branch():
    reports = {r.name: r for r in check_leiom(BN0, m=9, seed=0)}
    bound = reports["leiom-bound"]
    assert (bound.lhs, bound.rhs) == (26, 26)
    assert bound.holds
    eq = reports["leiom-equality"]
    assert eq.holds and eq.equality
    sl = reports["leiom-slice"]
    assert (sl.lhs, sl.rhs) == (26, 32)
    assert sl.holds


def test_leiom_small_power_below_threshold():
    reports = {r.name: r for r in check_leiom(BN0, m=2, seed=0)}
    assert "leiom-equality" not in reports
    bound = reports["leiom-bound"]
    assert (bound.lhs, bound.rhs) == (4, 5)
    assert bound.holds
    sl = reports["leiom-slice"]
    assert (sl.lhs, sl.rhs) == (4, 4)


def test_leiom_preserves_isolated_milnor_number():
    # for an isolated singularity and m past the threshold, lambda^0 of
    # the transform equals lambda^0 = mu of the original
    reports = {r.name: r for r in check_leiom(BY_NAME["a2"].poly, m=3, seed=0)}
    eq = reports["leiom-equality"]
    assert (eq.lhs, eq.rhs) == (2, 2)
    assert eq.holds


def _z0_gate_and_full_gate(h, m, a):
    """check_leiom asks the critical locus of the transform to lie in V(z0)
    near 0; the claim it stands for is that it lies in V(sigma_ideal(h))
    and V(z0).  Both verdicts, in that order."""
    z0 = Polynomial.var_index(0, h.vars)
    target = Ideal([*sigma_ideal(h).gens, z0], vars=h.vars)
    sig_g = sigma_ideal(iomdine(h, m, a)[0])
    return germ_in_hyperplane(sig_g, 0), germ_subset_by_saturation(sig_g, target)


@pytest.mark.parametrize("member", [m for m in CORPUS if m.s >= 1], ids=lambda m: m.name)
def test_leiom_gate_on_z0_matches_the_full_target(member):
    rec = generic_record(member.name, 0)
    h = apply_frame(member.poly, rec.frame)
    m = 2 if rec.lam[0] == 0 else 1 + rec.lam[0]
    for a in (1, -1, 2):
        z0_gate, full = _z0_gate_and_full_gate(h, m, a)
        assert z0_gate == full, a


def test_leiom_gates_agree_where_the_transform_fails():
    # umbrella, identity frame: x^2 - y^2*z - x^2 is critical along y = 0
    umbrella = BY_NAME["umbrella"].poly
    assert _z0_gate_and_full_gate(umbrella, 2, -1) == (False, False)
    cylinder = apply_frame(BY_NAME["cylinder"].poly, Frame.rotation(3))
    assert _z0_gate_and_full_gate(cylinder, 2, -1) == (False, False)


@pytest.mark.parametrize("member", [m for m in CORPUS if m.s >= 1], ids=lambda m: m.name)
def test_leiom_transform_partials_lie_in_the_target(member):
    # why check_leiom tests only V(sig_g) in V(z0): sigma_ideal(g) lies in
    # sigma_ideal(h) + (z0) for every transform g = h + a*z0^m
    for seed in (0, 1):
        rec = generic_record(member.name, seed)
        h = rec.h
        target = Ideal([*sigma_ideal(h).gens, Polynomial.var_index(0, h.vars)], vars=h.vars)
        m = 2 if rec.lam[0] == 0 else 1 + rec.lam[0]
        for a in (1, -1, 2):
            g = iomdine(h, m, a)[0]
            assert all(target.contains(p) for p in sigma_ideal(g).gens), (seed, a)


def _spy_local_dim(monkeypatch, answer=local_dim) -> list:
    """The ideals check_leiom hands to local_dim; answer gives the dimension."""
    seen = []

    def spy(I):
        seen.append(I)
        return answer(I)

    monkeypatch.setattr(checks, "local_dim", spy)
    return seen


@pytest.mark.parametrize("name", ["bn0", "tx", "a2"])
def test_leiom_reads_the_critical_dimension_of_the_target_once(monkeypatch, name):
    seen = _spy_local_dim(monkeypatch)
    transforms = []

    def iomdine_spy(h, m, av):
        out = iomdine(h, m, av)
        transforms.append(out[0])
        return out

    monkeypatch.setattr(checks, "iomdine", iomdine_spy)
    reports = check_leiom(BY_NAME[name].poly, seed=0)
    assert not any(r.skipped for r in reports)
    h = generic_record(name, 0).h
    z0 = Polynomial.var_index(0, h.vars)
    want = [] if BY_NAME[name].s == 0 else [(*sigma_ideal(h).gens, z0)]
    assert [I.gens for I in seen] == want
    assert not {sigma_ideal(g).gens for g in transforms} & {I.gens for I in seen}


def test_leiom_reads_a_failing_critical_dimension_once(monkeypatch):
    seen = _spy_local_dim(monkeypatch, answer=lambda I: 5)
    (rep,) = check_leiom(BN0, m=2, frame=Frame.identity(3))
    assert rep.skipped
    assert len(seen) == 1
    assert rep.context["failures"] == [
        f"a={av}: critical dimension did not drop to 0"
        for av in (1, -1, 2, -2, 3, -3, 4, -4)
    ]


def test_leiom_reads_no_critical_dimension_when_no_transform_passes(monkeypatch):
    seen = _spy_local_dim(monkeypatch)
    monkeypatch.setattr(checks, "germ_in_hyperplane", lambda I, i: False)
    (rep,) = check_leiom(BN0, m=2, frame=Frame.identity(3))
    assert rep.skipped
    assert seen == []


def test_leiom_rejects_bad_power():
    with pytest.raises(ValueError):
        check_leiom(BN0, m=1)


def test_leiom_rejects_bad_power_before_any_computation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("Le numbers computed for a bad power")

    monkeypatch.setattr(checks, "generic_le", fail)
    monkeypatch.setattr(checks, "lambda_numbers", fail)
    for m in (1, 0, 2.5):
        with pytest.raises(ValueError, match="power m"):
            check_leiom(BN0, m=m)
    with pytest.raises(ValueError, match="power m"):
        check_leiom(BN0, m=1, frame=Frame.identity(3))
    # not singular at the origin: a skip for a good power, an error for this
    with pytest.raises(ValueError, match="power m"):
        check_leiom(parse("x+y^2", ("x", "y")), m=1)


@pytest.mark.parametrize(
    "a, ladder",
    [
        (None, [1, -1, 2, -2, 3, -3, 4, -4]),
        (1, [1, -1, 2, -2, 3, -3, 4, -4]),
        (5, [5, 1, -1, 2, -2, 3, -3, 4]),
    ],
)
def test_leiom_ladder_tries_distinct_coefficients(monkeypatch, a, ladder):
    # every coefficient fails the gate, so the whole ladder is walked
    tried = []

    def iomdine_spy(h, m, av):
        tried.append(av)
        return iomdine(h, m, av)

    monkeypatch.setattr(checks, "germ_in_hyperplane", lambda I, i: False)
    monkeypatch.setattr(checks, "iomdine", iomdine_spy)
    (rep,) = check_leiom(BN0, m=2, a=a, frame=Frame.identity(3))
    assert rep.skipped
    assert tried == ladder
    assert len(rep.context["failures"]) == checks.LEIOM_COEFFS


def test_leiom_skips_a_one_variable_germ_after_checking_a_and_m():
    x2 = parse("x^2", ("x",))
    with pytest.raises(ValueError, match="coefficient a"):
        check_leiom(x2, a=0)
    with pytest.raises(ValueError, match="power m"):
        check_leiom(x2, m=1)
    for frame in (None, Frame.identity(1)):
        (rep,) = check_leiom(x2, frame=frame)
        assert rep.skipped
        assert rep.reason == "needs at least two variables"


def test_leiom_rejects_a_zero_coefficient():
    with pytest.raises(ValueError, match="coefficient a must be nonzero"):
        check_leiom(BN0, m=2, a=0)


def test_suspension_plane_curve():
    (rep,) = check_suspension(BY_NAME["x2y2"].poly, seed=0)
    assert (rep.lhs, rep.rhs) == (3, 3)
    assert rep.holds


def test_suspension_of_fat_cusp():
    (rep,) = check_suspension(BY_NAME["cuspsus"].poly, seed=0)
    assert (rep.lhs, rep.rhs) == (5, 3)
    assert rep.holds
    assert rep.context["power"] == 2


def test_suspension_skips_an_undefined_frame():
    # the identity frame leaves lambda^1 of x^2*y^2 undefined, so its
    # lambda^0 = 0 is no counterexample
    reps = check_suspension(BY_NAME["x2y2"].poly, frame=Frame.identity(2))
    assert [(r.skipped, r.reason) for r in reps] == [
        (True, "Le numbers undefined for this frame")
    ]


def test_suspension_shape_rejection():
    with pytest.raises(ValueError, match="reduced"):
        check_suspension(parse("x^2+y^2+z^2", ("x", "y", "z")))
    with pytest.raises(ValueError, match="not a suspension"):
        check_suspension(parse("x*y*z", ("x", "y", "z")))
    with pytest.raises(ValueError, match="not a suspension"):
        check_suspension(BY_NAME["q4"].poly)


def test_newmpr_bundle_identity_frame():
    reports = {
        r.name: r for r in check_newmpr_and_easybound(BN0, frame=Frame.identity(3))
    }
    assert reports["newmpr-simple"].lhs == 3
    assert reports["newmpr-polar"].lhs == 3
    assert reports["mprmult"].lhs == 3 and reports["mprmult"].rhs == 3
    assert reports["easybound"].holds
    lg = reports["lambda-gamma-1"]
    assert (lg.lhs, lg.rhs) == (4, 4)
    assert all(r.holds for r in reports.values())


def test_newmpr_generic_frame():
    reports = {r.name: r for r in check_newmpr_and_easybound(BN0, seed=0)}
    assert reports["lambda-gamma-1"].equality  # forced for homogeneous generic
    assert all(r.holds for r in reports.values())


def test_newmpr_skips_degenerate_frame():
    # z0 = x is tangent to the critical axis, lambda^0 never becomes proper
    (rep,) = check_newmpr_and_easybound(
        BY_NAME["cylinder"].poly, frame=Frame.identity(3)
    )
    assert rep.skipped


def test_newmpr_skips_a_frame_with_one_undefined_le_number():
    f = BY_NAME["axes"].poly
    assert lambda_numbers(f, Frame.identity(3)).lam[0] is not None
    reps = check_newmpr_and_easybound(f, frame=Frame.identity(3))
    assert [(r.skipped, r.reason) for r in reps] == [
        (True, "Le numbers undefined for this frame")
    ]


def test_newmpr_reads_mult_gamma1_at_most_once(monkeypatch, serial_trials):
    real = LeRecord.polar_mult
    calls = []

    def spy(rec, j):
        if j == 1:
            calls.append(rec)
        return real(rec, j)

    monkeypatch.setattr(LeRecord, "polar_mult", spy)
    for m in CORPUS:
        rec = generic_record(m.name, 0)
        g1 = rec.gamma1()
        calls.clear()
        check_newmpr_and_easybound(m.poly, seed=0)
        # the polar hypothesis reads it when gamma^1 is defined, easybound
        # when lambda^0 != 0
        assert len(calls) == (g1 is not None or rec.lam[0] != 0), m.name
    # gamma^1 is defined on the whole corpus; with it undefined and
    # lambda^0 = 0 (cylinder) nothing needs mult Gamma^1
    monkeypatch.setattr(LeRecord, "gamma1", lambda rec: None)
    calls.clear()
    check_newmpr_and_easybound(BY_NAME["cylinder"].poly, seed=0)
    assert calls == []


def test_teissier_check():
    (rep,) = check_teissier(BY_NAME["brieskorn"].poly, seed=0)
    assert rep.holds
    assert rep.context["profile"] == (1, 1, 2, 8)
    (rep,) = check_teissier(BN0, seed=0)
    assert rep.skipped


def test_search_dagger_runs_family():
    family = [
        {
            "template": "(x^2 - z^2 + y^2)*(x - c*z)",
            "params": {"c": [1, 2]},
            "vars": ["x", "y", "z"],
        },
        {"template": "x^2 + y^2 + c*x", "params": {"c": [1]}},
    ]
    seen = []
    res = search_dagger(family, seed=0, on_report=lambda p, r: seen.append((p, r)))
    assert len(res.reports) == 3
    assert len(seen) == 3
    assert res.counterexamples == ()
    assert all(not r.skipped for _, r in res.candidates)
    assert all(r.context["margin"] >= 0 for _, r in res.candidates)
    skips = [r for _, r in res.reports if r.skipped]
    assert any("not singular" in r.reason for r in skips)


def test_search_dagger_limit():
    family = [{"template": "x^a + y^3", "params": {"a": [2, 3, 4]}}]
    res = search_dagger(family, limit=1)
    assert len(res.reports) == 1


@pytest.mark.parametrize(
    "bad",
    [
        {"params": {"a": [2]}},
        {"template": "x^a + y^3", "params": {"a": 2}},
        {"template": 5, "params": {"a": [2]}},
        {"template": "x^a + y^3", "params": {"a": [2]}, "vars": "xy"},
    ],
    ids=["no-template", "grid-not-a-list", "template-not-a-string", "vars-a-string"],
)
def test_search_dagger_validates_every_entry_first(bad):
    seen = []
    good = {"template": "x^a + y^3", "params": {"a": [2]}}
    with pytest.raises(ValueError, match=r"^need \{'template': str"):
        search_dagger([good, bad], on_report=lambda p, r: seen.append(p))
    assert seen == []


def test_search_dagger_malformed_template():
    with pytest.raises(ValueError, match="family"):
        search_dagger([{"template": "x^2 + @", "params": {"a": [1]}}])
    with pytest.raises(ValueError, match="no variables"):
        search_dagger([{"template": "a", "params": {"a": [2]}}])
