import pytest

import lenumbers.cycles as cycles
import lenumbers.local as local
from lenumbers.checks import check_leiom, check_newmpr_and_easybound
from lenumbers.cycles import (
    generic_le,
    intersection_number,
    lambda_numbers,
    polar_mult,
    sigma_ideal,
    slice_check,
    slice_lam0,
    why_not_singular,
)
from lenumbers.groebner import Ideal, saturate
from lenumbers.local import germ_in_hyperplane
from lenumbers.poly import Frame, Polynomial, apply_frame, iomdine, parse

from _corpus import BY_NAME, CORPUS
from _oracles import (
    framed_polar_ideal,
    general_intersection_number,
    germ_subset_by_saturation,
    polar_curve_mult,
    serial_generic_le,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
TXY = ("t", "x", "y")

BN0 = parse("(x^2-z^2+y^2)*(x-z)", XYZ)
TX = parse("y^3-x^4-t^2*x^2", TXY)
UMBRELLA = parse("x^2-y^2*z", XYZ)
X2Y2 = parse("x^2*y^2", XY)
SURFACE = parse("z^2+(w^4+x^3+y^2)^2", ("w", "x", "y", "z"))


def _polar(f, frame, j):
    """Gamma^j of apply_frame(f, frame), saturated as the library saturates
    it: in whichever coordinates give the fewer terms."""
    return cycles._polar_of(cycles._partials(f, apply_frame(f, frame), frame), j)[0]


def test_bn0_identity_frame():
    rec = lambda_numbers(BN0)
    assert rec.s == 1
    assert rec.lam == (2, 3)
    assert rec.gam == (1,)
    assert slice_check(BN0, Frame.identity(3), rec) is True


def test_tx_identity_frame():
    rec = lambda_numbers(TX)
    assert rec.s == 1
    assert rec.lam == (12, 2)
    assert rec.gam == (4,)


def test_umbrella_generic():
    rec = generic_le(UMBRELLA, seed=0)
    assert rec.s == 1
    assert rec.lam == (2, 1)
    assert rec.gam == (1,)


def test_nonreduced_plane_curve():
    rec = generic_le(X2Y2, seed=0)
    assert rec.lam == (3, 2)
    assert rec.gam == (1,)
    # the identity frame is degenerate here: lambda^0 improper
    bad = lambda_numbers(X2Y2)
    assert not bad.fully_defined


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_fully_defined_is_every_lambda_and_gamma_defined(member):
    f = member.poly
    n1 = len(f.vars)
    for frame in (Frame.identity(n1), Frame.rotation(n1), Frame.random(n1, 1)):
        rec = lambda_numbers(f, frame)
        assert rec.fully_defined == (None not in rec.lam + rec.gam)


def test_generic_le_is_deterministic():
    a = generic_le(BN0, seed=3)
    cycles._LAST = (None, None)  # compute the second record from scratch
    b = generic_le(BN0, seed=3)
    assert b is not a
    assert (a.lam, a.gam, a.frame.matrix) == (b.lam, b.gam, b.frame.matrix)


def _frame_runs(monkeypatch) -> list:
    """The frames of every cycles._lambda_trials call from here on."""
    runs = []
    trials = cycles._lambda_trials

    def spy(f, frames, s):
        runs.append(frames)
        return trials(f, frames, s)

    monkeypatch.setattr(cycles, "_lambda_trials", spy)
    return runs


def test_a_repeated_request_returns_the_same_record(monkeypatch, serial_trials):
    runs = _frame_runs(monkeypatch)
    rec = generic_le(BN0, seed=1)
    assert runs
    runs.clear()
    assert generic_le(BN0, 1) is rec
    assert generic_le(BN0, 1, 3, 10) is rec
    assert generic_le(BN0, seed=1, trials=3, bound=10) is rec
    assert generic_le(f=BN0, bound=10, seed=1) is rec
    assert runs == []


@pytest.mark.parametrize(
    "first, then",
    [
        ((BN0, 1), (BN0, 2)),
        ((BN0, 1), (BN0, 1, 2)),
        ((BN0, 1), (BN0, 1, 3, 20)),
        ((X2Y2, 0), (parse("x^2*y^2", XYZ), 0)),
        ((X2Y2, 0), (parse("u^2*v^2", ("u", "v")), 0)),
    ],
    ids=["seed", "trials", "bound", "vars", "names"],
)
def test_another_request_computes_anew(first, then, monkeypatch, serial_trials):
    runs = _frame_runs(monkeypatch)
    rec = generic_le(*first)
    runs.clear()
    other = generic_le(*then)
    assert runs and other is not rec
    assert other.h.vars == then[0].vars
    assert repr(other) == repr(serial_generic_le(*then))


def test_a_germ_in_between_replaces_the_record(monkeypatch, serial_trials):
    runs = _frame_runs(monkeypatch)
    rec = generic_le(BN0, seed=1)
    generic_le(UMBRELLA, seed=1)
    runs.clear()
    again = generic_le(BN0, seed=1)
    assert runs and again is not rec
    assert repr(again) == repr(rec)


def test_undefined_keeps_the_record(monkeypatch, serial_trials):
    rec = generic_le(BN0, seed=1)
    bad = lambda_numbers(X2Y2)
    assert not bad.fully_defined
    monkeypatch.setattr(cycles, "_lambda_trials", lambda f, frames, s: [bad] * len(frames))
    with pytest.raises(cycles.Undefined):
        generic_le(X2Y2, seed=1)
    runs = _frame_runs(monkeypatch)
    assert generic_le(BN0, seed=1) is rec
    assert runs == []


def test_bad_trials_raise_whatever_the_record_kept(serial_trials):
    rec = generic_le(BN0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        generic_le(BN0, seed=1, trials=0)
    # even a record kept under the very same request is not returned
    cycles._LAST = ((BN0, 1, 0, 10), rec)
    with pytest.raises(ValueError, match="trials"):
        generic_le(BN0, seed=1, trials=0)


def test_validation_rejects_non_critical_input():
    with pytest.raises(ValueError):
        lambda_numbers(parse("0", XY))
    with pytest.raises(ValueError):
        lambda_numbers(parse("x", XY))
    with pytest.raises(ValueError):
        lambda_numbers(parse("1+x^2", XY))


def test_sigma_ideal_dimension_drives_s():
    assert lambda_numbers(parse("x^2+y^2", XY)).s == 0
    assert lambda_numbers(parse("y^2+z^2", XYZ)).s == 1


def test_polar_curve_of_bn0():
    P = framed_polar_ideal(BN0, Frame.identity(3), 1)
    assert sorted(str(p) for p in P.groebner().elements) == ["x + 3*z", "y"]
    assert polar_curve_mult(BN0, Frame.identity(3)) == 1
    assert polar_curve_mult(TX, Frame.identity(3)) == 4
    assert polar_mult(TX, Frame.identity(3), 2) == 2


def test_intersection_number_is_local_colength():
    Z = Ideal((), vars=XY)
    assert general_intersection_number(Z, [parse("x", XY), parse("y-x^2", XY)]) == 1
    assert general_intersection_number(Z, [parse("y-x^2", XY), parse("y+x^2", XY)]) == 2


def test_intersection_number_ignores_points_away_from_origin():
    # the parabola and the line also meet at (1, 1)
    Z = Ideal((), vars=XY)
    assert general_intersection_number(Z, [parse("y-x^2", XY), parse("y-x", XY)]) == 1


def test_intersection_number_improper_is_none():
    P = framed_polar_ideal(BN0, Frame.identity(3), 1)
    # y vanishes on the polar curve, so the intersection is improper
    for form, want in ((parse("y", XYZ), None), (parse("x", XYZ), 1)):
        assert general_intersection_number(P, [form]) == want
        assert intersection_number(P, form) == want


def test_intersection_number_curve_stage_of_dimension_two_is_none():
    # V(xy) cut by x = 0 leaves the whole (y, z)-plane: no curve to cut
    I = Ideal([parse("x*y", XYZ)], vars=XYZ)
    assert general_intersection_number(I, [parse("x", XYZ), parse("y", XYZ)]) is None
    # and one slice of a plane is a line, not a point: no count
    YZ = ("y", "z")
    assert intersection_number(Ideal((), vars=YZ), parse("y", YZ)) is None


def test_intersection_number_saturated_curve_missing_the_origin_is_zero():
    # z = 0 cuts V(x(x-1), y(x-1)) in the line x = 1 and the origin; the
    # saturation drops the origin, so nothing is left to count there
    I = Ideal([parse("x*(x-1)", XYZ), parse("y*(x-1)", XYZ)], vars=XYZ)
    assert general_intersection_number(I, [parse("z", XYZ), parse("y", XYZ)]) == 0
    # a curve that never passes through the origin
    I = Ideal([parse("x-1", XYZ)], vars=XYZ)
    assert general_intersection_number(I, [parse("y", XYZ), parse("z", XYZ)]) == 0


def test_intersection_number_of_a_zero_or_unit_form():
    P = framed_polar_ideal(BN0, Frame.identity(3), 1)
    assert intersection_number(P, Polynomial.zero(XYZ)) is None
    assert intersection_number(P, parse("1+x", XYZ)) == 0


def test_slice_cross_check():
    for f in (BN0, TX):
        assert slice_check(f, Frame.identity(3), lambda_numbers(f)) is True


def test_mpr_bounds():
    for f, bounds in ((BN0, (3, 3, 3)), (TX, (3, 13, 10))):
        for rep in check_newmpr_and_easybound(f, frame=Frame.identity(3)):
            ctx = rep.context
            assert (ctx["lower"], ctx["upper_simple"], ctx["upper_polar"]) == bounds


def test_germ_in_hyperplane_sees_through_units():
    # V(x + x^2) is the line x = 0 and, away from the origin, x = -1
    assert germ_in_hyperplane(Ideal([parse("x+x^2", XY)], vars=XY), 0)
    J = Ideal([parse("x", XY)], vars=XY)
    assert germ_in_hyperplane(J, 0)
    assert not germ_in_hyperplane(J, 1)


def test_germ_in_hyperplane_with_components_away_from_the_origin():
    def ideal(*texts):
        return Ideal([parse(t, XY) for t in texts], vars=XY)

    # each ideal with whether its germ lies in V(x), then in V(y)
    cases = [
        # the line x = 0 and, away from the origin, the line y = 1
        (ideal("x*(y-1)"), (True, False)),
        # the line x = 0; x is not in the ideal
        (ideal("x*(y-2)", "x*(y+3)"), (True, False)),
        # the two points (0, 0) and (0, 1)
        (ideal("x", "y*(y-1)"), (True, True)),
        # the origin and the line x = 1
        (ideal("x*(x-1)", "y*(x-1)"), (True, True)),
        (ideal("x+y", "y^2"), (True, True)),
        (ideal("y*(x-1)"), (False, True)),
    ]
    for A, want in cases:
        for i in (0, 1):
            x_i = Ideal([Polynomial.var_index(i, XY)], vars=XY)
            got = germ_in_hyperplane(A, i)
            assert got is want[i] == germ_subset_by_saturation(A, x_i), (A, i)


def test_germ_in_hyperplane_builds_no_basis_of_its_ideal():
    # x_i in the ideal, in it only near the origin, and not at all, in two
    # and three variables; the verdicts against the saturation oracle
    cases = [Ideal([parse(t, XY) for t in ts], vars=XY) for ts in (
        ("x",), ("x", "y^3"), ("x*y", "x^2"), ("x+x^2",), ("x*(y-1)",), ("y^2-x^3",),
    )]
    cases += [sigma_ideal(BN0), sigma_ideal(TX), Ideal([parse("y", XYZ)], vars=XYZ)]
    for A in cases:
        for i in range(len(A.vars)):
            x_i = Ideal([Polynomial.var_index(i, A.vars)], vars=A.vars)
            fresh = Ideal(A.gens, vars=A.vars)
            assert germ_in_hyperplane(fresh, i) is germ_subset_by_saturation(A, x_i), (A, i)
            assert fresh._cache == {}, (A, i)


def test_polar_mult_reads_one_hilbert_series(monkeypatch):
    rec = lambda_numbers(TX, Frame.identity(3))
    calls = []
    hilbert = local._hilbert

    def counting(basis):
        calls.append(basis)
        return hilbert(basis)

    monkeypatch.setattr(local, "_hilbert", counting)
    for j, want in ((1, 4), (2, 2)):
        calls.clear()
        assert rec.polar_mult(j) == want
        assert len(calls) == 1, j


def test_sigma_ideal_gens_are_the_partials():
    S = sigma_ideal(parse("x^2+y^3", XY))
    assert sorted(str(g) for g in S.gens) == ["2*x", "3*y^2"]


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_le_record_carries_its_germ_and_polar_varieties(member):
    f = member.poly
    n1 = len(f.vars)
    for frame in (Frame.identity(n1), Frame.rotation(n1), Frame.random(n1, 1)):
        rec = lambda_numbers(f, frame)
        assert rec.h == apply_frame(f, frame)
        assert len(rec.polar) == rec.s + 1
        for j in range(1, rec.s + 2):
            # None on both routes when Gamma^j is not j-dimensional
            assert rec.polar_mult(j) == polar_mult(f, frame, j), (frame, j)
        z0 = Polynomial.var_index(0, f.vars)
        assert rec.gamma1() == intersection_number(_polar(f, frame, 1), z0)


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_gamma1_counts_in_the_source_coordinates_match_the_frame(member):
    # Gamma^1 saturated in f's own coordinates, where z0 is the form of frame
    # row 0 and dh/dz0 is source[0], against Gamma^1 in the frame, sliced
    # from its generators: gamma^1 = Gamma^1 . V(z0) and the j = 0 total
    # Gamma^1 . V(dh/dz0)
    f = member.poly
    vars = f.vars
    n1 = len(vars)
    z0 = Polynomial.var_index(0, vars)
    for frame in (Frame.identity(n1), Frame.rotation(n1), Frame.random(n1, 1)):
        parts = cycles._partials(f, apply_frame(f, frame), frame)
        src = saturate(Ideal(parts.source[1:], vars=vars), Ideal(parts.source[:1], vars=vars))
        row0 = sum(
            (Polynomial.var_index(k, vars) * c for k, c in enumerate(frame.matrix[0])),
            Polynomial.zero(vars),
        )
        P = Ideal(_polar(f, frame, 1).gens, vars=vars)
        assert intersection_number(src, row0) == intersection_number(P, z0), frame
        dz0 = parts.framed[0]
        assert intersection_number(src, parts.source[0]) == intersection_number(P, dz0), frame


def _three_frames(n1):
    return (Frame.identity(n1), Frame.rotation(n1), Frame.random(n1, 1))


@pytest.mark.parametrize(
    "f", [m.poly for m in CORPUS] + [SURFACE], ids=[m.name for m in CORPUS] + ["surface"]
)
def test_the_cycle_walk_saturates_each_curve_once(f, monkeypatch, serial_trials):
    # C_j = Gamma^{j+1} . V(z_0, ..., z_{j-1}) gives gamma^{j+1} and
    # lambda^j + gamma^j, and is saturated by the maximal ideal once, for
    # j = 1..s, C_s only when it can give lambda^s.  The polar saturations
    # are left out: in a frame where dh/dz_j is zero, Gamma^j and
    # Gamma^{j+1} are the same saturation.
    cuts = []
    saturate_ = cycles.saturate

    def recording(I, J):
        if J.gens == cycles._max_ideal(J.vars).gens:
            cuts.append((I.vars, I.gens))
        return saturate_(I, J)

    monkeypatch.setattr(cycles, "saturate", recording)
    for frame in _three_frames(len(f.vars)):
        cuts.clear()
        rec = lambda_numbers(f, frame)
        assert len(set(cuts)) == len(cuts) <= rec.s, frame
        if rec.lam[rec.s] is not None:
            assert len(cuts) == rec.s, frame


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_the_cycle_walk_matches_the_general_route(member):
    # gamma^{j+1} = Gamma^{j+1} . V(z_0, ..., z_j) and lambda^j + gamma^j =
    # Gamma^{j+1} . V(z_0, ..., z_{j-1}, dh/dz_j), each counted by the
    # oracle on Gamma^{j+1}
    f = member.poly
    n1 = len(f.vars)
    z = [Polynomial.var_index(i, f.vars) for i in range(n1)]
    for frame in _three_frames(n1):
        rec = lambda_numbers(f, frame)
        h = apply_frame(f, frame)
        gam = [0]
        for j in range(rec.s + 1):
            P = _polar(f, frame, j + 1)
            if j < rec.s:
                gam.append(general_intersection_number(P, z[: j + 1]))
            total = general_intersection_number(P, z[:j] + [h.partial(j)])
            if total is None or gam[j] is None or total < gam[j]:
                assert rec.lam[j] is None, (frame, j)
            else:
                assert rec.lam[j] == total - gam[j], (frame, j)
        assert rec.gam == tuple(gam[1:]), frame


def test_le_record_repr_and_equality_leave_out_the_germ():
    frame = Frame.random(3, 1)
    rec = lambda_numbers(BN0, frame)
    assert "h=" not in repr(rec) and "polar=" not in repr(rec)
    assert lambda_numbers(BN0, frame) == rec


def test_newmpr_saturates_no_polar_variety(monkeypatch, serial_trials):
    # an s = 0 plane curve: the Le recursion keeps its principal Gamma^1 as it
    # is, and the checker reads gamma^1 and mult Gamma^1 off that ideal
    polar = []
    saturate = cycles.saturate

    def counting(I, J):
        if not all(len(g.terms) == 1 and sum(next(iter(g.terms))) == 1 for g in J.gens):
            polar.append(J)
        return saturate(I, J)

    monkeypatch.setattr(cycles, "saturate", counting)
    reports = check_newmpr_and_easybound(parse("x^2+y^3", XY), seed=0)
    assert "easybound" in [r.name for r in reports]
    assert polar == []


def test_checkers_read_the_polar_varieties_off_the_record(monkeypatch, serial_trials):
    def refuse(*args):
        raise AssertionError("polar variety rebuilt")

    monkeypatch.setattr(cycles, "polar_mult", refuse)
    reports = check_newmpr_and_easybound(BN0, frame=Frame.identity(3))
    assert {"easybound", "lambda-gamma-1"} <= {r.name for r in reports}
    reports = check_leiom(BN0, m=2, seed=0)
    assert reports and not any(r.skipped for r in reports)


def test_slice_check_refuses_a_record_from_another_frame():
    rec = lambda_numbers(BN0, Frame.identity(3))
    with pytest.raises(ValueError):
        slice_check(BN0, Frame.random(3, 1), rec)
    # the same coordinates under another seed are the same frame
    assert slice_check(BN0, Frame(Frame.identity(3).matrix, seed=5), rec) is True
    assert slice_check(BN0, Frame.identity(3), rec) is True


def test_le_iomdine_transform_of_the_surface():
    # the surface in its generic frame plus z0^m, m = 3: the shift identity
    # lambda^1 = (m - 1)*lambda^2_h and the bound lambda^0 <= lambda^0_h +
    # (m - 1)*lambda^1_h
    rec = generic_le(SURFACE, seed=0)
    assert rec.lam == (14, 3, 2)
    g, gframe = iomdine(rec.h, 3, 1)
    t = lambda_numbers(g, gframe, s=1)
    assert (t.lam, t.gam) == ((10, 4), (2,))
    assert t.lam[1] == (3 - 1) * rec.lam[2] == 4
    assert t.lam[0] <= rec.lam[0] + (3 - 1) * rec.lam[1] == 20


def _same_polar_ideals(f, frame):
    for j in range(1, len(f.vars) + 1):
        got = _polar(f, frame, j)
        want = framed_polar_ideal(f, frame, j)
        assert set(got.groebner().elements) == set(want.groebner().elements), j


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_polar_ideal_matches_saturation_in_the_frame(member):
    f = member.poly
    n1 = len(f.vars)
    for frame in (Frame.identity(n1), Frame.rotation(n1), Frame.random(n1, 1)):
        _same_polar_ideals(f, frame)


def test_polar_ideal_of_the_surface_matches_saturation_in_the_frame():
    _same_polar_ideals(SURFACE, Frame.random(4, 0))


def _saturated_by_polar_of(monkeypatch, f, frame):
    """(I, J) of every saturation _polar_of asks for, over j = 1..n."""
    calls = []
    saturate = cycles.saturate

    def recording(I, J):
        calls.append((I, J))
        return saturate(I, J)

    monkeypatch.setattr(cycles, "saturate", recording)
    for j in range(1, len(f.vars)):
        _polar(f, frame, j)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "name, frame",
    [("planes", Frame.rotation(3)), ("q4", Frame.identity(4)), ("cuspsheet", Frame.rotation(4))],
)
def test_lambda_numbers_saturates_each_pair_once(monkeypatch, name, frame):
    # each of these frames makes a partial dh/dz_j, j >= 1, identically
    # zero, so Gamma^j and Gamma^{j+1} are one saturation
    f = BY_NAME[name].poly
    pairs = []
    saturate = cycles.saturate

    def recording(I, J):
        pairs.append((I.gens, J.gens))
        return saturate(I, J)

    assert any(apply_frame(f, frame).partial(j).is_zero for j in range(1, len(f.vars)))
    monkeypatch.setattr(cycles, "saturate", recording)
    rec = lambda_numbers(f, frame)
    monkeypatch.undo()
    assert pairs and len(set(pairs)) == len(pairs)
    want = lambda_numbers(f, frame)
    assert [P.gens for P in rec.polar] == [P.gens for P in want.polar]


def test_polar_saturation_runs_on_the_sparse_partials(monkeypatch):
    # the surface has 7 terms, its reframed h has hundreds: every generator
    # handed to saturate is a combination of the partials of f, no larger
    # than all of them together
    frame = Frame.random(4, 0)
    calls = _saturated_by_polar_of(monkeypatch, SURFACE, frame)
    budget = sum(len(SURFACE.partial(k).terms) for k in range(4))
    h = apply_frame(SURFACE, frame)
    assert all(len(h.partial(i).terms) > budget for i in range(4))
    assert len(calls) == 3
    for I, J in calls:
        assert all(len(g.terms) <= budget for g in I.gens + J.gens)


def test_polar_saturation_under_a_permutation_runs_on_the_framed_partials(monkeypatch):
    frame = Frame.rotation(3)
    h = apply_frame(BN0, frame)
    calls = _saturated_by_polar_of(monkeypatch, BN0, frame)
    assert len(calls) == 2
    for j, (I, J) in enumerate(calls, start=1):
        assert I.gens == Ideal([h.partial(i) for i in range(j, 3)], vars=XYZ).gens
        assert J.gens == Ideal([h.partial(i) for i in range(j)], vars=XYZ).gens


@pytest.mark.parametrize(
    "f", [m.poly for m in CORPUS] + [SURFACE], ids=[m.name for m in CORPUS] + ["surface"]
)
def test_slice_lam0_is_lambda0_of_the_full_walk(f, monkeypatch):
    # every kind of None is met: a slice that is not singular at the origin
    # (x2y2 under the identity: h0 = 0), dh0/dz0 = 0 (axes under the
    # identity: h0 = z^4) and an improper intersection (cuspsheet)
    n1 = len(f.vars)
    for frame in (*_three_frames(n1), Frame.random(n1, 0), Frame.random(n1, 2)):
        h = apply_frame(f, frame)
        h0 = h.set_var_zero(0)
        singular = why_not_singular(h0) is None
        want = lambda_numbers(h0).lam[0] if singular else None
        counted, dims = [], []
        with monkeypatch.context() as m:
            count = cycles.intersection_number
            m.setattr(cycles, "intersection_number", lambda C, g: counted.append(g) or count(C, g))
            m.setattr(cycles, "local_dim", lambda I: dims.append(I))
            assert slice_lam0(h) == want, frame
        assert dims == []
        assert len(counted) == int(singular)
