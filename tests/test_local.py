import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenumbers.cycles as cycles
import lenumbers.local as local
from lenumbers.cycles import lambda_numbers, sigma_ideal
from lenumbers.groebner import Basis, Ideal, _to_int
from lenumbers.local import (
    _ladder_quotient_dim,
    _minimalize,
    hilbert_numerator,
    hs_multiplicity,
    lazard_local_dim,
    local_dim,
    local_quotient_dim,
    local_standard_basis,
    truncated_quotient_dim,
)
from lenumbers.orders import GREVLEX, LOCAL
from lenumbers.poly import Frame, Polynomial, iomdine, parse, restrict

from _corpus import CORPUS
from _oracles import (
    _standard_basis_ints,
    dim,
    local_leading_monomials,
    m_primary_colength,
    mora_normal_form,
    mora_quotient_dim,
    standard_monomial_count,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def I(*texts, vars=XY):
    return Ideal([parse(t, vars) for t in texts], vars=vars)


def _count_lazard(monkeypatch) -> list:
    """Every ideal handed to local_standard_basis from now on."""
    calls = []
    standard_basis = local.local_standard_basis

    def counting(I):
        calls.append(I)
        return standard_basis(I)

    monkeypatch.setattr(local, "local_standard_basis", counting)
    return calls


def test_local_dim_basics(monkeypatch):
    lazard = _count_lazard(monkeypatch)
    assert local_dim(I("x", "y")) == 0
    assert local_dim(I("x*y")) == 1
    assert local_dim(I("x^2", "x*y")) == 1
    # a curve elsewhere, the line x = 1; the origin is an isolated point
    assert local_dim(I("x*(x-1)", "y*(x-1)")) == 0
    assert local_dim(Ideal((), vars=("x",))) == 1
    # not through the origin
    assert local_dim(I("x-1")) == -1
    assert lazard == []
    # a surface, and the whole plane: the Lazard route
    assert local_dim(I("x*y", vars=XYZ)) == 2
    assert local_dim(Ideal((), vars=XY)) == 2
    assert len(lazard) == 2


def _corpus_ideals():
    """sigma_ideal of every corpus member, of its restrictions to linear
    subspaces and of its Le-Iomdine transforms."""
    for m in CORPUS:
        f = m.poly
        polys = [restrict(f, k) for k in range(1, len(f.vars) + 1)]
        polys += [iomdine(f, p, a)[0] for p in (2, 3) for a in (1, -1)]
        for p in polys:
            if any(sum(e) for e in p.terms):
                yield m.name, sigma_ideal(p)


def test_local_dim_agrees_with_lazard_on_the_corpus():
    for name, J in _corpus_ideals():
        assert local_dim(J) == lazard_local_dim(J), name


def test_local_dim_of_surface_slices_builds_no_standard_basis(monkeypatch):
    # the critical locus of the surface is 2-dimensional: a general 3-space
    # cuts it in a curve, a general plane in the origin
    surface = parse("z^2+(w^4+x^3+y^2)^2", ("w", "x", "y", "z"))
    lazard = _count_lazard(monkeypatch)
    for k, want in ((3, 1), (2, 0)):
        assert local_dim(sigma_ideal(restrict(surface, k, seed=11 * k))) == want
    assert lazard == []


_SMALL = st.integers(-2, 2)


@st.composite
def _component(draw, vars):
    """(generators, dimension, through the origin) of one irreducible
    variety: a fat point, a curve that is a graph over the first
    coordinate, or in three variables a surface that is a graph over the
    first two, each through a point p that is often the origin."""
    n = len(vars)
    xs = [Polynomial.var_index(i, vars) for i in range(n)]
    p = tuple(draw(_SMALL) for _ in range(n)) if draw(st.booleans()) else (0,) * n
    u = [x - Polynomial.constant(c, vars) for x, c in zip(xs, p)]
    kind = draw(st.sampled_from((0, 1, 2) if n == 3 else (0, 1)))
    if kind == 0:
        gens = [ui ** draw(st.integers(1, 2)) for ui in u]
    else:
        gens = [
            u[i] - u[0] ** draw(st.integers(1, 2)) * draw(_SMALL)
            - (u[1] * u[0] * draw(_SMALL) if kind == 2 else Polynomial.zero(vars))
            for i in range(kind, n)
        ]
    return gens, kind, all(g.constant_term == 0 for g in gens)


@st.composite
def _mixed_ideal(draw):
    """The product of the ideals of one to three components, in two or three
    variables, with the dimension of its germ at the origin (-1 when no
    component passes through it)."""
    vars = draw(st.sampled_from((XY, XYZ)))
    comps = draw(st.lists(_component(vars), min_size=1, max_size=3))
    K = Ideal([Polynomial.constant(1, vars)], vars=vars)
    for gens, _, _ in comps:
        K = Ideal([a * b for a in K.gens for b in gens], vars=vars)
        K = Ideal(K.groebner().elements, vars=vars)
    return K, max((d for _, d, at0 in comps if at0), default=-1)


@settings(max_examples=100, deadline=None)
@given(_mixed_ideal())
def test_local_dim_agrees_with_lazard_on_mixed_ideals(case):
    K, want = case
    assert local_dim(K) == lazard_local_dim(K) == want


def test_quotient_dim_monomial():
    J = I("x^2", "x*y", "y^3")
    assert local_quotient_dim(J) == 4
    assert mora_quotient_dim(J) == 4
    assert m_primary_colength(J) == 4
    assert standard_monomial_count([(2, 0), (1, 1), (0, 3)], 2) == 4


def test_quotient_dim_infinite_is_none():
    assert local_quotient_dim(I("x")) is None
    assert mora_quotient_dim(I("x")) is None


def test_quotient_dim_ignores_components_away_from_origin():
    # the extra factor 1+x is a unit locally and a second point globally
    J = I("(1+x)*x^2", "y^2")
    assert local_quotient_dim(J) == 4
    assert mora_quotient_dim(J) == 4
    assert m_primary_colength(J) == 4


def test_milnor_algebra_of_a_cusp():
    J = I("2*x", "3*y^2")
    assert local_quotient_dim(J) == 2
    assert hs_multiplicity(I("y^2-x^3"), 1) == 2


def test_hs_multiplicity_of_smooth_curve_is_one():
    assert hs_multiplicity(I("y-x^2"), 1) == 1


def test_hs_multiplicity_reads_the_dimension_off_the_same_series():
    # off the origin, then a curve asked for as a point and as a surface
    assert hs_multiplicity(I("y-1"), 1) == 0
    assert hs_multiplicity(I("y^2-x^3"), 0) is None
    assert hs_multiplicity(I("y^2-x^3", vars=XYZ), 1) is None
    assert hs_multiplicity(I("y^2-x^3", vars=XYZ), 2) == 2
    assert hs_multiplicity(I("x^2", "y^3"), 0) == 6


def test_local_membership_divides_by_units():
    # x generates the same local ideal as x + x^2
    B = local_standard_basis(I("x+x^2"))
    assert mora_normal_form(parse("x", XY), B).is_zero
    assert not mora_normal_form(parse("y", XY), B).is_zero


def test_hilbert_numerator_unit_ideal():
    assert sum(hilbert_numerator([(0, 0)], 2)) == 0


def test_hilbert_numerator_of_a_large_exponent():
    N = hilbert_numerator([(1200, 1), (0, 2), (1201, 0)], 2)
    # 1 - T^2 - 2*T^1201 + 2*T^1202, by inclusion-exclusion over the lcms
    assert N[:3] == (1, 0, -1) and N[1201:] == (-2, 2)
    assert not any(N[3:1201])


def test_colength_agrees_with_the_staircase_count():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        # a pure power of every variable makes the ideal zero-dimensional
        lms = [tuple(rng.randint(1, 6) if i == k else 0 for i in range(n)) for k in range(n)]
        lms += [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        lms = [e for e in lms if any(e)]
        vars = tuple(f"x{i}" for i in range(n))
        gens = [Polynomial(vars, {e: 1}) for e in lms]
        basis = Ideal(gens, vars=vars).groebner(GREVLEX)
        assert local._colength(basis) == standard_monomial_count(lms, n), lms


def test_standard_monomial_count_infinite():
    assert standard_monomial_count([(1, 1)], 2) is None


def _random_local_ideal(seed, vars=XY, ngens=2):
    rng = random.Random(seed)
    gens = []
    while len(gens) < ngens:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in vars)
            if sum(e) == 0:
                continue
            terms[e] = Fraction(rng.randint(-4, 4))
        p = Polynomial(vars, terms)
        if not p.is_zero:
            gens.append(p)
    return Ideal(gens, vars=vars)


@pytest.mark.parametrize("seed", range(10))
def test_mora_and_homogenization_engines_agree(seed):
    # two independent standard basis engines must give the same leading ideal
    J = _random_local_ideal(seed)
    keyf = LOCAL.key(2)
    mora = _standard_basis_ints([_to_int(g) for g in J.gens], keyf)
    lead_mora = _minimalize(frozenset(max(d, key=keyf) for d in mora))
    lead_laz = _minimalize(frozenset(local_leading_monomials(J)))
    assert lead_mora == lead_laz


@pytest.mark.parametrize("seed", range(6))
def test_counting_routes_agree_on_random_ideals(seed):
    J = _random_local_ideal(seed + 50, vars=XY, ngens=3)
    d = local_quotient_dim(J)
    assert mora_quotient_dim(J) == d
    if d is not None:
        assert m_primary_colength(J) == d


def test_truncated_route_branches():
    # origin-only support: every variable is nilpotent, the answer is N
    assert truncated_quotient_dim(I("x^2", "x*y", "y^3")) == 4
    # V = {(0,0), (-1,0)}: total colength 6, the point at x = -1 takes 2
    assert truncated_quotient_dim(I("(1+x)*x^2", "y^2")) == 4
    assert truncated_quotient_dim(I("x-1", "y")) == 0
    assert truncated_quotient_dim(I("1")) == 0


def test_truncated_route_refuses_positive_dimensional_ideals():
    assert truncated_quotient_dim(I("x")) is None
    # finite at the origin, but the line y = 1 is a component elsewhere
    J = I("x*(y-1)", "y*(y-1)")
    assert local_quotient_dim(J) == 1
    assert truncated_quotient_dim(J) is None


@pytest.mark.parametrize("seed", range(12))
def test_truncated_route_agrees_with_lazard(seed):
    J = _random_local_ideal(seed + 100, vars=XY, ngens=3)
    # a factor that is a unit at the origin adds points elsewhere
    unit = parse("1+x-2*y", XY)
    K = Ideal([J.gens[0] * unit, *J.gens[1:]], vars=XY)
    for ideal in (J, K):
        d = truncated_quotient_dim(ideal)
        assert (d is None) == (dim(ideal) > 0)
        if d is not None:
            assert d == local_quotient_dim(ideal)


# -- the saturation route against Lazard and Mora, with points elsewhere ------

_COORD = st.integers(-3, 3)
_POINT = st.tuples(_COORD, _COORD).filter(any)


@st.composite
def _points_away_from_origin(draw):
    """A few points p != 0 of the plane; some on V(x), where the first rung
    of the ladder vanishes, and some in pairs p, -p."""
    pts = draw(st.lists(_POINT, max_size=2))
    if draw(st.booleans()):
        pts.append((0, draw(st.sampled_from([-2, -1, 1, 2]))))
    if pts and draw(st.booleans()):
        pts.append(tuple(-c for c in pts[0]))
    return list(dict.fromkeys(pts))


@st.composite
def _germ_at_origin(draw):
    """Two generators x^a + c*m, y^b + d*m' with m, m' monomials; the
    perturbations may add points of their own away from the origin."""
    gens = []
    for i in range(2):
        e = tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(2))
        m = tuple(draw(st.integers(0, 2)) for _ in range(2))
        c = draw(st.integers(-2, 2))
        terms = {e: Fraction(1)}
        if sum(m) and m != e:
            terms[m] = Fraction(c)
        gens.append(Polynomial(XY, {k: v for k, v in terms.items() if v}))
    return gens


def _vanishing_at(points, with_origin_germ):
    """The ideal of the germ (or the unit ideal) times the maximal ideals of
    the points, the first of them squared."""
    K = Ideal(with_origin_germ or [Polynomial.constant(1, XY)], vars=XY)
    for k, (a, b) in enumerate(points):
        mp = Ideal([parse(f"x-({a})", XY), parse(f"y-({b})", XY)], vars=XY)
        for _ in range(2 if k == 0 else 1):
            K = Ideal([g * h for g in K.gens for h in mp.gens], vars=XY)
            K = Ideal(K.groebner().elements, vars=XY)
    return K


@settings(max_examples=40, deadline=None)
@given(_points_away_from_origin(), st.one_of(st.just([]), _germ_at_origin()))
def test_saturation_route_agrees_with_lazard_and_mora(points, germ):
    K = _vanishing_at(points, germ)
    d = truncated_quotient_dim(K)
    assert (d is None) == (dim(K) > 0)
    if d is not None:
        # the points' factors are units at the origin, so K and the germ (or
        # the unit ideal) have the same local algebra there; Mora's swell
        # on K's generators can take minutes
        at_origin = Ideal(germ or [Polynomial.constant(1, XY)], vars=XY)
        assert d == local_quotient_dim(K) == mora_quotient_dim(at_origin)
        if not germ:
            assert d == 0


def test_saturation_route_walks_past_forms_with_other_zeros():
    # x, y and x + y each vanish at one of the other points; x + 2y is the
    # first form of the ladder that vanishes only at the origin
    germ = [parse("x^2", XY), parse("y^3", XY)]
    K = _vanishing_at([(0, 1), (1, 0), (1, -1)], germ)
    assert truncated_quotient_dim(K) == 6 == local_quotient_dim(K)
    # three variables, with a pair of points symmetric about the origin on V(x)
    J = I("x^2-y*z", "y^2", "z^3", vars=XYZ)
    p = [parse(t, XYZ) for t in ("x", "y-1", "z+1")]
    q = [parse(t, XYZ) for t in ("x", "y+1", "z-1")]
    K = Ideal([a * b * c for a in J.gens for b in p for c in q], vars=XYZ)
    assert truncated_quotient_dim(K) == local_quotient_dim(J) == local_quotient_dim(K)


# -- the ladder, which the public route takes only above _SHORTCUT_MAX -------


def _count_saturations(monkeypatch) -> list:
    """Every (ideal, form) the colength count saturates from now on."""
    calls = []
    saturate = local._saturate_principal

    def counting(K, g):
        calls.append((K, g))
        return saturate(K, g)

    monkeypatch.setattr(local, "_saturate_principal", counting)
    return calls


def test_ladder_branches():
    assert _ladder_quotient_dim(I("x^2", "x*y", "y^3")) == 4
    assert _ladder_quotient_dim(I("(1+x)*x^2", "y^2")) == 4
    assert _ladder_quotient_dim(I("x-1", "y")) == 0
    assert _ladder_quotient_dim(I("1")) == 0


@settings(max_examples=40, deadline=None)
@given(_points_away_from_origin(), st.one_of(st.just([]), _germ_at_origin()))
def test_ladder_agrees_with_lazard_and_mora(points, germ):
    K = _vanishing_at(points, germ)
    if dim(K) > 0:
        return
    d = _ladder_quotient_dim(K)
    at_origin = Ideal(germ or [Polynomial.constant(1, XY)], vars=XY)
    assert d == local_quotient_dim(K) == mora_quotient_dim(at_origin)
    if not germ:
        assert d == 0


def test_ladder_walks_past_forms_with_other_zeros(monkeypatch):
    saturations = _count_saturations(monkeypatch)
    germ = [parse("x^2", XY), parse("y^3", XY)]
    K = _vanishing_at([(0, 1), (1, 0), (1, -1)], germ)
    assert _ladder_quotient_dim(K) == 6 == local_quotient_dim(K)
    # x, y and x + y fail the certificate; x + 2y is saturated by
    assert [g for _, g in saturations] == [parse("x+2*y", XY)]
    J = I("x^2-y*z", "y^2", "z^3", vars=XYZ)
    p = [parse(t, XYZ) for t in ("x", "y-1", "z+1")]
    q = [parse(t, XYZ) for t in ("x", "y+1", "z-1")]
    K = Ideal([a * b * c for a in J.gens for b in p for c in q], vars=XYZ)
    assert _ladder_quotient_dim(K) == local_quotient_dim(J) == local_quotient_dim(K)


def test_public_route_takes_the_ladder_above_the_shortcut(monkeypatch):
    # the germ (x^5, y^4) alone has colength 20 > _SHORTCUT_MAX
    saturations = _count_saturations(monkeypatch)
    germ = [parse("x^5", XY), parse("y^4", XY)]
    K = _vanishing_at([(0, 1), (1, 0), (1, -1)], germ)
    assert local_quotient_dim(Ideal(germ, vars=XY)) == 20 > local._SHORTCUT_MAX
    assert truncated_quotient_dim(K) == 20 == local_quotient_dim(K)
    assert len(saturations) == 1
    assert _ladder_quotient_dim(K) == 20


def test_small_ideal_with_another_point_takes_one_lazard_basis(monkeypatch):
    saturations = _count_saturations(monkeypatch)
    lazard = _count_lazard(monkeypatch)
    K = I("(1+x)*x^2", "y^2")
    assert truncated_quotient_dim(K) == 4
    assert saturations == []
    assert lazard == [K]


def test_small_origin_only_ideal_takes_one_lazard_basis_and_no_power_test(monkeypatch):
    saturations = _count_saturations(monkeypatch)
    lazard = _count_lazard(monkeypatch)
    reduced = []
    contains = Basis.contains

    def recording(basis, p):
        reduced.append(p)
        return contains(basis, p)

    monkeypatch.setattr(Basis, "contains", recording)
    # N = 4, and N = 16 = _SHORTCUT_MAX
    for K, N in ((I("x^2", "x*y", "y^3"), 4), (I("x^4", "y^4"), 16)):
        lazard.clear()
        assert truncated_quotient_dim(K) == N <= local._SHORTCUT_MAX
        assert lazard == [K]
    assert reduced == [] and saturations == []


def _corpus_final_ideals(monkeypatch) -> dict:
    """Every final ideal K that intersection_number counts for the corpus
    under Frame.random(n, 0..2), keyed by its ring and generators."""
    seen = {}
    truncated = cycles.truncated_quotient_dim

    def recording(K):
        seen[K.vars, K.gens] = K
        return truncated(K)

    with monkeypatch.context() as m:
        m.setattr(cycles, "truncated_quotient_dim", recording)
        for member in CORPUS:
            for k in range(3):
                lambda_numbers(member.poly, Frame.random(len(member.vars), k))
    return seen


def test_routes_agree_on_the_corpus_final_ideals(monkeypatch):
    small_elsewhere = 0
    for vars, gens in _corpus_final_ideals(monkeypatch):
        # each route on its own copy, so none reads a basis another built
        d = truncated_quotient_dim(Ideal(gens, vars=vars))
        want = local_quotient_dim(Ideal(gens, vars=vars))
        if d is None:
            assert dim(Ideal(gens, vars=vars)) > 0
            continue
        assert d == want == _ladder_quotient_dim(Ideal(gens, vars=vars))
        N = local._colength(Ideal(gens, vars=vars).groebner())
        small_elsewhere += d < N <= local._SHORTCUT_MAX
    # the public route's Lazard branch is among them
    assert small_elsewhere > 0
