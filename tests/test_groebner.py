import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import lenumbers.cycles as cycles
import lenumbers.groebner as groebner
from lenumbers.cycles import generic_le, sigma_ideal
from lenumbers.groebner import (
    Ideal,
    _divides,
    _saturate_coordinate,
    _saturate_principal,
    _to_int,
    radical_member,
    saturate,
)
from lenumbers.orders import GREVLEX, LEX
from lenumbers.poly import Polynomial, iomdine, parse

from _corpus import CORPUS, generic_record
from _oracles import (
    _eliminate_t,
    dim,
    ideal_quotient,
    intersect,
    saturate_by_elimination,
    saturate_by_generators,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
TT0 = ("t", "t0")


def P(text, vars=XYZ):
    return parse(text, vars)


def _random_ideal(seed, vars=XYZ, ngens=3):
    rng = random.Random(seed)
    gens = []
    while len(gens) < ngens:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in vars)
            terms[e] = Fraction(rng.randint(-5, 5))
        p = Polynomial(vars, terms)
        if not p.is_zero:
            gens.append(p)
    return Ideal(gens, vars=vars)


def _sympy_set(polys, vars, order):
    xs = sympy.symbols(vars)
    out = set()
    for p in polys:
        expr = sympy.sympify(str(p).replace("^", "**"), dict(zip(vars, xs)))
        out.add(sympy.Poly(expr, *xs, domain="QQ").monic())
    return out


@pytest.mark.parametrize("seed", range(12))
def test_grevlex_basis_matches_sympy(seed):
    I = _random_ideal(seed)
    mine = _sympy_set(I.groebner(GREVLEX).elements, I.vars, "grevlex")
    xs = sympy.symbols(I.vars)
    theirs = sympy.groebner(
        [sympy.sympify(str(g).replace("^", "**"), dict(zip(I.vars, xs))) for g in I.gens],
        *xs,
        order="grevlex",
    )
    assert mine == {sympy.Poly(g, *xs, domain="QQ").monic() for g in theirs.exprs}


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_lex_basis_matches_sympy(seed):
    I = _random_ideal(seed, vars=XY, ngens=2)
    mine = _sympy_set(I.groebner(LEX).elements, XY, "lex")
    xs = sympy.symbols(XY)
    theirs = sympy.groebner(
        [sympy.sympify(str(g).replace("^", "**"), dict(zip(XY, xs))) for g in I.gens],
        *xs,
        order="lex",
    )
    assert mine == {sympy.Poly(g, *xs, domain="QQ").monic() for g in theirs.exprs}


def test_symmetric_functions_basis():
    I = Ideal([P("x+y+z"), P("x*y+y*z+z*x"), P("x*y*z-1")])
    B = I.groebner(LEX)
    assert any(str(p) == "z^3 - 1" for p in B.elements)


@pytest.mark.parametrize("seed", range(8))
def test_spolys_of_basis_reduce_to_zero(seed):
    I = _random_ideal(seed)
    B = I.groebner(GREVLEX)
    keyf = GREVLEX.key(3)
    els = list(B.elements)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            a, b = els[i], els[j]
            la = max(a.terms, key=keyf)
            lb = max(b.terms, key=keyf)
            lcm = tuple(max(p, q) for p, q in zip(la, lb))
            ma = Polynomial(B.vars, {tuple(m - e for m, e in zip(lcm, la)): 1 / a.terms[la]})
            mb = Polynomial(B.vars, {tuple(m - e for m, e in zip(lcm, lb)): 1 / b.terms[lb]})
            assert B.contains(ma * a - mb * b)


@pytest.mark.parametrize("seed", range(6))
def test_normal_form_properties(seed):
    rng = random.Random(seed)
    I = _random_ideal(seed + 100)
    B = I.groebner(GREVLEX)
    terms = {
        tuple(rng.randint(0, 3) for _ in XYZ): Fraction(rng.randint(-4, 4))
        for _ in range(4)
    }
    # the integer remainder: reduced against every leading monomial, and
    # its own remainder
    r = B._nf(_to_int(Polynomial(XYZ, terms)))
    assert not any(_divides(lm, e) for lm in B.leading_monomials() for e in r)
    assert B._nf(r) == r


def test_membership():
    I = Ideal([P("x^2+y"), P("y*z-1")])
    assert I.contains(P("x^2+y"))
    assert I.contains(P("z*x^2+z*y"))
    assert not I.contains(P("x"))


def test_eliminate_twisted_cubic():
    # x - t^2 and y - t^3 as integer polynomials, t the last exponent
    J = _eliminate_t([{(1, 0, 0): 1, (0, 0, 2): -1}, {(0, 1, 0): 1, (0, 0, 3): -1}], XY, 1)
    assert J.vars == XY
    assert J.groebner().contains(parse("y^2-x^3", XY))
    assert len(J.groebner().elements) == 1


def _sympy_elimination(polys, u, xs):
    """The reduced grevlex basis, as _sympy_set gives it, of the ideal of
    the sympy expressions polys in u and xs, meet the ring of xs: sympy's
    lex basis with u first, its u-free part."""
    kept = [p for p in sympy.groebner(polys, u, *xs, order="lex").exprs if not p.has(u)]
    return {
        sympy.Poly(p, *xs, domain="QQ").monic()
        for p in sympy.groebner(kept, *xs, order="grevlex").exprs
    }


def _sympy_expr(p):
    return sympy.sympify(str(p).replace("^", "**"), dict(zip(TT0, sympy.symbols(TT0))))


@pytest.mark.parametrize("seed", range(12))
def test_eliminations_match_sympy(seed):
    # the ring's variables are named t and t0; three variables make
    # sympy's lex bases too slow for a unit test
    I = _random_ideal(seed, vars=TT0, ngens=2)
    J = _random_ideal(seed + 1000, vars=TT0, ngens=1)
    u = sympy.Dummy("u")
    # a non-integral content: the elimination runs on g's integer form, a
    # unit multiple of it
    g = J.gens[0] * Fraction(2, 3)
    theirs = _sympy_elimination(
        [_sympy_expr(p) for p in I.gens] + [1 - u * _sympy_expr(g)], u, sympy.symbols(TT0)
    )
    assert _sympy_set(_saturate_principal(I, g).groebner().elements, TT0, "grevlex") == theirs


@pytest.mark.parametrize("seed", range(12))
def test_intersect_oracle_matches_sympy(seed):
    I = _random_ideal(seed, vars=TT0, ngens=2)
    J = _random_ideal(seed + 1000, vars=TT0, ngens=1)
    u = sympy.Dummy("u")
    theirs = _sympy_elimination(
        [u * _sympy_expr(g) for g in I.gens] + [(1 - u) * _sympy_expr(g) for g in J.gens],
        u,
        sympy.symbols(TT0),
    )
    assert _sympy_set(intersect(I, J).groebner().elements, TT0, "grevlex") == theirs


def _same_basis(mine: Ideal, theirs: Ideal):
    assert mine.groebner(GREVLEX).elements == theirs.groebner(GREVLEX).elements


@pytest.mark.parametrize("seed", range(16))
def test_saturate_matches_saturation_by_generators(seed):
    # one to four generators in J: one auxiliary variable each
    I = _random_ideal(seed + 2000, ngens=2)
    J = _random_ideal(seed + 3000, ngens=1 + seed % 4)
    expected = saturate_by_generators(I, J)
    _same_basis(saturate(I, J), expected)
    # with a grevlex basis of I at hand, the elimination starts from it
    I.groebner(GREVLEX)
    _same_basis(saturate(I, J), expected)


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_corpus_saturations_match_saturation_by_generators(member, monkeypatch, serial_trials):
    calls = []

    def recording(I, J):
        result = saturate(I, J)
        calls.append((I, J, result))
        return result

    monkeypatch.setattr(cycles, "saturate", recording)
    # every frame trial of generic_le runs lambda_numbers in this process
    generic_le(member.poly, seed=0, trials=3)
    # an isolated plane curve saturates nothing
    assert calls or (member.s == 0 and len(member.vars) == 2)
    for I, J, result in calls:
        _same_basis(result, saturate_by_generators(I, J))


@pytest.mark.parametrize("seed", range(52))
def test_saturate_matches_the_classical_elimination(seed):
    # the seeds of test_saturate_matches_saturation_by_generators and more;
    # r = 1..4 auxiliary variables
    I = _random_ideal(seed + 2000, ngens=2)
    J = _random_ideal(seed + 3000, ngens=1 + seed % 4)
    expected = saturate_by_elimination(I, J)
    _same_basis(saturate(I, J), expected)
    # the completion starts from I's cached grevlex basis
    I.groebner(GREVLEX)
    _same_basis(saturate(I, J), expected)


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_no_reduction_of_a_completion_ends_in_zero(member, monkeypatch, serial_trials):
    # 1 - t_1*g_1 - ... - t_r*g_r is a nonzerodivisor modulo I*k[x, t], so
    # the syzygy criterion finds every syzygy before it is reduced.  The
    # reductions of a saturation's completion are the _nf calls inside
    # _saturate that carry a signature; a slice's completion may add a zero
    # divisor, and is left out.
    results = []
    inside = []
    nf, saturate_ = groebner._nf, groebner._saturate

    def recording(h, red, pk, sig=None):
        r = nf(h, red, pk, sig)
        if sig is not None and inside:
            results.append(r)
        return r

    def saturating(I, gs):
        inside.append(True)
        try:
            return saturate_(I, gs)
        finally:
            inside.pop()

    monkeypatch.setattr(groebner, "_nf", recording)
    monkeypatch.setattr(groebner, "_saturate", saturating)
    generic_le(member.poly, seed=0, trials=3)
    assert results or (member.s == 0 and len(member.vars) == 2)
    assert {} not in results


def test_saturation_signatures_overflow_and_widen(monkeypatch):
    # with no spare bits the fields hold degree 255, enough for the input;
    # the signatures of the completion reach degree 2*199 and overflow
    monkeypatch.setattr(groebner, "_ROOM", 0)
    widths = []
    complete = groebner._complete

    def recording(basis, f, pk):
        try:
            return complete(basis, f, pk)
        except groebner._Overflow:
            widths.append(pk.width)
            raise

    monkeypatch.setattr(groebner, "_complete", recording)
    I = Ideal([P("x^199*y-y^2", XY), P("y^3", XY)], vars=XY)
    J = Ideal([P("x", XY)], vars=XY)
    result = saturate(I, J)
    assert widths == [8]
    _same_basis(result, saturate_by_elimination(I, J))
    assert [str(g) for g in result.gens] == ["y"]


def test_pairs_killed_by_the_product_criterion_still_kill_their_multiples():
    # lm x*y^2, y and then x: the pair with y has lcm x*y, coprime leading
    # monomials; it divides x*y^2, so the pair with x*y^2 goes too
    pk = groebner._packing(GREVLEX, 3, 8)
    exps = [(1, 2, 0), (0, 1, 0), (1, 0, 0)]
    lms = [pk.pack(e) for e in exps]
    pairs = {(0, 1): pk.pack((1, 2, 0))}
    queue = []
    groebner._update_pairs(lms, exps, pairs, queue, 2, pk)
    assert pairs == {(0, 1): pk.pack((1, 2, 0))}
    assert queue == []
    # generators with these leading monomials, in this order: x = y = -z,
    # so x*y^2 + z = z - z^3
    B = Ideal([P("x*y^2+z"), P("y+z"), P("x+z")]).groebner(GREVLEX)
    assert [str(g) for g in B.elements] == ["z^3 - z", "x + z", "y + z"]


def _buchberger_runs(monkeypatch) -> list:
    runs = []
    kernel = groebner._buchberger

    def counting(gens, pk):
        runs.append(len(gens))
        return kernel(gens, pk)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    return runs


def _carries_its_basis(result: Ideal, monkeypatch):
    """result's reduced grevlex basis is the one computed from its
    generators, and it comes from the elimination, with no kernel run."""
    runs = _buchberger_runs(monkeypatch)
    carried = result.groebner(GREVLEX)
    assert runs == []
    assert carried.elements == Ideal(result.gens, vars=result.vars).groebner(GREVLEX).elements
    assert carried.ints == [_to_int(g) for g in result.gens]
    monkeypatch.undo()


@pytest.mark.parametrize("seed", range(8))
def test_saturations_carry_their_grevlex_basis(seed, monkeypatch):
    I = _random_ideal(seed + 4000, ngens=2)
    J = _random_ideal(seed + 5000, ngens=1 + seed % 3)
    _carries_its_basis(saturate(I, J), monkeypatch)
    _carries_its_basis(_saturate_principal(I, J.gens[0]), monkeypatch)


def test_corpus_saturations_carry_their_grevlex_basis(monkeypatch):
    rec = generic_record("cuspsheet", 0)
    P = sigma_ideal(rec.h)
    z = Polynomial.var_index(0, P.vars)
    _carries_its_basis(_saturate_principal(P, z), monkeypatch)
    m = Ideal([Polynomial.var_index(i, P.vars) for i in range(len(P.vars))], vars=P.vars)
    _carries_its_basis(saturate(Ideal(P.gens[1:], vars=P.vars), m), monkeypatch)


def _slice_case(seed):
    """(I, p) over x, y, z: p is in I, a zero divisor modulo I, a unit, the
    unit ideal's, or a random polynomial, as seed runs through five kinds."""
    rng = random.Random(seed)
    I = _random_ideal(seed + 6000, ngens=1 + seed % 3)
    q = _random_ideal(seed + 7000, ngens=1).gens[0]
    x = Polynomial.var_index(rng.randrange(3), XYZ)
    kind = seed % 5
    if kind == 0:
        # in I
        return I, sum((g * rng.randint(-3, 3) for g in I.gens), q * I.gens[0])
    if kind == 1:
        # x*q times I's first generator is in I: x*q is a zero divisor
        return Ideal([x * I.gens[0], *I.gens[1:]], vars=XYZ), x * q
    if kind == 2:
        return I, Polynomial.constant(rng.randint(1, 5), XYZ)
    if kind == 3:
        return Ideal([q + 1, q], vars=XYZ), x
    return I, q


def _sliced(I, p):
    """I + (p), computed from generators."""
    return Ideal([*I.gens, p], vars=I.vars).groebner(GREVLEX).elements


@pytest.mark.parametrize("seed", range(60))
def test_slices_complete_the_cached_basis(seed, monkeypatch):
    I, p = _slice_case(seed)
    I.groebner(GREVLEX)
    K = groebner._slice(I, p)
    assert K.groebner(GREVLEX).elements == _sliced(I, p)
    _carries_its_basis(K, monkeypatch)
    for i in range(3):
        x = Polynomial.var_index(i, XYZ)
        K = groebner._slice_coordinate(I, i)
        restricted = Ideal([g.set_var_zero(i) for g in I.gens], vars=K.vars)
        assert K.vars == XYZ[:i] + XYZ[i + 1 :]
        assert K.groebner(GREVLEX).elements == restricted.groebner(GREVLEX).elements
        _carries_its_basis(K, monkeypatch)
        # I + (x_i) less x_i: the elements free of x_i, x_i's exponent dropped
        kept = [g.set_var_zero(i) for g in _sliced(I, x) if g != x]
        assert K.groebner(GREVLEX).elements == tuple(kept)


def test_slices_without_a_cached_basis_add_the_generator():
    I, p = _slice_case(4)
    assert groebner._slice(I, p).gens == Ideal([*I.gens, p], vars=XYZ).gens
    K = groebner._slice_coordinate(I, 1)
    assert K.gens == Ideal([g.set_var_zero(1) for g in I.gens], vars=("x", "z")).gens


def test_a_completion_by_a_member_returns_the_basis():
    I, p = _slice_case(0)
    ints = I.groebner(GREVLEX).ints
    pk = groebner._packing(GREVLEX, 3, 8)
    basis = [pk.pack_poly(d) for d in ints]
    polys, red = groebner._complete(basis, pk.pack_poly(_to_int(p)), pk)
    assert polys == basis and len(red) == len(basis)


def test_slice_completions_overflow_and_widen(monkeypatch):
    # with no spare bits the fields hold degree 255; y^150 - x shifted to the
    # lcm x^150*y^150 of the leading monomials has degree 301
    monkeypatch.setattr(groebner, "_ROOM", 0)
    widths = []
    complete = groebner._complete

    def recording(basis, f, pk):
        try:
            return complete(basis, f, pk)
        except groebner._Overflow:
            widths.append(pk.width)
            raise

    I = Ideal([P("x^150*y-1", XY)], vars=XY)
    p = P("y^150-x", XY)
    I.groebner(GREVLEX)
    monkeypatch.setattr(groebner, "_complete", recording)
    K = groebner._slice(I, p)
    assert widths == [8]
    monkeypatch.setattr(groebner, "_complete", complete)
    assert K.groebner(GREVLEX).elements == _sliced(I, p)


def test_intersect_principal():
    I = Ideal([parse("x", XY)], vars=XY)
    J = Ideal([parse("y", XY)], vars=XY)
    K = intersect(I, J)
    assert [str(p) for p in K.groebner().elements] == ["x*y"]


def test_quotient():
    I = Ideal([parse("x*y", XY), parse("x^2", XY)], vars=XY)
    Q = ideal_quotient(I, Ideal([parse("x", XY)], vars=XY))
    assert sorted(str(p) for p in Q.groebner().elements) == ["x", "y"]


def test_saturate_removes_axis_components():
    I = Ideal([parse("x^2*y", XY), parse("y^2", XY)], vars=XY)
    S = saturate(I, Ideal([parse("y", XY)], vars=XY))
    assert sorted(str(p) for p in S.groebner().elements) == ["1"]
    S2 = saturate(I, Ideal([parse("x", XY)], vars=XY))
    assert sorted(str(p) for p in S2.groebner().elements) == ["y"]


def test_radical_membership():
    I = Ideal([parse("(x+y)^2", XY)], vars=XY)
    assert radical_member(parse("x+y", XY), I)
    assert not radical_member(parse("x", XY), I)


def test_dim():
    assert dim(Ideal([parse("x*y", XY)], vars=XY)) == 1
    assert dim(Ideal([parse("x", XY), parse("y", XY)], vars=XY)) == 0
    assert dim(Ideal([parse("1", XY)], vars=XY)) == -1
    assert dim(Ideal((), vars=XY)) == 2


def _same_saturation(I, i):
    """_saturate_coordinate and _saturate_principal by x_i give ideals with
    the same reduced grevlex basis."""
    x = Polynomial.var_index(i, I.vars)
    mine = _saturate_coordinate(I, i).groebner(GREVLEX).elements
    assert mine == _saturate_principal(I, x).groebner(GREVLEX).elements


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_coordinate_saturation_of_the_transforms_critical_loci(member):
    rec = generic_record(member.name, 0)
    m = 2 if rec.lam[0] == 0 else 1 + rec.lam[0]
    # check_leiom's first coefficient
    sig_g = sigma_ideal(iomdine(rec.h, m, 1)[0])
    for i in range(len(sig_g.vars)):
        _same_saturation(sig_g, i)


@st.composite
def _sparse_ideal(draw):
    """(I, i): one to three sparse generators in two to four variables, and
    the index of a coordinate."""
    vars = draw(st.sampled_from((XY, XYZ, XYZW)))
    n = len(vars)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {
            tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))): Fraction(
                draw(st.integers(-3, 3))
            )
            for _ in range(draw(st.integers(1, 4)))
        }
        gens.append(Polynomial(vars, terms))
    gens = [g for g in gens if not g.is_zero] or [Polynomial.var_index(0, vars)]
    return Ideal(gens, vars=vars), draw(st.integers(0, n - 1))


@settings(max_examples=100, deadline=None)
@given(_sparse_ideal())
def test_coordinate_saturation_agrees_with_elimination(case):
    _same_saturation(*case)


@pytest.mark.parametrize(
    "gens, vars, i",
    [
        (["1"], XY, 0),
        (["x^2*y+y^3", "x*y^2+x"], XY, 1),
        (["x*y-1", "x^2+y^3"], XY, 0),
        (["x^2-z", "y*z+x^3+2"], XYZ, 2),
        (["x^2-y^3", "y*z", "z"], XYZ, 2),
        (["x*(y^2-z^3)", "x*w^2", "x^3*z"], XYZW, 0),
    ],
    ids=["unit", "two-vars", "constant-term", "constant-term-3", "contains-x_i", "x_i-divides"],
)
def test_coordinate_saturation_edge_cases(gens, vars, i):
    I = Ideal([parse(g, vars) for g in gens], vars=vars)
    _same_saturation(I, i)
