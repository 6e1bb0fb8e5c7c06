import random
from fractions import Fraction

import pytest

from lenumbers.groebner import Ideal, _to_int
from lenumbers.local import (
    _minimalize,
    hilbert_numerator,
    hs_multiplicity,
    local_dim,
    local_quotient_dim,
    local_standard_basis,
    truncated_quotient_dim,
)
from lenumbers.orders import LOCAL
from lenumbers.poly import Polynomial, parse

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


def test_local_dim_basics():
    assert local_dim(I("x", "y")) == 0
    assert local_dim(I("x*y")) == 1
    assert local_dim(Ideal((), vars=XY)) == 2
    # not through the origin
    assert local_dim(I("x-1")) == -1


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
    assert hs_multiplicity(I("y^2-x^3")) == 2


def test_hs_multiplicity_of_smooth_curve_is_one():
    assert hs_multiplicity(I("y-x^2")) == 1


def test_local_membership_divides_by_units():
    # x generates the same local ideal as x + x^2
    B = local_standard_basis(I("x+x^2"))
    assert mora_normal_form(parse("x", XY), B).is_zero
    assert not mora_normal_form(parse("y", XY), B).is_zero


def test_hilbert_numerator_unit_ideal():
    assert sum(hilbert_numerator([(0, 0)], 2)) == 0


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
