import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenumbers.groebner as groebner
import lenumbers.poly as poly
from lenumbers.cycles import lambda_numbers, sigma_ideal
from lenumbers.groebner import _saturate_coordinate, _to_int
from lenumbers.poly import (
    Frame,
    ParseError,
    Polynomial,
    apply_frame,
    iomdine,
    parse,
    restrict,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def test_parse_both_power_spellings():
    assert parse("x**2 + y^2", XY) == parse("x^2+y^2", XY)


def test_parse_precedence_and_unary_minus():
    p = parse("-x^2*y + 3/2*y - (x - y)^2", XY)
    q = -parse("x", XY) ** 2 * parse("y", XY) + Fraction(3, 2) * parse("y", XY) - (
        parse("x", XY) - parse("y", XY)
    ) ** 2
    assert p == q


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse("x^2 + @", XY)
    assert "6" in str(e.value)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse("x + w", XY)


def test_str_orders_terms_by_degree_first():
    assert str(parse("x + y^3 - y", XY)) == "y^3 + x - y"


def test_constant_and_zero_queries():
    z = Polynomial.zero(XY)
    assert z.is_zero and z.constant_term == 0
    assert parse("1/3", XY).constant_term == Fraction(1, 3)


def test_degree_mult_homogeneous():
    f = parse("x^2*y + x^4", XY)
    assert f.total_degree() == 4
    assert f.mult_origin() == 3
    assert f.homogeneous_degree() is None
    assert parse("x^2*y", XY).homogeneous_degree() == 3
    with pytest.raises(ValueError):
        Polynomial.zero(XY).total_degree()


def test_partial_derivative():
    f = parse("x^3*y^2 + y", XY)
    assert f.partial(0) == parse("3*x^2*y^2", XY)
    assert f.partial(1) == parse("2*x^3*y + 1", XY)


def test_set_var_zero_drops_the_variable():
    f = parse("x^2 + y*z + z^3", XYZ)
    g = f.set_var_zero(2)
    assert g.vars == XY
    assert g == parse("x^2", XY)


coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw, vars=XY, max_terms=5, max_exp=4):
    n = len(vars)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        terms[e] = draw(coeffs)
    return Polynomial(vars, terms)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero(XY)


@given(polys())
def test_parse_str_round_trip(p):
    assert parse(str(p), XY) == p


@given(st.integers(0, 10**6))
def test_frame_inverse_round_trips(seed):
    F = Frame.random(3, seed)
    f = parse("x^3 - 2*x*y*z + z^2", XYZ)
    G = Frame(F.inverse)
    assert apply_frame(apply_frame(f, F), G) == f


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("bound", [1, 10])
def test_frame_inverse_is_the_inverse_matrix(n, bound):
    # at bound 1 many first draws are singular, so the retry runs too
    identity = Frame.identity(n).matrix
    for seed in range(40):
        F = Frame.random(n, seed, bound)
        product = tuple(
            tuple(sum(F.matrix[i][k] * F.inverse[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert product == identity


def test_frame_permutation_rotation():
    F = Frame.rotation(3)
    f = parse("x^2*y", XYZ)
    # new coordinates are (y, z, x), so old x reads as the last new one
    assert apply_frame(f, F) == parse("x*z^2", XYZ)


def test_frame_rejects_singular_matrix():
    with pytest.raises(ValueError, match="frame matrix is singular"):
        Frame(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    # the first pivot needs a row swap; the third column then has none
    with pytest.raises(ValueError, match="frame matrix is singular"):
        Frame(((0, 1, 1), (1, 0, 1), (1, 1, 2)))


def test_coefficient_bound_below_one_is_rejected():
    f = parse("x^2 + y^2 + z^5", XYZ)
    for bound in (0, -3):
        with pytest.raises(ValueError):
            Frame.random(2, 0, bound)
        with pytest.raises(ValueError):
            restrict(f, 2, seed=5, bound=bound)


def test_apply_frame_size_mismatch():
    with pytest.raises(ValueError):
        apply_frame(parse("x", XY), Frame.identity(3))


def test_iomdine_shape():
    f = parse("x^2+y^3", XY)
    g, F = iomdine(f, 3, 2)
    assert g == parse("x^2+y^3+2*x^3", XY)
    assert F.matrix == Frame.rotation(2).matrix
    with pytest.raises(ValueError):
        iomdine(f, 1, 1)
    with pytest.raises(ValueError):
        iomdine(f, 3, 0)


def test_restrict_keeps_prefix_variables():
    f = parse("x^2 + y^2 + z^5", XYZ)
    g = restrict(f, 2, seed=5)
    assert g.vars == XY
    assert restrict(f, 3, seed=5) == f
    with pytest.raises(ValueError):
        restrict(f, 0, seed=5)


@given(st.integers(0, 10**6))
def test_restrict_preserves_vanishing_at_origin(seed):
    f = parse("x^2*y + z^3", XYZ)
    g = restrict(f, 2, seed=seed)
    assert g.constant_term == 0
    assert g.is_zero or g.mult_origin() >= f.mult_origin()


@settings(max_examples=30)
@given(polys(vars=XYZ, max_terms=4, max_exp=3), st.integers(0, 10**6))
def test_apply_frame_is_a_ring_map(p, seed):
    q = parse("x*y - z^2", XYZ)
    F = Frame.random(3, seed)
    assert apply_frame(p * q, F) == apply_frame(p, F) * apply_frame(q, F)
    assert apply_frame(p + q, F) == apply_frame(p, F) + apply_frame(q, F)


def _naive_compose(p, rows, new_vars):
    """compose_linear by Fraction polynomial arithmetic, term by term."""
    forms = [
        sum(
            (Polynomial.var_index(j, new_vars) * c for j, c in enumerate(row)),
            Polynomial.zero(new_vars),
        )
        for row in rows
    ]
    total = Polynomial.zero(new_vars)
    for e, c in p.terms.items():
        piece = Polynomial.constant(c, new_vars)
        for form, k in zip(forms, e):
            piece = piece * form**k
        total = total + piece
    return total


def test_compose_linear_matches_a_naive_expansion():
    rng = random.Random(7)
    old_vars = ("a", "b", "c", "d")
    for trial in range(120):
        n = 1 + trial % 4
        m = 1 + (trial // 4) % n  # m < n: fewer new variables, as in restrict
        terms = {
            tuple(rng.randint(0, 4) for _ in range(n)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 6)
            )
            for _ in range(rng.randint(0, 6))
        }
        rows = [
            [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))) for _ in range(m)]
            for _ in range(n)
        ]
        if trial % 3 == 0:
            rows[rng.randrange(n)] = [Fraction(0)] * m
        p = Polynomial(old_vars[:n], terms)
        new_vars = XYZ[:m] if m <= 3 else ("w",) + XYZ
        assert p.compose_linear(rows, new_vars) == _naive_compose(p, rows, new_vars), trial


def test_pickle_round_trip():
    p = parse("x^2+y^3", ("x", "y"))
    h = hash(p)
    q = pickle.loads(pickle.dumps(p))
    assert q == p
    assert hash(q) == h
    assert q.vars == p.vars


@pytest.mark.parametrize("text, vars", [
    ("z^2+(x^2+y^3)^2", XYZ),
    ("y^3-x^4-t^2*x^2", ("t", "x", "y")),
    ("w^2+(x^2+y^3)^2", ("x", "y", "z", "w")),
])
def test_unchecked_polynomials_are_the_checked_ones(text, vars, monkeypatch):
    # every Polynomial that partial, set_var_zero and the kernel build
    # without __init__'s checks, and the integer forms the bases keep
    built, bases = [], []
    trusted = poly._trusted

    def recording(vars, terms):
        p = trusted(vars, terms)
        built.append(p)
        return p

    monkeypatch.setattr(poly, "_trusted", recording)
    monkeypatch.setattr(groebner, "_trusted", recording)
    init = groebner.Basis.__init__

    def keeping(self, *args):
        init(self, *args)
        bases.append(self)

    monkeypatch.setattr(groebner.Basis, "__init__", keeping)
    f = parse(text, vars)
    lambda_numbers(f, Frame.random(len(vars), 0))
    _saturate_coordinate(sigma_ideal(f), 0)
    f.partial(0).set_var_zero(1)
    for basis in bases:
        assert basis.ints == [_to_int(p) for p in basis.elements]
    monkeypatch.undo()
    assert built and bases
    for p in built:
        assert type(p.vars) is tuple
        assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
        assert all(len(e) == len(p.vars) and min(e) >= 0 for e in p.terms)
        q = Polynomial(p.vars, p.terms)
        assert p == q
        assert hash(p) == hash(q)
        assert (str(p), repr(p)) == (str(q), repr(q))
        assert pickle.loads(pickle.dumps(p)) == q
