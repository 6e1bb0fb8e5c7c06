"""The packed monomials of the Buchberger kernel.

Each global order packs an exponent vector into one int; the kernel relies
on the int comparison being the order, on addition being the product, and on
the masked subtract being divisibility.  Overflow must widen the fields,
never give a wrong answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenumbers.groebner import Ideal, _nf, _Overflow, _packing, _to_int
from lenumbers.orders import GREVLEX, LAZARD, LEX, elimination_order
from lenumbers.poly import parse

XY = ("x", "y")


def _orders(n):
    orders = [GREVLEX, LEX, LAZARD]
    orders += [elimination_order((i,)) for i in range(n)]
    orders += [elimination_order((i, j)) for i in range(n) for j in range(i + 1, n)]
    return orders


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from(_orders(n)))
    vec = st.tuples(*[st.integers(0, 40)] * n)
    a, b = draw(vec), draw(vec)
    width = draw(st.integers((sum(a) + sum(b)).bit_length(), 24))
    return order, n, width, a, b


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_packed_monomials_follow_the_order(case):
    order, n, width, a, b = case
    pk = _packing(order, n, width)
    key = order.key(n)
    pa, pb = pk.pack(a), pk.pack(b)
    assert (pa < pb) == (key(a) < key(b))
    assert (pa == pb) == (a == b)
    assert pk.unpack(pa) == a
    ab = tuple(x + y for x, y in zip(a, b))
    assert pa + pb == pk.pack(ab)
    assert pk.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    # the kernel takes an lcm from the unpacked leading exponents
    lab = pk.pack(tuple(map(max, a, b)))
    assert pk.divides(pa, lab) and pk.divides(pb, lab)
    assert (lab == pa + pb) == all(x == 0 or y == 0 for x, y in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(_cases(), st.integers(1, 6))
def test_guard_bits_flag_every_overflowing_field(case, width):
    order, n, _, a, b = case
    pk = _packing(order, n, width)
    if sum(a) > pk.mask or sum(b) > pk.mask:
        with pytest.raises(_Overflow):
            pk.pack(a if sum(a) > pk.mask else b)
        return
    ab = tuple(x + y for x, y in zip(a, b))
    fields = [sum(w * x for w, x in zip(row, ab)) for row in order.rows(n)] + list(ab)
    overflows = bool((pk.pack(a) + pk.pack(b)) & pk.guards)
    assert overflows == (max(fields) > pk.mask)


def test_reduction_past_the_field_width_raises():
    # x^4 -> y^20 modulo x - y^5 under lex; 4-bit fields hold at most 15
    pk = _packing(LEX, 2, 4)
    red = [pk.reducer({pk.pack((1, 0)): 1, pk.pack((0, 5)): -1})]
    assert _nf({pk.pack((3, 0)): 1}, red, pk) == {pk.pack((0, 15)): 1}
    with pytest.raises(_Overflow):
        _nf({pk.pack((4, 0)): 1}, red, pk)


def test_high_powers_keep_exact_bases():
    B = Ideal([parse("x^40000 - y", XY), parse("y^2", XY)]).groebner(GREVLEX)
    assert set(B) == {parse("x^40000 - y", XY), parse("y^2", XY)}
    assert B.contains(parse("x^80000", XY))
    assert not B.contains(parse("x^79999", XY))


def test_bases_and_reductions_widen_their_fields():
    # the lex basis reaches degree 64000 from inputs of degree at most 1000
    B = Ideal([parse("x - y^1000", XY), parse("x^64", XY)]).groebner(LEX)
    assert set(B) == {parse("x - y^1000", XY), parse("y^64000", XY)}
    # reducing x^1000 against x - y^1000 reaches y^1000000
    B = Ideal([parse("x - y^1000", XY)]).groebner(LEX)
    assert B._nf(_to_int(parse("x^1000", XY))) == {(0, 1000000): 1}
    assert B.contains(parse("x^1000 - y^1000000", XY))
    assert not B.contains(parse("x^1000 - y^999999", XY))
