"""Local computations at the origin: standard bases, dimensions, colengths.

Standard bases for the degree-first local order come from
Ideal.groebner(LOCAL), which computes them by Lazard's homogenization trick
in the same packed-monomial Buchberger kernel as every global basis and
caches them beside those (groebner.py).  Dimension, colength and
multiplicity, of the local ring as of the global quotient, are read off the
Hilbert series of a leading ideal (_hilbert), whose numerator we compute by
the pivot recursion N(I) = N(I + (x^d)) + T^d*N(I : x^d).

local_dim asks Lazard only when V(I) has a component of dimension two or
more somewhere.  D, the dimension of V(I), is read off the grevlex leading
ideal.  When D <= 1 the origin is an isolated point of V(I) or lies on a
curve of it, and global bases tell which: V(I : x_i^infinity) is the
closure of V(I) minus V(x_i) (Cox, Little, O'Shea, Ideals, Varieties, and
Algorithms, ch. 4 section 4), and V(I) minus the origin is the union of
those sets over i, so the origin is on a curve exactly when it lies on
some V(I : x_i^infinity).  germ_in_hyperplane asks the same of one
coordinate: V(I) lies in V(x_i) near 0 exactly when the origin is off
V(I : x_i^infinity), a saturation with no auxiliary variable
(groebner._saturate_coordinate), and no basis of I itself.
hs_multiplicity reads the dimension and the multiplicity of a germ off
one Hilbert series of its Lazard basis.

Colengths have two production routes.  local_quotient_dim counts with the
Lazard standard basis and works for any ideal.  truncated_quotient_dim is
tried first for the last step of cycles.intersection_number and returns
None unless the ideal is zero-dimensional globally.  Let N be its total
colength.  Up to a small N, one Lazard basis counts.  Above it the count
uses grevlex bases only: a linear form g is chosen that vanishes at no
other point of V(I), certified by x_i^N2 lying in I + (g) for every i, where
N2 = colength(I + (g)), whose basis completes I's (groebner._slice); the
answer is then N - colength(I : g^infinity), one saturation.  That is
exact because a zero-dimensional quotient is the product of its local
algebras, one per point (Cox, Little, O'Shea, Using Algebraic Geometry,
ch. 4), and saturating by g removes exactly the factors at the zeros of
g.  On large final ideals this is far cheaper than the homogenized local
computation.

The tests check both against independent oracles kept beside them
(tests/_oracles.py): Mora's tangent cone algorithm, a staircase count, and
a global extraction of the component at the origin.
"""

from __future__ import annotations

from itertools import count

from .groebner import (
    Basis,
    Ideal,
    _divides,
    _saturate_coordinate,
    _saturate_principal,
    _slice,
)
from .orders import GREVLEX, LOCAL, ExpVec
from .poly import Polynomial


def local_standard_basis(I: Ideal) -> Basis:
    """Standard basis of I for the local order, cached on the ideal."""
    return I.groebner(LOCAL)


# -- Hilbert series of a monomial ideal ------------------------------------


def _minimalize(gens: frozenset[ExpVec]) -> frozenset[ExpVec]:
    return frozenset(
        m for m in gens if not any(o != m and _divides(o, m) for o in gens)
    )


def _poly_mul_one_minus_t(coeffs: tuple[int, ...], d: int) -> tuple[int, ...]:
    # multiply by 1 - T^d
    out = list(coeffs) + [0] * d
    for i, c in enumerate(coeffs):
        out[i + d] -= c
    return tuple(out)


def hilbert_numerator(lms, nvars: int) -> tuple[int, ...]:
    """Coefficients of N(T) where the Hilbert series of k[x]/(lms) is
    N(T) / (1-T)^nvars.

    Pure powers x_i^d give the product of their (1 - T^d).  Otherwise a
    generator e in several variables gives the pivot x_i^d with x_i its
    first variable and d = e_i, and N(I) = N(I + (x_i^d)) + T^d*N(I :
    x_i^d).  e leaves I + (x_i^d) and loses x_i in I : x_i^d, and no
    generator gains a variable, so the recursion is no deeper than the
    generators have variables in all, whatever their exponents."""
    memo: dict[frozenset, tuple[int, ...]] = {}

    def rec(gens: frozenset[ExpVec]) -> tuple[int, ...]:
        if not gens:
            return (1,)
        if any(sum(e) == 0 for e in gens):
            return (0,)
        got = memo.get(gens)
        if got is not None:
            return got
        mixed = [e for e in gens if sum(1 for x in e if x) > 1]
        if not mixed:
            out = (1,)
            for e in gens:
                out = _poly_mul_one_minus_t(out, sum(e))
        else:
            e = min(mixed)
            piv = next(i for i, x in enumerate(e) if x)
            d = e[piv]
            power = tuple(d if i == piv else 0 for i in range(nvars))
            plus = _minimalize(gens | {power})
            colon = _minimalize(
                frozenset(
                    tuple(max(x - d, 0) if i == piv else x for i, x in enumerate(g))
                    for g in gens
                )
            )
            a = rec(plus)
            b = rec(colon)
            out = tuple(
                (a[i] if i < len(a) else 0) + (b[i - d] if d <= i < d + len(b) else 0)
                for i in range(max(len(a), len(b) + d))
            )
        memo[gens] = out
        return out

    return rec(_minimalize(frozenset(lms)))


def _hilbert(basis: Basis) -> tuple[int, tuple[int, ...]] | None:
    """(c, Q) with N(T) = (1-T)^c * Q(T) and Q(1) != 0, where N is the
    Hilbert numerator of the leading ideal of basis; None for the unit
    ideal.  n - c is the dimension of the quotient (of the local ring at the
    origin, for a local basis), and for c = n, Q(1) is its colength; for a
    local basis, Q(1) is the Hilbert-Samuel multiplicity."""
    lms = basis.leading_monomials()
    if any(sum(lm) == 0 for lm in lms):
        return None
    cur = list(hilbert_numerator(lms, len(basis.vars)))
    c = 0
    while sum(cur) == 0:
        # synthetic division by (1 - T): q_i = sum of cur[0..i]
        acc = 0
        q = []
        for v in cur[:-1]:
            acc += v
            q.append(acc)
        cur = q
        c += 1
    return c, tuple(cur)


def _colength(basis: Basis) -> int | None:
    """Vector space dimension of the quotient by the ideal of basis, read
    off _hilbert; None when it is infinite."""
    hilb = _hilbert(basis)
    if hilb is None:
        return 0
    c, q = hilb
    return None if c < len(basis.vars) else sum(q)


def lazard_local_dim(I: Ideal) -> int:
    """local_dim read off the Lazard standard basis of I, for any I."""
    hilb = _hilbert(local_standard_basis(I))
    return -1 if hilb is None else len(I.vars) - hilb[0]


def origin_on(I: Ideal) -> bool:
    """Whether the origin lies on V(I).  Evaluation at 0 is a ring map, so
    that holds exactly when every generator vanishes there."""
    return all(g.constant_term == 0 for g in I.gens)


def germ_in_hyperplane(I: Ideal, i: int) -> bool:
    """Whether V(I) lies in the hyperplane V(x_i) as germs at the origin.

    That holds exactly when the origin is off V(I : x_i^infinity), the
    closure of V(I) minus V(x_i).  The saturation needs no auxiliary
    variable and no basis of I (groebner._saturate_coordinate), and
    origin_on reads only the constant terms of the generators, so any
    generating set of it serves.  x_i in I needs no test of its own: the
    saturation is then the unit ideal."""
    return not origin_on(_saturate_coordinate(I, i))


def local_dim(I: Ideal) -> int:
    """Krull dimension of the localization at the origin; -1 when the origin
    is not on V(I).

    The origin is on V(I) exactly when every generator vanishes there.  D,
    the dimension of V(I) in the whole space, is read off the grevlex
    leading ideal.  D = 0 gives 0.  D = 1 is answered with global bases
    alone: the origin is then either an isolated point of V(I) or on a
    curve of it, and V(I : x_i^infinity) is the closure of V(I) minus
    V(x_i) (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, ch. 4
    section 4).  V(I) minus the origin is the union over i of V(I) minus
    V(x_i), so the origin lies on a curve of V(I) exactly when it lies on
    some V(I : x_i^infinity).  Only D >= 2 builds the Lazard standard basis
    (lazard_local_dim)."""
    if not origin_on(I):
        return -1
    n = len(I.vars)
    # not the unit ideal: the origin is on V(I)
    c, _ = _hilbert(I.groebner(GREVLEX))
    D = n - c
    if D >= 2:
        return lazard_local_dim(I)
    if D == 0:
        return 0
    xs = (Polynomial.var_index(i, I.vars) for i in range(n))
    return 1 if any(origin_on(_saturate_principal(I, x)) for x in xs) else 0


def local_quotient_dim(I: Ideal) -> int | None:
    """Vector space dimension of O/I at the origin; None when infinite."""
    return _colength(local_standard_basis(I))


# Up to this total colength one Lazard basis counts the origin's share, and
# above it the ladder of grevlex bases (_ladder_quotient_dim) does.
_SHORTCUT_MAX = 16


def _ladder(vars: tuple[str, ...]):
    """The linear forms tried as g, in order: the coordinates, then
    g_k = sum_i k^i x_i for k = 1, 2, ....  A point p != 0 is a zero of
    g_k only when k is a root of the nonzero polynomial sum_i p_i T^i, so
    for at most n - 1 values of k: past finitely many forms, every g_k
    vanishes at no point of a finite set but the origin."""
    xs = [Polynomial.var_index(i, vars) for i in range(len(vars))]
    yield from xs
    for k in count(1):
        yield sum((x * k**i for i, x in enumerate(xs)), Polynomial.zero(vars))


def truncated_quotient_dim(I: Ideal) -> int | None:
    """local_quotient_dim for a globally zero-dimensional I; None when I is
    not zero-dimensional.

    N, the total colength of I, is read off its grevlex basis.  For N up to
    _SHORTCUT_MAX local_quotient_dim(I) counts; larger N take
    _ladder_quotient_dim."""
    N = _colength(I.groebner(GREVLEX))
    if N is None or N == 0:
        return N
    return local_quotient_dim(I) if N <= _SHORTCUT_MAX else _ladder_quotient_dim(I, N)


def _ladder_quotient_dim(I: Ideal, N: int) -> int:
    """local_quotient_dim of a globally zero-dimensional I of total
    colength N (read off its grevlex basis by the caller), from grevlex
    bases: walk the linear forms g of _ladder, with
    N2 = colength(I + (g)).  N2 = 0 means g vanishes at no point of V(I),
    so the origin is not one and the answer is 0.  Else x_i^N2 in I + (g)
    for every i certifies that the origin is the only zero of g on V(I);
    a form that fails the certificate is replaced by the next.  Saturating
    by a certified g removes exactly the factor A_0 of k[x]/I, so the
    answer is N - colength(I : g^infinity)."""
    xs = [Polynomial.var_index(i, I.vars) for i in range(len(I.vars))]
    for g in _ladder(I.vars):
        Kg = _slice(I, g).groebner(GREVLEX)
        N2 = _colength(Kg)
        if N2 == 0:
            return 0
        if all(Kg.contains(x**N2) for x in xs):
            return N - _colength(_saturate_principal(I, g).groebner(GREVLEX))


def hs_multiplicity(I: Ideal, j: int) -> int | None:
    """Hilbert-Samuel multiplicity at the origin of the j-dimensional germ
    of I; 0 when the origin is off V(I), None when the germ there is not
    j-dimensional.  Dimension and multiplicity are read off one Hilbert
    series of the Lazard basis."""
    hilb = _hilbert(local_standard_basis(I))
    if hilb is None:
        return 0
    c, q = hilb
    return sum(q) if len(I.vars) - c == j else None
