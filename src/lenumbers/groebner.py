"""Groebner bases over the rationals and the ideal operations built on them.

The hot loops run fraction-free: a polynomial is a dict from monomials to
ints, kept primitive (content 1).  Scaling a generator does not change the
ideal, so Buchberger, reduction and membership all work on integer data; the
API converts back to monic Fraction polynomials at the boundary.

Inside the Buchberger kernel (_buchberger, _complete, _nf, _spoly,
_update_pairs, _interreduce) a monomial is one packed int (Monagan and Pearce, "Sparse
polynomial division using a heap", JSC 2011).  A _Packing lays out the
weight rows of the order (orders.py) in the high fields, holding row . e,
and the exponents in the low fields; each field has a guard bit above its
value bits.  Both parts are linear in e, so a product of monomials is one
int add, dividing out a monomial one subtract, and comparing two monomials
in the order one int compare.  Divisibility is one masked subtract: a
divides b when no low field of (b with its guard bits set) - (a's low part)
borrows from its guard bit.  Only lcms and the conversions at the boundary
unpack.  A reduction step checks that the bounding monomial of its reducer
times the shift keeps every guard bit clear; when a field would overflow,
the computation starts again with fields twice as wide, so no exponent is
capped and no overflow passes silently.  Basis keeps exponent tuples for
callers and packs its reducers once, for membership.

Ideal.groebner also answers the local order, whose degree row is negative
and so is never packed: Lazard's homogenization trick homogenizes each
generator, runs the same kernel under the Lazard order (orders.LAZARD:
total degree, then the new variable t, then the grevlex rows of the x
part), which restricts to the local one, and sets t to 1.  The result is a
standard basis of the localization at the origin, cached beside the global
bases of the ideal.

Buchberger uses normal-pair selection (smallest lcm in the order) with the
Gebauer-Moeller form of the product and chain criteria.  Saturating I by
J = (g_1, ..., g_r) eliminates t from I + (f), f = 1 - t_1*g_1 - ... -
t_r*g_r, on the kernel's integer form, under a block order whose rows on
the original variables are grevlex: I's reduced grevlex basis, which
Ideal.groebner computes once and caches on I, padded with r zero
exponents, is a Groebner basis of I*k[x, t] in it, and a
signature-based completion (_complete) adds f.  f is a nonzerodivisor
modulo I*k[x, t], so no reduction in the completion ends in zero.  The
t-free elements of the result, interreduced, are the reduced grevlex basis
of the saturation; they come back as a Basis, cached on the returned
Ideal, whose generators are its monic elements.  The integer elements of a
Basis serve every later computation on its ideal, so kernel output is
converted to Fractions only where it is read.

A slice of an ideal that holds its reduced grevlex basis starts from that
basis too: _complete adds the new generator p, which may be a zero divisor
or already in the ideal, and _interreduce leaves the reduced basis of
I + (p), which the returned Ideal carries (_slice).  Setting x_i to 0 is
the same completion by x_i, with x_i then dropped (_slice_coordinate).

The tuple helpers of the Mora oracle (lcm, product, sign) live beside it in
tests/_oracles.py.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .orders import GREVLEX, LAZARD, MonomialOrder, Rows, elimination_order
from .poly import ExpVec, Polynomial, _trusted

IPoly = dict[ExpVec, int]
PPoly = dict[int, int]  # packed monomial -> int coefficient
# (lm, lm's low part, lc, the other terms, bounding monomial, signature) of
# a reducer; the signature is -1 except for the elements a completion adds
Reducer = tuple[int, int, int, list[tuple[int, int]], int, int]

# value bits of a field: at least _MIN_WIDTH, and _ROOM more than the
# input's largest degree needs, so that a run whose degrees grow to 8 times
# the input's still needs no second, wider run
_MIN_WIDTH = 8
_ROOM = 3

# -- integer polynomial helpers -------------------------------------------


def _to_int(p: Polynomial) -> IPoly:
    """Primitive integer form of p (content stripped; ideal-equivalent)."""
    if not p.terms:
        return {}
    denom = lcm(*(c.denominator for c in p.terms.values()))
    return _strip({e: c.numerator * (denom // c.denominator) for e, c in p.terms.items()})


def _strip(d: dict) -> dict:
    g = gcd(*d.values())
    if g > 1:
        return {e: v // g for e, v in d.items()}
    return d


def _divides(a: ExpVec, b: ExpVec) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


# -- packed monomials -------------------------------------------------------


class _Overflow(Exception):
    """A monomial does not fit the fields of its packing."""


class _Packing:
    """Exponent vectors of one global order on n variables, packed into ints.

    Every field is `width` value bits with a guard bit above them.  From the
    top down there is one field per weight row, holding row . e, then the
    exponents e_n, ..., e_1.  The rows are 0/1 vectors, so every field of a
    monomial is at most its total degree, and the packed ints compare as
    the order does."""

    __slots__ = ("width", "mask", "units", "shifts", "low", "guard", "guards")

    def __init__(self, rows: Rows, n: int, width: int):
        f = width + 1
        top = n + len(rows)
        self.width = width
        self.mask = (1 << width) - 1
        # the packed image of each unit vector: its weights in the row
        # fields (first row highest) plus a 1 in its exponent field
        self.units = tuple(
            (1 << (i * f))
            + sum(row[i] << ((top - 1 - r) * f) for r, row in enumerate(rows))
            for i in range(n)
        )
        self.shifts = tuple(i * f for i in range(n))
        ones = sum(1 << s for s in self.shifts)
        self.low = self.mask * ones  # value bits of the exponent fields
        self.guard = ones << width  # guard bits of the exponent fields
        self.guards = sum(1 << (k * f + width) for k in range(top))

    def pack(self, e: ExpVec) -> int:
        if sum(e) > self.mask:
            raise _Overflow
        return sum(map(mul, e, self.units))

    def unpack(self, m: int) -> ExpVec:
        mask = self.mask
        return tuple([(m >> s) & mask for s in self.shifts])

    def divides(self, a: int, b: int) -> bool:
        guard = self.guard
        return ((b | guard) - (a & self.low)) & guard == guard

    def pack_poly(self, d: IPoly) -> PPoly:
        return {self.pack(e): c for e, c in d.items()}

    def unpack_poly(self, d: PPoly) -> IPoly:
        return {self.unpack(m): c for m, c in d.items()}

    def reducer(self, d: PPoly, sig: int = -1) -> Reducer:
        lm = max(d)
        # the monomial of the largest exponents bounds every field of d
        env = self.pack(tuple(map(max, zip(*map(self.unpack, d)))))
        return lm, lm & self.low, d[lm], [(e, v) for e, v in d.items() if e != lm], env, sig


@lru_cache(maxsize=64)
def _packing(order: MonomialOrder, n: int, width: int) -> _Packing:
    return _Packing(order.rows(n), n, width)


def _width(polys: Iterable[IPoly]) -> int:
    """Field width that holds the bounding monomial of each of polys, with
    _ROOM bits to spare."""
    deg = max((sum(map(max, zip(*d))) for d in polys if d), default=0)
    return max(_MIN_WIDTH, deg.bit_length() + _ROOM)


def _widening(width: int, run):
    """run(width), doubling width until no field overflows."""
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


def _positive(d: PPoly) -> PPoly:
    """d or -d, whichever has a positive leading coefficient."""
    if d[max(d)] < 0:
        return {e: -v for e, v in d.items()}
    return d


# -- the Buchberger kernel, on packed monomials --------------------------------


def _nf(h: PPoly, red: list[Reducer], pk: _Packing, sig: int | None = None) -> PPoly | None:
    """Fully reduced fraction-free normal form of h against red: the
    primitive remainder, a positive multiple of h modulo the ideal of red.

    The working terms sit in a coefficient dict plus a lazy-deletion heap
    of negated monomials; every reduction only introduces monomials below
    the one being cleared, so the heap pops each monomial's terms in order.

    Given h's signature sig (_complete), a reducer that carries a signature
    is used only where its shifted signature is below sig, so the remainder
    keeps sig.  None means the remainder's leading monomial is a multiple
    of a reducer's whose shifted signature is sig: an element of signature
    sig is already in red, and the remainder is redundant.
    """
    guard, guards = pk.guard, pk.guards
    push, pop = heapq.heappush, heapq.heappop
    coeff = dict(h)
    heap = [-m for m in coeff]
    heapq.heapify(heap)
    # finished terms are deposited with the current values of F and G and
    # reconciled once at the end: scalings after the deposit multiply it,
    # content strips before the deposit are undone
    out: list[tuple[int, int, int, int]] = []
    F = 1  # product of the co-scaling factors applied to the live part
    G = 1  # product of the contents stripped from the live part
    stripped = 1  # F at the last content strip
    steps = 0
    while heap:
        m = -pop(heap)
        c = coeff.pop(m, 0)
        if not c:
            continue
        mg = m | guard
        for lm, lm_low, lc, tail, env, s in red:
            if (mg - lm_low) & guard == guard:
                shift = m - lm
                # each field of s + shift is below twice the width, so it
                # compares with sig exactly even where it would overflow
                if s >= 0 and sig is not None and s + shift >= sig:
                    continue
                if (env + shift) & guards:
                    raise _Overflow
                if lc != 1:
                    # minimal co-scaling: (lc/d)*coeff - (c/d)*shift(g)
                    d = gcd(c, lc)
                    f0 = lc // d
                    c = c // d
                    if f0 != 1:
                        coeff = {k: v * f0 for k, v in coeff.items()}
                        F *= f0
                for e, v in tail:
                    ee = e + shift
                    old = coeff.get(ee, 0)
                    nv = old - c * v
                    if nv:
                        coeff[ee] = nv
                        if not old:
                            push(heap, -ee)
                    else:
                        del coeff[ee]
                break
        else:
            if not out and sig is not None and any(
                s >= 0 and s + m - lm == sig and (mg - lm_low) & guard == guard
                for lm, lm_low, _, _, _, s in red
            ):
                return None
            out.append((m, c, F, G))
        steps += 1
        # contents build up through co-scalings: without one since the last
        # strip, a pass over the live terms rarely finds any
        if steps % 16 == 0 and F != stripped and coeff:
            stripped = F
            g0 = gcd(*coeff.values())
            if g0 > 1:
                coeff = {k: v // g0 for k, v in coeff.items()}
                G *= g0
    res: PPoly = {e: c * (F // f) * g0 for e, c, f, g0 in out}
    return _strip(res)


def _spoly(a: Reducer, b: Reducer, lcm: int, pk: _Packing) -> PPoly:
    """The S-polynomial of a and b, whose leading monomials have lcm lcm;
    the leading terms cancel and are left out."""
    (lma, _, lca, ta, enva, _), (lmb, _, lcb, tb, envb, _) = a, b
    sa = lcm - lma
    sb = lcm - lmb
    if (enva + sa) & pk.guards or (envb + sb) & pk.guards:
        raise _Overflow
    out: PPoly = {}
    for e, v in ta:
        out[e + sa] = lcb * v
    for e, v in tb:
        ee = e + sb
        nv = out.get(ee, 0) - lca * v
        if nv:
            out[ee] = nv
        else:
            out.pop(ee, None)
    return _strip(out)


def _update_pairs(
    lms: list[int], exps: list[ExpVec], pairs: dict, queue: list, t: int, pk: _Packing
):
    """Gebauer-Moeller update after appending element t, whose leading
    monomial is lms[t] packed and exps[t] unpacked.  pairs maps each live
    pair (i, j) to its lcm; queue holds (lcm, j, i) for selection."""
    lmt, et = lms[t], exps[t]
    pack, divides = pk.pack, pk.divides
    lcms = [pack(tuple(map(max, exps[i], et))) for i in range(t)]
    # chain criterion against the new element: drop old pairs whose lcm is
    # reachable through t
    drop = [
        (i, j)
        for (i, j), lij in pairs.items()
        if divides(lmt, lij) and lcms[i] != lij and lcms[j] != lij
    ]
    for p in drop:
        del pairs[p]
    # group the new pairs by lcm; divisibility between groups kills the
    # larger one, the product criterion kills a whole group, one
    # representative survives per group.  A group the product criterion
    # kills still kills its multiples (Becker and Weispfenning, UPDATE).  A
    # proper divisor is smaller in every global order, so going up the
    # order meets the divisors of a group first.
    groups: dict[int, list[int]] = {}
    for i in range(t):
        groups.setdefault(lcms[i], []).append(i)
    kept_lcms: list[int] = []
    for l in sorted(groups):
        if any(divides(k, l) for k in kept_lcms):
            continue
        kept_lcms.append(l)
        members = groups[l]
        if any(l == lms[i] + lmt for i in members):
            continue
        pairs[(members[0], t)] = l
        heapq.heappush(queue, (l, t, members[0]))


def _buchberger(gens: list[PPoly], pk: _Packing) -> list[PPoly]:
    G: list[Reducer] = []
    polys: list[PPoly] = []
    lms: list[int] = []
    exps: list[ExpVec] = []  # the leading monomials unpacked, for lcms
    pairs: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int, int]] = []

    def add(d: PPoly):
        d = _positive(_strip(d))
        G.append(pk.reducer(d))
        polys.append(d)
        lms.append(G[-1][0])
        exps.append(pk.unpack(lms[-1]))
        _update_pairs(lms, exps, pairs, queue, len(G) - 1, pk)

    for d in gens:
        add(d)
    # normal selection: smallest lcm first, ties by (j, i)
    while queue:
        lcm, j, i = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue  # dropped by the chain criterion
        r = _nf(_spoly(G[i], G[j], lcm, pk), G, pk)
        if r:
            add(r)
    return _interreduce(polys, G, pk)


def _interreduce(polys: list[PPoly], G: list[Reducer], pk: _Packing) -> list[PPoly]:
    lms = [g[0] for g in G]
    keep = []
    for idx, lm in enumerate(lms):
        if any(
            o != idx and pk.divides(lms[o], lm) and (lms[o] != lm or o < idx)
            for o in range(len(G))
        ):
            continue
        keep.append(idx)
    result = []
    for idx in keep:
        r = _nf(polys[idx], [G[o] for o in keep if o != idx], pk)
        if r:
            result.append(_positive(r))
    result.sort(key=max, reverse=True)
    return result


def _complete(
    basis: list[PPoly], f: PPoly, pk: _Packing
) -> tuple[list[PPoly], list[Reducer]]:
    """A Groebner basis of the ideal of basis + (f), given that basis is a
    Groebner basis: its elements and their reducers, basis's own first.  f
    is any polynomial; when it reduces to zero it is in the ideal, and
    basis comes back as it is.

    A signature-based completion (Faugere, "A new efficient algorithm for
    computing Groebner bases without reduction to zero (F5)", ISSAC 2002;
    Eder and Roune, "Signature rewriting in Groebner basis computation",
    ISSAC 2013).  Each new element is a + u*f with a in the ideal of basis;
    its signature is lm(u), a packed monomial, and the elements of basis
    sit below every signature.  Signatures T of S-pairs are taken smallest
    first, each once:
    - a pair whose two shifted signatures are equal is singular and makes
      none;
    - T is a syzygy's when the leading monomial of an element of basis
      divides it, or a reduction of a signature that divides it ended in
      zero: such a reduction records its signature.  When f is a
      nonzerodivisor modulo the ideal of basis, u*f in it puts u in it, so
      the first test finds every syzygy and no reduction ends in zero, as
      in a saturation; a zero divisor f, as a slice may be, leaves some
      syzygies to the second;
    - otherwise the newest element r whose signature divides T stands for
      all of T: (T / sig r)*r is reduced by _nf under the signature T, and
      joins unless an element of signature T already covers it."""
    guards, divides, pack = pk.guards, pk.divides, pk.pack
    red = [pk.reducer(d) for d in basis]
    polys = list(basis)
    exps = [pk.unpack(g[0]) for g in red]
    syz = [g[0] for g in red]
    queue: list[int] = []

    def syzygy(T: int) -> bool:
        return any(divides(z, T) for z in syz)

    def add(d: PPoly, sig: int):
        d = _positive(d)
        red.append(pk.reducer(d, sig))
        polys.append(d)
        lm = red[-1][0]
        e = pk.unpack(lm)
        for j, (lmj, _, _, _, _, sj) in enumerate(red[:-1]):
            l = pack(tuple(map(max, exps[j], e)))
            T = sig + l - lm
            if sj >= 0:
                Tj = sj + l - lmj
                if Tj == T:
                    continue
                T = max(T, Tj)
            if T & guards:
                raise _Overflow
            if not syzygy(T):
                heapq.heappush(queue, T)
        exps.append(e)

    if syzygy(0):
        return polys, red  # basis holds a unit
    h = _nf(f, red, pk, 0)
    if not h:
        return polys, red  # f is in the ideal of basis
    add(h, 0)
    last = -1
    while queue:
        T = heapq.heappop(queue)
        if T == last:
            continue
        last = T
        if syzygy(T):
            continue
        k = len(red) - 1
        while not divides(red[k][5], T):
            k -= 1
        m = T - red[k][5]
        if (red[k][4] + m) & guards:
            raise _Overflow
        h = _nf({e + m: v for e, v in polys[k].items()}, red, pk, T)
        if h:
            add(h, T)
        elif h is not None:
            syz.append(T)
    return polys, red


def _groebner_ints(gens: list[IPoly], order: MonomialOrder) -> list[IPoly]:
    """Reduced Groebner basis of the integer polynomials gens under a global
    order, each element primitive with a positive leading coefficient.

    The local order is answered without Mora: homogenize each generator,
    run the global engine under the Lazard order, set t = 1.  Mora
    reduction swells badly on dense generators; the homogenized global
    computation is far better behaved and Lazard's theorem makes its
    dehomogenization a standard basis for the local order."""
    gens = [d for d in gens if d]
    if not gens:
        return []
    if not order.is_global:
        hgens = []
        for d in gens:
            deg = max(sum(e) for e in d)
            hgens.append({e + (deg - sum(e),): c for e, c in d.items()})
        return [{e[:-1]: c for e, c in d.items()} for d in _groebner_ints(hgens, LAZARD)]
    n = len(next(iter(gens[0])))

    def run(width: int) -> list[IPoly]:
        pk = _packing(order, n, width)
        basis = _buchberger([pk.pack_poly(d) for d in gens], pk)
        return [pk.unpack_poly(d) for d in basis]

    return _widening(_width(gens), run)


# -- API types -------------------------------------------------------------


class Basis:
    """A reduced Groebner (or standard) basis with its order.  It keeps the
    kernel's primitive integer elements; the monic Fraction ones are built
    when they are first read."""

    __slots__ = ("vars", "order", "_red", "_elements", "_packed")

    def __init__(self, vars: tuple[str, ...], order: MonomialOrder, ints: list[IPoly]):
        self.vars = tuple(vars)
        self.order = order
        keyf = order.key(len(self.vars))
        self._red = []
        for d in ints:
            lm = max(d, key=keyf)
            self._red.append((lm, d[lm], d))
        self._elements: tuple[Polynomial, ...] | None = None
        self._packed: tuple[_Packing, list[Reducer]] | None = None

    @property
    def elements(self) -> tuple[Polynomial, ...]:
        if self._elements is None:
            # monic: the order's leading coefficient is 1
            self._elements = tuple(
                _trusted(self.vars, {e: Fraction(v, lc) for e, v in d.items()})
                for _, lc, d in self._red
            )
        return self._elements

    @property
    def ints(self) -> list[IPoly]:
        """The elements as primitive integer polynomials whose leading
        coefficient is positive."""
        return [d for _, _, d in self._red]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self._red)

    def leading_monomials(self) -> tuple[ExpVec, ...]:
        return tuple(lm for lm, _, _ in self._red)

    def _nf(self, d: IPoly) -> IPoly:
        """_nf of d against the basis, through packed reducers that are
        built on first use and rebuilt wider when d needs it."""

        def run(width: int) -> IPoly:
            if self._packed is None or self._packed[0].width < width:
                ints = self.ints
                pk = _packing(self.order, len(self.vars), max(width, _width(ints)))
                self._packed = pk, [pk.reducer(pk.pack_poly(g)) for g in ints]
            pk, red = self._packed
            return pk.unpack_poly(_nf(pk.pack_poly(d), red, pk))

        return _widening(_width([d]), run)

    def contains(self, p: Polynomial) -> bool:
        if not self.order.is_global:
            raise ValueError("membership via full reduction needs a global order")
        if p.is_zero:
            return True
        return not self._nf(_to_int(p))

    def contains_unit(self) -> bool:
        return any(sum(lm) == 0 for lm in self.leading_monomials())

    def __repr__(self):
        return f"Basis({[str(p) for p in self.elements]}, {self.order.kind})"


class Ideal:
    """A polynomial ideal given by generators, with cached Groebner bases."""

    __slots__ = ("vars", "gens", "_cache")

    def __init__(self, gens: Iterable[Polynomial], vars: Sequence[str] | None = None):
        gens = [g for g in gens if not g.is_zero]
        if vars is None:
            if not gens:
                raise ValueError("zero ideal needs explicit variables")
            vars = gens[0].vars
        self.vars = tuple(vars)
        for g in gens:
            if g.vars != self.vars:
                raise ValueError("all generators must share the variable tuple")
        seen = set()
        uniq = []
        for g in gens:
            if g not in seen:
                seen.add(g)
                uniq.append(g)
        self.gens = tuple(uniq)
        self._cache: dict[MonomialOrder, Basis] = {}

    def __reduce__(self):
        # the generators alone: a worker's pickled reply stays small, and
        # the copy computes its own bases
        return (_restore_ideal, (self.gens, self.vars))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self, order: MonomialOrder = GREVLEX) -> Basis:
        """The reduced Groebner basis of the ideal under order, or its
        standard basis under the local order; computed once per order."""
        basis = self._cache.get(order)
        if basis is None:
            basis = Basis(self.vars, order, _groebner_ints(self._gen_ints(), order))
            self._cache[order] = basis
        return basis

    def _gen_ints(self) -> list[IPoly]:
        """The generators in primitive integer form, read off the cached
        grevlex basis when they are its elements."""
        basis = self._cache.get(GREVLEX)
        if basis is not None and basis._elements is self.gens:
            return basis.ints
        return [_to_int(g) for g in self.gens]

    def contains(self, p: Polynomial) -> bool:
        return self.groebner().contains(p)

    def __repr__(self):
        return f"Ideal([{', '.join(str(g) for g in self.gens)}])"


def _restore_ideal(gens: tuple[Polynomial, ...], vars: tuple[str, ...]) -> Ideal:
    """An Ideal of generators that are already checked and deduplicated,
    with an empty basis cache: unpickling, and the elements of a reduced
    basis (_carrying)."""
    I = object.__new__(Ideal)
    I.vars = vars
    I.gens = gens
    I._cache = {}
    return I


# -- eliminations -----------------------------------------------------------


def _saturate(I: Ideal, gs: Sequence[Polynomial]) -> Ideal:
    """I : (gs)^infinity as (I + (f)) meet k[x], f = 1 - t_1*g_1 - ... -
    t_r*g_r, each g_i in its integer form, a unit multiple of it.

    The block order that eliminates t puts the grevlex rows of x below
    those of t (orders.py), so on t-free monomials it is grevlex: I's
    reduced grevlex basis, read through Ideal.groebner and so left in I's
    cache, is a Groebner basis of I*k[x, t] in it.  f is 1 modulo (t), so
    it is a nonzerodivisor modulo
    I*k[x, t], and _complete adds it with no reduction to zero.  The t-free
    elements of the result, interreduced, are the reduced grevlex basis of
    the saturation, which comes back in its cache."""
    n, r = len(I.vars), len(gs)
    pad = (0,) * r
    gens = [{e + pad: v for e, v in d.items()} for d in I.groebner().ints]
    f = {(0,) * (n + r): 1}
    for i, g in enumerate(gs):
        t = pad[:i] + (1,) + pad[i + 1 :]
        f.update({e + t: -v for e, v in _to_int(g).items()})
    order = elimination_order(tuple(range(n, n + r)))

    def run(width: int) -> list[IPoly]:
        pk = _packing(order, n + r, width)
        polys, red = _complete([pk.pack_poly(d) for d in gens], pk.pack_poly(f), pk)
        tfree = [k for k, (lm, *_) in enumerate(red) if not any(pk.unpack(lm)[n:])]
        kept = _interreduce([polys[k] for k in tfree], [red[k] for k in tfree], pk)
        return [{e[:n]: v for e, v in pk.unpack_poly(d).items()} for d in kept]

    return _carrying(I.vars, _widening(_width([*gens, f]), run))


def _carrying(vars: tuple[str, ...], ints: list[IPoly]) -> Ideal:
    """The Ideal whose generators are the monic elements of the reduced
    grevlex basis ints, with that basis in its cache."""
    basis = Basis(vars, GREVLEX, ints)
    I = _restore_ideal(basis.elements, vars)
    I._cache[GREVLEX] = basis
    return I


def _saturate_principal(I: Ideal, g: Polynomial) -> Ideal:
    """I : g^infinity, saturate's case of one generator."""
    if g.is_zero:
        raise ValueError("cannot saturate by the zero polynomial")
    if g.vars != I.vars:
        raise ValueError("variable mismatch")
    return _saturate(I, (g,))


def _saturate_coordinate(I: Ideal, i: int) -> Ideal:
    """I : x_i^infinity, generated by polynomials that are in general no
    Groebner basis of it.

    No auxiliary variable is needed (Bayer and Stillman, "A criterion for
    detecting m-regularity", Invent. Math. 87, 1987): for a homogeneous
    ideal and a grevlex order in which x_i is the smallest variable,
    dividing each element of the reduced basis by the largest power of x_i
    that divides it gives a basis of the saturation by x_i.  The generators
    of I are homogenized with one new variable w; setting w = 1 maps the
    saturation of the ideal they generate onto I : x_i^infinity."""
    n = len(I.vars)
    if not 0 <= i < n:
        raise ValueError(f"no variable {i} in {n} variables")
    if I.is_zero:
        return I
    rest = [k for k in range(n) if k != i]
    hgens = []
    for d in I._gen_ints():
        deg = max(map(sum, d))
        hgens.append({tuple([e[k] for k in rest]) + (deg - sum(e), e[i]): v for e, v in d.items()})
    gens = []
    for d in _groebner_ints(hgens, GREVLEX):
        low = min(e[-1] for e in d)
        # homogeneous, so dropping w merges no two terms
        terms = {e[:i] + (e[-1] - low,) + e[i : n - 1]: Fraction(v) for e, v in d.items()}
        gens.append(_trusted(I.vars, terms))
    return Ideal(gens, vars=I.vars)


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """I : J^infinity, for J = (g_1, ..., g_r), as the one elimination
    (I + (1 - t_1*g_1 - ... - t_r*g_r)) meet k[x] (Rabinowitsch's trick).

    Let K be that ideal of k[x, t].  If f*g_i^N is in I for every i, every
    term of f*(t_1*g_1 + ... + t_r*g_r)^(rN) is, and f is congruent to it
    modulo K, so f is in K.  Conversely, substituting t_i = 1/g_i and t_j = 0
    (j != i) in f = a + b*(1 - sum t_j*g_j), a in I[t], and clearing
    denominators puts g_i^N*f in I for each i."""
    if I.vars != J.vars:
        raise ValueError("variable mismatch")
    if J.is_zero:
        # J^infinity is the zero ideal; I : (0) is the whole ring
        return Ideal([Polynomial.constant(1, I.vars)], vars=I.vars)
    if I.is_zero:
        return I
    return _saturate(I, J.gens)


def radical_member(g: Polynomial, I: Ideal) -> bool:
    """Whether g vanishes on V(I): g is zero, or lies in I, or I : g^infinity
    is the unit ideal (Rabinowitsch trick)."""
    if g.vars != I.vars:
        raise ValueError("variable mismatch")
    if g.is_zero or (not I.is_zero and I.contains(g)):
        return True
    return _saturate_principal(I, g).groebner().contains_unit()


# -- slices -----------------------------------------------------------------


def _extend(ints: list[IPoly], f: IPoly, n: int) -> list[IPoly]:
    """The reduced grevlex basis of (ints) + (f), ints being a reduced
    grevlex basis in n variables: _complete adds f, and _interreduce runs."""

    def run(width: int) -> list[IPoly]:
        pk = _packing(GREVLEX, n, width)
        polys, red = _complete([pk.pack_poly(d) for d in ints], pk.pack_poly(f), pk)
        return [pk.unpack_poly(d) for d in _interreduce(polys, red, pk)]

    return _widening(_width([*ints, f]), run)


def _slice(I: Ideal, p: Polynomial) -> Ideal:
    """I + (p).  From I's cached reduced grevlex basis, a completion adds p,
    and the result carries its own basis; without one, the Ideal of I's
    generators and p."""
    basis = I._cache.get(GREVLEX)
    if basis is None:
        return Ideal([*I.gens, p], vars=I.vars)
    return _carrying(I.vars, _extend(basis.ints, _to_int(p), len(I.vars)))


def _slice_coordinate(I: Ideal, i: int) -> Ideal:
    """I with x_i set to 0, an ideal of the other variables.

    From I's cached reduced grevlex basis, a completion adds x_i.  In the
    reduced basis of I + (x_i) every element but x_i is free of x_i, and
    grevlex on the x_i-free monomials is grevlex on the other variables, so
    dropping x_i, and the i-th exponent of the rest, leaves the reduced
    basis of the slice, which the result carries.  Without a cached basis
    the generators of I are restricted."""
    n = len(I.vars)
    vars = I.vars[:i] + I.vars[i + 1 :]
    basis = I._cache.get(GREVLEX)
    if basis is None:
        return Ideal([g.set_var_zero(i) for g in I.gens], vars=vars)
    x = {tuple(int(k == i) for k in range(n)): 1}
    return _carrying(
        vars,
        [{e[:i] + e[i + 1 :]: v for e, v in d.items()} for d in _extend(basis.ints, x, n) if d != x],
    )
