"""Groebner bases over the rationals and the ideal operations built on them.

The hot loops run fraction-free: a polynomial is a dict from exponent tuples
to ints, kept primitive (content 1).  Scaling a generator does not change the
ideal, so Buchberger, reduction and membership all work on integer data; the
API converts back to monic Fraction polynomials at the boundary.

Buchberger uses normal-pair selection (smallest lcm in the order) with the
Gebauer-Moeller form of the product and chain criteria.  Intersections and
saturations by a principal ideal each take one auxiliary variable and a
block elimination order; saturating by an ideal intersects the saturations
by its generators.
"""

from __future__ import annotations

import heapq
import threading
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .orders import GREVLEX, MonomialOrder, elimination_order
from .poly import ExpVec, Polynomial

IPoly = dict[ExpVec, int]

# -- integer polynomial helpers -------------------------------------------


def _to_int(p: Polynomial) -> IPoly:
    """Primitive integer form of p (content stripped; ideal-equivalent)."""
    if not p.terms:
        return {}
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    out = {e: int(c * denom) for e, c in p.terms.items()}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {e: v // g for e, v in out.items()}
    return out


def _from_int(d: IPoly, vars: tuple[str, ...], keyf) -> Polynomial:
    """Monic Fraction polynomial with the given order's leading coefficient 1."""
    if not d:
        return Polynomial.zero(vars)
    lm = max(d, key=keyf)
    lc = d[lm]
    return Polynomial(vars, {e: Fraction(v, lc) for e, v in d.items()})


def _strip(d: IPoly) -> IPoly:
    g = 0
    for v in d.values():
        g = gcd(g, v)
    if g > 1:
        return {e: v // g for e, v in d.items()}
    return d


def _normalize_sign(d: IPoly, keyf) -> IPoly:
    if d and d[max(d, key=keyf)] < 0:
        return {e: -v for e, v in d.items()}
    return d


def _divides(a: ExpVec, b: ExpVec) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm_exp(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mul_exp(e: ExpVec, s: ExpVec) -> ExpVec:
    return tuple(x + y for x, y in zip(e, s))


def _neg_key(k):
    """Order-reversing image of a sort key (nested tuples of ints), so the
    min-heap pops the largest monomial first."""
    return tuple(-x if isinstance(x, int) else _neg_key(x) for x in k)


def _nf(h: IPoly, red: list[tuple[ExpVec, int, IPoly]], keyf, want_scale=False):
    """Fully reduced fraction-free normal form of h against red.

    Returns the primitive remainder; with want_scale, also the positive
    rational mu such that (remainder) == mu * h modulo the ideal of red.

    The working terms sit in a coefficient dict plus a lazy-deletion heap;
    every reduction only introduces monomials below the one being cleared,
    so each key is computed once, when its monomial first appears.
    """
    coeff = dict(h)
    heap = [(_neg_key(keyf(e)), e) for e in coeff]
    heapq.heapify(heap)
    # finished terms are deposited with the current values of F and G and
    # reconciled once at the end: scalings after the deposit multiply it,
    # content strips before the deposit are undone
    out: list[tuple[ExpVec, int, int, int]] = []
    F = 1  # product of the co-scaling factors applied to the live part
    G = 1  # product of the contents stripped from the live part
    steps = 0
    while heap:
        m = heapq.heappop(heap)[1]
        c = coeff.pop(m, 0)
        if not c:
            continue
        for lm, lc, g in red:
            if _divides(lm, m):
                shift = tuple(a - b for a, b in zip(m, lm))
                if lc != 1:
                    # minimal co-scaling: (lc/d)*coeff - (c/d)*shift(g)
                    d = gcd(c, lc)
                    f0 = lc // d
                    c = c // d
                    if f0 != 1:
                        for k in coeff:
                            coeff[k] *= f0
                        F *= f0
                for e, v in g.items():
                    if e == lm:
                        continue
                    ee = _mul_exp(e, shift)
                    old = coeff.get(ee, 0)
                    nv = old - c * v
                    if nv:
                        coeff[ee] = nv
                        if not old:
                            heapq.heappush(heap, (_neg_key(keyf(ee)), ee))
                    else:
                        coeff.pop(ee, None)
                break
        else:
            out.append((m, c, F, G))
        steps += 1
        if steps % 16 == 0 and coeff:
            g0 = 0
            for v in coeff.values():
                g0 = gcd(g0, v)
            if g0 > 1:
                for k in coeff:
                    coeff[k] //= g0
                G *= g0
    res: IPoly = {e: c * (F // f) * g0 for e, c, f, g0 in out}
    scale = Fraction(F)
    if res:
        g0 = 0
        for v in res.values():
            g0 = gcd(g0, v)
        if g0 > 1:
            res = {e: v // g0 for e, v in res.items()}
            scale /= g0
    if want_scale:
        return res, scale
    return res


def _spoly(a: tuple[ExpVec, int, IPoly], b: tuple[ExpVec, int, IPoly]) -> IPoly:
    (lma, lca, fa), (lmb, lcb, fb) = a, b
    lcm = _lcm_exp(lma, lmb)
    sa = tuple(x - y for x, y in zip(lcm, lma))
    sb = tuple(x - y for x, y in zip(lcm, lmb))
    out: IPoly = {}
    for e, v in fa.items():
        out[_mul_exp(e, sa)] = lcb * v
    for e, v in fb.items():
        ee = _mul_exp(e, sb)
        nv = out.get(ee, 0) - lca * v
        if nv:
            out[ee] = nv
        else:
            out.pop(ee, None)
    return _strip(out)


def _update_pairs(lms: list[ExpVec], pairs: set[tuple[int, int]], t: int):
    """Gebauer-Moeller update after appending element t."""
    lmt = lms[t]
    lcms = {i: _lcm_exp(lms[i], lmt) for i in range(t)}
    # chain criterion against the new element: drop old pairs whose lcm is
    # reachable through t
    drop = set()
    for (i, j) in pairs:
        lij = _lcm_exp(lms[i], lms[j])
        if (
            _divides(lmt, lij)
            and lcms[i] != lij
            and lcms[j] != lij
        ):
            drop.add((i, j))
    pairs -= drop
    # group the new pairs by lcm; the product criterion kills a whole group,
    # divisibility between groups kills the larger one, one representative
    # survives per group
    groups: dict[ExpVec, list[int]] = {}
    for i in range(t):
        groups.setdefault(lcms[i], []).append(i)
    coprime = {
        l
        for l, members in groups.items()
        if any(l == _mul_exp(lms[i], lmt) for i in members)
    }
    kept_lcms: list[ExpVec] = []
    for l in sorted(groups, key=lambda e: (sum(e), e)):
        if l in coprime:
            continue
        if any(_divides(k, l) for k in kept_lcms):
            continue
        kept_lcms.append(l)
        pairs.add((groups[l][0], t))


def _buchberger(gens: list[IPoly], keyf) -> list[IPoly]:
    G: list[tuple[ExpVec, int, IPoly]] = []
    lms: list[ExpVec] = []
    pairs: set[tuple[int, int]] = set()

    def add(d: IPoly):
        d = _normalize_sign(_strip(d), keyf)
        lm = max(d, key=keyf)
        G.append((lm, d[lm], d))
        lms.append(lm)
        _update_pairs(lms, pairs, len(G) - 1)

    for d in gens:
        if d:
            add(d)
    while pairs:
        i, j = min(
            pairs, key=lambda p: (keyf(_lcm_exp(lms[p[0]], lms[p[1]])), p[1], p[0])
        )
        pairs.discard((i, j))
        r = _nf(_spoly(G[i], G[j]), G, keyf)
        if r:
            add(r)
    return _interreduce([g[2] for g in G], keyf)


def _interreduce(polys: list[IPoly], keyf) -> list[IPoly]:
    polys = [p for p in polys if p]
    lms = [max(p, key=keyf) for p in polys]
    keep = []
    for idx, lm in enumerate(lms):
        if any(
            o != idx and _divides(lms[o], lm) and (lms[o] != lm or o < idx)
            for o in range(len(polys))
        ):
            continue
        keep.append(idx)
    result = []
    for pos, idx in enumerate(keep):
        others = [
            (lms[o], polys[o][lms[o]], polys[o]) for o in keep if o != idx
        ]
        r = _nf(polys[idx], others, keyf)
        if r:
            result.append(_normalize_sign(r, keyf))
    result.sort(key=lambda p: keyf(max(p, key=keyf)), reverse=True)
    return result


# -- API types -------------------------------------------------------------


class Basis:
    """A reduced Groebner (or standard) basis with its order."""

    __slots__ = ("vars", "order", "elements", "_red")

    def __init__(self, vars: tuple[str, ...], order: MonomialOrder, ints: list[IPoly]):
        self.vars = tuple(vars)
        self.order = order
        keyf = order.key(len(self.vars))
        self.elements = tuple(_from_int(d, self.vars, keyf) for d in ints)
        self._red = [(max(d, key=keyf), d[max(d, key=keyf)], d) for d in ints]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self) -> tuple[ExpVec, ...]:
        return tuple(lm for lm, _, _ in self._red)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical remainder of p modulo the basis (linear in p)."""
        if not self.order.is_global:
            raise ValueError("full reduction needs a global order")
        if p.vars != self.vars:
            raise ValueError("variable mismatch")
        if p.is_zero:
            return p
        keyf = self.order.key(len(self.vars))
        d = _to_int(p)
        # p == (c/den) * d for the primitive d; recover the true scalar
        lm = max(d, key=keyf)
        factor = p.terms[lm] / Fraction(d[lm])
        r, mu = _nf(d, self._red, keyf, want_scale=True)
        return Polynomial(self.vars, {e: factor * Fraction(v) / mu for e, v in r.items()})

    def contains(self, p: Polynomial) -> bool:
        if not self.order.is_global:
            raise ValueError("membership via full reduction needs a global order")
        if p.is_zero:
            return True
        keyf = self.order.key(len(self.vars))
        return not _nf(_to_int(p), self._red, keyf)

    def contains_unit(self) -> bool:
        return any(sum(lm) == 0 for lm in self.leading_monomials())

    def __repr__(self):
        return f"Basis({[str(p) for p in self.elements]}, {self.order.kind})"


class Ideal:
    """A polynomial ideal given by generators, with cached Groebner bases."""

    __slots__ = ("vars", "gens", "_cache", "_lock")

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
        self._lock = threading.Lock()

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self, order: MonomialOrder = GREVLEX) -> Basis:
        if not order.is_global:
            raise ValueError("use local_standard_basis for local orders")
        with self._lock:
            basis = self._cache.get(order)
        if basis is not None:
            return basis
        keyf = order.key(len(self.vars))
        ints = _buchberger([_to_int(g) for g in self.gens], keyf)
        basis = Basis(self.vars, order, ints)
        with self._lock:
            self._cache.setdefault(order, basis)
        return basis

    def contains(self, p: Polynomial) -> bool:
        return self.groebner().contains(p)

    def __repr__(self):
        return f"Ideal([{', '.join(str(g) for g in self.gens)}])"


# -- ring plumbing ---------------------------------------------------------


def _aux_name(vars: tuple[str, ...]) -> str:
    base = "t"
    if base not in vars:
        return base
    k = 0
    while f"t{k}" in vars:
        k += 1
    return f"t{k}"


def _extend(p: Polynomial, new_vars: tuple[str, ...]) -> Polynomial:
    """Reinterpret p in a ring with one extra last variable."""
    return Polynomial(new_vars, {e + (0,): c for e, c in p.terms.items()})


def eliminate(I: Ideal, drop) -> Ideal:
    """Intersection of I with the subring omitting the given variables."""
    if not drop:
        return I
    idxs = tuple(
        sorted({d if isinstance(d, int) else I.vars.index(d) for d in drop})
    )
    for i in idxs:
        if not 0 <= i < len(I.vars):
            raise ValueError(f"bad variable index {i}")
    if len(idxs) == len(I.vars):
        raise ValueError("cannot eliminate every variable")
    basis = I.groebner(elimination_order(idxs))
    keep_vars = tuple(v for i, v in enumerate(I.vars) if i not in idxs)
    kept = []
    for p in basis:
        if all(all(e[i] == 0 for i in idxs) for e in p.terms):
            kept.append(
                Polynomial(
                    keep_vars,
                    {
                        tuple(x for i, x in enumerate(e) if i not in idxs): c
                        for e, c in p.terms.items()
                    },
                )
            )
    return Ideal(kept, vars=keep_vars)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via one auxiliary variable and block elimination."""
    if I.vars != J.vars:
        raise ValueError("variable mismatch")
    if I.is_zero or J.is_zero:
        return Ideal((), vars=I.vars)
    aux = _aux_name(I.vars)
    ext_vars = I.vars + (aux,)
    t = Polynomial.var_index(len(I.vars), ext_vars)
    one = Polynomial.constant(1, ext_vars)
    gens = [t * _extend(g, ext_vars) for g in I.gens]
    gens += [(one - t) * _extend(g, ext_vars) for g in J.gens]
    return eliminate(Ideal(gens, vars=ext_vars), (len(I.vars),))


def _saturate_principal(I: Ideal, g: Polynomial) -> Ideal:
    """I : g^infinity as (I + (1 - t*g)) meet k[x]."""
    if g.is_zero:
        raise ValueError("cannot saturate by the zero polynomial")
    aux = _aux_name(I.vars)
    ext_vars = I.vars + (aux,)
    t = Polynomial.var_index(len(I.vars), ext_vars)
    one = Polynomial.constant(1, ext_vars)
    gens = [_extend(p, ext_vars) for p in I.gens]
    gens.append(one - t * _extend(g, ext_vars))
    return eliminate(Ideal(gens, vars=ext_vars), (len(I.vars),))


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """I : J^infinity.

    A primary component survives exactly when some generator of J avoids its
    radical, so the saturation is the intersection of the saturations by the
    individual generators, each of which is one elimination."""
    if I.vars != J.vars:
        raise ValueError("variable mismatch")
    gens = [g for g in J.gens if not g.is_zero]
    if not gens:
        # J^infinity is the zero ideal; I : (0) is the whole ring
        return Ideal([Polynomial.constant(1, I.vars)], vars=I.vars)
    if I.is_zero:
        return I
    result: Ideal | None = None
    for g in gens:
        part = _saturate_principal(I, g)
        result = part if result is None else intersect(result, part)
    return result


def radical_member(g: Polynomial, I: Ideal) -> bool:
    """Whether g vanishes on V(I) (Rabinowitsch trick)."""
    if g.vars != I.vars:
        raise ValueError("variable mismatch")
    if g.is_zero:
        return True
    if not I.is_zero and I.contains(g):
        return True
    aux = _aux_name(I.vars)
    ext_vars = I.vars + (aux,)
    t = Polynomial.var_index(len(I.vars), ext_vars)
    gens = [_extend(p, ext_vars) for p in I.gens]
    gens.append(Polynomial.constant(1, ext_vars) - t * _extend(g, ext_vars))
    return Ideal(gens, vars=ext_vars).groebner().contains_unit()
