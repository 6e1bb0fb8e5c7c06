"""Reference implementations the tests compare the library against.

Each computes a quantity the library also computes, by a route that shares
as little code as possible with the production one, so that agreement is
evidence:

- Mora's tangent cone algorithm (weak normal forms with the ecart rule,
  intermediate results joining the reducer set) in place of Lazard's
  homogenization.  It swells on dense generators but is the classical
  reference point.  The Buchberger pair criteria need care in the local
  order: divisibility no longer bounds monomials from below, which breaks
  the product criterion's proof, so its pair update uses only the chain
  criterion.
- standard_monomial_count enumerates the staircase box directly instead of
  reading the Hilbert series.
- m_primary_colength extracts the origin component globally
  (I : (I : m^infinity)) and counts its staircase.
- dim reads the global dimension off maximal independent variable sets.
- germ_subset_by_saturation saturates by the whole of J and reads the
  dimension of I : J^infinity at the origin off its Lazard standard basis,
  where the library saturates by one generator of J at a time and asks
  only whether the origin is on each.
- saturate_by_elimination hands the generators of I and
  1 - t_1*g_1 - ... - t_r*g_r to one Buchberger run under the block order
  that eliminates t (_eliminate_t), where the library completes a grevlex
  basis of I by the last one alone, with signatures.
- saturate_by_generators intersects the saturations by the generators of
  J, one principal elimination each, joined by intersect, where the
  library saturates by all of them at once, with an auxiliary variable
  per generator.
- framed_polar_ideal saturates the partials of h = apply_frame(f, frame)
  in the frame's own coordinates, where the library saturates whichever of
  those and f's own partials are the smaller and carries the result
  through the frame.  polar_curve_mult reads mult Gamma^1 off it, where
  the library reads it off the Gamma^1 its Le record holds.
- general_intersection_number cuts a cycle by any list of hypersurfaces:
  every form but the last joins the generators, the cut is saturated by
  the maximal ideal and the last slice is counted with Lazard's standard
  basis, where the library cuts only by coordinates, by substitution, and
  counts one slice of the saturated curve from its grevlex basis.
- serial_generic_le runs the frame trials of generic_le one after another
  in this process, where the library hands all but one of each round's
  trials to forked workers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from lenumbers.cycles import LeRecord, _validate_singular, lambda_numbers, sigma_ideal
from lenumbers.groebner import (
    Basis,
    Ideal,
    IPoly,
    _divides,
    _groebner_ints,
    _restore_ideal,
    _strip,
    _to_int,
    saturate,
)
from lenumbers.local import (
    _colength,
    _minimalize,
    hs_multiplicity,
    lazard_local_dim,
    local_dim,
    local_quotient_dim,
    local_standard_basis,
)
from lenumbers.orders import GREVLEX, LOCAL, ExpVec, elimination_order
from lenumbers.poly import Frame, Polynomial, apply_frame


# -- exponent tuples ----------------------------------------------------------


def _lcm_exp(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mul_exp(e: ExpVec, s: ExpVec) -> ExpVec:
    return tuple(x + y for x, y in zip(e, s))


def _normalize_sign(d: IPoly, keyf) -> IPoly:
    if d and d[max(d, key=keyf)] < 0:
        return {e: -v for e, v in d.items()}
    return d


# -- Mora's tangent cone algorithm -----------------------------------------

_MAX_REDUCTIONS = 200000


def _max_deg(d: IPoly) -> int:
    return max(sum(e) for e in d)


def _mora_nf(h: IPoly, red: list[list], keyf) -> IPoly:
    """Weak normal form of h: some unit multiple of h minus an ideal element,
    with an irreducible leading monomial.  red entries are [lm, lc, ecart,
    poly]; intermediate results with smaller ecart than every reducer join
    the list for the duration of the call."""
    T = list(red)
    h = _strip(dict(h))
    steps = 0
    while h:
        lm = max(h, key=keyf)
        best = None
        for idx, (glm, glc, gec, g) in enumerate(T):
            if _divides(glm, lm):
                if best is None or gec < best[2]:
                    best = (glm, glc, gec, g)
        if best is None:
            return h
        glm, glc, gec, g = best
        deg = sum(lm)
        ecart_h = _max_deg(h) - deg
        if gec > ecart_h:
            T.append([lm, h[lm], ecart_h, dict(h)])
        c = h[lm]
        shift = tuple(a - b for a, b in zip(lm, glm))
        nh: IPoly = {e: glc * v for e, v in h.items()}
        for e, v in g.items():
            ee = _mul_exp(e, shift)
            nv = nh.get(ee, 0) - c * v
            if nv:
                nh[ee] = nv
            else:
                nh.pop(ee, None)
        h = _strip(nh)
        steps += 1
        if steps > _MAX_REDUCTIONS:  # pragma: no cover - safety valve
            raise RuntimeError("local reduction did not terminate")
    return h


def _update_pairs_local(lms: list[ExpVec], pairs: set[tuple[int, int]], t: int):
    """Pair update by the chain criterion alone (safe for local orders)."""
    lmt = lms[t]
    lcms = {i: _lcm_exp(lms[i], lmt) for i in range(t)}
    drop = set()
    for (i, j) in pairs:
        lij = _lcm_exp(lms[i], lms[j])
        if _divides(lmt, lij) and lcms[i] != lij and lcms[j] != lij:
            drop.add((i, j))
    pairs -= drop
    for i in range(t):
        li = lcms[i]
        if any(
            j != i and _divides(lcms[j], li) and lcms[j] != li for j in range(t)
        ):
            continue
        pairs.add((i, t))


def _standard_basis_ints(gens: list[IPoly], keyf) -> list[IPoly]:
    G: list[list] = []
    lms: list[ExpVec] = []
    pairs: set[tuple[int, int]] = set()

    def add(d: IPoly):
        d = _normalize_sign(d, keyf)
        lm = max(d, key=keyf)
        G.append([lm, d[lm], _max_deg(d) - sum(lm), d])
        lms.append(lm)
        _update_pairs_local(lms, pairs, len(G) - 1)

    for d in gens:
        if d:
            add(_strip(d))
    grevlex = GREVLEX.key(len(lms[0])) if lms else None
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (grevlex(_lcm_exp(lms[p[0]], lms[p[1]])), p[1], p[0]),
        )
        pairs.discard((i, j))
        lcm = _lcm_exp(lms[i], lms[j])
        si = tuple(a - b for a, b in zip(lcm, lms[i]))
        sj = tuple(a - b for a, b in zip(lcm, lms[j]))
        s: IPoly = {}
        for e, v in G[i][3].items():
            s[_mul_exp(e, si)] = G[j][1] * v
        for e, v in G[j][3].items():
            ee = _mul_exp(e, sj)
            nv = s.get(ee, 0) - G[i][1] * v
            if nv:
                s[ee] = nv
            else:
                s.pop(ee, None)
        if not s:
            continue
        r = _mora_nf(_strip(s), G, keyf)
        if r:
            add(r)
    # minimal (not reduced: tail reduction need not terminate locally)
    keep = []
    for idx, lm in enumerate(lms):
        if any(
            o != idx and _divides(lms[o], lm) and (lms[o] != lm or o < idx)
            for o in range(len(lms))
        ):
            continue
        keep.append(idx)
    out = [G[i][3] for i in keep]
    out.sort(key=lambda p: keyf(max(p, key=keyf)), reverse=True)
    return out


def mora_normal_form(p: Polynomial, basis: Basis) -> Polynomial:
    """Weak normal form of p against a local standard basis: zero exactly
    when p lies in the ideal of the localization at the origin."""
    if basis.order != LOCAL:
        raise ValueError("mora_normal_form needs a local-order basis")
    if p.vars != basis.vars:
        raise ValueError("variable mismatch")
    if p.is_zero:
        return p
    keyf = LOCAL.key(len(basis.vars))
    red = [[lm, lc, _max_deg(d) - sum(lm), d] for lm, lc, d in basis._red]
    r = _mora_nf(_to_int(p), red, keyf)
    if not r:
        return Polynomial.zero(p.vars)
    lm = max(r, key=keyf)
    return Polynomial(p.vars, {e: Fraction(v, r[lm]) for e, v in r.items()})


def local_leading_monomials(I: Ideal) -> tuple[ExpVec, ...]:
    basis = local_standard_basis(I)
    return tuple(lm for lm, _, _ in basis._red)


def mora_quotient_dim(I: Ideal) -> int | None:
    """local_quotient_dim with the Mora engine in place of the
    homogenization route; an independent cross-check, not a fast path."""
    keyf = LOCAL.key(len(I.vars))
    ints = _standard_basis_ints([_to_int(g) for g in I.gens if not g.is_zero], keyf)
    return _colength(Basis(I.vars, LOCAL, ints))


# -- colength counts ------------------------------------------------------


def standard_monomial_count(lms, nvars: int, limit: int = 10**7) -> int | None:
    """Count monomials outside the monomial ideal by walking the staircase
    box; None when the count is infinite (some variable has no pure power)."""
    gens = list(_minimalize(frozenset(lms)))
    if any(sum(e) == 0 for e in gens):
        return 0
    bounds = [None] * nvars
    for e in gens:
        support = [i for i, x in enumerate(e) if x]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or e[i] < bounds[i]:
                bounds[i] = e[i]
    if any(b is None for b in bounds):
        return None
    size = 1
    for b in bounds:
        size *= b
    if size > limit:
        raise RuntimeError("staircase box too large to enumerate")
    count = 0
    for m in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(e, m) for e in gens):
            count += 1
    return count


def m_primary_colength(I: Ideal) -> int:
    """Colength of the origin component of I, found globally: saturate away
    everything through other points (I : m^infinity), then quotient back.
    Agrees with local_quotient_dim whenever that is finite."""
    m = Ideal(
        [Polynomial.var_index(i, I.vars) for i in range(len(I.vars))],
        vars=I.vars,
    )
    away = saturate(I, m)
    origin = ideal_quotient(I, away)
    basis = origin.groebner(GREVLEX)
    if basis.contains_unit():
        return 0
    count = standard_monomial_count(basis.leading_monomials(), len(I.vars))
    if count is None:
        raise ValueError("origin component is not zero-dimensional")
    return count


# -- global ideal operations ---------------------------------------------


def _eliminate_t(gens: list[IPoly], vars: tuple[str, ...], r: int) -> Ideal:
    """The ideal of the integer polynomials gens, whose last r exponents
    are auxiliary variables t_1..t_r, intersected with the ring of vars.

    The block order puts the grevlex rows of vars below those of the t
    block (orders.py), so on t-free monomials it is grevlex: the t-free
    elements of the reduced basis are the reduced grevlex basis of the
    result, which comes back in its cache."""
    n = len(vars)
    kept = [
        {e[:n]: v for e, v in d.items()}
        for d in _groebner_ints(gens, elimination_order(tuple(range(n, n + r))))
        if not any(any(e[n:]) for e in d)
    ]
    basis = Basis(vars, GREVLEX, kept)
    I = _restore_ideal(basis.elements, vars)
    I._cache[GREVLEX] = basis
    return I


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J as (t*I + (1 - t)*J) meet k[x]."""
    if I.vars != J.vars:
        raise ValueError("variable mismatch")
    if I.is_zero or J.is_zero:
        return Ideal((), vars=I.vars)
    gens = [{e + (1,): v for e, v in _to_int(g).items()} for g in I.gens]
    for g in J.gens:
        d = _to_int(g)
        gens.append({**{e + (0,): v for e, v in d.items()}, **{e + (1,): -v for e, v in d.items()}})
    return _eliminate_t(gens, I.vars, 1)


def saturate_by_elimination(I: Ideal, J: Ideal) -> Ideal:
    """I : J^infinity as (I + (1 - t_1*g_1 - ... - t_r*g_r)) meet k[x], the
    generators of I and the last one handed together to one Buchberger
    run under the block order."""
    if J.is_zero:
        return Ideal([Polynomial.constant(1, I.vars)], vars=I.vars)
    n, r = len(I.vars), len(J.gens)
    pad = (0,) * r
    gens = [{e + pad: v for e, v in _to_int(g).items()} for g in I.gens]
    last = {(0,) * (n + r): 1}
    for i, g in enumerate(J.gens):
        t = pad[:i] + (1,) + pad[i + 1 :]
        last.update({e + t: -v for e, v in _to_int(g).items()})
    gens.append(last)
    return _eliminate_t(gens, I.vars, r)


def saturate_by_generators(I: Ideal, J: Ideal) -> Ideal:
    """I : J^infinity as the intersection of the saturations by the
    generators of J, one elimination each: a primary component survives
    exactly when some generator of J avoids its radical."""
    if J.is_zero:
        return Ideal([Polynomial.constant(1, I.vars)], vars=I.vars)
    result: Ideal | None = None
    for g in J.gens:
        part = saturate_by_elimination(I, Ideal([g], vars=I.vars))
        result = part if result is None else intersect(result, part)
    return result


def _divide_exact(p: Polynomial, g: Polynomial) -> Polynomial:
    """Exact division p/g; raises if g does not divide p."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    keyf = GREVLEX.key(len(p.vars))
    h = dict(p.terms)
    lm_g = max(g.terms, key=keyf)
    lc_g = g.terms[lm_g]
    q: dict[ExpVec, Fraction] = {}
    while h:
        m = max(h, key=keyf)
        if not _divides(lm_g, m):
            raise ArithmeticError("inexact polynomial division")
        shift = tuple(a - b for a, b in zip(m, lm_g))
        c = h[m] / lc_g
        q[shift] = c
        for e, v in g.terms.items():
            ee = _mul_exp(e, shift)
            nv = h.get(ee, Fraction(0)) - c * v
            if nv:
                h[ee] = nv
            else:
                h.pop(ee, None)
    return Polynomial(p.vars, q)


def _quotient_principal(I: Ideal, g: Polynomial) -> Ideal:
    """I : (g) as (I cap (g)) / g."""
    meet = intersect(I, Ideal([g], vars=I.vars))
    return Ideal([_divide_exact(p, g) for p in meet.gens], vars=I.vars)


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """I : J, generator by generator through principal intersections."""
    if I.vars != J.vars:
        raise ValueError("variable mismatch")
    gens = [g for g in J.gens if not g.is_zero]
    if not gens:
        # I : (0) is the whole ring
        return Ideal([Polynomial.constant(1, I.vars)], vars=I.vars)
    result: Ideal | None = None
    for g in gens:
        q = _quotient_principal(I, g)
        result = q if result is None else intersect(result, q)
    return result


def dim(I: Ideal) -> int:
    """Dimension of the affine variety of I (-1 if empty), from the leading
    ideal via maximal independent variable sets."""
    basis = I.groebner(GREVLEX)
    if basis.contains_unit():
        return -1
    n = len(I.vars)
    lms = _minimal_monomials(basis.leading_monomials())
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                return size
    return -1  # pragma: no cover - size 0 always independent unless unit


def germ_subset_by_saturation(I: Ideal, J: Ideal) -> bool:
    """Whether V(I) lies in V(J) near the origin: whether the origin is off
    V(I : J^infinity)."""
    return lazard_local_dim(saturate(I, J)) == -1


def _minimal_monomials(monos: Sequence[ExpVec]) -> list[ExpVec]:
    out = []
    for m in monos:
        if any(o != m and _divides(o, m) for o in monos):
            continue
        if m not in out:
            out.append(m)
    return out


# -- polar curve ------------------------------------------------------------


def framed_polar_ideal(f: Polynomial, frame: Frame, j: int) -> Ideal:
    """Gamma^j of h = apply_frame(f, frame): the partials j..n of h
    saturated by the partials below j, all in the frame's coordinates."""
    h = apply_frame(f, frame)
    dh = [h.partial(i) for i in range(len(h.vars))]
    high = Ideal(dh[j:], vars=h.vars)
    if high.is_zero:
        return high
    return saturate(high, Ideal(dh[:j], vars=h.vars))


def polar_curve_mult(f: Polynomial, frame: Frame) -> int:
    """Multiplicity of the relative polar curve at the origin; 0 when it
    misses the origin, ValueError when it is not a curve there."""
    P = framed_polar_ideal(f, frame, 1)
    ld = local_dim(P)
    if ld == -1:
        return 0
    if ld != 1:
        raise ValueError(f"polar ideal is {ld}-dimensional, expected a curve")
    return hs_multiplicity(P, 1)


# -- intersection numbers -----------------------------------------------------


def general_intersection_number(I: Ideal, forms: Sequence[Polynomial]) -> int | None:
    """Local intersection number at the origin of the cycle of I with the
    hypersurfaces V(form), len(forms) matching the cycle dimension.  Every
    form but the last joins the generators, the cut is saturated by the
    maximal ideal, and the last slice's colength is read off its Lazard
    standard basis.  None when a form is zero or the colength is infinite
    (an improper cut); 0 when a form misses the origin."""
    if not forms:
        raise ValueError("need at least one hypersurface")
    for form in forms:
        if form.is_zero:
            return None
        if form.constant_term != 0:
            return 0
    *cuts, last = forms
    vars = I.vars
    J = I
    if cuts:
        m = Ideal([Polynomial.var_index(i, vars) for i in range(len(vars))], vars=vars)
        J = saturate(Ideal([*I.gens, *cuts], vars=vars), m)
    return local_quotient_dim(Ideal([*J.gens, last], vars=vars))


# -- generic frames -----------------------------------------------------------


def serial_generic_le(
    f: Polynomial, seed: int = 0, trials: int = 3, bound: int = 10
) -> LeRecord:
    """generic_le with its frame trials run one after another in this
    process: the loop generic_le ran before it used worker processes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _validate_singular(f)
    n1 = len(f.vars)
    s = local_dim(sigma_ideal(f))
    best = None
    b = bound
    for round_ in range(5):
        for t in range(trials):
            fseed = seed * 1000003 + round_ * trials + t
            rec = lambda_numbers(f, Frame.random(n1, fseed, b), s=s)
            if rec.fully_defined and (best is None or rec.lex_key() < best.lex_key()):
                best = rec
        if best is not None:
            return best
        b *= 2
    raise RuntimeError(
        "no frame gave defined Le numbers; raise the coefficient bound or trials"
    )
