"""Checkers for the inequalities relating Le numbers, sectional Milnor
numbers, multiplicities and polar ratios.

Each checker returns a list of IneqReport carrying exact rational sides.
Nothing here ever aborts a batch: an input a checker cannot decide produces
a skip-report that says why.  Identities that are only guaranteed for
generic coordinates are folded into the verdict exactly when the caller
left the frame choice to us.

A frame has Le numbers only when every lambda^j is defined, so checkers
read only fully defined records (LeRecord.fully_defined, applied in
_le_record) and otherwise skip: "Le numbers undefined" when generic_le chose
the frame, "Le numbers undefined for this frame" when the caller gave one.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable

from .cycles import (
    LeRecord,
    Undefined,
    _answer,
    _beside,
    generic_le,
    lambda_numbers,
    sigma_ideal,
    slice_lam0,
    why_not_singular,
)
from .groebner import Ideal
from .local import germ_in_hyperplane, local_dim
from .milnor import milnor, sectional
from .poly import Frame, ParseError, Polynomial, iomdine, parse, restrict


@dataclass(frozen=True)
class IneqReport:
    """One checked relation.

    holds compares lhs against rhs in the direction the checker's name
    implies (usually at least, sometimes at most or exact equality);
    equality is always the literal lhs == rhs.  A skipped report leaves
    both sides None and explains itself in reason."""

    name: str
    lhs: Fraction | None
    rhs: Fraction | None
    holds: bool
    equality: bool
    skipped: bool = False
    reason: str | None = None
    context: dict = field(default_factory=dict)


def _skip(name: str, reason: str, **ctx) -> IneqReport:
    return IneqReport(name, None, None, False, False, True, reason, dict(ctx))


def _rep(name: str, lhs, rhs, holds: bool, **ctx) -> IneqReport:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    return IneqReport(name, lhs, rhs, holds, lhs == rhs, context=dict(ctx))


def _le_record(f, frame, seed, trials, bound):
    """The Le record of f in frame, or generic_le's when frame is None;
    None when f is not singular at the origin, the record is not fully
    defined, or no frame gave defined Le numbers (Undefined).  Every other
    error, a bad trials or bound among them, propagates."""
    if why_not_singular(f) is not None:
        return None
    if frame is not None:
        rec = lambda_numbers(f, frame)
        return rec if rec.fully_defined else None
    try:
        return generic_le(f, seed=seed, trials=trials, bound=bound)
    except Undefined:
        return None


def _undefined(name: str, frame) -> IneqReport:
    """The skip of a checker whose _le_record gave None."""
    where = "" if frame is None else " for this frame"
    return _skip(name, "Le numbers undefined" + where)


def check_funbound(
    f: Polynomial,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """Multiplicity bound: sum of (mult-1)^j lambda^j against
    (mult-1)^(variable count), with equality required of homogeneous
    inputs."""
    rec = _le_record(f, frame, seed, trials, bound)
    if rec is None:
        return [_undefined("funbound", frame)]
    m1 = f.mult_origin() - 1
    lhs = sum(m1**j * rec.lam[j] for j in range(rec.s + 1))
    rhs = m1 ** len(f.vars)
    homog = f.homogeneous_degree() is not None
    holds = lhs >= rhs and (lhs == rhs or not homog)
    return [
        _rep(
            "funbound",
            lhs,
            rhs,
            holds,
            f=str(f),
            lam=rec.lam,
            mult=m1 + 1,
            homogeneous=homog,
            seed=seed,
            generic=frame is None,
        )
    ]


def check_teissier(f: Polynomial, seed: int = 0) -> list[IneqReport]:
    """Teissier's chain for an isolated singularity: the sectional Milnor
    numbers mu^[k] = sectional(f, k), k = 0..n, must have ratios
    mu^[k]/mu^[k-1] that do not increase as k drops, which forces
    mu^[k+1] >= (mult-1) * mu^[k] and mu^[k] >= (mult-1)^k.  lhs/rhs are
    the top two consecutive ratios.  Input not singular at the origin, a
    singularity that is not isolated and an undefined sectional number are
    skips."""
    why = why_not_singular(f)
    if why is not None:
        return [_skip("teissier", why)]
    mu_n = milnor(f)
    if mu_n is None:
        return [_skip("teissier", "the singularity is not isolated")]
    mu = tuple(sectional(f, k, seed=seed) for k in range(len(f.vars))) + (mu_n,)
    if None in mu:
        return [_skip("teissier", "a sectional Milnor number came out undefined")]
    ratios = tuple(Fraction(mu[k], mu[k - 1]) for k in range(1, len(mu)))
    m1 = f.mult_origin() - 1
    monotone = all(ratios[k] <= ratios[k + 1] for k in range(len(ratios) - 1))
    power_bounds = all(
        mu[k + 1] >= m1 * mu[k] and mu[k] >= m1**k for k in range(len(mu) - 1)
    )
    mult_consistent = mu[0] == 1 and mu[1] == m1
    return [
        _rep(
            "teissier",
            ratios[-1],
            ratios[-2] if len(ratios) >= 2 else 1,
            monotone and power_bounds and mult_consistent,
            profile=mu,
            ratios=tuple(str(r) for r in ratios),
            monotone=monotone,
            power_bounds=power_bounds,
            mult_consistent=mult_consistent,
            seed=seed,
        )
    ]


def check_mainone(
    f: Polynomial,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """The s <= 1 Minkowski-type inequality between lambda^0, lambda^1 and
    the top two sectional Milnor numbers."""
    n = len(f.vars) - 1
    if n < 1:
        return [_skip("mainone", "needs at least two variables")]
    rec = _le_record(f, frame, seed, trials, bound)
    if rec is None:
        return [_undefined("mainone", frame)]
    if rec.s > 1:
        return [_skip("mainone", f"critical locus has dimension {rec.s}")]
    lam0 = rec.lam[0]
    lam1 = rec.lam[1] if rec.s >= 1 else 0
    mun = sectional(f, n, seed=seed)
    mun1 = sectional(f, n - 1, seed=seed)
    if not mun or not mun1:
        return [_skip("mainone", "sectional Milnor number undefined")]
    lhs = Fraction(lam0 + (mun - mun1 + 1) * lam1, mun)
    rhs = Fraction(mun, mun1)
    return [
        _rep(
            "mainone",
            lhs,
            rhs,
            lhs >= rhs,
            lam0=lam0,
            lam1=lam1,
            mu_top=mun,
            mu_next=mun1,
            s=rec.s,
            seed=seed,
            generic=frame is None,
        )
    ]


def check_mainmany(
    f: Polynomial,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """The general Minkowski-type inequality through the k_p recursion on
    generic slice profiles.

    When lambda^0 of the top slice vanishes the whole statement shifts
    down: f is replaced by its restriction to a generic plane one
    dimension above the largest slice with nonzero lambda^0."""
    n = len(f.vars) - 1
    if n < 1:
        return [_skip("mainmany", "needs at least two variables")]

    cache: dict[int, LeRecord | None] = {}

    def profile(k: int) -> LeRecord | None:
        if k not in cache:
            g = restrict(f, k, seed=seed * 53 + 11 * k, bound=bound)
            cache[k] = _le_record(g, None, seed, trials, bound)
        return cache[k]

    omega = n
    while omega >= 1:
        prof = profile(omega)
        if prof is None:
            return [_skip("mainmany", f"slice profile at dimension {omega} undefined")]
        if prof.lam[0] != 0:
            break
        omega -= 1
    if omega < 1:
        return [_skip("mainmany", "every slice has vanishing lambda^0")]
    shifted = omega < n
    generic = shifted or frame is None

    A = profile(omega + 1) if shifted else _le_record(f, frame, seed, trials, bound)
    if A is None:
        return [_undefined("mainmany", None if shifted else frame)]
    su = A.s
    B = profile(omega)
    C = profile(omega - 1) if omega - 1 >= 1 else None
    if B is None or (omega - 1 >= 1 and C is None):
        return [_skip("mainmany", "slice profile undefined")]
    # the 0-dimensional slice has lambda^0 = 1 and no other Le number
    lamC = (1,) if C is None else C.lam

    def at(lam, i):
        return lam[i] if i < len(lam) else 0

    def weighted(lam, top):
        val, prod = lam[0], 1
        for i in range(1, top + 1):
            prod *= ks[i - 1]
            val += at(lam, i) * prod
        return val

    # k_1 = lambda^0 of the top slice; each later k adds one more term of
    # the slice profile weighted by the product of the earlier k's
    ks: list[int] = []
    for p in range(su):
        ks.append(weighted(B.lam, p))

    D = weighted(B.lam, su - 1)
    rhsden = weighted(lamC, su - 2)
    if D == 0 or rhsden == 0:
        return [_skip("mainmany", "degenerate denominator")]
    lhs = Fraction(weighted(A.lam, su), D)
    rhs = Fraction(D, rhsden)

    ident: dict[str, bool] = {}
    if A.s >= 1:
        ident["slice0"] = B.lam[0] == A.gam[0] + A.lam[1]
    if A.s >= 2:
        ident["slice1"] = lamC[0] == A.gam[1] + A.lam[2]
    for i in range(1, B.s + 1):
        ident[f"shift_{i}"] = B.lam[i] == at(A.lam, i + 1)
    for i in range(1, len(lamC)):
        ident[f"shift2_{i}"] = lamC[i] == at(A.lam, i + 2)

    holds = lhs >= rhs
    if generic:
        holds = holds and all(ident.values())
    return [
        _rep(
            "mainmany",
            lhs,
            rhs,
            holds,
            ks=tuple(ks),
            D=D,
            shifted=shifted,
            omega=omega,
            lam=A.lam,
            slice_lam=B.lam,
            next_lam=None if C is None else C.lam,
            identities=ident,
            seed=seed,
            generic=generic,
        )
    ]


def check_dagger(
    f: Polynomial,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """The open s = 1 inequality; a report that fails to hold is a
    counterexample candidate worth publishing, not a bug."""
    n = len(f.vars) - 1
    if n < 1:
        return [_skip("dagger", "needs at least two variables")]
    rec = _le_record(f, frame, seed, trials, bound)
    if rec is None:
        return [_undefined("dagger", frame)]
    if rec.s != 1:
        return [_skip("dagger", f"critical locus has dimension {rec.s}, needs 1")]
    lam0, lam1 = rec.lam
    if lam0 == 0:
        return [_skip("dagger", "lambda^0 = 0, hypotheses not met", lam0=0)]
    mun = sectional(f, n, seed=seed)
    mun1 = sectional(f, n - 1, seed=seed)
    if not mun or not mun1:
        return [_skip("dagger", "sectional Milnor number undefined")]
    if mun <= lam0:
        return [_skip(
            "dagger",
            "sectional Milnor number does not exceed lambda^0",
            lam0=lam0,
            mu_top=mun,
        )]
    lhs = Fraction(lam0, mun) * (1 + lam1)
    rhs = Fraction(mun, mun1)
    return [
        _rep(
            "dagger",
            lhs,
            rhs,
            lhs >= rhs,
            candidate=True,
            lam0=lam0,
            lam1=lam1,
            mu_top=mun,
            mu_next=mun1,
            margin=lhs - rhs,
            homogeneous=f.homogeneous_degree() is not None,
            seed=seed,
            generic=frame is None,
        )
    ]


def _substitute(template: str, params: dict) -> str:
    out = template
    for name in sorted(params, key=len, reverse=True):
        v = params[name]
        text = f"({v})" if v < 0 else str(v)
        out = re.sub(rf"\b{re.escape(name)}\b", text, out)
    return out


def _template_vars(template: str, params: dict) -> tuple[str, ...]:
    names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", template))
    return tuple(sorted(names - set(params)))


def validate_family_entry(entry) -> None:
    """ValueError unless entry is a family entry: a dict with a str
    "template", a "params" dict of int lists and optionally a str list
    "vars"."""
    ok = (
        isinstance(entry, dict)
        and isinstance(entry.get("template"), str)
        and isinstance(entry.get("params"), dict)
        and all(
            isinstance(vs, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in vs)
            for vs in entry["params"].values()
        )
        and isinstance(names := entry.get("vars", []), list)
        and all(isinstance(v, str) for v in names)
    )
    if not ok:
        raise ValueError(
            "need {'template': str, 'params': {name: [ints]}, 'vars': [str] (optional)}"
        )


@dataclass(frozen=True)
class SearchResult:
    """Family sweep outcome: every instance report in family order, the
    candidate subset ordered by how close the inequality came to failing,
    and any outright counterexamples."""

    reports: tuple
    candidates: tuple
    counterexamples: tuple


def search_dagger(
    entries: Iterable[dict],
    seed: int = 0,
    bound: int = 10,
    limit: int | None = None,
    on_report=None,
) -> SearchResult:
    """Run check_dagger over a parameter family.

    Each entry carries a polynomial template, one integer grid per
    parameter name, and optionally an explicit variable list (inferred
    from the leftover identifiers otherwise).  Instances the checker
    cannot decide turn into skip-reports; malformed entries raise
    ValueError (validate_family_entry) before any instance is computed,
    and so do a template without variables and an instance that does not
    parse: every instance within limit is built and parsed first.
    limit caps the number of instances; on_report sees each (params,
    report) pair as it is produced."""
    entries = list(entries)
    for entry in entries:
        validate_family_entry(entry)

    def instances():
        for entry in entries:
            template = entry["template"]
            grids = entry["params"]
            vars_ = tuple(entry["vars"]) if "vars" in entry else _template_vars(template, grids)
            if not vars_:
                raise ValueError(f"family template {template!r} has no variables")
            for combo in itertools.product(*grids.values()):
                params = dict(zip(grids, combo))
                text = _substitute(template, params)
                try:
                    fp = parse(text, vars_)
                except ParseError as e:
                    raise ValueError(f"family instance {text!r}: {e}") from e
                yield params, text, fp

    reports = []
    for params, text, fp in list(itertools.islice(instances(), limit)):
        if why_not_singular(fp) is not None:
            rep = _skip("dagger", "not singular at the origin", instance=text)
        else:
            (rep,) = check_dagger(fp, seed=seed, bound=bound)
        rep = replace(rep, context={**rep.context, "instance": text, "params": params})
        reports.append((params, rep))
        if on_report is not None:
            on_report(params, rep)
    candidates = tuple(
        sorted(
            (pr for pr in reports if not pr[1].skipped),
            key=lambda pr: pr[1].lhs - pr[1].rhs,
        )
    )
    counterexamples = tuple(
        pr for pr in reports if not pr[1].skipped and not pr[1].holds
    )
    return SearchResult(tuple(reports), candidates, counterexamples)


def _nonreduced_at_origin(g: Polynomial) -> bool:
    # a repeated factor through the origin makes the partials vanish along
    # a curve of V(g); for a reduced plane germ that locus is at most a point
    gens = [g] + [g.partial(i) for i in range(len(g.vars))]
    gens = [p for p in gens if not p.is_zero]
    return local_dim(Ideal(gens, vars=g.vars)) >= 1


def _suspension_shape(f: Polynomial):
    """(g, p, axis) splitting f = c*axis^p + g with g free of the axis
    variable; (f, None, None) for a two-variable input; None otherwise."""
    if len(f.vars) == 2:
        return f, None, None
    if len(f.vars) != 3:
        return None
    for i in range(3):
        vterms = {e: c for e, c in f.terms.items() if e[i] > 0}
        if len(vterms) != 1:
            continue
        ((e, _),) = vterms.items()
        if sum(e) != e[i] or e[i] < 2:
            continue
        g = f.set_var_zero(i)
        if g.is_zero:
            continue
        return g, e[i], i
    return None


def check_suspension(
    f: Polynomial,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """lambda^0 of a non-reduced plane curve, or of a suspension of one,
    dominates the Milnor number of a generic hyperplane slice.

    The statement is unproved, so a failed verdict here is a reportable
    finding.  Inputs not of the required shape are rejected outright."""
    shape = _suspension_shape(f)
    if shape is None:
        raise ValueError("not a suspension: need g(x,y) or c*z^p + g(x,y)")
    g, p, axis = shape
    if not _nonreduced_at_origin(g):
        raise ValueError("not a suspension: the plane part is reduced at the origin")
    rec = _le_record(f, frame, seed, trials, bound)
    if rec is None:
        return [_undefined("suspension", frame)]
    mu_slice = sectional(f, len(f.vars) - 1, seed=seed)
    if mu_slice is None:
        return [_skip("suspension", "hyperplane slice not isolated")]
    lam0 = rec.lam[0]
    return [
        _rep(
            "suspension",
            lam0,
            mu_slice,
            lam0 >= mu_slice,
            power=p,
            axis=axis,
            lam=rec.lam,
            seed=seed,
            generic=frame is None,
        )
    ]


def check_newmpr_and_easybound(
    f: Polynomial,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """Bundle of polar-ratio and multiplicity bounds.

    The maximum polar ratio lies between lower and both upper bounds:
    upper_simple = lambda^0 + 1 always, and upper_polar = lambda^0 -
    gamma^1 + 2 when gamma^1 is defined and equals mult Gamma^1.  Under
    that hypothesis with gamma^1 != 0, lower is mult f, else 1.  Both upper
    bounds are checked against lower, and, when lower exceeds 1, the
    smaller one against mult f."""
    rec = _le_record(f, frame, seed, trials, bound)
    if rec is None:
        return [_undefined("newmpr", frame)]
    lam0 = rec.lam[0]
    mult = f.mult_origin()
    g1 = rec.gamma1()
    # mult Gamma^1, read once: the hypothesis needs it when gamma^1 is
    # defined, easybound when lambda^0 != 0
    mg1 = rec.polar_mult(1) if g1 is not None or lam0 != 0 else None
    hyp = g1 is not None and g1 == mg1
    lower = mult if hyp and g1 != 0 else 1
    upper_simple = lam0 + 1
    upper_polar = lam0 - g1 + 2 if hyp else None
    ctx = dict(
        lower=lower,
        upper_simple=upper_simple,
        upper_polar=upper_polar,
        lam=rec.lam,
        gam=rec.gam,
        mult=mult,
        seed=seed,
        generic=frame is None,
    )
    reports = [
        _rep("newmpr-simple", upper_simple, lower, upper_simple >= lower, **ctx)
    ]
    probe = upper_simple
    if upper_polar is not None:
        reports.append(_rep("newmpr-polar", upper_polar, lower, upper_polar >= lower, **ctx))
        probe = min(probe, upper_polar)
    if lower > 1:
        # the multiplicity hypothesis held with a nonzero gamma^1, so the
        # ratio itself must reach mult f, and so must its smaller upper bound
        reports.append(_rep("mprmult", probe, mult, probe >= mult, **ctx))
    if lam0 != 0:
        d0 = rec.h.partial(0)
        if mg1 is not None and not d0.is_zero:
            mid = mg1 * d0.mult_origin()
            low = mg1 * (mult - 1)
            holds = lam0 >= mid >= low and lam0 >= mult - 1
            reports.append(
                _rep(
                    "easybound",
                    lam0,
                    mid,
                    holds,
                    chain=(lam0, mid, low, mult - 1),
                    polar_mult=mg1,
                    **ctx,
                )
            )
    homog = f.homogeneous_degree() is not None
    for j in range(1, rec.s + 1):
        mnext = rec.polar_mult(j + 1)
        if mnext is None:
            continue
        lhs_j = rec.lam[j] + rec.gam[j - 1]
        rhs_j = (mult - 1) * mnext
        holds_j = lhs_j >= rhs_j
        if homog and frame is None:
            holds_j = holds_j and lhs_j == rhs_j
        reports.append(
            _rep(f"lambda-gamma-{j}", lhs_j, rhs_j, holds_j, j=j, homogeneous=homog, **ctx)
        )
    return reports


# how many distinct coefficients check_leiom tries: a given one first, then
# 1, -1, 2, -2, ... without it
LEIOM_COEFFS = 8


def check_leiom(
    f: Polynomial,
    m: int | None = None,
    a: int | None = None,
    frame: Frame | None = None,
    seed: int = 0,
    trials: int = 3,
    bound: int = 10,
) -> list[IneqReport]:
    """Add a generic multiple of z0^m and compare the Le numbers of the
    transform, in rotated coordinates, with the asserted shifts and
    bounds.

    m defaults to the smallest exponent that guarantees the equality
    branch.  The structure claims (critical locus restriction, dimension
    drop, existence) gate everything: a coefficient that fails them is
    replaced, walking a deterministic ladder, and only claim failures
    count as findings.  A given a must be nonzero and a given m at least
    2; both are checked before anything is computed, and only then is a
    germ in one variable skipped.

    The first coefficient's transform record is computed speculatively, in
    a worker when one is free (cycles._beside), while the caller runs the
    gate and reads the slice and polar numbers of the original; it is
    lambda_numbers' own record, used only when the gate passes, and any
    exception it raised is raised only then.  The gate asks one question of
    each coefficient, whether the transform's critical locus lies in V(z0)
    near 0 (local.germ_in_hyperplane), and reads the critical dimension,
    which no coefficient changes, at most once."""
    if a == 0:
        raise ValueError("coefficient a must be nonzero")
    if m is not None and (not isinstance(m, int) or m < 2):
        raise ValueError("power m must be an integer >= 2")
    if len(f.vars) < 2:
        return [_skip("leiom", "needs at least two variables")]
    rec = _le_record(f, frame, seed, trials, bound)
    if rec is None:
        return [_undefined("leiom", frame)]
    s = rec.s
    lam0 = rec.lam[0]
    lam1 = rec.lam[1] if s >= 1 else 0
    if m is None:
        m = 2 if lam0 == 0 else 1 + lam0
    h = rec.h
    z0 = Polynomial.var_index(0, h.vars)
    # The transform's critical locus must be V(target) near 0, where
    # target = sigma_ideal(h) + (z0).  For g = h + a*z0^m, dg/dz_i = dh/dz_i
    # when i >= 1 and dg/dz_0 = dh/dz_0 + a*m*z0^(m-1) with m >= 2, so
    # sigma_ideal(g) lies in target and V(target) lies in V(sig_g).  The
    # same identities make every partial of h vanish on V(sig_g) and V(z0)
    # together, so V(sig_g) inside V(z0) gives the other inclusion.  The
    # germs are then equal, and so are their dimensions, which do not
    # depend on a.
    target_dim = functools.cache(
        lambda: local_dim(Ideal([*sigma_ideal(h).gens, z0], vars=h.vars))
    )
    # the transform's critical dimension once it passes the checks below
    sg = s - 1 if s >= 1 else None

    def wrong_structure(av, g) -> str | None:
        """Why the transform g = h + av*z0^m fails the structure checks."""
        if not germ_in_hyperplane(sigma_ideal(g), 0):
            return f"a={av}: critical locus of the transform is wrong"
        if sg is not None and target_dim() != sg:
            return f"a={av}: critical dimension did not drop to {sg}"
        return None

    ladder = [] if a is None else [a]
    ladder += [c for k in range(1, LEIOM_COEFFS) for c in (k, -k) if c != a]
    ladder = ladder[:LEIOM_COEFFS]

    # The first coefficient usually passes, so a worker computes its
    # transform's record while the caller checks the structure and reads
    # the original's numbers; the record is used only if the checks pass.
    g, gframe = iomdine(h, m, ladder[0])
    task = (g, gframe, sg)
    (why, lam0_slice, g1, mult_g1), (reply,) = _beside(
        [task],
        lambda: (wrong_structure(ladder[0], g), slice_lam0(h), rec.gamma1(), rec.polar_mult(1)),
    )
    hyp_mult = g1 is not None and g1 == mult_g1

    chosen = None
    failures = []
    for av in ladder:
        if av != ladder[0]:
            g, gframe = iomdine(h, m, av)
            task, reply = (g, gframe, sg), None
            why = wrong_structure(av, g)
        if why is not None:
            failures.append(why)
            continue
        recg = _answer(task, reply)
        if isinstance(recg, Exception):
            raise recg
        if not recg.fully_defined:
            failures.append(f"a={av}: Le numbers of the transform undefined")
            continue
        chosen = (av, recg)
        break
    if chosen is None:
        return [_skip("leiom", "no coefficient passed the structure checks", failures=failures)]
    av, recg = chosen

    ctx = dict(
        m=m,
        a=av,
        lam=rec.lam,
        lam_transform=recg.lam,
        s=s,
        slice_lam0=lam0_slice,
        gamma1=g1,
        polar_mult=mult_g1,
        seed=seed,
        generic=frame is None,
    )
    reports = []
    for j in range(1, s):
        lhs_j = recg.lam[j]
        rhs_j = (m - 1) * rec.lam[j + 1]
        reports.append(_rep(f"leiom-shift-{j}", lhs_j, rhs_j, lhs_j == rhs_j, **ctx))
    ub = lam0 + (m - 1) * lam1
    l0g = recg.lam[0]
    reports.append(_rep("leiom-bound", l0g, ub, l0g <= ub, **ctx))
    threshold = lam0 == 0 or m >= 1 + lam0 or (hyp_mult and m >= lam0 - g1 + 2)
    if threshold:
        reports.append(_rep("leiom-equality", l0g, ub, l0g == ub, **ctx))
    if g1 is not None and lam0_slice is not None:
        rhs6 = (m - 1) * lam0_slice
        reports.append(_rep("leiom-slice", l0g, rhs6, l0g <= rhs6, **ctx))
    return reports
