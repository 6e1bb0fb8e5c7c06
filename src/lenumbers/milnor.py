"""Milnor numbers of hypersurface germs and of their generic plane sections.

sectional(f, k) samples random k-planes through the origin; the Milnor
number of a generic section is the minimum over planes (special planes only
inflate it, or lose finiteness), so two independent draws that agree give
the generic value with high confidence and the protocol retries with larger
coefficient bounds when they do not.  All randomness is seeded.

Teissier's chain mu^[0], ..., mu^[n] is sectional(f, k) for k = 0..n; the
checker that tests it (checks.check_teissier) reads these numbers directly.
"""

from __future__ import annotations

from .cycles import sigma_ideal
from .local import local_quotient_dim
from .poly import Polynomial, restrict


def milnor(f: Polynomial) -> int | None:
    """Milnor number of f at the origin, None when the singularity is not
    isolated.  Smooth points give 0."""
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if f.constant_term != 0:
        raise ValueError("f(0) != 0")
    return local_quotient_dim(sigma_ideal(f))


def _section_seed(seed: int, k: int, round_: int, draw: int) -> int:
    return ((seed * 1000003 + k) * 31 + round_) * 2 + draw


def sectional(f: Polynomial, k: int, seed: int = 0) -> int | None:
    """Milnor number of the restriction of f to a generic k-plane through
    the origin; k = 0 gives 1 by convention and k = dim gives milnor(f).

    Two independent random planes per round must agree; otherwise the bound
    doubles, and after the last round the smallest defined value wins (a
    special plane can only overshoot).  A plane inside V(f) counts as
    undefined, like one whose section is not isolated, and so does a plane
    whose section has a larger multiplicity than f: the lowest-degree form
    of f vanishes on that plane, which a generic plane avoids.  Two draws
    may agree on such a plane (both tangent to the cone of f), so it is not
    left to the comparison.  None when no sampled section had an isolated
    singularity."""
    n1 = len(f.vars)
    if not 0 <= k <= n1:
        raise ValueError(f"need 0 <= k <= {n1}")
    if k == 0:
        return 1
    if k == n1:
        return milnor(f)

    mult = f.mult_origin()

    def draw(round_: int, i: int, bound: int) -> int | None:
        g = restrict(f, k, seed=_section_seed(seed, k, round_, i), bound=bound)
        return None if g.is_zero or g.mult_origin() > mult else milnor(g)

    best = None
    bound = 10
    for round_ in range(5):
        a = draw(round_, 0, bound)
        b = draw(round_, 1, bound)
        if a is not None and a == b:
            return a
        for value in (a, b):
            if value is not None and (best is None or value < best):
                best = value
        bound *= 2
    return best
