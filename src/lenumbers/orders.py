"""Monomial orders on exponent tuples.

Every order is given once, as integer weight rows: e is larger than f when
the tuple (row . e for each row) is lexicographically larger.  The rows are
chosen so that this tuple determines e, which makes the order total:

- grevlex: the partial sums S_n, S_(n-1), ..., S_1 of the exponents
  (S_k = e_1 + ... + e_k), so total degree first and then the smaller last
  exponent wins;
- lex: the unit rows;
- an elimination order: the grevlex rows of the eliminated block, then
  those of the other variables, so that on monomials free of the block it
  is grevlex (an elimination hands on its grevlex basis, groebner.py);
- the Lazard order on k[x, t] (t the last variable): total degree, then t,
  then the grevlex rows of the x part; setting t = 1 turns it into the
  local order, which is how Ideal.groebner (groebner.py) computes
  standard bases;
- the local order: the grevlex rows with the degree row negated, so 1 is
  the largest monomial.

The rows of a global order are 0/1 vectors.  The Buchberger kernel in
groebner.py packs a monomial into one int from them: the row values in the
high fields, the exponents in the low fields.  key() is the same order as a
tuple, for code that works on exponent tuples: bases, printing, the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Callable

ExpVec = tuple[int, ...]
Key = Callable[[ExpVec], tuple]
Rows = tuple[tuple[int, ...], ...]


def _revsums(idxs: tuple[int, ...], n: int) -> Rows:
    """Rows S_k, ..., S_1 of the partial sums over idxs (k = len(idxs))."""
    return tuple(
        tuple(1 if i in idxs[:k] else 0 for i in range(n))
        for k in range(len(idxs), 0, -1)
    )


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: grevlex, lex, an elimination block order, the
    Lazard order that homogenizes the local one, or the degree-first local
    order (negative degree, reverse lex tie-break)."""

    kind: str
    # variable indices eliminated first; only meaningful for kind == "elim"
    block: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("grevlex", "lex", "elim", "lazard", "local"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "elim" and not self.block:
            raise ValueError("elimination order needs a nonempty block")

    @property
    def is_global(self) -> bool:
        return self.kind != "local"

    def rows(self, nvars: int) -> Rows:
        """The weight rows of the order on nvars variables."""
        everything = tuple(range(nvars))
        if self.kind == "lex":
            return tuple(tuple(int(i == j) for i in everything) for j in everything)
        if self.kind == "grevlex":
            return _revsums(everything, nvars)
        if self.kind == "local":
            first, *rest = _revsums(everything, nvars)
            return (tuple(-w for w in first), *rest)
        if self.kind == "lazard":
            t = nvars - 1
            # the x part's degree row is left out: degree and t fix it
            return (
                (1,) * nvars,
                tuple(int(i == t) for i in everything),
                *_revsums(everything[:t], nvars)[1:],
            )
        rest = tuple(i for i in everything if i not in self.block)
        return _revsums(self.block, nvars) + _revsums(rest, nvars)

    def key(self, nvars: int) -> Key:
        """Return a sort key; larger key means larger monomial."""
        rows = self.rows(nvars)
        return lambda e: tuple([sum(map(mul, row, e)) for row in rows])


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
LAZARD = MonomialOrder("lazard")
LOCAL = MonomialOrder("local")


def elimination_order(block: tuple[int, ...]) -> MonomialOrder:
    """Block order that eliminates the given variable indices."""
    return MonomialOrder("elim", tuple(sorted(block)))
