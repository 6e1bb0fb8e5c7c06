"""Sparse multivariate polynomials over the rationals, linear frames, and the
input-side transforms (frame changes, generic restriction, add-a-power).

Polynomials are dicts from exponent tuples to nonzero Fractions over a fixed,
ordered variable tuple.  The variable order is semantically meaningful: the
first variable is the distinguished slicing coordinate z0 used throughout the
cycle computations, so "apply a frame" always means rewriting f in the frame's
coordinates and then treating those as the standard ones.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .orders import GREVLEX

ExpVec = tuple[int, ...]


def _mul_packed(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two int polynomials whose monomials are packed ints."""
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: dict[ExpVec, Fraction] | None = None):
        if not vars:
            raise ValueError("a polynomial needs at least one variable")
        object.__setattr__(self, "vars", tuple(vars))
        clean: dict[ExpVec, Fraction] = {}
        n = len(self.vars)
        for exps, c in (terms or {}).items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c == 0:
                continue
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {n} variables")
            clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # the terms were validated when self was built; the guard above
        # rules out the default slot restore
        return (_trusted, (self.vars, self.terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, c, vars: Sequence[str]) -> "Polynomial":
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def var_index(cls, i: int, vars: Sequence[str]) -> "Polynomial":
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def mult_origin(self) -> int:
        """Order of vanishing at the origin (minimal total degree of a term)."""
        if not self.terms:
            raise ValueError("multiplicity of the zero polynomial is undefined")
        return min(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous."""
        if not self.terms:
            raise ValueError("zero polynomial has no homogeneous degree")
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out: dict[ExpVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if len(self.terms) == 1:
            # a monomial, such as the x_i^N of a membership test: one term
            ((e, c),) = self.terms.items()
            return _trusted(self.vars, {tuple(k * n for k in e): c**n})
        result = Polynomial.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # equal polynomials have equal supports: hash no coefficient
            h = hash((self.vars, frozenset(self.terms)))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and substitution ----------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable."""
        out: dict[ExpVec, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return _trusted(self.vars, out)

    def compose_linear(
        self, rows: Sequence[Sequence[Fraction]], new_vars: Sequence[str]
    ) -> "Polynomial":
        """Substitute x_i -> sum_j rows[i][j] * w_j and expand in new_vars.

        The expansion runs in ints.  The rows are scaled by the lcm D of
        their denominators and p by the lcm q of its own, so an input term
        of degree d comes out multiplied by q * D^d.  The substitution is
        linear and homogeneous, so an output term of degree d gathers input
        terms of degree d alone, and is divided by q * D^d once, at the end.
        Inside, a monomial in new_vars is one int with a field of `width`
        bits per variable, wide enough for the degree of p, so multiplying
        two monomials is one add."""
        if len(rows) != len(self.vars):
            raise ValueError("need one substitution row per variable")
        new_vars = tuple(new_vars)
        m = len(new_vars)
        rows = [[Fraction(c) for c in row] for row in rows]
        if any(len(row) != m for row in rows):
            raise ValueError("substitution row length mismatch")
        if not self.terms:
            return Polynomial.zero(new_vars)
        D = lcm(*(c.denominator for row in rows for c in row))
        q = lcm(*(c.denominator for c in self.terms.values()))
        width = max(1, self.total_degree().bit_length())
        forms = [
            {
                1 << (width * j): c.numerator * (D // c.denominator)
                for j, c in enumerate(row)
                if c
            }
            for row in rows
        ]
        # powers[i][k] is the k-th power of form i, built up to the largest
        # exponent used
        powers: list[list[dict[int, int]]] = [[{0: 1}] for _ in forms]

        def power(i: int, k: int) -> dict[int, int]:
            have = powers[i]
            while len(have) <= k:
                have.append(_mul_packed(have[-1], forms[i]))
            return have[k]

        total: dict[int, int] = {}
        get = total.get
        for e, c in self.terms.items():
            piece = {0: 1}
            for i, k in enumerate(e):
                if k:
                    piece = _mul_packed(piece, power(i, k))
            cq = c.numerator * (q // c.denominator)
            for mono, v in piece.items():
                total[mono] = get(mono, 0) + cq * v
        mask = (1 << width) - 1
        out: dict[ExpVec, Fraction] = {}
        for mono, v in total.items():
            if v:
                exps = tuple((mono >> (width * j)) & mask for j in range(m))
                out[exps] = Fraction(v, q * D ** sum(exps))
        return Polynomial(new_vars, out)

    def set_var_zero(self, i: int) -> "Polynomial":
        """The restriction to the hyperplane {x_i = 0}, with x_i dropped."""
        if len(self.vars) == 1:
            raise ValueError("cannot drop the last variable")
        new_vars = self.vars[:i] + self.vars[i + 1 :]
        out: dict[ExpVec, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                continue
            out[e[:i] + e[i + 1 :]] = c
        return _trusted(new_vars, out)

    # -- printing ----------------------------------------------------------

    def _term_str(self, e: ExpVec, c: Fraction) -> str:
        factors = []
        for name, k in zip(self.vars, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        if not factors:
            return str(abs(c))
        mono = "*".join(factors)
        a = abs(c)
        return mono if a == 1 else f"{a}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        key = GREVLEX.key(len(self.vars))
        items = sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
        pieces = []
        for idx, (e, c) in enumerate(items):
            body = self._term_str(e, c)
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={self.vars})"


def _trusted(vars: tuple[str, ...], terms: dict[ExpVec, Fraction]) -> Polynomial:
    """The Polynomial with these slots, set as they are, without __init__'s
    checks.  The caller vouches for them: vars is a nonempty tuple, and
    terms maps exponent tuples of its length to nonzero Fractions.  Serves
    unpickling, partial, set_var_zero, a monomial's power and the Groebner
    kernel's results."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "vars", vars)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[-+*/^()−]))"
)


class ParseError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:]
            stripped = rest.lstrip()
            if stripped:
                at = pos + len(rest) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r} at {at}")
            break
        if m.group("num"):
            out.append(("num", m.group("num"), m.start()))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start()))
        else:
            op = m.group("op")
            if op == "−":
                op = "-"
            if op == "**":
                op = "^"
            out.append(("op", op, m.start()))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses and rational literals."""

    def __init__(self, tokens, vars, end: int):
        self.tokens = tokens
        self.i = 0
        self.vars = tuple(vars)
        self.end = end

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", "", self.end)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} at position {pos}")

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r} at position {pos}")
        return p

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.factor()
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp, pos = self.take()
            if kind != "num":
                raise ParseError(f"expected integer exponent at position {pos}")
            p = p ** int(exp)
        return p

    def atom(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "num":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num":
                    raise ParseError(f"expected denominator at position {p3}")
                den = int(v3)
                if den == 0:
                    raise ParseError(f"zero denominator at position {p3}")
                return Polynomial.constant(Fraction(num, den), self.vars)
            return Polynomial.constant(num, self.vars)
        if kind == "name":
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r} at position {pos}")
            return Polynomial.var_index(self.vars.index(val), self.vars)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {val!r} at position {pos}")


def parse(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ordered variable tuple."""
    names = tuple(vars)
    if len(set(names)) != len(names) or not names:
        raise ParseError("variables must be a nonempty tuple of distinct names")
    for name in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ParseError(f"bad variable name {name!r}")
    tokens = _tokenize(text)
    try:
        return _Parser(tokens, names, len(text)).parse()
    except RecursionError:
        raise ParseError("input nested too deeply") from None


# -- frames ----------------------------------------------------------------


def _inverse(mat: tuple[tuple[Fraction, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the inverse matrix; ValueError when the matrix is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): each row is scaled by
    the lcm d_i of its denominators to integers, and every step divides
    exactly by the previous pivot, so the integer matrix A ends as c*I with
    c*A^-1 beside it.  The inverse of mat is A^-1 * diag(d), one Fraction
    per entry."""
    n = len(mat)
    scale = [lcm(*(c.denominator for c in row)) for row in mat]
    m = [
        [c.numerator * (d // c.denominator) for c in row] + [int(i == j) for j in range(n)]
        for i, (row, d) in enumerate(zip(mat, scale))
    ]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ValueError("frame matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        p = top[col]
        for r in range(n):
            if r != col:
                a = m[r][col]
                m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], top)]
        prev = p
    return tuple(tuple(Fraction(row[n + j] * scale[j], prev) for j in range(n)) for row in m)


@dataclass(frozen=True)
class Frame:
    """An invertible linear coordinate tuple: row i is the linear form z_i.
    inverse holds the rows of the inverse matrix, computed once."""

    matrix: tuple[tuple[Fraction, ...], ...]
    seed: int | None = None
    inverse: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.matrix)
        mat = tuple(tuple(Fraction(c) for c in row) for row in self.matrix)
        if any(len(row) != n for row in mat):
            raise ValueError("frame matrix must be square")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "inverse", _inverse(mat))

    @property
    def n(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, n: int) -> "Frame":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
            )
        )

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "Frame":
        """Frame whose i-th coordinate is the perm[i]-th old variable."""
        n = len(perm)
        return cls(
            tuple(
                tuple(Fraction(1 if j == perm[i] else 0) for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def rotation(cls, n: int) -> "Frame":
        """The cyclic frame (z1, ..., z_{n-1}, z0)."""
        return cls.permutation([(i + 1) % n for i in range(n)])

    @classmethod
    def random(cls, n: int, seed: int, bound: int = 10) -> "Frame":
        """Seeded frame with integer entries in [-bound, bound]."""
        if bound < 1:
            raise ValueError("coefficient bound must be at least 1")
        rng = random.Random(seed)
        while True:
            rows = tuple(
                tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
                for _ in range(n)
            )
            try:
                return cls(rows, seed=seed)
            except ValueError:  # a singular draw: draw again
                pass


def apply_frame(p: Polynomial, frame: Frame) -> Polynomial:
    """Rewrite p in the frame's coordinates (same variable names)."""
    if frame.n != len(p.vars):
        raise ValueError("frame size does not match variable count")
    return p.compose_linear(frame.inverse, p.vars)


def iomdine(f: Polynomial, m: int, a) -> tuple[Polynomial, Frame]:
    """The add-a-power transform f + a*z0^m with its rotated frame."""
    if not isinstance(m, int) or m < 2:
        raise ValueError("power m must be an integer >= 2")
    a = Fraction(a)
    if a == 0:
        raise ValueError("coefficient a must be nonzero")
    n = len(f.vars)
    g = f + Polynomial.var_index(0, f.vars) ** m * a
    return g, Frame.rotation(n)


def restrict(
    f: Polynomial,
    k: int,
    seed: int | None = None,
    bound: int = 10,
) -> Polynomial:
    """Restrict f to a k-dimensional linear subspace.

    The first k variables survive; each eliminated variable is replaced by a
    linear combination of the survivors, with random integer coefficients
    drawn from the seed.
    """
    n = len(f.vars)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    if k == n:
        return f
    rng = random.Random(0 if seed is None else seed)
    new_vars = f.vars[:k]
    rows: list[list[Fraction]] = []
    for i in range(n):
        if i < k:
            rows.append([Fraction(1 if j == i else 0) for j in range(k)])
        else:
            rows.append([Fraction(rng.randint(-bound, bound)) for _ in range(k)])
    return f.compose_linear(rows, new_vars)
