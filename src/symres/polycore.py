"""Exact arithmetic substrate: rational scalars, a quadratic extension field,
and sparse multivariate polynomials with dense exponent vectors.

Everything here is exact (`fractions.Fraction` underneath) and immutable in
use: operations return new values, so all types are safe to share freely.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add
from typing import Mapping, Union

#: Exact rational scalar used throughout the library.
Scalar = Fraction

ScalarLike = Union[Scalar, int]


def parse_scalar(text: str) -> Fraction:
    """Parse a rational from "num/den" or "num" (ASCII decimal strings)."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII decimal rational: {text!r}")
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _exact(value) -> Fraction:
    """value as a Fraction. An int or Fraction is taken as it is and a str is
    read by `parse_scalar`, the CLI's syntax, so "0.5" or "1e3" fails. Any
    other type raises TypeError: a binary float is not exact (0.1 is not
    1/10), and a Decimal's exponent is unbounded (Decimal("1e1000000") would
    build a 3.3-Mbit integer first)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"a {type(value).__name__} is not an exact scalar; pass an int, Fraction or str")


class MatrixSizeError(RuntimeError):
    """A computation would exceed its exact-arithmetic size budget; defined
    here, below every route, so each raises it without importing another."""


def grevlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key realizing graded reverse-lexicographic order (ascending).

    a > b in grevlex iff deg a > deg b, or degrees tie and the rightmost
    nonzero entry of a - b is negative; reversing and negating the exponent
    vector turns that rule into plain tuple comparison.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomials_of_degree(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, largest grevlex first:
    the last exponent ascending, then the same rule on the variables before it."""
    by_degree = [[()]] + [[] for _ in range(degree)]  # by degree, in the variables so far
    for _ in range(num_vars):
        by_degree = [[head + (last,) for last in range(r + 1) for head in by_degree[r - last]]
                     for r in range(degree + 1)]
    return by_degree[degree] if degree >= 0 else []


class QuadExt:
    """Element a + b*r of the quadratic extension Q(r), r**2 = radicand.

    The radicand is carried on every value; combining values with different
    radicands is an error rather than a silent coercion. Plain ints and
    Fractions mix in freely (lifted with b = 0).
    """

    __slots__ = ("rational", "radical", "radicand")

    def __init__(self, rational: ScalarLike, radical: ScalarLike, radicand: ScalarLike):
        self.rational = _exact(rational)
        self.radical = _exact(radical)
        self.radicand = _exact(radicand)

    @classmethod
    def lift(cls, value: ScalarLike, radicand: ScalarLike) -> "QuadExt":
        return cls(value, 0, radicand)

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.radicand != self.radicand:
                raise ValueError(
                    f"mixed radicands: {self.radicand} vs {other.radicand}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.lift(other, self.radicand)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.rational + o.rational, self.radical + o.radical, self.radicand)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.rational, -self.radical, self.radicand)

    def __sub__(self, other) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QuadExt":
        return (-self) + other

    def __mul__(self, other) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.rational * o.rational + self.radical * o.radical * self.radicand,
            self.rational * o.radical + self.radical * o.rational,
            self.radicand,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.rational, -self.radical, self.radicand)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.radical == 0 and self.rational == other
        if isinstance(other, QuadExt):
            return (self.rational == other.rational
                    and self.radical == other.radical
                    and (self.radical == 0 or self.radicand == other.radicand))
        return NotImplemented

    def __hash__(self):
        if self.radical == 0:
            return hash(self.rational)
        return hash((self.rational, self.radical, self.radicand))

    def __repr__(self) -> str:
        return f"QuadExt({self.rational}, {self.radical}, {self.radicand})"

    def __str__(self) -> str:
        if self.radical == 0:
            return str(self.rational)
        sign = "-" if self.radical < 0 else "+"
        return f"{self.rational}{sign}{abs(self.radical)}*r"


class MultiPoly:
    """Sparse multivariate polynomial over exact rationals.

    Terms are a map from dense exponent tuples (length ``num_vars``) to
    nonzero coefficients; the map is canonical, so equality is structural.
    Treat instances as immutable.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], ScalarLike] | None = None):
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != num_vars:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {num_vars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = _exact(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars)

    # -- ring operations ---------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials over different variable counts")

    def _collect(self, pairs) -> "MultiPoly":
        """The polynomial summing (exponents, coefficient) pairs, zeros dropped."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in pairs:
            prev = acc.get(exps)
            acc[exps] = c if prev is None else prev + c
        out = MultiPoly.zero(self.num_vars)
        out.terms = {e: c for e, c in acc.items() if c != 0}
        return out

    def __add__(self, other) -> "MultiPoly":
        """Sum with a polynomial, or with an int or Fraction as a constant term."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly(self.num_vars, {(0,) * self.num_vars: other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_vars(other)
        return self._collect(itertools.chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.zero(self.num_vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return -self + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_vars(other)
        return self._collect((tuple(map(add, e1, e2)), c1 * c2)
                             for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())

    __rmul__ = __mul__

    def scale(self, factor: ScalarLike) -> "MultiPoly":
        f = _exact(factor)
        out = MultiPoly.zero(self.num_vars)
        if f != 0:
            out.terms = {e: c * f for e, c in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms in canonical order: descending grevlex."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def eval(self, point):
        """Exact value at a point of Scalars, QuadExt values or polynomials.

        Any other coordinate is read as a scalar, so a float raises TypeError;
        at MultiPoly coordinates the value is the composed polynomial.
        """
        if len(point) != self.num_vars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.num_vars}")
        point = [x if isinstance(x, (QuadExt, MultiPoly)) else _exact(x) for x in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def substitute_linear(self, matrix: list[list[ScalarLike]]) -> "MultiPoly":
        """Compose with a linear change of variables: x_i -> sum_j m[i][j] x_j."""
        n = self.num_vars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("substitution matrix shape mismatch")
        images = [MultiPoly(n, {tuple(int(j == k) for k in range(n)): row[j] for j in range(n)})
                  for row in matrix]
        # p with no variable evaluates to a scalar; adding it to 0 makes it a polynomial
        return MultiPoly.zero(n) + self.eval(images)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e)
            if mono:
                parts.append(mono if c == 1 else f"{c}*{mono}" if c != -1 else f"-{mono}")
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


def elem_sym(num_vars: int, k: int) -> MultiPoly:
    """k-th elementary symmetric polynomial in ``num_vars`` variables."""
    if not 1 <= k <= num_vars:
        raise ValueError(f"k={k} out of range 1..{num_vars}")
    terms: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations(range(num_vars), k):
        exps = [0] * num_vars
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(num_vars, terms)
