"""Symmetric cubic polynomials in coefficient form.

A symmetric cubic in n >= 3 variables is uniquely a1*s1^3 + a2*s1*s2 + a3*s3
in the elementary symmetric polynomials s1, s2, s3; this module holds that
representation, its gradient system of n quadratic forms, and the two
coefficient transformations the resultant formulas are phrased in.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .polycore import MultiPoly, ScalarLike, _exact, elem_sym, monomials_of_degree


class TransformationUndefinedError(ValueError):
    """The reduction to coordinate-quadratic form needs a3 != 0 and d != 0."""


class ReducedParams(NamedTuple):
    """Parameters of the reduced quadratic system F_i = x_i^2 + 2a*x_i*s1 + b*s1^2.

    Every coordinate of a common root of the gradient system satisfies
    z^2 + 2*a*s1*z + b*s1^2 = 0, so `a` and `b` determine root structure.
    `d` = 2*a3 - n*(a2 + a3) is the scale factor of the eliminating linear
    transformation; `radicand` = a^2 - b is the discriminant parameter of the
    shared quadratic.
    """

    a: Fraction
    b: Fraction
    d: Fraction
    radicand: Fraction


class NormalizedCoeffs(NamedTuple):
    """Coefficient triple in which the closed-form resultant factors nicely.

    b1 is the value of the cubic at the all-ones point divided by n, b2 is
    the negative of the reduction scale factor d, and b3 is the s3
    coefficient.
    """

    b1: Fraction
    b2: Fraction
    b3: Fraction


def check_dimension(n) -> None:
    """The one rule on n: an int (so a JSON integer, not a float, string or
    bool), at least 3, since the s-basis is not faithful below 3."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n} (the s-basis is not faithful below 3)")


class SymmetricCubic:
    """The triple (a1, a2, a3) plus dimension n representing a1*s1^3 + a2*s1*s2 + a3*s3."""

    __slots__ = ("n", "a1", "a2", "a3")

    def __init__(self, n: int, a1: ScalarLike, a2: ScalarLike, a3: ScalarLike):
        check_dimension(n)
        self.n = n
        self.a1, self.a2, self.a3 = map(_exact, (a1, a2, a3))
        if self.a1 == 0 and self.a2 == 0 and self.a3 == 0:
            raise ValueError("the zero polynomial is not a valid symmetric cubic")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricCubic):
            return NotImplemented
        return (self.n, self.a1, self.a2, self.a3) == (other.n, other.a1, other.a2, other.a3)

    def __hash__(self):
        return hash((self.n, self.a1, self.a2, self.a3))

    def __repr__(self) -> str:
        return f"SymmetricCubic(n={self.n}, a1={self.a1}, a2={self.a2}, a3={self.a3})"

    # -- polynomial views ----------------------------------------------------

    def expand(self) -> MultiPoly:
        """Explicit polynomial a1*s1^3 + a2*s1*s2 + a3*s3 in n variables."""
        s1 = elem_sym(self.n, 1)
        s2 = elem_sym(self.n, 2)
        s3 = elem_sym(self.n, 3)
        return s1 * s1 * s1 * self.a1 + s1 * s2 * self.a2 + s3 * self.a3

    def gradient_given(self, s1, s2):
        """The map x -> dS/dx_i at a point with coordinate x_i = x, given that
        point's s1 and s2: a3*x^2 - (a2+a3)*x*s1 + (3a1+a2)*s1^2 + (a2+a3)*s2.

        Takes exact values only (Fraction, QuadExt or MultiPoly); the part
        shared by all n forms is computed once, here.
        """
        c = self.a2 + self.a3
        cross = s1 * c
        shared = s1 * s1 * (3 * self.a1 + self.a2) + s2 * c
        return lambda x: x * x * self.a3 - x * cross + shared

    def gradient_system(self) -> list[MultiPoly]:
        """The n quadratic forms dS/dx_i. `gradient_given`'s formula at x = x_i
        puts 3a1 on x_i^2, 6a1 + 2a2 on x_i*x_j, 3a1 + a2 on x_j^2 and
        6a1 + 3a2 + a3 on x_j*x_l (j, l != i), told apart by (e_i, max e) of
        the exponent vector e; a zero coefficient is left out."""
        n, a1, a2, a3 = self.n, self.a1, self.a2, self.a3
        by_shape = {(2, 2): 3 * a1, (1, 1): 6 * a1 + 2 * a2, (0, 2): 3 * a1 + a2,
                    (0, 1): 6 * a1 + 3 * a2 + a3}
        monomials, forms = monomials_of_degree(n, 2), [MultiPoly.zero(n) for _ in range(n)]
        for i, form in enumerate(forms):
            form.terms = {e: c for e in monomials if (c := by_shape[e[i], max(e)])}
        return forms

    # -- coefficient transformations ------------------------------------------

    def reduced_params(self) -> ReducedParams:
        """Parameters (a, b) of the reduced system; needs a3 != 0 and d != 0."""
        n = self.n
        d = 2 * self.a3 - n * (self.a2 + self.a3)
        if self.a3 == 0 or d == 0:
            raise TransformationUndefinedError(
                f"reduction undefined: a3={self.a3}, d={d}")
        a = Fraction(-(self.a2 + self.a3), 1) / (2 * self.a3)
        b = (6 * self.a1 * self.a3 + self.a2 * self.a3 - self.a2 ** 2) / (self.a3 * d)
        return ReducedParams(a=a, b=b, d=d, radicand=a * a - b)

    def normalized_numerators(self) -> tuple[int, int, int, int]:
        """(B1, B2, B3, Q) with b_i = B_i/Q on the one denominator Q = 6q, q
        the lcm of the denominators of a1, a2, a3."""
        n, a1, a2, a3 = self.n, self.a1, self.a2, self.a3
        q = math.lcm(a1.denominator, a2.denominator, a3.denominator)
        p1, p2 = a1.numerator * (q // a1.denominator), a2.numerator * (q // a2.denominator)
        p3 = a3.numerator * (q // a3.denominator)
        return (6 * n * n * p1 + 3 * n * (n - 1) * p2 + (n - 1) * (n - 2) * p3,
                6 * (n * p2 + (n - 2) * p3), 6 * p3, 6 * q)

    def normalized_coeffs(self) -> NormalizedCoeffs:
        """Exact linear coefficient change (b1, b2, b3); always defined."""
        b1, b2, _, q = self.normalized_numerators()
        return NormalizedCoeffs(b1=Fraction(b1, q), b2=Fraction(b2, q), b3=self.a3)
