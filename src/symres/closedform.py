"""Closed-form evaluation of the gradient-system resultant.

Two routes live here, expanded through one kernel under one size budget:

* ``closed_form_resultant`` evaluates the factored formula in the normalized
  coefficients (b1, b2, b3); total for every valid cubic, including the
  strata where the reduction is undefined.
* ``resultant_via_reduction`` runs the derivation chain: reduce to
  F_i = x_i^2 + 2a*x_i*s1 + b*s1^2, take the sign-vector (Poisson) product
  in its grouped rational form (the factors ``_grouped_factors``), and undo
  the linear transformation's determinant scaling.

Two normalizations appear. The canonical one pins R{x_1^2,...,x_n^2} = 1
(the Macaulay convention, and this library's ground truth); the raw factored
formula evaluates to exactly 2^(2^(n-1)) times that, a constant ratio that is
reported rather than hidden.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .polycore import MatrixSizeError, Scalar
from .symcubic import ReducedParams, SymmetricCubic

#: Size budget for expanding the closed form, in bits of the unreduced
#: product. A 588,000-bit value expands in 0.12 s and converts to decimal in
#: 0.48 s on one Xeon core under CPython 3.11.
MAX_CLOSED_FORM_BITS = 10 ** 6


def formula_to_canonical_ratio(n: int) -> Fraction:
    """Constant ratio between the raw factored formula and the canonical value."""
    return Fraction(1 << 2 ** (n - 1))


class ReportFactor(NamedTuple):
    k: int
    value: Fraction
    exponent: int


class ResultantReport(NamedTuple):
    """Both normalizations of the resultant plus its factor structure.

    ``formula_value`` is the factored closed form evaluated verbatim;
    ``canonical_value`` is the Macaulay-normalized resultant, smaller by the
    constant 2^(2^(n-1)). ``factors`` are the parenthesized factors of the
    formula with their binomial exponents, so formula_value equals
    b3^((n-3)*2^(n-1)) times the product of value**exponent.
    """

    canonical_value: Fraction
    formula_value: Fraction
    factors: tuple[ReportFactor, ...]
    vanishes: bool


def _binomial_row(n: int) -> list[int]:
    """C(n-1, k) for k = 0..n-1, each entry from the one before."""
    row = [1]
    for k in range(1, n):
        row.append(row[-1] * (n - k) // k)
    return row


def _expand(a3: Fraction, factors: list[Fraction]) -> tuple[Fraction, Fraction, list[int] | None]:
    """a3**((n-3)*2^(n-1)) * prod(factor**C(n-1, k)) over the n factors, that
    over the canonical ratio, and the exponent row: the one place a factored
    value is expanded. A zero factor gives 0 and no row before any estimate,
    power or division. Each nonzero factor has a bit of numerator and one of
    denominator and the exponents sum to 2^(n-1), so the product has at least
    the a3 power's bits plus 2^n; the row is built only when that floor fits,
    then the exact bit sum is checked. Over MAX_CLOSED_FORM_BITS: MatrixSizeError."""
    if not all(factors):
        return Fraction(0), Fraction(0), None
    n = len(factors)
    lead_exp = (n - 3) * 2 ** (n - 1)
    lead_bits = lead_exp * (a3.numerator.bit_length() + a3.denominator.bit_length())
    bits = lead_bits + 2 ** n
    if bits <= MAX_CLOSED_FORM_BITS:
        exponents = _binomial_row(n)
        parts = [(v.numerator, v.denominator, e) for v, e in zip(factors, exponents)]
        bits = lead_bits
        for p, q, e in parts:
            bits += e * (p.bit_length() + q.bit_length())
    if bits > MAX_CLOSED_FORM_BITS:
        raise MatrixSizeError(f"closed form would expand past {MAX_CLOSED_FORM_BITS} bits")
    num, den = a3.numerator ** lead_exp, a3.denominator ** lead_exp
    for p, q, e in parts:
        num *= p ** e
        den *= q ** e
    total = Fraction(num, den)  # the one full gcd: a divisor 2^m cancels only twos
    return total, total / formula_to_canonical_ratio(n), exponents


def closed_form_resultant(sc: SymmetricCubic) -> ResultantReport:
    """Evaluate the factored formula; total on every stratum.

    With b_i = B_i/Q on the one denominator of normalized_numerators, the
    factor Y_k = (6*(n-2k)^2*b1*b3^2 - k*(n-k)*b2^3)/n^2 is the one Fraction
    (6*(n-2k)^2*B1*B3^2 - k*(n-k)*B2^3)/(n^2*Q^3). The b3 prefactor exponent
    (n-3)*2^(n-1) uses the 0**0 = 1 convention at n = 3, where the prefactor
    is absent from the factored form; b3 = 0 makes factor 0 vanish, so the
    factors decide. Vanishing cubics are answered at any n; the rest raise
    MatrixSizeError above MAX_CLOSED_FORM_BITS.
    """
    n, (b1, b2, b3, q) = sc.n, sc.normalized_numerators()
    left, right, den = 6 * b1 * b3 * b3, b2 ** 3, n * n * q ** 3
    values = [Fraction((n - 2 * k) ** 2 * left - k * (n - k) * right, den)
              for k in range(n // 2 + 1)]
    values += values[(n - 1) // 2:0:-1]  # k -> n-k keeps (n-2k)^2 and k(n-k)
    formula_value, canonical, exponents = _expand(sc.a3, values)
    factors = tuple(map(ReportFactor, range(n), values, exponents or _binomial_row(n)))
    return ResultantReport(canonical_value=canonical, formula_value=formula_value,
                           factors=factors, vanishes=not formula_value)


def _grouped_factors(rp: ReducedParams, n: int, lift: Fraction) -> list[Fraction]:
    """Factors g_k of the reduced system's resultant, each times lift.

    The resultant is the product over the 2^n sign vectors e in {+1,-1}^n of
    1 + n*a + r*sum(e_j) with r^2 = a^2 - b. Pairing every sign vector with
    its negation multiplies conjugates, giving the product over k = 0..n-1
    of g_k ** C(n-1, k) with g_k = (1 + n*a)^2 - (a^2 - b)*(n-2k)^2;
    note the minus sign (conjugate pairs multiply to c^2 - r^2*m^2). k -> n-k
    keeps (n-2k)^2, so k = 0..n/2 are formed, lifted, over one denominator.
    """
    c = 1 + n * rp.a
    (p, q), (t, u) = (c * c * lift).as_integer_ratio(), (rp.radicand * lift).as_integer_ratio()
    p, t, q = p * u, t * q, q * u
    values = [Fraction(p - t * (n - 2 * k) ** 2, q) for k in range(n // 2 + 1)]
    return values + values[(n - 1) // 2:0:-1]


def resultant_via_reduction(sc: SymmetricCubic) -> Scalar:
    """Canonical resultant through the derivation chain.

    The reduction F = T * grad(S) has det(T) = 2/(a3^(n-1)*d), and the
    resultant of n quadratic forms picks up det(T)^(2^(n-1)) under linear
    combinations of the forms, so
    R{grad S} = prod g_k^C(n-1, k) * (a3^(n-1)*d/2)^(2^(n-1)).
    The scale spreads over the 2^(n-1) = sum C(n-1, k) factor slots: lead a3
    to the power (n-3)*2^(n-1) and factors g_k*a3^2*d, the 1/2 per slot being
    the canonical ratio. The lifted factors equal the closed form's Y_k, so
    the chain refuses exactly what the closed form refuses. Raises
    TransformationUndefinedError where the reduction fails.
    """
    rp = sc.reduced_params()
    return _expand(sc.a3, _grouped_factors(rp, sc.n, sc.a3 ** 2 * rp.d))[1]
