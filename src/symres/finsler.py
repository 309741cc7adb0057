"""Geometry questions for metric functions L with L^3 = S a symmetric cubic.

Two solvability questions reduce to resultants:

* indicatrix degeneracy: the region bounded by L = 1 fails to be finite (no
  renormalizable volume element) exactly when the gradient system of S has a
  nontrivial common zero, i.e. when its resultant vanishes;
* configuratrix membership: a momentum vector y lies on the configuratrix
  (the L = 1 surface in conjugate coordinates y_i = dL/dx_i) exactly when the
  inhomogeneous system {S = 1, dS/dx_i = 3*y_i} is solvable, detected by a
  vanishing resultant of its homogenization (``configuratrix_system``, n+1
  forms in n+1 variables). The resultant rules reduce that to
  R(grad S)^2 times the resultant of n quadrics in n variables, a 15x15
  Macaulay matrix at n = 3 in place of the homogenized system's 84x84 (see
  ``configuratrix_resultant``); the homogenized system stays as the tests'
  independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .closedform import ResultantReport, closed_form_resultant
from .oracle import MacaulaySystem, check_macaulay_size, macaulay_resultant
from .polycore import MultiPoly, Scalar, ScalarLike, _exact
from .symcubic import SymmetricCubic

DEGENERATE_METRIC_IDENTICALLY_ZERO = "DEGENERATE_METRIC_IDENTICALLY_ZERO"


@dataclass(frozen=True)
class MetricFunction:
    """Cubic metric function L with L^3 = S."""

    s: SymmetricCubic


@dataclass(frozen=True)
class Momentum:
    """Conjugate momentum vector; length must match the metric's dimension."""

    y: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Sequence[ScalarLike]) -> "Momentum":
        return cls(tuple(map(_exact, values)))


@dataclass(frozen=True)
class ConfiguratrixResult:
    value: Scalar
    vanishes: bool
    diagnostic: Optional[str]


def indicatrix_degenerate(m: MetricFunction) -> tuple[bool, ResultantReport]:
    """Whether the gradient system of S has a nontrivial common zero,
    decided by the closed-form resultant."""
    report = closed_form_resultant(m.s)
    return report.vanishes, report


def _check_momentum(m: MetricFunction, y: Momentum) -> None:
    if len(y.y) != m.s.n:
        raise ValueError(f"momentum has {len(y.y)} components, expected {m.s.n}")


def configuratrix_system(m: MetricFunction, y: Momentum) -> list[MultiPoly]:
    """Homogenization of {S - 1, dS/dx_i - 3*y_i} with auxiliary variable x0.

    Returns n+1 forms in n+1 variables (x0 first): S - x0^3 of degree 3 and
    dS/dx_i - 3*y_i*x0^2 of degree 2.
    """
    n = m.s.n
    _check_momentum(m, y)
    nv = n + 1

    def lift(p: MultiPoly) -> MultiPoly:
        return MultiPoly(nv, {(0,) + exps: c for exps, c in p.terms.items()})

    x0_cubed = MultiPoly(nv, {(3,) + (0,) * n: 1})
    x0_squared = MultiPoly(nv, {(2,) + (0,) * n: 1})
    forms = [lift(m.s.expand()) - x0_cubed]
    for i, grad in enumerate(m.s.gradient_system()):
        forms.append(lift(grad) - x0_squared * (3 * y.y[i]))
    return forms


def configuratrix_resultant(m: MetricFunction, y: Momentum) -> ConfiguratrixResult:
    """Resultant of the homogenized configuratrix system, exact.

    Zero exactly when the momentum is attainable or when the homogenized
    system has roots at infinity. The latter happens for every y precisely
    when the metric is indicatrix-degenerate (by the Euler relation,
    3*S = sum x_i * dS/dx_i, a common zero of the gradients lies on S = 0),
    so that case short-circuits to 0 with a diagnostic instead of running an
    exact determinant whose answer is forced. A momentum of the wrong length
    raises ValueError first, degenerate or not; then the homogenized
    system's size rule (n >= 4) raises MatrixSizeError before any form is
    built.

    The value is R(grad S)^2 * Res(H_1, ..., H_n), H_i = dS/dx_i - 3*y_i*l^2
    with l = y.x = sum y_i*x_i: n quadrics in n variables. With F_0 = S - x0^3
    and F_i = dS/dx_i - 3*y_i*x0^2 (``configuratrix_system``), the resultant
    rules give it (Cox-Little-O'Shea, Using Algebraic Geometry, Ch. 3 S3;
    Jouanolou, Le formalisme du resultant, Adv. Math. 90, 1991):

    * Euler's relation gives F_0 - (1/3)*sum x_i*F_i = -x0^2*(x0 - l), and
      adding multiples of the other forms to F_0 leaves the resultant as is.
    * The resultant is multiplicative in F_0, and the constant -1 comes out
      as (-1)^(2^n) = 1, since it has degree 2^n in F_0's coefficients.
    * Res(x0, F_1, ..., F_n) is the resultant of the F_i at x0 = 0, the
      gradient system's R(grad S).
    * Res(x0 - l, F_1, ..., F_n) is the resultant of the F_i at x0 = l, by
      the determinant-1 substitution x0 -> x0 + l.

    The quadrics are formed term by term in the scaled coordinates x = D*x',
    D = diag(q_1, ..., q_n) with y_j = p_j/q_j, where l = sum p_j*x'_j is
    integral: H_i(D*x') has g_e*q^e - 3*(p_i/q_i)*w_e on x'^e, g_e the
    gradient's coefficient and w_e = p_j^2 on x'_j^2, 2*p_j*p_l on x'_j*x'_l.
    So a Macaulay entry carries about H^3 of a height-H momentum, where the
    coordinates x need H^6. Res(H o D) = det(D)^(2^n) * Res(H) (Cox-Little-
    O'Shea, as above) and det(D) > 0, so the oracle's value is divided by
    (q_1*...*q_n)^(2^n).
    """
    _check_momentum(m, y)
    n = m.s.n
    check_macaulay_size((3,) + (2,) * n)
    degenerate, report = indicatrix_degenerate(m)
    if degenerate:
        return ConfiguratrixResult(
            value=Fraction(0), vanishes=True,
            diagnostic=DEGENERATE_METRIC_IDENTICALLY_ZERO)
    ps, qs = [c.numerator for c in y.y], [c.denominator for c in y.y]
    forms = tuple(MultiPoly.zero(n) for _ in range(n))
    weights = {tuple(map((j, l).count, range(n))):
               (qs[j] * qs[l], 3 * (2 - (j == l)) * ps[j] * ps[l])
               for j, l in combinations_with_replacement(range(n), 2)}
    for form, grad, c in zip(forms, m.s.gradient_system(), y.y):
        form.terms = {e: h for e, (qe, w) in weights.items()
                      if (h := grad.terms.get(e, 0) * qe - c * w)}
    value = (report.canonical_value ** 2 * macaulay_resultant(MacaulaySystem(forms, (2,) * n))
             / math.prod(qs) ** (2 ** n))
    return ConfiguratrixResult(value=value, vanishes=value == 0, diagnostic=None)
