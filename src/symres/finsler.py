"""Geometry questions for metric functions L with L^3 = S a symmetric cubic.

Two solvability questions reduce to resultants:

* indicatrix degeneracy: the region bounded by L = 1 fails to be finite (no
  renormalizable volume element) exactly when the gradient system of S has a
  nontrivial common zero, i.e. when its resultant vanishes;
* configuratrix membership: a momentum vector y lies on the configuratrix
  (the L = 1 surface in conjugate coordinates y_i = dL/dx_i) exactly when the
  inhomogeneous system {S = 1, dS/dx_i = 3*y_i} is solvable, detected by a
  vanishing Macaulay resultant of its homogenization.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """Macaulay resultant of the homogenized configuratrix system.

    Zero exactly when the momentum is attainable or when the homogenized
    system has roots at infinity. The latter happens for every y precisely
    when the metric is indicatrix-degenerate (by the Euler relation,
    3*S = sum x_i * dS/dx_i, a common zero of the gradients lies on S = 0),
    so that case short-circuits to 0 with a diagnostic instead of running an
    exact determinant whose answer is forced. A momentum of the wrong length
    raises ValueError first, degenerate or not; then systems over the
    oracle's size budget (n >= 4) raise MatrixSizeError.
    """
    _check_momentum(m, y)
    degrees = (3,) + (2,) * m.s.n
    check_macaulay_size(degrees)
    degenerate, _ = indicatrix_degenerate(m)
    if degenerate:
        return ConfiguratrixResult(
            value=Fraction(0), vanishes=True,
            diagnostic=DEGENERATE_METRIC_IDENTICALLY_ZERO)
    system = MacaulaySystem(forms=tuple(configuratrix_system(m, y)), degrees=degrees)
    value = macaulay_resultant(system)
    return ConfiguratrixResult(value=value, vanishes=value == 0, diagnostic=None)
