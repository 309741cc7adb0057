import random
from fractions import Fraction

import pytest

import symres.finsler
from symres.finsler import (
    DEGENERATE_METRIC_IDENTICALLY_ZERO,
    MetricFunction,
    Momentum,
    configuratrix_resultant,
    configuratrix_system,
    indicatrix_degenerate,
)
from symres.oracle import MacaulaySystem, MatrixSizeError, macaulay_resultant
from symres.polycore import MultiPoly
from symres.symcubic import SymmetricCubic

POWER_SUM_METRIC = MetricFunction(SymmetricCubic(3, 1, -3, 3))
PRODUCT_METRIC = MetricFunction(SymmetricCubic(3, 0, 0, 1))


def test_indicatrix_pure_s3_degenerate():
    degenerate, report = indicatrix_degenerate(PRODUCT_METRIC)
    assert degenerate
    assert report.vanishes


def test_indicatrix_power_sums_not_degenerate():
    degenerate, report = indicatrix_degenerate(POWER_SUM_METRIC)
    assert not degenerate
    assert report.canonical_value == 531441


def test_indicatrix_pure_s1_cubed_degenerate():
    degenerate, _ = indicatrix_degenerate(MetricFunction(SymmetricCubic(3, 1, 0, 0)))
    assert degenerate


def test_indicatrix_cross_check_agrees_random():
    rng = random.Random(70)
    for _ in range(8):
        while True:
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
            if any(coeffs):
                break
        sc = SymmetricCubic(3, *coeffs)
        _, report = indicatrix_degenerate(MetricFunction(sc))
        oracle_value = macaulay_resultant(MacaulaySystem.from_forms(sc.gradient_system()))
        assert oracle_value == report.canonical_value


# -- configuratrix system construction ---------------------------------------

def test_configuratrix_system_power_sums():
    forms = configuratrix_system(POWER_SUM_METRIC, Momentum.of([1, 0, 0]))
    cubes = MultiPoly(4, {(0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
    assert forms[0] == cubes - MultiPoly(4, {(3, 0, 0, 0): 1})
    assert forms[1] == MultiPoly(4, {(0, 2, 0, 0): 3, (2, 0, 0, 0): -3})
    assert forms[2] == MultiPoly(4, {(0, 0, 2, 0): 3})
    assert forms[3] == MultiPoly(4, {(0, 0, 0, 2): 3})


def test_configuratrix_system_pure_s3():
    third = Fraction(1, 3)
    forms = configuratrix_system(PRODUCT_METRIC, Momentum.of([third, third, third]))
    assert forms[0] == MultiPoly(4, {(0, 1, 1, 1): 1, (3, 0, 0, 0): -1})
    assert forms[1] == MultiPoly(4, {(0, 0, 1, 1): 1, (2, 0, 0, 0): -1})


def test_configuratrix_system_zero_momentum():
    forms = configuratrix_system(POWER_SUM_METRIC, Momentum.of([0, 0, 0]))
    for i, grad in enumerate(POWER_SUM_METRIC.s.gradient_system()):
        lifted = MultiPoly(4, {(0,) + e: c for e, c in grad.terms.items()})
        assert forms[i + 1] == lifted


def test_configuratrix_momentum_length_check():
    with pytest.raises(ValueError):
        configuratrix_system(POWER_SUM_METRIC, Momentum.of([1, 0]))


@pytest.mark.parametrize(
    "metric", [PRODUCT_METRIC, POWER_SUM_METRIC, MetricFunction(SymmetricCubic(4, 1, -3, 3))],
    ids=["degenerate", "power-sums", "power-sums-n4"])
def test_configuratrix_resultant_momentum_length_check(metric):
    # the degenerate shortcut and the size rule (over budget at n = 4) both
    # answer only a well-formed question
    with pytest.raises(ValueError, match=f"momentum has 2 components, expected {metric.s.n}"):
        configuratrix_resultant(metric, Momentum.of([1, 2]))


# -- configuratrix resultant ---------------------------------------------------

def test_configuratrix_attainable_momentum_vanishes():
    result = configuratrix_resultant(POWER_SUM_METRIC, Momentum.of([1, 0, 0]))
    assert result.vanishes
    assert result.value == 0
    assert result.diagnostic is None


def test_configuratrix_generic_momentum_nonzero():
    result = configuratrix_resultant(POWER_SUM_METRIC, Momentum.of([1, 1, 2]))
    assert not result.vanishes
    assert result.value != 0
    assert result.diagnostic is None


def test_configuratrix_degenerate_metric_diagnostic():
    result = configuratrix_resultant(PRODUCT_METRIC, Momentum.of([5, 7, 11]))
    assert result.vanishes
    assert result.value == 0
    assert result.diagnostic == DEGENERATE_METRIC_IDENTICALLY_ZERO


def test_degenerate_metric_macaulay_value_really_is_zero():
    # the short-circuit claims the determinant answer is forced; check one
    # case honestly through the oracle (pencil fallback territory)
    forms = configuratrix_system(PRODUCT_METRIC, Momentum.of([5, 7, 11]))
    system = MacaulaySystem(forms=tuple(forms), degrees=(3, 2, 2, 2))
    assert macaulay_resultant(system) == 0


def test_configuratrix_dimension_guard():
    metric = MetricFunction(SymmetricCubic(4, 1, -3, 3))
    with pytest.raises(MatrixSizeError):
        configuratrix_resultant(metric, Momentum.of([1, 0, 0, 0]))


@pytest.mark.parametrize("cubic", [(1, -3, 3), (0, 0, 1)], ids=["generic", "degenerate"])
def test_configuratrix_size_is_refused_before_anything_is_built(monkeypatch, cubic):
    def unreachable(*args):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(symres.finsler, "configuratrix_system", unreachable)
    monkeypatch.setattr(symres.finsler, "indicatrix_degenerate", unreachable)
    with pytest.raises(MatrixSizeError):
        configuratrix_resultant(MetricFunction(SymmetricCubic(4, *cubic)),
                                Momentum.of([1, 2, 3, 4]))


def test_configuratrix_constructed_solvable_family():
    # xi = (t, -t, 1) lies on S = 1 for every t; its momentum is (t^2, t^2, 1)
    for t in (Fraction(1), Fraction(-2), Fraction(1, 2)):
        y = Momentum.of([t * t, t * t, Fraction(1)])
        result = configuratrix_resultant(POWER_SUM_METRIC, y)
        assert result.vanishes


def test_configuratrix_construction_scale_invariance():
    # building the momentum from c*xi with renormalization lands on the same
    # momentum: gradient degree 2 and normalization degree 3 cancel exactly
    t = Fraction(3, 2)
    s = POWER_SUM_METRIC.s
    base_xi = [t, -t, Fraction(1)]
    grads = s.gradient_system()
    for c in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
        xi = [c * v for v in base_xi]
        sigma_cubed = s.expand().eval(xi)
        assert sigma_cubed == c ** 3  # S(c*xi) = c^3 * S(xi) and S(xi) = 1
        sigma = c
        y = Momentum.of([g.eval(xi) / (3 * sigma ** 2) for g in grads])
        assert y == Momentum.of([t * t, t * t, Fraction(1)])
        assert configuratrix_resultant(POWER_SUM_METRIC, y).vanishes
