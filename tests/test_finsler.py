import random
from fractions import Fraction

import pytest

import symres.finsler
import symres.oracle
from symres.closedform import closed_form_resultant
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

from test_polycore import partial

POWER_SUM_METRIC = MetricFunction(SymmetricCubic(3, 1, -3, 3))
PRODUCT_METRIC = MetricFunction(SymmetricCubic(3, 0, 0, 1))


# -- seeded n = 3 (metric, momentum) pairs -------------------------------------

PAIR_KINDS = ("attainable", "generic", "tall", "power-sum", "attainable-power-sum",
              "degenerate")


def _rat(rng, height, den):
    return Fraction(rng.randint(-height, height), rng.randint(1, den))


def _metric(rng, n=3):
    """A metric with denominators that is not indicatrix-degenerate."""
    while True:
        m = MetricFunction(SymmetricCubic(n, _rat(rng, 9, 4), _rat(rng, 9, 4), _rat(rng, 9, 4)))
        if not indicatrix_degenerate(m)[0]:
            return m


def seeded_pair(kind, i):
    """The i-th (metric, momentum) pair of a kind, from its own seed:
    attainable (y = grad S(x) / 3 at a rational x with S(x) = 1), generic
    (momenta of height 10^4 over denominators up to 10^3), tall (10^13),
    the power sums at (1, r, s) with r, s distinct non-squares, the power
    sums at the attainable (1, t^2, t^2), and degenerate metrics (a3 = 0,
    or b1 = 9*a1 + 3*a2 + a3/3 = 0)."""
    rng = random.Random(f"configuratrix-{kind}-{i}")
    if kind == "attainable":
        while True:
            x = [_rat(rng, 3, 2) for _ in range(3)]
            s1, s2, s3 = sum(x), x[0] * x[1] + x[0] * x[2] + x[1] * x[2], x[0] * x[1] * x[2]
            a2, a3 = _rat(rng, 4, 3), _rat(rng, 4, 3)
            if s1 == 0:
                continue
            m = MetricFunction(SymmetricCubic(3, (1 - a2 * s1 * s2 - a3 * s3) / s1 ** 3, a2, a3))
            if not indicatrix_degenerate(m)[0]:
                return m, Momentum.of([g.eval(x) / 3 for g in m.s.gradient_system()])
    if kind in ("generic", "tall"):
        height = 10 ** 4 if kind == "generic" else 10 ** 13
        return _metric(rng), Momentum.of([_rat(rng, height, height // 10) for _ in range(3)])
    if kind == "power-sum":
        r, s = rng.sample((2, 3, 5, 7, 11, 13), 2)
        return POWER_SUM_METRIC, Momentum.of([1, r, s])
    if kind == "attainable-power-sum":
        t = _rat(rng, 5, 3)
        return POWER_SUM_METRIC, Momentum.of([1, t * t, t * t])
    a1, a2, a3 = _rat(rng, 9, 4), _rat(rng, 9, 4), Fraction(0)
    if i % 2:
        a3 = _rat(rng, 9, 4)
        a1 = -(3 * a2 + a3 / 3) / 9
    return (MetricFunction(SymmetricCubic(3, a1, a2, a3)),
            Momentum.of([_rat(rng, 9, 4) for _ in range(3)]))


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


# -- the reduced route against the homogenized system ----------------------------

def _homogenized_value(m, y):
    """The test oracle: the Macaulay resultant of the n+1 homogenized forms."""
    degrees = (3,) + (2,) * m.s.n
    return macaulay_resultant(MacaulaySystem(tuple(configuratrix_system(m, y)), degrees))


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_configuratrix_equals_the_homogenized_resultant(kind):
    # exact, sign included: ten seeded pairs of each kind, whose metrics and
    # momenta carry denominators, so the homogeneity scales are not 1
    for i in range(10):
        m, y = seeded_pair(kind, i)
        assert configuratrix_resultant(m, y).value == _homogenized_value(m, y), (kind, i)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_configuratrix_at_zero_momentum_is_the_cube_of_the_indicatrix_resultant(kind):
    for i in range(10):
        m, _ = seeded_pair(kind, i)
        cube = indicatrix_degenerate(m)[1].canonical_value ** 3
        assert configuratrix_resultant(m, Momentum.of([0, 0, 0])).value == cube


def test_configuratrix_equals_the_homogenized_resultant_at_n4(monkeypatch):
    # both routes are over the size rule at n = 4 (the homogenized matrix is
    # 330x330); the rule is raised for this test only. The homogenized
    # route takes about 1 s here, the reduced one (56x56) about 0.01 s.
    monkeypatch.setattr(symres.oracle, "MAX_MATRIX_ENTRIES", 330 ** 2)
    rng = random.Random("configuratrix-n4")
    m, y = _metric(rng, 4), Momentum.of([_rat(rng, 9, 4) for _ in range(4)])
    value = configuratrix_resultant(m, y).value
    assert value != 0
    assert value == _homogenized_value(m, y)


def test_configuratrix_does_not_build_the_homogenized_system(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the homogenized system was built")

    monkeypatch.setattr(symres.finsler, "configuratrix_system", unreachable)
    for kind in PAIR_KINDS:
        for i in range(2):
            result = configuratrix_resultant(*seeded_pair(kind, i))
            assert result.vanishes == (kind not in ("generic", "tall", "power-sum"))


# -- the n quadrics against polynomial arithmetic ----------------------------------

def reference_quadrics(m, y):
    """grad_i - 3*y_i*(y.x)^2 by MultiPoly arithmetic, each gradient by the
    power rule on the expanded cubic."""
    n, expanded = m.s.n, m.s.expand()
    line = MultiPoly(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(y.y)})
    return [partial(expanded, i) - line * line * (3 * c) for i, c in enumerate(y.y)]


def scaled(form, y):
    """The form composed with x -> D*x, D = diag(q_1, ..., q_n), q_j the
    denominator of y_j: the coordinates the quadrics are written in."""
    qs = [c.denominator for c in y.y]
    return form.substitute_linear([[q if j == i else 0 for j in range(len(qs))]
                                   for i, q in enumerate(qs)])


def with_zeros(y, i):
    """The momentum, the same with entry i % n set to 0, and the zero momentum."""
    zeroed = list(y.y)
    zeroed[i % len(zeroed)] = 0
    return y, Momentum.of(zeroed), Momentum.of([0] * len(zeroed))


def test_configuratrix_quadrics_equal_the_polynomial_reference(monkeypatch):
    # n = 3 on every nondegenerate seeded kind and n = 4 (the size rule raised
    # as in the n = 4 test above), each momentum also with zero entries; the
    # quadrics go to the oracle in the scaled coordinates x = D*x'
    systems = []

    def captured(system):
        systems.append(system)
        return macaulay_resultant(system)

    monkeypatch.setattr(symres.finsler, "macaulay_resultant", captured)
    monkeypatch.setattr(symres.oracle, "MAX_MATRIX_ENTRIES", 330 ** 2)
    rng = random.Random("configuratrix-quadrics-n4")
    pairs = [seeded_pair(kind, i) for kind in PAIR_KINDS if kind != "degenerate"
             for i in range(4)]
    pairs += [(_metric(rng, 4), Momentum.of([_rat(rng, 9, 4) for _ in range(4)]))
              for _ in range(3)]
    for i, (m, y) in enumerate(pairs):
        for momentum in with_zeros(y, i):
            systems.clear()
            configuratrix_resultant(m, momentum)
            (system,) = systems
            assert system.degrees == (2,) * m.s.n
            expected = [scaled(f, momentum) for f in reference_quadrics(m, momentum)]
            assert list(system.forms) == expected, (i, momentum)


def unscaled_value(m, y):
    """R(grad S)^2 times the Macaulay resultant of the reference quadrics,
    written in the original coordinates."""
    forms = tuple(reference_quadrics(m, y))
    return (indicatrix_degenerate(m)[1].canonical_value ** 2
            * macaulay_resultant(MacaulaySystem(forms, (2,) * m.s.n)))


LAW_MOMENTA = {
    "coprime": ["2/3", "-5/7", "4/11"],
    "shared-primes": ["1/6", "-7/10", "4/15"],
    "all-one": [2, -3, 5],
    "negative": ["-1/6", "-3/10", "-8/15"],
    "zero-entries": [0, "3/10", "-1/6"],
    "one-nonzero": [0, "-5/6", 0],
    "tall": ["-9876543210987/6000000000000", "1234567890123/1000000000000",
             "-5555555555555/1500000000001"],
}


@pytest.mark.parametrize("kind", LAW_MOMENTA)
def test_scaling_divides_out_the_denominators_to_the_power_2_to_the_n(kind):
    # Res(H o D) = det(D)^(2^n) * Res(H) for n quadrics: the value from the
    # scaled coordinates equals the resultant of the unscaled quadrics
    rng = random.Random(f"configuratrix-scaling-{kind}")
    y = Momentum.of(LAW_MOMENTA[kind])
    for m in (POWER_SUM_METRIC, _metric(rng), _metric(rng)):
        assert configuratrix_resultant(m, y).value == unscaled_value(m, y), kind


def test_scaling_law_at_n4(monkeypatch):
    monkeypatch.setattr(symres.oracle, "MAX_MATRIX_ENTRIES", 330 ** 2)
    rng = random.Random("configuratrix-scaling-n4")
    momenta = (["1/6", "-7/10", "4/15", "2/21"], ["-3/4", 0, "5/9", "7/8"],
               ["-9876543210987/6000000000000", "1/10", "-4/15", 3])
    for entries in momenta:
        m, y = _metric(rng, 4), Momentum.of(entries)
        value = configuratrix_resultant(m, y).value
        assert value != 0
        assert value == unscaled_value(m, y), entries


# -- the configuratrix along the diagonal -------------------------------------------

def diagonal_values(sc):
    """T_k for 0 <= k < n/2: the root of Y_k(a1 - T), the closed form's
    factor Y_k = (6*(n-2k)^2*b1*b3^2 - k*(n-k)*b2^3)/n^2 with a1 lowered by T,
    which lowers b1 by n^2*T."""
    n, b = sc.n, sc.normalized_coeffs()
    return [(b.b1 - k * (n - k) * b.b2 ** 3 / (6 * (n - 2 * k) ** 2 * b.b3 ** 2)) / n ** 2
            for k in range((n + 1) // 2)]


def diagonal_law(m, t):
    """R(grad S)^2 * R(grad S_T), S_T the cubic with a1 - t^3, by the closed form."""
    s = m.s
    shifted = SymmetricCubic(s.n, s.a1 - t ** 3, s.a2, s.a3)
    return (closed_form_resultant(s).canonical_value ** 2
            * closed_form_resultant(shifted).canonical_value)


def attainable_diagonal_pair(rng, n):
    """A nondegenerate metric and a t with t^3 = T_k for a random k: a1 is
    chosen so, since T_k moves with a1 one for one."""
    while True:
        a2, a3, t = _rat(rng, 9, 4), _rat(rng, 9, 4), _rat(rng, 5, 3)
        if not a3:
            continue
        k = rng.randrange((n + 1) // 2)
        a1 = t ** 3 - diagonal_values(SymmetricCubic(n, 0, a2, a3))[k]
        m = MetricFunction(SymmetricCubic(n, a1, a2, a3))
        if not indicatrix_degenerate(m)[0]:
            assert diagonal_values(m.s)[k] == t ** 3
            return m, t


def test_configuratrix_on_the_diagonal_is_the_closed_form_product(monkeypatch):
    # at y = t*(1, ..., 1), y.x = t*s1, so H_i = d/dx_i (S - t^3*s1^3): the
    # gradient system of S_T. The closed form shares no code with the
    # quadrics or the Macaulay matrix they go through.
    monkeypatch.setattr(symres.oracle, "MAX_MATRIX_ENTRIES", 330 ** 2)
    rng = random.Random("configuratrix-diagonal")
    pairs = [(_metric(rng, 3), _rat(rng, 5, 3)) for _ in range(52)]
    pairs += [(POWER_SUM_METRIC, Fraction(0)), (POWER_SUM_METRIC, Fraction(1))]
    pairs += [(_metric(rng, 4), _rat(rng, 5, 3)) for _ in range(6)]
    for m, t in pairs:
        assert configuratrix_resultant(m, Momentum.of([t] * m.s.n)).value == diagonal_law(m, t)
    for n in (3, 4):
        for _ in range(6):
            m, t = attainable_diagonal_pair(rng, n)
            assert configuratrix_resultant(m, Momentum.of([t] * n)).value == 0
            assert diagonal_law(m, t) == 0
