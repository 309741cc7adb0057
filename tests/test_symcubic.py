import random
from fractions import Fraction

import pytest

from symres.cli import read_cubic
from symres.polycore import MultiPoly, QuadExt, elem_sym
from symres.symcubic import SymmetricCubic, TransformationUndefinedError, decompose

from test_polycore import partial


def random_cubic(rng, n, lo=-9, hi=9, denominators=False):
    while True:
        if denominators:
            coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 6)) for _ in range(3)]
        else:
            coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(3)]
        if any(c != 0 for c in coeffs):
            return SymmetricCubic(n, *coeffs)


POWER_SUM_CUBES = MultiPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


# -- construction invariants --------------------------------------------------

def test_rejects_small_n():
    with pytest.raises(ValueError):
        SymmetricCubic(2, 1, 0, 0)


@pytest.mark.parametrize("n", [3.7, 3.0, "3"])
def test_rejects_non_integer_n(n):
    # an n that is not an int is refused, never truncated to one
    with pytest.raises(ValueError):
        SymmetricCubic(n, 1, 0, 0)


def test_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        SymmetricCubic(3, 0, 0, 0)


# -- expand -------------------------------------------------------------------

def test_expand_pure_s3():
    assert SymmetricCubic(3, 0, 0, 1).expand() == MultiPoly(3, {(1, 1, 1): 1})


def test_expand_pure_s1_cubed():
    expected = MultiPoly(3, {
        (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1,
        (2, 1, 0): 3, (2, 0, 1): 3, (1, 2, 0): 3,
        (0, 2, 1): 3, (1, 0, 2): 3, (0, 1, 2): 3,
        (1, 1, 1): 6,
    })
    assert SymmetricCubic(3, 1, 0, 0).expand() == expected


def test_expand_power_sum_identity():
    # s1^3 - 3*s1*s2 + 3*s3 == x1^3 + x2^3 + x3^3
    assert SymmetricCubic(3, 1, -3, 3).expand() == POWER_SUM_CUBES


def test_expand_is_symmetric_random():
    rng = random.Random(21)
    for _ in range(10):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        assert sc.expand().is_symmetric()


# -- decompose ------------------------------------------------------------------

def test_decompose_s3():
    sc = decompose(MultiPoly(3, {(1, 1, 1): 1}))
    assert (sc.a1, sc.a2, sc.a3) == (0, 0, 1)


def test_decompose_power_sums():
    sc = decompose(POWER_SUM_CUBES)
    assert (sc.a1, sc.a2, sc.a3) == (1, -3, 3)


def test_decompose_rejects_non_symmetric():
    with pytest.raises(ValueError):
        decompose(MultiPoly(2, {(2, 1): 1}))


def test_decompose_rejects_inhomogeneous_and_wrong_degree():
    with pytest.raises(ValueError):
        decompose(MultiPoly(3, {(1, 1, 1): 1, (1, 0, 0): 1}))
    with pytest.raises(ValueError):
        decompose(elem_sym(3, 2))


def test_decompose_round_trip_random():
    rng = random.Random(4)
    for _ in range(30):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        back = decompose(sc.expand())
        assert back == sc


# -- gradient system -------------------------------------------------------------

def test_gradient_power_sums():
    forms = SymmetricCubic(3, 1, -3, 3).gradient_system()
    assert forms == [
        MultiPoly(3, {(2, 0, 0): 3}),
        MultiPoly(3, {(0, 2, 0): 3}),
        MultiPoly(3, {(0, 0, 2): 3}),
    ]


def test_gradient_pure_s1_cubed():
    s1 = elem_sym(3, 1)
    three_s1_sq = (s1 * s1) * 3
    assert SymmetricCubic(3, 1, 0, 0).gradient_system() == [three_s1_sq] * 3


def test_gradient_pure_s3():
    forms = SymmetricCubic(3, 0, 0, 1).gradient_system()
    assert forms == [
        MultiPoly(3, {(0, 1, 1): 1}),
        MultiPoly(3, {(1, 0, 1): 1}),
        MultiPoly(3, {(1, 1, 0): 1}),
    ]


def test_gradient_matches_differentiation_random():
    rng = random.Random(8)
    for n in range(3, 9):
        for _ in range(4):
            sc = random_cubic(rng, n, denominators=True)
            expanded = sc.expand()
            for i, form in enumerate(sc.gradient_system()):
                assert form == partial(expanded, i)


def test_gradient_given_matches_differentiation_at_points():
    rng = random.Random(21)
    for n in range(3, 9):
        for _ in range(3):
            sc = random_cubic(rng, n, denominators=True)
            expanded = sc.expand()
            rational = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            quadratic = [QuadExt(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                 rng.randint(-3, 3), -3) for _ in range(n)]
            for point in (rational, quadratic):
                form = sc.gradient_given(elem_sym(n, 1).eval(point), elem_sym(n, 2).eval(point))
                for i in range(n):
                    assert form(point[i]) == partial(expanded, i).eval(point)

# -- reduction -------------------------------------------------------------------

def test_reduced_params_power_sums():
    rp = SymmetricCubic(3, 1, -3, 3).reduced_params()
    assert (rp.a, rp.b, rp.d) == (0, 0, 6)
    assert rp.radicand == 0


def test_reduced_params_pure_s3():
    rp = SymmetricCubic(3, 0, 0, 1).reduced_params()
    assert rp.a == Fraction(-1, 2)
    assert rp.b == 0
    assert rp.d == -1
    assert rp.radicand == Fraction(1, 4)


def test_reduced_params_undefined():
    with pytest.raises(TransformationUndefinedError):
        SymmetricCubic(3, 1, 0, 0).reduced_params()  # a3 = 0
    with pytest.raises(TransformationUndefinedError):
        SymmetricCubic(3, 1, -1, 3).reduced_params()  # d = 0


def test_reduced_system_power_sums():
    forms = SymmetricCubic(3, 1, -3, 3).reduced_system()
    assert forms == [
        MultiPoly(3, {(2, 0, 0): 1}),
        MultiPoly(3, {(0, 2, 0): 1}),
        MultiPoly(3, {(0, 0, 2): 1}),
    ]


def test_reduced_system_pure_s3():
    # F_i = x_i^2 - x_i*s1 (a = -1/2, b = 0)
    sc = SymmetricCubic(3, 0, 0, 1)
    s1 = elem_sym(3, 1)
    for i, form in enumerate(sc.reduced_system()):
        xi = MultiPoly.variable(3, i)
        assert form == xi * xi - xi * s1


def test_reduced_system_structure_random():
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        try:
            rp = sc.reduced_params()
        except TransformationUndefinedError:
            continue
        s1 = elem_sym(sc.n, 1)
        s1sq = s1 * s1
        for i, form in enumerate(sc.reduced_system()):
            xi = MultiPoly.variable(sc.n, i)
            assert form - (xi * xi + xi * s1 * (2 * rp.a) + s1sq * rp.b) == MultiPoly.zero(sc.n)
        checked += 1


def test_reduced_system_is_linear_transform_of_gradients_random():
    # F_i = dS_i/a3 + (a2+a3)/(a3*d) * sum_j dS_j eliminates the s2 term
    rng = random.Random(32)
    for n in range(3, 9):
        checked = 0
        while checked < 4:
            sc = random_cubic(rng, n, denominators=True)
            try:
                rp = sc.reduced_params()
            except TransformationUndefinedError:
                continue
            grads = sc.gradient_system()
            grad_sum = MultiPoly.zero(n)
            for g in grads:
                grad_sum = grad_sum + g
            mix = (sc.a2 + sc.a3) / (sc.a3 * rp.d)
            for i, form in enumerate(sc.reduced_system()):
                assert form == grads[i] * (1 / sc.a3) + grad_sum * mix
            checked += 1


# -- normalized coefficients -------------------------------------------------------

def test_normalized_coeffs_examples():
    bp = SymmetricCubic(3, 1, -3, 3).normalized_coeffs()
    assert (bp.b1, bp.b2, bp.b3) == (1, -6, 3)
    bp = SymmetricCubic(3, 0, 0, 1).normalized_coeffs()
    assert (bp.b1, bp.b2, bp.b3) == (Fraction(1, 3), 1, 1)
    bp = SymmetricCubic(4, 0, 1, 0).normalized_coeffs()
    assert (bp.b1, bp.b2, bp.b3) == (6, 4, 0)


def test_d_is_negative_b2_random():
    rng = random.Random(12)
    for _ in range(25):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        bp = sc.normalized_coeffs()
        assert 2 * sc.a3 - sc.n * (sc.a2 + sc.a3) == -bp.b2
        try:
            rp = sc.reduced_params()
        except TransformationUndefinedError:
            continue
        assert rp.d == -bp.b2


def test_b1_is_value_at_all_ones_over_n():
    rng = random.Random(13)
    for _ in range(10):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        ones = [Fraction(1)] * sc.n
        assert sc.normalized_coeffs().b1 == sc.expand().eval(ones) / sc.n


# -- serialization ------------------------------------------------------------------

def test_json_round_trip():
    data = {"n": 4, "A1": "1/3", "A2": "-5", "A3": "7/2"}
    sc = read_cubic(data)
    assert sc == SymmetricCubic(4, Fraction(1, 3), Fraction(-5), Fraction(7, 2))
    assert repr(sc) == "SymmetricCubic(n=4, a1=1/3, a2=-5, a3=7/2)"
