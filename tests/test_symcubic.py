import random
from fractions import Fraction

import pytest

from symres.cli import read_cubic
from symres.polycore import MultiPoly, QuadExt, elem_sym
from symres.symcubic import SymmetricCubic, TransformationUndefinedError

from test_polycore import is_symmetric, partial, variable


def random_cubic(rng, n, lo=-9, hi=9, denominators=False):
    while True:
        if denominators:
            coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 6)) for _ in range(3)]
        else:
            coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(3)]
        if any(c != 0 for c in coeffs):
            return SymmetricCubic(n, *coeffs)


POWER_SUM_CUBES = MultiPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def coefficient(form, *variables):
    """The coefficient of the product of the given variables (0-based) in form."""
    return form.terms.get(tuple(map(variables.count, range(form.num_vars))), 0)


def probes(p):
    """The coefficients of x1^3, x1^2*x2 and x1*x2*x3, which in the s-basis
    are a1, 3*a1 + a2 and 6*a1 + 3*a2 + a3: a triangular system, so the
    three determine the cubic."""
    return coefficient(p, 0, 0, 0), coefficient(p, 0, 0, 1), coefficient(p, 0, 1, 2)


def probed(a1, a2, a3):
    return a1, 3 * a1 + a2, 6 * a1 + 3 * a2 + a3


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
        assert is_symmetric(sc.expand())


# -- the three probe coefficients of expand() ---------------------------------------

def test_decompose_s3():
    s3 = MultiPoly(3, {(1, 1, 1): 1})
    assert SymmetricCubic(3, 0, 0, 1).expand() == s3
    assert probes(s3) == probed(0, 0, 1) == (0, 0, 1)


def test_decompose_power_sums():
    assert SymmetricCubic(3, 1, -3, 3).expand() == POWER_SUM_CUBES
    assert probes(POWER_SUM_CUBES) == probed(1, -3, 3) == (1, 0, 0)


def test_decompose_rejects_non_symmetric():
    # x1^2*x2 probes as (a1, a2, a3) = (0, 1, -3), whose expansion it is not:
    # the probes name a cubic only for a symmetric polynomial
    p = MultiPoly(3, {(2, 1, 0): 1})
    assert not is_symmetric(p)
    assert probes(p) == probed(0, 1, -3)
    assert SymmetricCubic(3, 0, 1, -3).expand() != p


def test_decompose_rejects_inhomogeneous_and_wrong_degree():
    # every expansion is a cubic form, which these two polynomials are not
    for sc in (SymmetricCubic(3, 1, 0, 0), SymmetricCubic(4, 0, 1, 0), SymmetricCubic(5, 0, 0, 1)):
        assert sc.expand().is_homogeneous() and sc.expand().total_degree() == 3
    assert not MultiPoly(3, {(1, 1, 1): 1, (1, 0, 0): 1}).is_homogeneous()
    assert elem_sym(3, 2).total_degree() == 2


def test_decompose_round_trip_random():
    rng = random.Random(4)
    for _ in range(30):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        assert probes(sc.expand()) == probed(sc.a1, sc.a2, sc.a3)


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


def zero_class_cubics(rng, n):
    """Cubics on which gradient_system's coefficient classes vanish: 3a1
    (a1 = 0); 6a1 + 2a2 and 3a1 + a2 (a2 = -3a1); all but 3a1 (the power
    sums); and the a3 = 0, d = 0 and b1 = 0 strata."""
    def nonzero():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    a1, a2, a3 = nonzero(), nonzero(), nonzero()
    return {
        "a1-zero": SymmetricCubic(n, 0, a2, a3),
        "a2-minus-3a1": SymmetricCubic(n, a1, -3 * a1, a3),
        "power-sums": SymmetricCubic(n, 1, -3, 3),
        "a3-zero": SymmetricCubic(n, a1, a2, 0),
        "d-zero": SymmetricCubic(n, a1, (2 - n) * a3 / n, a3),
        "b1-zero": SymmetricCubic(
            n, -(n * (n - 1) * a2 / 2 + (n - 1) * (n - 2) * a3 / 6) / n ** 2, a2, a3),
    }


@pytest.mark.parametrize("stratum", ["a1-zero", "a2-minus-3a1", "power-sums", "a3-zero",
                                     "d-zero", "b1-zero"])
def test_gradient_matches_differentiation_on_zero_strata(stratum):
    # structural equality with the power rule's canonical forms: a zero
    # stored for a vanishing class would fail it
    rng = random.Random(f"zero-class-{stratum}")
    for n in range(3, 9):
        for _ in range(2):
            sc = zero_class_cubics(rng, n)[stratum]
            expanded = sc.expand()
            forms = sc.gradient_system()
            assert forms == [partial(expanded, i) for i in range(n)], (stratum, n)
            if stratum in ("a1-zero", "a2-minus-3a1", "power-sums"):
                assert len(forms[0].terms) < n * (n + 1) // 2


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


def reduced_forms(sc):
    """The n reduced forms F_i = x_i^2 + 2a*x_i*s1 + b*s1^2, from reduced_params."""
    rp, s1 = sc.reduced_params(), elem_sym(sc.n, 1)
    xs = [variable(sc.n, i) for i in range(sc.n)]
    return [x * x + x * s1 * (2 * rp.a) + s1 * s1 * rp.b for x in xs]


def combined_gradients(sc):
    """dS_i/a3 + (a2+a3)/(a3*d) * sum_j dS_j, the combination the chain's
    reduction takes: it eliminates the s2 term."""
    grads = sc.gradient_system()
    grad_sum = MultiPoly.zero(sc.n)
    for g in grads:
        grad_sum = grad_sum + g
    mix = (sc.a2 + sc.a3) / (sc.a3 * sc.reduced_params().d)
    return [g * (1 / sc.a3) + grad_sum * mix for g in grads]


def test_reduced_system_power_sums():
    sc = SymmetricCubic(3, 1, -3, 3)
    expected = [
        MultiPoly(3, {(2, 0, 0): 1}),
        MultiPoly(3, {(0, 2, 0): 1}),
        MultiPoly(3, {(0, 0, 2): 1}),
    ]
    assert reduced_forms(sc) == combined_gradients(sc) == expected


def test_reduced_system_pure_s3():
    # F_i = x_i^2 - x_i*s1 (a = -1/2, b = 0)
    sc = SymmetricCubic(3, 0, 0, 1)
    s1 = elem_sym(3, 1)
    for i, form in enumerate(combined_gradients(sc)):
        xi = variable(3, i)
        assert form == xi * xi - xi * s1


def test_reduced_system_structure_random():
    # read a and b back off the combined gradients' coefficients:
    # [x_i^2] = 1 + 2a + b, [x_i*x_j] = 2a + 2b, [x_j^2] = b, [x_j*x_k] = 2b
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        try:
            rp = sc.reduced_params()
        except TransformationUndefinedError:
            continue
        for i, form in enumerate(combined_gradients(sc)):
            j, k = (i + 1) % sc.n, (i + 2) % sc.n
            assert coefficient(form, i, i) == 1 + 2 * rp.a + rp.b
            assert coefficient(form, i, j) == 2 * rp.a + 2 * rp.b
            assert coefficient(form, j, j) == rp.b
            assert coefficient(form, j, k) == 2 * rp.b
        checked += 1


def test_reduced_system_is_linear_transform_of_gradients_random():
    # F_i = dS_i/a3 + (a2+a3)/(a3*d) * sum_j dS_j eliminates the s2 term
    rng = random.Random(32)
    for n in range(3, 9):
        checked = 0
        while checked < 4:
            sc = random_cubic(rng, n, denominators=True)
            try:
                sc.reduced_params()
            except TransformationUndefinedError:
                continue
            assert combined_gradients(sc) == reduced_forms(sc)
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
