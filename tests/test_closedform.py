import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import symres.closedform
from symres.cli import json_line, report_json
from symres.closedform import (
    MAX_CLOSED_FORM_BITS,
    ReportFactor,
    ResultantReport,
    closed_form_resultant,
    formula_to_canonical_ratio,
    resultant_via_reduction,
)
from symres.oracle import MatrixSizeError
from symres.symcubic import (
    NormalizedCoeffs,
    ReducedParams,
    SymmetricCubic,
    TransformationUndefinedError,
)

from test_acceptance import grouped_product, sign_vector_product
from test_oracle import _from_normalized
from test_output_pins import strata_cubics
from test_symcubic import random_cubic


def synthetic_params(a, b):
    """ReducedParams for a bare (a, b) pair; d is unused by the products."""
    a, b = Fraction(a), Fraction(b)
    return ReducedParams(a=a, b=b, d=Fraction(1), radicand=a * a - b)


def closed_form_factor(bp, n, k):
    """Reference k-th parenthesized factor of the factored resultant formula,
    one Fraction operation at a time:
    (6*(n-2k)^2/n^2)*b1*b3^2 - (k*(n-k)/n^2)*b2^3."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 0..{n - 1}")
    nn = n * n
    return (Fraction(6 * (n - 2 * k) ** 2, nn) * bp.b1 * bp.b3 ** 2
            - Fraction(k * (n - k), nn) * bp.b2 ** 3)


def normalized_reference(sc):
    """Reference (b1, b2, b3), straight from their definition in Fractions."""
    n = sc.n
    return NormalizedCoeffs(
        b1=n * n * sc.a1 + Fraction(n * (n - 1), 2) * sc.a2
           + Fraction((n - 1) * (n - 2), 6) * sc.a3,
        b2=n * sc.a2 + (n - 2) * sc.a3,
        b3=sc.a3,
    )


def canonical_factor(sc, k):
    """Reference k-th factor of the canonical value, in a-coefficients.

    canonical = product over k = 0..n-1 of canonical_factor(sc, k)**C(n-1, k);
    each factor is (a3^(n-3)/8) * (d^3 - (n-2k)^2 * ((a2+a3)^2*d - 4*a3*N))
    with N = 6*a1*a3 + a2*a3 - a2^2.
    """
    n = sc.n
    d = 2 * sc.a3 - n * (sc.a2 + sc.a3)
    inner = 6 * sc.a1 * sc.a3 + sc.a2 * sc.a3 - sc.a2 ** 2
    body = d ** 3 - (n - 2 * k) ** 2 * ((sc.a2 + sc.a3) ** 2 * d - 4 * sc.a3 * inner)
    return sc.a3 ** (n - 3) * body / 8


# -- factors ------------------------------------------------------------------

def test_closed_form_factor_examples():
    bp = SymmetricCubic(3, 1, -3, 3).normalized_coeffs()
    assert closed_form_factor(bp, 3, 0) == 54
    assert closed_form_factor(bp, 3, 1) == 54
    bp_s3 = SymmetricCubic(3, 0, 0, 1).normalized_coeffs()
    assert closed_form_factor(bp_s3, 3, 1) == 0


def test_closed_form_factor_range():
    bp = SymmetricCubic(3, 1, -3, 3).normalized_coeffs()
    with pytest.raises(ValueError):
        closed_form_factor(bp, 3, 3)
    with pytest.raises(ValueError):
        closed_form_factor(bp, 3, -1)


def test_canonical_factor_examples():
    sc = SymmetricCubic(3, 1, -3, 3)
    assert canonical_factor(sc, 0) == 27
    assert canonical_factor(sc, 1) == 27
    assert canonical_factor(SymmetricCubic(3, 0, 0, 1), 1) == 0


def test_canonical_factor_vs_closed_form_factor_identity():
    rng = random.Random(91)
    for _ in range(40):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        bp = sc.normalized_coeffs()
        lead = Fraction(1) if sc.n == 3 else sc.a3 ** (sc.n - 3)
        for k in range(sc.n):
            assert 2 * canonical_factor(sc, k) == closed_form_factor(bp, sc.n, k) * lead


def test_canonical_factor_product_is_canonical_value():
    rng = random.Random(92)
    for _ in range(25):
        sc = random_cubic(rng, rng.choice([3, 4]), denominators=True)
        product = Fraction(1)
        for k in range(sc.n):
            product *= canonical_factor(sc, k) ** math.comb(sc.n - 1, k)
        assert product == closed_form_resultant(sc).canonical_value


def stratum_batch():
    """Seeded cubics with denominators on every stratum at n = 3..12. d = -b2,
    so the d = 0 stratum is also the b2 = 0 one; on "factor-k" one factor
    Y_k vanishes."""
    rng = random.Random(1103)

    def r():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))

    batch = []
    for n in range(3, 13):
        for _ in range(3):
            a1, a2, a3, k = r(), r(), r(), rng.randrange(1, n)
            b1_root = k * (n - k) * a2 ** 3 / (6 * (n - 2 * k) ** 2 * a3 ** 2) if 2 * k != n else 0
            batch += [
                SymmetricCubic(n, a1, a2, a3),                   # generic
                SymmetricCubic(n, 0, a2, a3),                    # a1 = 0
                SymmetricCubic(n, a1, a2, 0),                    # a3 = 0
                _from_normalized(n, a1, 0, a3),                  # d = b2 = 0
                _from_normalized(n, 0, a2, a3),                  # b1 = 0
                _from_normalized(n, b1_root, a2 if b1_root else 0, a3),  # factor-k
                SymmetricCubic(n, a1, -3 * a1, 3 * a1),          # power sums
            ]
    return batch


def hex_fraction(value):
    return f"{value.numerator:x}/{value.denominator:x}"


def test_integer_kernel_matches_the_fraction_reference_on_every_stratum():
    batch = stratum_batch()
    transcript, vanishing = hashlib.sha256(), 0
    for sc in batch:
        n = sc.n
        bp = sc.normalized_coeffs()
        assert bp == normalized_reference(sc)
        *numerators, q = sc.normalized_numerators()
        assert [Fraction(b, q) for b in numerators] == [bp.b1, bp.b2, bp.b3]
        report = closed_form_resultant(sc)
        values = [closed_form_factor(bp, n, k) for k in range(n)]
        assert [f.value for f in report.factors] == values
        formula = Fraction(1) if n == 3 else bp.b3 ** ((n - 3) * 2 ** (n - 1))
        for k, value in enumerate(values):
            formula *= value ** math.comb(n - 1, k)
        assert report.formula_value == formula
        assert report.canonical_value == formula / 2 ** 2 ** (n - 1)
        assert report.vanishes == (formula == 0)
        vanishing += report.vanishes
        # hexadecimal, which has no int->str digit limit
        transcript.update(f"{sc!r} {hex_fraction(report.formula_value)} "
                          f"{hex_fraction(report.canonical_value)} {report.vanishes}\n".encode())
    # 30 each on a3 = 0, b1 = 0 and factor-k; 15 on d = 0, where Y_(n/2) = 0
    # at even n; and (4, 0, -1/2, 3), an a1 = 0 cubic that also has b1 = 0
    assert vanishing == 106
    # the batch's values and verdicts as the Fraction-by-Fraction kernel gave them
    assert transcript.hexdigest() == (
        "2311bbd1204e240ab46712b3dbd3a9e740e0ff3acc37daa2be84e2050575ee75")


# -- the closed-form report -----------------------------------------------------

def test_report_pure_s3_vanishes():
    report = closed_form_resultant(SymmetricCubic(3, 0, 0, 1))
    assert report.vanishes
    assert report.formula_value == 0
    assert report.canonical_value == 0
    assert report_json(report)["ratio"] is None


def test_report_pure_s1_cubed_vanishes():
    report = closed_form_resultant(SymmetricCubic(3, 1, 0, 0))
    assert report.vanishes
    assert report.formula_value == 0


def test_report_power_sums_values():
    report = closed_form_resultant(SymmetricCubic(3, 1, -3, 3))
    assert report.formula_value == 54 ** 4 == 8503056
    assert report.canonical_value == 3 ** 12 == 531441
    assert report.formula_value / report.canonical_value == 16


def test_report_factor_structure():
    rng = random.Random(14)
    for _ in range(20):
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        report = closed_form_resultant(sc)
        n = sc.n
        assert [f.exponent for f in report.factors] == [math.comb(n - 1, k) for k in range(n)]
        prefactor_exp = (n - 3) * 2 ** (n - 1)
        b3 = sc.normalized_coeffs().b3
        prefactor = Fraction(1) if prefactor_exp == 0 else b3 ** prefactor_exp
        rebuilt = prefactor
        for f in report.factors:
            rebuilt *= f.value ** f.exponent
        assert rebuilt == report.formula_value
        if not report.vanishes:
            assert report.formula_value / report.canonical_value == 2 ** 2 ** (n - 1)
        assert report.vanishes == (report.canonical_value == 0) == (report.formula_value == 0)


def test_report_json_schema():
    data = report_json(closed_form_resultant(SymmetricCubic(3, 1, -3, 3)))
    parsed = json.loads(json_line(data))
    assert parsed["canonical"] == "531441"
    assert parsed["paper"] == "8503056"
    assert parsed["ratio"] == "16"
    assert parsed["vanishes"] is False
    assert parsed["factors"] == [
        {"k": 0, "Y": "54", "exp": 1},
        {"k": 1, "Y": "54", "exp": 2},
        {"k": 2, "Y": "54", "exp": 1},
    ]


def test_canonical_value_is_the_formula_value_over_the_ratio():
    # the canonical value is the reduced formula value divided by
    # formula_to_canonical_ratio, the Fraction 2^(2^(n-1)); the law pins that step
    cubics = [SymmetricCubic(*cubic) for cubic in strata_cubics()]
    cubics += [SymmetricCubic(n, a1, a2, a3) for n in range(3, 13)
               for a1, a2, a3 in ((1, 0, 0), (0, 0, 1), (0, 1, 0))]
    vanishing = 0
    for sc in cubics:
        report = closed_form_resultant(sc)
        assert type(report.canonical_value) is Fraction
        assert report.canonical_value * 2 ** 2 ** (sc.n - 1) == report.formula_value
        assert report.canonical_value == report.formula_value / formula_to_canonical_ratio(sc.n)
        assert type(formula_to_canonical_ratio(sc.n)) is Fraction
        vanishing += report.vanishes
    assert 0 < vanishing < len(cubics)


def test_report_records_keep_their_fields_and_equality():
    assert ReportFactor._fields == ("k", "value", "exponent")
    assert ResultantReport._fields == ("canonical_value", "formula_value", "factors", "vanishes")
    assert ReducedParams._fields == ("a", "b", "d", "radicand")
    assert NormalizedCoeffs._fields == ("b1", "b2", "b3")
    sc = SymmetricCubic(4, Fraction(1, 3), -2, 5)
    report = closed_form_resultant(sc)
    assert report == closed_form_resultant(SymmetricCubic(4, Fraction(1, 3), -2, 5))
    assert report != closed_form_resultant(SymmetricCubic(4, Fraction(1, 3), -2, 6))
    assert report.factors[1] == ReportFactor(k=1, value=report.factors[1].value, exponent=3)
    assert sc.reduced_params() == ReducedParams(*sc.reduced_params())
    assert sc.normalized_coeffs() == normalized_reference(sc)
    with pytest.raises(AttributeError):
        report.vanishes = True


# -- sign-vector products ----------------------------------------------------------

def test_poisson_trivial_cases():
    for n in (3, 5):
        assert sign_vector_product(synthetic_params(0, 0), n) == grouped_product(
            synthetic_params(0, 0), n) == 1


def test_poisson_collapses_when_radicand_zero():
    a = Fraction(2, 7)
    rp = synthetic_params(a, a * a)  # b = a^2 forces r = 0
    assert grouped_product(rp, 3) == (1 + 3 * a) ** 8


def test_poisson_pure_s3_parameters_vanish():
    rp = SymmetricCubic(3, 0, 0, 1).reduced_params()
    assert sign_vector_product(rp, 3) == grouped_product(rp, 3) == 0


def test_grouped_examples():
    assert grouped_product(synthetic_params(0, 0), 4) == 1
    # k = 1 factor is 1 - (3-2)^2 = 0
    assert grouped_product(synthetic_params(0, -1), 3) == 0


def test_grouped_equals_poisson_random():
    rng = random.Random(6)
    for n in range(3, 9):
        for _ in range(10):
            rp = synthetic_params(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert sign_vector_product(rp, n) == grouped_product(rp, n)


def test_grouped_exponents_sum_to_half_the_vectors():
    for n in range(3, 8):
        assert sum(math.comb(n - 1, k) for k in range(n)) == 2 ** (n - 1)


def test_grouped_factors_mirror_the_half_they_form():
    # g_k depends on k only through (n - 2k)^2, so the chain forms k <= n/2
    # and mirrors them: every factor equals its definition, lift included
    rng = random.Random(61)
    for n in range(3, 13):
        for _ in range(5):
            rp = synthetic_params(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            lift = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c = 1 + n * rp.a
            assert symres.closedform._grouped_factors(rp, n, lift) == [
                (c * c - rp.radicand * (n - 2 * k) ** 2) * lift for k in range(n)]


# -- reduction chain ------------------------------------------------------------------

def test_reduction_chain_power_sums():
    assert resultant_via_reduction(SymmetricCubic(3, 1, -3, 3)) == 27 ** 4 == 531441


def test_reduction_chain_pure_s3():
    assert resultant_via_reduction(SymmetricCubic(3, 0, 0, 1)) == 0
    assert resultant_via_reduction(SymmetricCubic(4, 0, 0, 1)) == 0


def test_reduction_chain_undefined():
    with pytest.raises(TransformationUndefinedError):
        resultant_via_reduction(SymmetricCubic(3, 1, 0, 0))


def test_reduction_chain_matches_closed_form_random():
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        sc = random_cubic(rng, rng.choice([3, 4, 5]), denominators=True)
        try:
            chain = resultant_via_reduction(sc)
        except TransformationUndefinedError:
            continue
        assert chain == closed_form_resultant(sc).canonical_value
        checked += 1


def test_lifted_chain_factors_are_the_closed_form_factors():
    # the chain spreads its scale (a3^(n-1)*d/2)^(2^(n-1)) over the 2^(n-1)
    # factor slots; the lifted factors g_k*a3^2*d are exactly the closed
    # form's Y_k, which is why the two routes share one size estimate
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        sc = random_cubic(rng, 3 + checked % 6, denominators=True)
        try:
            rp = sc.reduced_params()
        except TransformationUndefinedError:
            continue
        n, bp = sc.n, sc.normalized_coeffs()
        c = 1 + n * rp.a
        for k in range(n):
            g = c * c - rp.radicand * (n - 2 * k) ** 2
            assert g * sc.a3 ** 2 * rp.d == closed_form_factor(bp, n, k)
        checked += 1


def test_chain_and_closed_form_refuse_together():
    power_sums_15 = SymmetricCubic(15, 1, -3, 3)
    assert resultant_via_reduction(power_sums_15) == closed_form_resultant(
        power_sums_15).canonical_value
    for sc in (SymmetricCubic(16, 1, -3, 3), SymmetricCubic(4, 2 ** 210000, 0, 1)):
        with pytest.raises(MatrixSizeError) as closed:
            closed_form_resultant(sc)
        with pytest.raises(MatrixSizeError) as chain:
            resultant_via_reduction(sc)
        assert str(chain.value) == str(closed.value)


def test_reduction_chain_vanishing_at_large_n():
    assert resultant_via_reduction(SymmetricCubic(10 ** 4, 0, 0, 1)) == 0


def test_exponent_row_is_built_only_where_needed(monkeypatch):
    built = []
    binomial_row = symres.closedform._binomial_row
    monkeypatch.setattr(symres.closedform, "_binomial_row",
                        lambda n: built.append(n) or binomial_row(n))
    # a vanishing chain is answered by its zero factor, before any row
    assert resultant_via_reduction(SymmetricCubic(50, 0, 0, 1)) == 0
    assert built == []
    # the closed form builds its row once, for the report
    assert closed_form_resultant(SymmetricCubic(50, 0, 0, 1)).vanishes
    assert closed_form_resultant(SymmetricCubic(5, 1, -3, 3)).factors[2].exponent == 6
    assert built == [50, 5]


def test_nonvanishing_refusal_builds_no_exponent_row(monkeypatch):
    # the row C(n-1, k) has O(n^2) bits, about 3.6 GB at n = 2*10^5; a
    # nonvanishing value with 2^n bits or more is refused before it is built
    def no_row(n):
        raise AssertionError(f"exponent row built for n = {n}")
    monkeypatch.setattr(symres.closedform, "_binomial_row", no_row)
    with pytest.raises(MatrixSizeError):
        closed_form_resultant(SymmetricCubic(2 * 10 ** 5, 1, 2, 3))
    with pytest.raises(MatrixSizeError):
        resultant_via_reduction(SymmetricCubic(2 * 10 ** 4, 1, 2, 3))


def test_size_guard_is_estimated_from_the_factors():
    # power sums have every Y_k = 54 (6 + 1 bits of numerator and
    # denominator) and b3 = 3 (2 + 1 bits): the estimate is 2^14*(7 + 12*3)
    # at n = 15, under the budget, and 2^15*(7 + 13*3) at n = 16, over it
    report = closed_form_resultant(SymmetricCubic(15, 1, -3, 3))
    assert report.formula_value == 3 ** (12 * 2 ** 14) * 54 ** (2 ** 14)
    assert 2 ** 14 * (7 + 12 * 3) < MAX_CLOSED_FORM_BITS < 2 ** 15 * (7 + 13 * 3)
    with pytest.raises(MatrixSizeError):
        closed_form_resultant(SymmetricCubic(16, 1, -3, 3))
    # each factor counts with its exponent: at n = 4, factors 0, 1 and 3 have
    # about 210,000 bits each and exponents 1, 3 and 1, about 1.05e6 in all
    with pytest.raises(MatrixSizeError):
        closed_form_resultant(SymmetricCubic(4, 2 ** 210000, 0, 1))
