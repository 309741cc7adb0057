"""Acceptance suite: every criterion is exact (no tolerances) and prints one
PASS line; batch sizes and seeds are fixed so runs are reproducible."""
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from symres.cli import json_line, report_json
from symres.closedform import (
    _expand,
    _grouped_factors,
    closed_form_resultant,
    resultant_via_reduction,
)
from symres.finsler import (
    DEGENERATE_METRIC_IDENTICALLY_ZERO,
    MetricFunction,
    Momentum,
    configuratrix_resultant,
)
from symres.oracle import (
    MacaulaySystem,
    det_rational,
    macaulay_resultant,
    root_witness,
    verify_witness,
)
from symres.polycore import QuadExt
from symres.symcubic import ReducedParams, SymmetricCubic, TransformationUndefinedError


def random_integer_cubic(rng, n, lo=-9, hi=9):
    while True:
        coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(3)]
        if any(c != 0 for c in coeffs):
            return SymmetricCubic(n, *coeffs)


def sign_vector_product(rp, n):
    """The reduced system's resultant as the literal product over all 2^n
    sign vectors e of 1 + n*a + r*sum(e_j), r^2 = a^2 - b, in Q(r).

    The product is symmetric under r -> -r, so its radical part must cancel.
    """
    r = QuadExt(0, 1, rp.radicand)
    total = QuadExt.lift(1, rp.radicand)
    for signs in itertools.product((1, -1), repeat=n):
        total = total * (1 + n * rp.a + r * sum(signs))
    assert total.radical == 0
    return total.rational


def grouped_product(rp, n):
    """The reduced system's resultant as the chain expands it: the product of
    its grouped factors g_k ** C(n-1, k)."""
    return _expand(Fraction(1), _grouped_factors(rp, n, Fraction(1)))[0]


_CASE_CACHE = {}


def batch_cases():
    """The criterion-1 batches: 200 cubics at n=3 and 50 at n=4, fixed seed.

    Returns [(cubic, canonical oracle value)], computing each oracle value
    once; criteria 1, 2 and 5 all read from this list.
    """
    if "cases" not in _CASE_CACHE:
        rng = random.Random(20260810)
        cases = []
        for n, count in ((3, 200), (4, 50)):
            for _ in range(count):
                sc = random_integer_cubic(rng, n)
                oracle = macaulay_resultant(
                    MacaulaySystem.from_forms(sc.gradient_system()))
                cases.append((sc, oracle))
        _CASE_CACHE["cases"] = cases
    return _CASE_CACHE["cases"]


def test_criterion_1_three_route_agreement():
    start = time.time()
    chain_checked = 0
    for sc, oracle in batch_cases():
        report = closed_form_resultant(sc)
        assert report.canonical_value == oracle, (sc, report.canonical_value, oracle)
        try:
            chain = resultant_via_reduction(sc)
        except TransformationUndefinedError:
            continue
        assert chain == oracle, (sc, chain, oracle)
        chain_checked += 1
    elapsed = time.time() - start
    assert chain_checked > 150
    print(f"\nACCEPTANCE 1 three-route agreement (250 cases, "
          f"{chain_checked} with chain, {elapsed:.1f}s): PASS")


def test_criterion_2_normalization_pin():
    pinned = {3: Fraction(16), 4: Fraction(256)}
    nonvanishing = 0
    for sc, oracle in batch_cases():
        report = closed_form_resultant(sc)
        if report.vanishes:
            continue
        nonvanishing += 1
        assert report.formula_value == oracle * pinned[sc.n]
        assert json.loads(json_line(report_json(report)))["ratio"] == str(pinned[sc.n])
    assert nonvanishing > 200
    print(f"ACCEPTANCE 2 normalization ratio 2^(2^(n-1)) "
          f"({nonvanishing} nonvanishing cases): PASS")


def test_criterion_3_anchor_values():
    anchor = SymmetricCubic(3, 1, -3, 3)
    assert closed_form_resultant(anchor).canonical_value == 531441
    assert macaulay_resultant(
        MacaulaySystem.from_forms(anchor.gradient_system())) == 531441

    product_cubic = SymmetricCubic(3, 0, 0, 1)
    assert closed_form_resultant(product_cubic).canonical_value == 0
    w = root_witness(product_cubic)
    assert w is not None and w.point == (Fraction(1), Fraction(0), Fraction(0))
    assert verify_witness(product_cubic, w)

    s1_cubed = SymmetricCubic(3, 1, 0, 0)
    assert closed_form_resultant(s1_cubed).canonical_value == 0
    w = root_witness(s1_cubed)
    assert w is not None and verify_witness(s1_cubed, w)
    assert sum(w.point, start=Fraction(0)) == 0  # an s1 = 0 vector
    print("ACCEPTANCE 3 anchors 3^12 and the two vanishing cases: PASS")


def test_criterion_4_poisson_grouped_equivalence():
    start = time.time()
    rng = random.Random(44)
    for _ in range(100):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        rp = ReducedParams(a=a, b=b, d=Fraction(1), radicand=a * a - b)
        for n in (3, 4, 5):
            assert sign_vector_product(rp, n) == grouped_product(rp, n)
    elapsed = time.time() - start
    assert elapsed < 5
    print(f"ACCEPTANCE 4 sign-vector product equals grouped product "
          f"(100 pairs x n in 3..5, {elapsed:.1f}s): PASS")


def test_criterion_5_vanishing_iff_witness():
    checked = 0
    for sc, oracle in batch_cases():
        w = root_witness(sc)
        assert (w is not None) == (oracle == 0), (sc, oracle)
        if w is not None:
            assert verify_witness(sc, w), sc
        checked += 1
    for sc in (SymmetricCubic(3, 0, 0, 1), SymmetricCubic(3, 1, 0, 0)):
        w = root_witness(sc)
        assert w is not None and verify_witness(sc, w)
        checked += 1
    print(f"ACCEPTANCE 5 vanishing iff verified witness ({checked} cases): PASS")


def test_criterion_6_homogeneity_and_covariance():
    rng = random.Random(66)
    for _ in range(50):
        sc = random_integer_cubic(rng, 3)
        forms = sc.gradient_system()
        base = macaulay_resultant(MacaulaySystem.from_forms(forms))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            c = -c

        scaled_cubic = SymmetricCubic(3, sc.a1 * c, sc.a2 * c, sc.a3 * c)
        scaled_value = macaulay_resultant(
            MacaulaySystem.from_forms(scaled_cubic.gradient_system()))
        assert scaled_value == base * c ** 12  # n * 2^(n-1) = 12

        j = rng.randrange(3)
        one_scaled = list(forms)
        one_scaled[j] = one_scaled[j] * c
        assert macaulay_resultant(
            MacaulaySystem.from_forms(one_scaled)) == base * c ** 4  # 2^(n-1)

        while True:
            t = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            det_t = det_rational(t)
            if det_t != 0:
                break
        substituted = [f.substitute_linear(t) for f in forms]
        assert macaulay_resultant(
            MacaulaySystem.from_forms(substituted)) == base * det_t ** 8  # 2^n
    print("ACCEPTANCE 6 homogeneity and covariance laws (50 cases): PASS")


def test_criterion_7_degenerate_strata():
    rng = random.Random(7)
    checked_a3 = 0
    while checked_a3 < 50:
        a1, a2 = (Fraction(rng.randint(-9, 9)) for _ in range(2))
        if a1 == 0 and a2 == 0:
            continue
        sc = SymmetricCubic(3, a1, a2, 0)
        oracle = macaulay_resultant(MacaulaySystem.from_forms(sc.gradient_system()))
        assert closed_form_resultant(sc).canonical_value == oracle
        checked_a3 += 1

    checked_d = 0
    while checked_d < 50:
        a1, a2 = (Fraction(rng.randint(-9, 9)) for _ in range(2))
        a3 = -3 * a2  # forces d = 2*a3 - 3*(a2 + a3) = 0
        if a1 == 0 and a2 == 0:
            continue
        sc = SymmetricCubic(3, a1, a2, a3)
        assert sc.normalized_coeffs().b2 == 0
        oracle = macaulay_resultant(MacaulaySystem.from_forms(sc.gradient_system()))
        assert closed_form_resultant(sc).canonical_value == oracle
        checked_d += 1
    print("ACCEPTANCE 7 closed form equals oracle on a3 = 0 and d = 0 strata "
          "(50 + 50 cases): PASS")


def test_criterion_8_configuratrix():
    start = time.time()
    metric = MetricFunction(SymmetricCubic(3, 1, -3, 3))

    # 20 attainable momenta: xi = (t, -t, 1) lies on S = 1 for every t
    rng = random.Random(88)
    ts = set()
    while len(ts) < 20:
        ts.add(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    for t in sorted(ts):
        result = configuratrix_resultant(metric, Momentum.of([t * t, t * t, 1]))
        assert result.vanishes and result.diagnostic is None, t

    # 20 generic momenta: none lies on the configuratrix
    for _ in range(20):
        y = Momentum.of([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(3)])
        result = configuratrix_resultant(metric, y)
        assert not result.vanishes, y

    # degenerate metric: identically zero with diagnostic
    degenerate = MetricFunction(SymmetricCubic(3, 0, 0, 1))
    for _ in range(10):
        y = Momentum.of([Fraction(rng.randint(-9, 9)) for _ in range(3)])
        result = configuratrix_resultant(degenerate, y)
        assert result.vanishes
        assert result.diagnostic == DEGENERATE_METRIC_IDENTICALLY_ZERO
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 8 configuratrix solvability (20 + 20 + 10 momenta, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    sweep_spec = {
        "n": 3,
        "A1": {"start": "-1", "stop": "1", "step": "1/10"},
        "A2": {"start": "-1", "stop": "1", "step": "1/10"},
        "A3": "1",
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(sweep_spec), encoding="utf-8")

    def run(*argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "symres", *argv],
            input=stdin, capture_output=True, text=True)

    first = run("sweep", str(spec_path))
    second = run("sweep", str(spec_path))
    assert first.returncode == 0
    assert len(first.stdout.splitlines()) == 441
    assert first.stdout == second.stdout  # byte-identical 21x21 grid

    cubic = json.dumps({"n": 3, "A1": "1", "A2": "-3", "A3": "3"})
    vanishing = json.dumps({"n": 3, "A1": "0", "A2": "0", "A3": "1"})
    assert run("closed", "-", stdin=cubic).returncode == 0
    assert run("closed", "-", stdin=vanishing).returncode == 3
    assert run("closed", "-", stdin='{"n": 2, "A1": "1", "A2": "0", "A3": "0"}').returncode == 2
    assert run("compare", "-", "--oracle", stdin=cubic).returncode == 0
    assert run("witness", "-", stdin=vanishing).returncode == 0
    bad_spec = dict(sweep_spec, A1={"start": "0", "stop": "1", "step": "0"})
    assert run("sweep", "-", stdin=json.dumps(bad_spec)).returncode == 2
    huge = dict(sweep_spec, A1={"start": "0", "stop": "1100", "step": "1"},
                A2={"start": "0", "stop": "1100", "step": "1"})
    assert run("sweep", "-", stdin=json.dumps(huge)).returncode == 4
    metric_path = tmp_path / "metric.json"
    metric_path.write_text(cubic, encoding="utf-8")
    momentum_path = tmp_path / "momentum.json"
    momentum_path.write_text(json.dumps({"y": ["1", "0", "0"]}), encoding="utf-8")
    assert run("configuratrix", str(metric_path), str(momentum_path)).returncode == 0
    big_metric = tmp_path / "metric4.json"
    big_metric.write_text(json.dumps({"n": 4, "A1": "1", "A2": "-3", "A3": "3"}),
                          encoding="utf-8")
    big_momentum = tmp_path / "momentum4.json"
    big_momentum.write_text(json.dumps({"y": ["1", "0", "0", "0"]}), encoding="utf-8")
    assert run("configuratrix", str(big_metric), str(big_momentum)).returncode == 4
    print("ACCEPTANCE 9 CLI determinism and exit-code contract: PASS")
