import collections
import itertools
import math
import random
import time
from fractions import Fraction
from operator import add

import pytest

import symres.oracle
from symres.finsler import MetricFunction, Momentum, configuratrix_system
from symres.oracle import (
    MAX_MATRIX_ENTRIES,
    MacaulaySystem,
    MatrixSizeError,
    RootWitness,
    _build_matrix,
    _integer_forms,
    _pencil_value,
    _rank_deficient,
    check_macaulay_size,
    det_bareiss,
    det_rational,
    macaulay_resultant,
    root_witness,
    verify_witness,
)
from symres.polycore import MultiPoly, QuadExt, grevlex_key, monomials_of_degree
from symres.closedform import closed_form_resultant
from symres.symcubic import SymmetricCubic

from test_symcubic import random_cubic


def poly2(a, b, c):
    """a*x^2 + b*x*y + c*y^2 as a binary form."""
    return MultiPoly(2, {(2, 0): a, (1, 1): b, (0, 2): c})


def quadratic_anchor(n):
    forms = []
    for i in range(n):
        exps = [0] * n
        exps[i] = 2
        forms.append(MultiPoly(n, {tuple(exps): 1}))
    return MacaulaySystem.from_forms(forms)


# -- determinants ---------------------------------------------------------------

def test_det_bareiss_known_values():
    assert det_bareiss([[3]]) == 3
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([]) == 1


def test_det_bareiss_needs_pivot_swap():
    # no row moves: each step pivots on the one row reaching its column, so
    # the pivot order is (1, 0), then (2, 1, 0), one swap from input order
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_det_rational_matches_expansion_random():
    rng = random.Random(40)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        # cofactor expansion as the independent route
        def cofactor_det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = Fraction(0)
            for j, head in enumerate(rows[0]):
                if head == 0:
                    continue
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * head * cofactor_det(minor)
            return total
        assert det_rational(m) == cofactor_det(m)


def dense_det(rows):
    """Reference determinant: fraction-free Bareiss on the unpermuted matrix,
    every row rescaled at every step, as det_bareiss computed it before lazy
    row scaling."""
    m = [row[:] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def permutation_sign(perm):
    return (-1) ** sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])


def stratum_cubics(n):
    """One cubic per stratum the oracle treats differently."""
    b1_zero_a1 = -(Fraction(n * (n - 1), 2) * 2 + Fraction((n - 1) * (n - 2), 6) * 5) / (n * n)
    return {
        "generic": SymmetricCubic(n, 1, -2, 5),
        "d0": SymmetricCubic(n, 1, 2 - n, n),          # 2*a3 = n*(a2 + a3)
        "b1-zero": SymmetricCubic(n, b1_zero_a1, 2, 5),
        "a1-zero": SymmetricCubic(n, 0, 2, 5),         # zero diagonal
        "a3-zero": SymmetricCubic(n, 1, 2, 0),
    }


def macaulay_matrices(sc):
    """The integer Macaulay matrix M and its minor M' of the gradient system."""
    forms, _ = _integer_forms(sc.gradient_system(), [2] * sc.n)
    rows, non_reduced = _build_matrix(forms, [2] * sc.n)
    return rows, [[rows[r][c] for c in non_reduced] for r in non_reduced]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("stratum", ["generic", "d0", "b1-zero", "a1-zero", "a3-zero"])
def test_block_triangular_det_matches_dense_on_macaulay_strata(n, stratum):
    sc = stratum_cubics(n)[stratum]
    if stratum == "b1-zero":
        assert sc.normalized_coeffs().b1 == 0
    if stratum == "d0":
        assert 2 * sc.a3 == n * (sc.a2 + sc.a3)
    rng = random.Random(f"{stratum}-{n}")
    for rows in macaulay_matrices(sc):
        value = det_bareiss(rows)
        assert value == dense_det(rows)
        # a row and column permuted copy moves each row's nonzero span and
        # forces other pivot swaps; the value changes by both signs
        size = len(rows)
        p, q = rng.sample(range(size), size), rng.sample(range(size), size)
        permuted = [[rows[p[i]][q[j]] for j in range(size)] for i in range(size)]
        assert det_bareiss(permuted) == permutation_sign(p) * permutation_sign(q) * value


def test_block_triangular_det_matches_dense_random_sparse():
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randint(1, 12)
        density = rng.choice([0.1, 0.2, 0.35, 0.6, 1.0])
        rows = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        assert det_bareiss(rows) == dense_det(rows)


def test_det_of_singular_and_block_triangular_patterns():
    # rows 0 and 1 only reach column 0: step 0 pivots on row 2 and leaves
    # them proportional, so once row 1 is the pivot row 0 becomes a zero row
    assert det_bareiss([[5, 0, 0], [7, 0, 0], [1, 2, 3]]) == 0
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    # rows 0 and 1 are zero right of column 1, and step 0 pivots on row 2;
    # in the first case they stay proportional, so step 1 (pivot row 1)
    # turns row 0 into a zero row, leaving fewer nonzero rows than columns
    tail = [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]]
    assert det_bareiss([[1, 2, 0, 0, 0], [2, 4, 0, 0, 0]] + tail) == 0
    assert det_bareiss([[1, 2, 0, 0, 0], [3, 4, 0, 0, 0]] + tail) == -4


def test_lower_bidiagonal_det_is_the_diagonal_product():
    # 3,000 rows of span two: step k updates row k + 1 alone, over one column
    n = 3000
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 + i % 3
        if i:
            rows[i][i - 1] = 1
    start = time.perf_counter()
    value = det_bareiss(rows)
    assert time.perf_counter() - start < 1.0
    assert value == math.prod(2 + i % 3 for i in range(n))


@pytest.mark.parametrize("n", [6, 3000])
def test_det_whose_only_matching_needs_one_long_augmenting_path(n):
    # column 0 is nonzero only in row n - 1, so step 0 pivots on it and
    # updates no row; step 1 pivots on row 1 and updates row 0, which pivots
    # at step 2; from then on each step pivots on the row the step before
    # updated and updates row k, untouched since step 0, alone. The pivot
    # order n - 1, 1, 0, 2, ..., n - 2 is one cycle of length n - 1
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = 1
    for i in range(1, n):
        rows[i][i] = 1
        rows[i][(i + 1) % n] = 2 + i % 3
    value = det_bareiss(rows)
    assert value == (-1) ** (n - 1) * math.prod(2 + i % 3 for i in range(1, n))
    if n <= 12:
        assert value == dense_det(rows)


def test_bareiss_kernel_matches_dense_random_sparse():
    rng = random.Random(61)
    for _ in range(600):
        n = rng.randint(0, 14)
        density = rng.choice([0.05, 0.1, 0.2, 0.35, 0.6, 0.8, 1.0])
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        assert det_bareiss(rows) == dense_det(rows)


def test_bareiss_kernel_swaps_a_stale_row_into_the_pivot():
    # Rows never move, and stale rows become pivots where they stand.
    # Step 0 pivots on row 3 (3), updates row 2 and leaves row 0 stale;
    # step 1 pivots on row 0 and scales it by 3 / 1. Step 2 pivots on row 2,
    # stale since step 1, and scales it by 6 / 3; its update of row 1, stale
    # since step 0, divides by 1 in place of 6.
    rows = [[0, 2, 3, 2], [0, 0, 3, 1], [2, 0, 0, 1], [3, 0, 2, 0]]
    assert det_bareiss(rows) == dense_det(rows) == -26


def test_bareiss_kernel_corrects_a_stale_last_row():
    # step 0 pivots on the last row (1) and leaves row 0 as (0, 0, 0, -7),
    # stale through steps 1 and 2 (pivots 2 and 4), which pivot on rows 1
    # and 2; step 3 pivots on row 0, and its entry -7 becomes -7 * 4 / 1
    rows = [[2, 2, 2, 1], [1, 3, 1, 2], [1, 1, 3, 1], [1, 1, 1, 4]]
    assert det_bareiss(rows) == dense_det(rows) == 28


def test_bareiss_kernel_row_stale_from_first_to_last_step():
    # the last row is never touched until step 4 pivots on it: its entry 7
    # is scaled once, by step 3's pivot over the first divisor 1
    rows = [[3, 1, 2, 1, 0], [1, 2, 1, 0, 1], [2, 1, 4, 1, 1], [1, 0, 1, 5, 2], [0, 0, 0, 0, 7]]
    assert det_bareiss(rows) == dense_det(rows) == 7 * dense_det([row[:4] for row in rows[:4]])


def test_bareiss_kernel_singular_only_after_a_catch_up():
    # rows 2 and 3 skip step 0 (pivot 2, on row 1); their step-1 updates
    # (divided by 1, not by step 0's pivot 2) clear column 2, so step 2
    # finds no pivot
    rows = [[1, 1, 1, 1], [2, 1, 1, 1], [0, 1, 1, 5], [0, 3, 3, 1]]
    assert det_bareiss(rows) == dense_det(rows) == 0
    # here the stale rows' updates leave the zero in the last entry, and
    # changing one entry makes that entry nonzero
    rows = [[1, 1, 1, 0], [2, 1, 0, 0], [0, 3, 1, 1], [0, 6, 2, 2]]
    assert det_bareiss(rows) == dense_det(rows) == 0
    rows[3][3] = 3
    assert det_bareiss(rows) == dense_det(rows) != 0


def fraction_rank(rows):
    """Reference rank: Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / m[rank][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_tall_bareiss_is_zero_iff_rank_deficient():
    rng = random.Random(62)
    deficient = 0
    for _ in range(600):
        n = rng.randint(1, 10)
        m = n + rng.randint(0, 8)
        density = rng.choice([0.05, 0.1, 0.2, 0.35, 0.6, 1.0])

        def entry():
            return rng.randint(-5, 5) if rng.random() < density else 0
        if rng.random() < 0.4:
            # an m x r times r x n product has rank at most r < n
            r = rng.randint(0, n - 1)
            left = [[entry() for _ in range(r)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(r)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)]
                    for i in range(m)]
        else:
            rows = [[entry() for _ in range(n)] for _ in range(m)]
        given = [row[:] for row in rows]
        value = det_bareiss(rows)
        assert rows == given
        assert (value == 0) == (fraction_rank(rows) < n)
        if m == n:
            assert value == dense_det(rows)
        deficient += value == 0
    assert 150 < deficient < 450


def test_tall_bareiss_drops_zero_rows():
    # step 0 pivots on row 1 and zeroes row 0, which is dropped; row 2
    # pivots column 1
    assert det_bareiss([[1, 2], [2, 4], [0, 3]]) != 0
    # fewer nonzero rows than columns, before any step
    assert det_bareiss([[0, 0, 0], [0, 0, 0], [1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
    # three nonzero rows left for two columns, but none reaches column 1
    assert det_bareiss([[1, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3]]) == 0


# -- Macaulay resultant ------------------------------------------------------------

def test_macaulay_anchor_binary():
    assert macaulay_resultant(quadratic_anchor(2)) == 1


def test_macaulay_anchor_ternary():
    assert macaulay_resultant(quadratic_anchor(3)) == 1


def test_macaulay_binary_pair():
    system = MacaulaySystem.from_forms([poly2(1, 0, -1), poly2(1, 0, 1)])
    assert macaulay_resultant(system) == 4


def test_macaulay_scaled_anchor():
    forms = [f * 3 for f in quadratic_anchor(3).forms]
    assert macaulay_resultant(MacaulaySystem.from_forms(forms)) == 3 ** 12


def test_macaulay_common_root_vanishes():
    system = MacaulaySystem.from_forms([poly2(0, 1, 0), poly2(1, 0, 0)])
    assert macaulay_resultant(system) == 0


def test_macaulay_mixed_degrees():
    # R{x^3, y^2} = 1 and scaling covariance with mixed degrees
    f = MultiPoly(2, {(3, 0): 1})
    g = MultiPoly(2, {(0, 2): 1})
    assert macaulay_resultant(MacaulaySystem.from_forms([f, g])) == 1
    assert macaulay_resultant(MacaulaySystem.from_forms([f * 5, g])) == 5 ** 2
    assert macaulay_resultant(MacaulaySystem.from_forms([f, g * 5])) == 5 ** 3


def test_macaulay_size_guard():
    n = 7
    with pytest.raises(MatrixSizeError):
        macaulay_resultant(quadratic_anchor(n))


def test_macaulay_size_rule_is_the_matrix_size():
    # refused exactly when N^2 = C(nu + n - 1, n - 1)^2 passes the budget
    for n in range(1, 8):
        for degrees in itertools.combinations_with_replacement(range(1, 5), n):
            nu = sum(d - 1 for d in degrees) + 1
            over = math.comb(nu + n - 1, n - 1) ** 2 > MAX_MATRIX_ENTRIES
            try:
                check_macaulay_size(degrees)
            except MatrixSizeError:
                assert over, degrees
            else:
                assert not over, degrees


def test_macaulay_size_rule_admits_what_the_routes_run():
    # n = 5 gradients (210^2) and the n = 3 configuratrix (84^2) fit; n = 6
    # gradients (792^2) and the n = 4 configuratrix (330^2) do not; n = 316
    # linear forms (316^2) fit and n = 317 do not
    for degrees in ((2,) * 5, (3, 2, 2, 2), (1,) * 316):
        check_macaulay_size(degrees)
    for degrees in ((2,) * 6, (3, 2, 2, 2, 2), (1,) * 317, (2,) * 10 ** 6):
        with pytest.raises(MatrixSizeError) as refused:
            check_macaulay_size(degrees)
        assert len(str(refused.value)) < 100


def _columns(degrees):
    """The critical degree nu and each degree-nu monomial's column, in
    canonical order: the reference the oracle's template is checked against."""
    nu = sum(d - 1 for d in degrees) + 1
    return nu, {mono: i for i, mono in enumerate(monomials_of_degree(len(degrees), nu))}


def _row(form, alpha, col_index) -> list[int]:
    """The row x^alpha * form of a form given as integer terms {exponents: int}."""
    row = [0] * len(col_index)
    for exps, c in form.items():
        row[col_index[tuple(map(add, exps, alpha))]] = c
    return row


@pytest.mark.parametrize("degrees", [(2,) * 3, (2,) * 4, (2,) * 5, (3, 2, 2, 2)])
def test_columns_are_the_degree_nu_monomials_in_descending_grevlex(degrees):
    # gradient systems at n = 3..5 and the n = 3 configuratrix; the reference
    # sorts every exponent vector of degree nu by grevlex_key
    n = len(degrees)
    nu, col_index = _columns(degrees)
    assert nu == sum(degrees) - n + 1
    vectors = [e for e in itertools.product(range(nu + 1), repeat=n) if sum(e) == nu]
    expected = sorted(vectors, key=grevlex_key, reverse=True)
    assert col_index == {mono: i for i, mono in enumerate(expected)}
    assert list(col_index) == expected


def uncached_matrix(forms, degrees):
    """The reference build: each column beta's row x^alpha * F_i, i the least
    index with x_i^(d_i) dividing x^beta, from `_columns` and `_row`."""
    _, col_index = _columns(degrees)
    rows, non_reduced = [], []
    for ci, beta in enumerate(col_index):
        divisors = [i for i, d in enumerate(degrees) if beta[i] >= d]
        if len(divisors) >= 2:
            non_reduced.append(ci)
        alpha = list(beta)
        alpha[divisors[0]] -= degrees[divisors[0]]
        rows.append(_row(forms[divisors[0]], alpha, col_index))
    return rows, non_reduced


def random_integer_forms(rng, degrees):
    """Integer forms {exponents: int} of the given degrees, each monomial
    present with probability 0.8 (the first always)."""
    n = len(degrees)
    return [{e: rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
             for j, e in enumerate(monomials_of_degree(n, d)) if not j or rng.random() < 0.8}
            for d in degrees]


TEMPLATE_DEGREES = [(2, 2, 2), (2, 2, 2, 2), (2,) * 5, (3, 2, 2, 2), (1, 2, 3), (3, 3)]


@pytest.mark.parametrize("degrees", TEMPLATE_DEGREES)
def test_build_matrix_equals_the_uncached_build(degrees):
    rng = random.Random(f"template-{degrees}")
    for _ in range(3):
        forms = random_integer_forms(rng, degrees)
        assert _build_matrix(forms, list(degrees)) == uncached_matrix(forms, degrees)


@pytest.mark.parametrize("degrees", TEMPLATE_DEGREES)
def test_build_matrix_returns_fresh_lists(degrees):
    # the template is shared by every build of its degrees; what a caller
    # gets back is its own
    forms = random_integer_forms(random.Random(f"fresh-{degrees}"), degrees)
    expected = uncached_matrix(forms, degrees)
    rows, non_reduced = _build_matrix(forms, list(degrees))
    for row in rows:
        row[:] = [7] * (len(row) + 1)
    rows.append([1])
    non_reduced[:] = [-1]
    assert _build_matrix(forms, list(degrees)) == expected


def uncached_full_matrix(forms, degrees):
    """The reference tall build: every row x^alpha * F_i with |alpha| = nu - d_i."""
    nu, col_index = _columns(degrees)
    return [_row(f, alpha, col_index) for f, d in zip(forms, degrees)
            for alpha in monomials_of_degree(len(degrees), nu - d)]


@pytest.mark.parametrize("degrees", TEMPLATE_DEGREES + [(1, 1, 1)])
def test_full_matrix_is_every_multiple_of_every_form(monkeypatch, degrees):
    # the certificate's rows come grouped by column, not by form; only the
    # zero test of their determinant is read, so they compare as a multiset
    eliminated = []
    monkeypatch.setattr(symres.oracle, "det_bareiss", lambda rows: eliminated.append(rows) or 1)
    rng = random.Random(f"full-{degrees}")
    for _ in range(3):
        forms = random_integer_forms(rng, degrees)
        assert not _rank_deficient(forms, list(degrees))
        rows = collections.Counter(map(tuple, eliminated.pop()))
        assert rows == collections.Counter(map(tuple, uncached_full_matrix(forms, degrees)))


def counted_monomials(monkeypatch):
    """The calls of monomials_of_degree, as the oracle binds it, from an
    empty template cache on."""
    calls = []

    def counted(*args):
        calls.append(args)
        return monomials_of_degree(*args)

    monkeypatch.setattr(symres.oracle, "monomials_of_degree", counted)
    symres.oracle._template.cache_clear()
    return calls


@pytest.mark.parametrize("degrees", TEMPLATE_DEGREES)
def test_monomials_are_enumerated_only_on_the_first_build(monkeypatch, degrees):
    calls = counted_monomials(monkeypatch)
    rng = random.Random(f"first-build-{degrees}")
    for _ in range(3):
        _build_matrix(random_integer_forms(rng, degrees), list(degrees))
    n, nu = len(degrees), sum(degrees) - len(degrees) + 1
    assert sorted(calls) == sorted([(n, nu)] + [(n, d) for d in set(degrees)])


@pytest.mark.parametrize("degrees", TEMPLATE_DEGREES)
def test_rank_certificate_reuses_the_template(monkeypatch, degrees):
    # the elimination is stubbed: only the build is counted
    calls = counted_monomials(monkeypatch)
    monkeypatch.setattr(symres.oracle, "det_bareiss", lambda rows: 1)
    forms = random_integer_forms(random.Random(f"certificate-{degrees}"), degrees)
    _build_matrix(forms, list(degrees))
    built = len(calls)
    _rank_deficient(forms, list(degrees))
    assert len(calls) == built


def test_retries_reuse_the_template(monkeypatch):
    # the direct ratio and each substitution seed build from one template;
    # the one-seed system below runs both
    calls = counted_monomials(monkeypatch)
    system = MacaulaySystem.from_forms(SymmetricCubic(3, 0, 1, 1).gradient_system())
    for _ in range(2):
        assert macaulay_resultant(system) == -2160
        assert calls == [(3, 4), (3, 2)]


def test_macaulay_system_validation():
    good = MultiPoly(2, {(2, 0): 1})
    bad = MultiPoly(2, {(2, 0): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        MacaulaySystem(forms=(good, bad), degrees=(2, 2))
    with pytest.raises(ValueError):
        MacaulaySystem(forms=(good,), degrees=(2, 2))


def test_macaulay_pencil_resolves_positive_dimensional_zero_locus():
    # a3 = 0 at n = 4: the common zeros form a curve, so every substitution
    # leaves the denominator minor singular; the full Macaulay matrix is
    # rank deficient, which answers 0 before the pencil.
    sc = SymmetricCubic(4, 4, -1, 0)
    system = MacaulaySystem.from_forms(sc.gradient_system())
    assert macaulay_resultant(system) == 0


def test_macaulay_matches_closed_form_random():
    rng = random.Random(52)
    for _ in range(25):
        sc = random_cubic(rng, 3)
        value = macaulay_resultant(MacaulaySystem.from_forms(sc.gradient_system()))
        assert value == closed_form_resultant(sc).canonical_value


def test_form_scaling_covariance():
    rng = random.Random(53)
    for _ in range(5):
        sc = random_cubic(rng, 3)
        forms = sc.gradient_system()
        base = macaulay_resultant(MacaulaySystem.from_forms(forms))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for j in range(3):
            scaled = list(forms)
            scaled[j] = scaled[j] * c
            value = macaulay_resultant(MacaulaySystem.from_forms(scaled))
            assert value == base * c ** 4


def test_linear_substitution_covariance():
    rng = random.Random(54)
    for _ in range(5):
        sc = random_cubic(rng, 3)
        forms = sc.gradient_system()
        base = macaulay_resultant(MacaulaySystem.from_forms(forms))
        while True:
            t = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            det_t = det_rational(t)
            if det_t != 0:
                break
        substituted = [f.substitute_linear(t) for f in forms]
        value = macaulay_resultant(MacaulaySystem.from_forms(substituted))
        assert value == base * det_t ** 8


def test_macaulay_pencil_matches_closed_form_random():
    # the pencil on nonzero values: cubics whose direct ratio would resolve
    rng = random.Random(58)
    values = []
    for _ in range(10):
        sc = SymmetricCubic(3, *(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(3)))
        forms, scale = _integer_forms(sc.gradient_system(), [2, 2, 2])
        values.append(_pencil_value(*_build_matrix(forms, [2, 2, 2])) / scale)
        assert values[-1] == closed_form_resultant(sc).canonical_value
    assert sum(1 for v in values if v != 0) >= 8


def test_macaulay_pencil_matches_sylvester_mixed_degrees():
    # forms with different denominators and degrees get different lcms and
    # homogeneity exponents in the scale
    rng = random.Random(59)
    for _ in range(10):
        degrees = (rng.randint(1, 3), rng.randint(1, 3))
        forms = []
        for d in degrees:
            den = rng.randint(2, 5)
            forms.append(MultiPoly(2, {(d - i, i): Fraction(rng.randint(1, 9), den)
                                       for i in range(d + 1)}))
        cleared, scale = _integer_forms(forms, list(degrees))
        value = _pencil_value(*_build_matrix(cleared, list(degrees))) / scale
        assert value == sylvester_resultant(*forms)


# R != 0, yet every retry is stuck. Here det(M') is
# F_1(t_1) * (F_1(t_1) * F_2(t_2) - F_1(t_2) * F_2(t_1)), t_j the j-th column
# of the transform (the identity for the direct ratio): F_1 vanishes at t_1
# for the direct ratio and seeds 1..5, and F_2 clears the bracket for seeds
# 6..8. sympy's MacaulayResultant gives the same value (test_oracle_sympy).
PENCIL_FORMS = (
    MultiPoly(3, {(1, 1, 0): 1, (0, 2, 0): -1, (1, 0, 1): -3, (0, 0, 2): 3}),
    MultiPoly(3, {(2, 0, 0): -1, (1, 1, 0): 12, (0, 2, 0): -14, (1, 0, 1): 1, (0, 1, 1): 2}),
    MultiPoly(3, {(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): -1, (0, 1, 1): 3, (0, 0, 2): 1}),
)


@pytest.mark.parametrize("forms, degrees, value, substitutions, rank, pencil", [
    (SymmetricCubic(3, 1, -3, 3).gradient_system(), (2, 2, 2), 531441, 0, 0, 0),
    (SymmetricCubic(3, 0, 1, 1).gradient_system(), (2, 2, 2), -2160, 3, 0, 0),
    (SymmetricCubic(4, 4, -1, 0).gradient_system(), (2, 2, 2, 2), 0, 24, 1, 0),
    (PENCIL_FORMS, (2, 2, 2), 56523852, 24, 1, 1),
    (configuratrix_system(MetricFunction(SymmetricCubic(3, 1, -3, 3)),
                          Momentum.of([1, 2, 3])),
     (3, 2, 2, 2), 5255863844195018220057, 20, 0, 0),
], ids=["direct", "one-seed", "rank", "pencil", "configuratrix-five-seeds"])
def test_macaulay_strategy_pins(monkeypatch, forms, degrees, value, substitutions, rank,
                                pencil):
    # the direct ratio, then seeds 1..8 (one substitute_linear per form and
    # usable seed), then the full-matrix rank certificate, then the pencil
    calls = {"substitute_linear": 0, "rank": 0, "pencil": 0}
    substitute_linear = MultiPoly.substitute_linear

    def counted_substitute(self, matrix):
        calls["substitute_linear"] += 1
        return substitute_linear(self, matrix)

    def counted_rank(*system):
        calls["rank"] += 1
        return _rank_deficient(*system)

    def counted_pencil(*matrix):
        calls["pencil"] += 1
        return _pencil_value(*matrix)

    monkeypatch.setattr(MultiPoly, "substitute_linear", counted_substitute)
    monkeypatch.setattr(symres.oracle, "_rank_deficient", counted_rank)
    monkeypatch.setattr(symres.oracle, "_pencil_value", counted_pencil)
    assert macaulay_resultant(MacaulaySystem(tuple(forms), degrees)) == value
    assert calls == {"substitute_linear": substitutions, "rank": rank, "pencil": pencil}


def gradient_rank_deficient(sc):
    forms, _ = _integer_forms(sc.gradient_system(), [2] * sc.n)
    return _rank_deficient(forms, [2] * sc.n)


# The other n = 5 strata take 0.5-3.3 s each on their 350 x 210 matrices (full
# rank, or for b1 = 0 deficient only late), so they are left out of this suite.
@pytest.mark.parametrize("sc", [
    *(sc for n in (3, 4) for sc in stratum_cubics(n).values()),
    stratum_cubics(5)["a3-zero"],
    SymmetricCubic(5, 0, 9, 0),
    SymmetricCubic(5, 1, -3, 3),
], ids=lambda sc: f"{sc.n}:{sc.a1},{sc.a2},{sc.a3}")
def test_rank_certificate_iff_closed_form_vanishes(sc):
    assert gradient_rank_deficient(sc) == (closed_form_resultant(sc).canonical_value == 0)


RATIONAL_DIRECT = SymmetricCubic(3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))
RATIONAL_ONE_SEED = SymmetricCubic(3, 0, Fraction(1, 2), Fraction(1, 3))


@pytest.mark.parametrize("forms, degrees, value, substitutions", [
    (RATIONAL_DIRECT.gradient_system(), (2, 2, 2),
     closed_form_resultant(RATIONAL_DIRECT).canonical_value, 0),
    (RATIONAL_ONE_SEED.gradient_system(), (2, 2, 2),
     closed_form_resultant(RATIONAL_ONE_SEED).canonical_value, 3),
    # form lcms 3 (the cubic), 2, 5 and 4 (the quadrics)
    (configuratrix_system(MetricFunction(SymmetricCubic(3, Fraction(1, 3), -3, 3)),
                          Momentum.of([Fraction(1, 2), Fraction(1, 5), Fraction(1, 4)])),
     (3, 2, 2, 2), Fraction(-2308066242121298146241181231, 6553600000000), 0),
], ids=["direct", "one-seed", "configuratrix"])
def test_macaulay_homogeneity_scale_pins(monkeypatch, forms, degrees, value, substitutions):
    # rational forms, so the scale prod c_i^(e_i) is not 1 on either path
    calls = []
    substitute_linear = MultiPoly.substitute_linear

    def counted_substitute(self, matrix):
        calls.append(matrix)
        return substitute_linear(self, matrix)

    monkeypatch.setattr(MultiPoly, "substitute_linear", counted_substitute)
    assert value != 0
    assert macaulay_resultant(MacaulaySystem(tuple(forms), degrees)) == value
    assert len(calls) == substitutions
    assert _integer_forms(forms, list(degrees))[1] > 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_homogeneity_exponent_counts_reduced_rows(n):
    # form i has prod_{j != i} d_j reduced rows (those M' leaves out), the
    # exponent of its lcm in the scale
    primes = (2, 3, 5, 7)
    for degrees in itertools.product((1, 2, 3), repeat=n):
        powers = [tuple(d if j == i else 0 for j in range(n)) for i, d in enumerate(degrees)]
        rows, non_reduced = _build_matrix([{e: p} for e, p in zip(powers, primes)], list(degrees))
        reduced = collections.Counter(rows[r][r] for r in set(range(len(rows))) - set(non_reduced))
        total = math.prod(degrees)
        assert reduced == {p: total // d for p, d in zip(primes, degrees)}
        forms = [MultiPoly(n, {e: Fraction(1, p)}) for e, p in zip(powers, primes)]
        cleared, scale = _integer_forms(forms, list(degrees))
        assert cleared == [{e: 1} for e in powers]
        assert scale == math.prod(p ** k for p, k in reduced.items())
        assert macaulay_resultant(MacaulaySystem(tuple(forms), degrees)) == Fraction(1, scale)


# -- Sylvester cross-check ------------------------------------------------------------

def sylvester_resultant(f, g):
    """Reference resultant of two binary homogeneous forms via the Sylvester
    matrix, coefficients in decreasing powers of the first variable; the
    convention matches the Macaulay normalization (R{x^m, y^p} = 1)."""
    m, p = f.total_degree(), g.total_degree()
    a = [f.terms.get((m - i, i), Fraction(0)) for i in range(m + 1)]
    b = [g.terms.get((p - i, i), Fraction(0)) for i in range(p + 1)]
    rows = []
    for coeffs, shifts in ((a, p), (b, m)):
        for j in range(shifts):
            row = [Fraction(0)] * (m + p)
            row[j:j + len(coeffs)] = coeffs
            rows.append(row)
    return det_rational(rows)


def test_sylvester_anchor():
    assert sylvester_resultant(poly2(1, 0, 0), poly2(0, 0, 1)) == 1


def test_sylvester_hand_expanded_four_by_four():
    f = poly2(1, 0, -1)
    g = poly2(1, 0, 1)
    # Sylvester matrix [[1,0,-1,0],[0,1,0,-1],[1,0,1,0],[0,1,0,1]] expanded by hand
    rows = [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1]]
    def det4(m):
        total = 0
        import itertools
        for perm in itertools.permutations(range(4)):
            sign = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = 1
            for i in range(4):
                prod *= m[i][perm[i]]
            total += sign * prod
        return total
    assert det4(rows) == 4
    assert sylvester_resultant(f, g) == 4


def test_sylvester_shared_root():
    assert sylvester_resultant(poly2(0, 1, 0), poly2(1, 0, 0)) == 0


def test_sylvester_equals_macaulay_random_binary():
    rng = random.Random(55)
    for _ in range(30):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        def random_form(d):
            while True:
                p = MultiPoly(2, {
                    (d - i, i): Fraction(rng.randint(-9, 9)) for i in range(d + 1)})
                if not p.is_zero():
                    return p
        f, g = random_form(d1), random_form(d2)
        assert sylvester_resultant(f, g) == macaulay_resultant(
            MacaulaySystem(forms=(f, g), degrees=(d1, d2)))


# -- witnesses -----------------------------------------------------------------------

def test_witness_pure_s3():
    w = root_witness(SymmetricCubic(3, 0, 0, 1))
    assert w is not None
    assert w.point == (Fraction(1), Fraction(0), Fraction(0))
    assert w.pattern == (1, Fraction(1), Fraction(0))


def test_witness_pure_s1_cubed_hyperplane():
    w = root_witness(SymmetricCubic(3, 1, 0, 0))
    assert w is not None
    s1 = sum(w.point, start=Fraction(0))
    assert s1 == 0


def test_witness_pure_s1_cubed_n4():
    w = root_witness(SymmetricCubic(4, 1, 0, 0))
    assert w is not None
    assert verify_witness(SymmetricCubic(4, 1, 0, 0), w)


def test_no_witness_for_power_sums():
    assert root_witness(SymmetricCubic(3, 1, -3, 3)) is None


def test_verify_witness_examples():
    sc = SymmetricCubic(3, 0, 0, 1)
    good = RootWitness(point=(Fraction(1), Fraction(0), Fraction(0)), pattern=None)
    bad = RootWitness(point=(Fraction(1), Fraction(1), Fraction(1)), pattern=None)
    assert verify_witness(sc, good)
    assert not verify_witness(sc, bad)
    zero = RootWitness(point=(Fraction(0),) * 3, pattern=None)
    assert not verify_witness(sc, zero)
    assert not verify_witness(
        SymmetricCubic(3, 1, -3, 3),
        RootWitness(point=(Fraction(2), Fraction(-1), Fraction(5)), pattern=None))


def test_verify_witness_refuses_float_coordinates():
    # (-5/2, 1, 1) is a root; in floats the coefficients 1/3 and 1/6 are
    # rounded and the check said False
    sc = SymmetricCubic(3, 2, Fraction(1, 3), Fraction(1, 6))
    assert verify_witness(sc, RootWitness(point=(Fraction(-5, 2), 1, 1), pattern=None))
    assert verify_witness(sc, RootWitness(point=("-5/2", 1, 1), pattern=None))
    with pytest.raises(TypeError, match="float"):
        verify_witness(sc, RootWitness(point=(-2.5, 1.0, 1.0), pattern=None))


def test_witness_in_quadratic_extension_verifies():
    # a3 = 0 with a2 != 0: the only root family is s1 = s2 = 0, which lives
    # in Q(sqrt(-3))
    sc = SymmetricCubic(3, 1, 1, 0)
    w = root_witness(sc)
    assert w is not None
    assert w.pattern is None
    assert any(isinstance(x, QuadExt) and x.radical != 0 for x in w.point)
    assert verify_witness(sc, w)


def test_witness_all_ones_when_value_at_ones_vanishes():
    # b1 = 0 with b2 = 0: 9*a1 + 2*a2 = 0 and a3 = -3*a2
    sc = SymmetricCubic(3, 2, -9, 27)
    assert sc.normalized_coeffs().b1 == 0
    w = root_witness(sc)
    assert w is not None
    assert w.point == (Fraction(1),) * 3


def test_witness_balanced_signs_for_even_n_zero_b2():
    sc = SymmetricCubic(4, 1, 1, -2)
    assert sc.normalized_coeffs().b2 == 0
    w = root_witness(sc)
    assert w is not None
    assert verify_witness(sc, w)


def test_witness_iff_vanishing_random():
    rng = random.Random(57)
    for _ in range(40):
        sc = random_cubic(rng, 3)
        vanishes = closed_form_resultant(sc).vanishes
        w = root_witness(sc)
        assert (w is not None) == vanishes
        if w is not None:
            assert verify_witness(sc, w)


def test_candidate_pairs_read_the_root_off_the_linear_factor():
    one, zero = Fraction(1), Fraction(0)

    def pattern(n, a1, a2, a3):
        w = root_witness(SymmetricCubic(n, a1, a2, a3))
        return w and w.pattern

    # c = -1, k = 1: alpha = 3, beta = 5, and (-5/3, 1) solves both slots
    assert pattern(4, 0, -3, 2) == (1, Fraction(-5, 3), one)
    # the power sums: no candidate solves, and a3 != 0 leaves no fallback
    assert pattern(3, 1, -3, 3) is None
    # c = 1, k = 1: alpha = 0, so the root is (1, 0)
    assert pattern(3, 0, 0, 1) == (1, one, zero)
    # a3 = c = 0: both slots are 3*a1*s1^2, and the root is s1 = 0
    assert pattern(3, 1, 0, 0) == (1, Fraction(-2), one)
    # n = 2k, a3 = c*k with every slot vanishing identically (d0-balanced):
    # t = u = 1 solves pattern k too, so the answer is the all-equal point
    # at k = 0
    assert pattern(4, Fraction(1, 4), -1, 2) == (0, zero, one)
    # n = 2k, a3 = c*k otherwise: one square of t + u, and the root (-1, 1)
    assert pattern(4, 1, -2, 4) == (2, -one, one)
    # one slot at k = 0: G*u^2 with G = 0, the all-ones point
    assert pattern(3, 2, -9, 27) == (0, zero, one)


def _from_normalized(n, b1, b2, b3):
    """The cubic with normalized coefficients (b1, b2, b3)."""
    a2 = (b2 - (n - 2) * b3) / n
    a1 = (b1 - Fraction(n * (n - 1), 2) * a2 - Fraction((n - 1) * (n - 2), 6) * b3) / (n * n)
    return SymmetricCubic(n, a1, a2, b3)


def _stratum_cubic(stratum, rng, n):
    def nonzero():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    if stratum == "d0-balanced":
        # n = 2k, a3 = c*k (so d = 0) and k*(3a1+a2) + c*(k-1)/2 = 0
        k, c = n // 2, nonzero()
        a3 = c * k
        a2 = c - a3
        return SymmetricCubic(n, (-c * (k - 1) / (2 * k) - a2) / 3, a2, a3)
    if stratum == "c0":
        a2 = nonzero()
        return SymmetricCubic(n, Fraction(rng.randint(-3, 3)), a2, -a2)
    if stratum == "a3-zero":
        return SymmetricCubic(n, nonzero(), Fraction(rng.randint(-3, 3)), 0)
    # factor k of the closed form vanishes
    k, b2, b3 = rng.randrange(n), nonzero(), nonzero()
    if 2 * k == n:
        sc = _from_normalized(n, nonzero(), Fraction(0), b3)
    else:
        sc = _from_normalized(n, k * (n - k) * b2 ** 3 / (6 * (n - 2 * k) ** 2 * b3 ** 2), b2, b3)
    assert closed_form_resultant(sc).factors[k].value == 0
    return sc


@pytest.mark.parametrize("stratum", ["d0-balanced", "c0", "a3-zero", "factor-k"])
def test_witness_iff_vanishing_on_strata(stratum):
    rng = random.Random(stratum)
    found = 0
    for n in range(3, 9):
        if stratum == "d0-balanced" and n % 2:
            continue
        for _ in range(6):
            sc = _stratum_cubic(stratum, rng, n)
            w = root_witness(sc)
            assert (w is not None) == closed_form_resultant(sc).vanishes
            if w is None:
                continue
            found += 1
            assert verify_witness(sc, w)
            assert any(x != 0 for x in w.point)
            assert all(form.eval(w.point) == 0 for form in sc.gradient_system())
            if w.pattern is not None:
                k, t, u = w.pattern
                assert type(t) is Fraction and type(u) is Fraction
                assert w.point == (t,) * k + (u,) * (n - k)
    assert found


def _pattern_value(sc, k):
    """P(k): the gradient at a t-slot of the pattern-k point (t,)*k + (u,)*(n-k)
    at (t, u) = (c*(n-k) - a3, a3 - c*k), c = a2 + a3, the unscaled root of
    the linear factor alpha*t + beta*u by which its two slots differ."""
    n, a3 = sc.n, sc.a3
    c = sc.a2 + a3
    t, u = c * (n - k) - a3, a3 - c * k
    s2 = math.comb(k, 2) * t * t + k * (n - k) * t * u + math.comb(n - k, 2) * u * u
    return sc.gradient_given(k * t + (n - k) * u, s2)(t)


def test_closed_form_factors_are_twice_the_pattern_values():
    # Y_k = 2*P(k) on every stratum at n = 3..12, and past the oracle's
    # reach on vanishing cubics (their reports are built at any n): the
    # factors checked by code that shares no formula with the closed form
    cubics = []
    for n in range(3, 13):
        rng = random.Random(f"pattern-law-{n}")
        strata = ["c0", "a3-zero", "factor-k"] + ["d0-balanced"] * (n % 2 == 0)
        cubics += [*stratum_cubics(n).values(), SymmetricCubic(n, 1, -3, 3),
                   SymmetricCubic(n, 0, 0, 1), SymmetricCubic(n, 1, 0, 0),
                   random_cubic(rng, n, denominators=True)]
        cubics += [_stratum_cubic(stratum, rng, n) for stratum in strata]
    for n in (50, 201, 1000):
        rng = random.Random(f"pattern-law-{n}")
        strata = ["factor-k"] * 3 + ["a3-zero"] + ["d0-balanced"] * (n % 2 == 0)
        cubics += [_stratum_cubic(stratum, rng, n) for stratum in strata]
    for sc in cubics:
        assert [f.value for f in closed_form_resultant(sc).factors] == [
            2 * _pattern_value(sc, k) for k in range(sc.n)], sc


def test_witness_at_large_n_is_the_first_unit_vector():
    w = root_witness(SymmetricCubic(200, 0, 0, 1))
    assert w.point == (Fraction(1),) + (Fraction(0),) * 199
