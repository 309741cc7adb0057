import collections
import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from symres.cli import parse_scalar
from symres.finsler import Momentum
from symres.polycore import (
    MultiPoly,
    QuadExt,
    elem_sym,
    grevlex_key,
    monomials_of_degree,
)
from symres.symcubic import SymmetricCubic


def random_poly(rng, num_vars, degree, terms=4):
    out = MultiPoly.zero(num_vars)
    data = {}
    for _ in range(terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(num_vars)] += 1
        data[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return out + MultiPoly(num_vars, data)


def variable(num_vars, index):
    """The polynomial x_index (0-based) in num_vars variables."""
    return MultiPoly(num_vars, {tuple(int(j == index) for j in range(num_vars)): 1})


def partial(p, index):
    """Formal partial derivative of p with respect to variable `index`
    (0-based): the power rule term by term, the reference the gradient
    formula is checked against."""
    if not 0 <= index < p.num_vars:
        raise ValueError(f"variable index {index} out of range for {p.num_vars} variables")
    out = {}
    for exps, c in p.terms.items():
        if exps[index]:
            lowered = list(exps)
            lowered[index] -= 1
            out[tuple(lowered)] = c * exps[index]
    return MultiPoly(p.num_vars, out)


def is_symmetric(p):
    """Whether every permutation of the variables leaves p unchanged; the
    adjacent transpositions generate them."""
    return all({e[:i] + (e[i + 1], e[i]) + e[i + 2:]: c for e, c in p.terms.items()} == p.terms
               for i in range(p.num_vars - 1))


def random_point(rng, num_vars):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(num_vars)]


# -- elementary symmetric polynomials ---------------------------------------

def test_elem_sym_two_vars_linear():
    assert elem_sym(2, 1) == MultiPoly(2, {(1, 0): 1, (0, 1): 1})


def test_elem_sym_four_choose_two():
    expected = MultiPoly(4, {
        (1, 1, 0, 0): 1, (1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
        (0, 1, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 1, 1): 1,
    })
    assert elem_sym(4, 2) == expected


def test_elem_sym_top():
    assert elem_sym(3, 3) == MultiPoly(3, {(1, 1, 1): 1})


@pytest.mark.parametrize("n", range(1, 7))
def test_elem_sym_term_counts(n):
    for k in range(1, n + 1):
        p = elem_sym(n, k)
        assert len(p.terms) == math.comb(n, k)
        assert all(c == 1 for c in p.terms.values())


def test_elem_sym_range_errors():
    with pytest.raises(ValueError):
        elem_sym(3, 0)
    with pytest.raises(ValueError):
        elem_sym(3, 4)


# -- derivative, evaluation, symmetry ----------------------------------------

def test_partial_power_rule():
    p = MultiPoly(2, {(2, 1): 1})  # x1^2 x2
    assert partial(p, 0) == MultiPoly(2, {(1, 1): 2})


def test_partial_absent_variable():
    p = MultiPoly(2, {(3, 0): 1})
    assert partial(p, 1).is_zero()


def test_partial_of_s3():
    assert partial(elem_sym(3, 3), 0) == MultiPoly(3, {(0, 1, 1): 1})


def test_partial_index_errors():
    p = elem_sym(2, 1)
    with pytest.raises(ValueError):
        partial(p, -1)
    with pytest.raises(ValueError):
        partial(p, 2)


def test_eval_examples():
    ones = [Fraction(1)] * 3
    assert elem_sym(3, 3).eval(ones) == 1
    s1 = elem_sym(3, 1)
    s1_cubed = s1 * s1 * s1
    assert s1_cubed.eval([Fraction(1), Fraction(-1), Fraction(0)]) == 0
    p = MultiPoly(2, {(2, 0): 1, (0, 1): 1})
    assert p.eval([Fraction(1, 2), Fraction(1, 4)]) == Fraction(1, 2)


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        elem_sym(3, 1).eval([Fraction(1)])


def test_is_symmetric_examples():
    assert is_symmetric(elem_sym(3, 1) * elem_sym(3, 2))
    assert not is_symmetric(MultiPoly(2, {(2, 1): 1}))
    assert not is_symmetric(MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1}))
    assert is_symmetric(MultiPoly.zero(4))


def test_product_and_derivative_rules_random():
    rng = random.Random(1001)
    for _ in range(30):
        n = rng.randint(2, 4)
        p = random_poly(rng, n, 3)
        q = random_poly(rng, n, 3)
        x = random_point(rng, n)
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        for i in range(n):
            assert partial(p * q, i) == partial(p, i) * q + p * partial(q, i)


# -- quadratic extension ------------------------------------------------------

def test_quad_product_identity():
    one = QuadExt(1, 0, 7)
    assert math.prod([one] * 8) == QuadExt(1, 0, 7)


def test_quad_product_radical_square():
    lam = QuadExt(0, 1, 5)
    assert math.prod([lam, lam]) == QuadExt(5, 0, 5)


def test_quad_product_conjugate_pair():
    delta = Fraction(3, 4) ** 2 - Fraction(-2)  # a generic a^2 - b value
    pair = [QuadExt(1, 1, delta), QuadExt(1, -1, delta)]
    assert math.prod(pair) == QuadExt(1 - delta, 0, delta)


def test_quad_product_mixed_radicands():
    with pytest.raises(ValueError):
        math.prod([QuadExt(1, 1, 2), QuadExt(1, 1, 3)])


def test_quad_product_sign_symmetric_multiset():
    rng = random.Random(77)
    for _ in range(20):
        delta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        factors = []
        for _ in range(rng.randint(1, 5)):
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            factors.append(QuadExt(a, b, delta))
            factors.append(QuadExt(a, -b, delta))
        rng.shuffle(factors)
        assert math.prod(factors).radical == 0


def test_quad_ext_scalar_mixing():
    z = QuadExt(1, 2, 3)
    assert 2 * z == QuadExt(2, 4, 3)
    assert z + Fraction(1, 2) == QuadExt(Fraction(3, 2), 2, 3)
    assert (1 - z) == QuadExt(0, -2, 3)


# -- scalar strings -----------------------------------------------------------

def test_scalar_string_round_trip():
    rng = random.Random(3)
    values = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
              for _ in range(50)]
    values += [Fraction(0), Fraction(-1), Fraction(10**40, 7)]
    for v in values:
        assert parse_scalar(str(v)) == v


def test_scalar_syntax_is_ascii_decimal():
    # a sign, surrounding spaces and a signed denominator are kept; digit
    # separators and non-ASCII digits or spaces, which int() would read,
    # are refused
    assert parse_scalar("+3") == parse_scalar(" 3 ") == 3
    assert parse_scalar("1/-2") == Fraction(-1, 2)
    for text in ("1_0", "1/1_0", "\u0663", "\u00a03"):
        with pytest.raises(ValueError):
            parse_scalar(text)


# -- ordering ---------------------------------------------------------------

def test_grevlex_order_degree_two():
    monos = monomials_of_degree(3, 2)
    assert monos == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    p = MultiPoly(3, {(0, 1, 1): -7, (2, 0, 0): Fraction(10**25, 3), (1, 1, 0): 1})
    assert [exps for exps, _ in p.sorted_terms()] == [(2, 0, 0), (1, 1, 0), (0, 1, 1)]


def test_grevlex_grades_by_degree():
    assert grevlex_key((1, 0, 0)) < grevlex_key((2, 0, 0))
    assert grevlex_key((0, 0, 2)) < grevlex_key((1, 1, 1))


def test_poly_validation_errors():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(0)


def test_poly_zero_terms_dropped():
    p = MultiPoly(2, {(1, 0): 0, (0, 1): 2})
    assert p == MultiPoly(2, {(0, 1): 2})
    assert (p - p).is_zero()


def test_monomials_come_out_in_descending_grevlex():
    # the reference: every exponent vector of the degree, sorted by grevlex_key
    for n in range(7):
        for d in range(8):
            vectors = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
            assert monomials_of_degree(n, d) == sorted(vectors, key=grevlex_key, reverse=True)


# -- substitution -------------------------------------------------------------

def substitute_term_by_term(p, matrix):
    """x_i -> sum_j m[i][j] x_j, expanded one term at a time and summed: the
    reference substitute_linear is checked against."""
    n = p.num_vars
    images = [MultiPoly(n, {tuple(int(j == k) for k in range(n)): matrix[i][j]
                            for j in range(n) if matrix[i][j] != 0}) for i in range(n)]
    result = MultiPoly.zero(n)
    for exps, c in p.terms.items():
        term = MultiPoly(n, {(0,) * n: c})
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * images[i]
        result = result + term
    return result


def seeded_substitutions(seed, count):
    """(p, matrix) pairs over n = 1..4: zero and constant-term polynomials,
    and random, zero-row, singular and rational matrices."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 4
        p = random_poly(rng, n, rng.randint(0, 4), terms=rng.randint(0, 5))
        matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        kind = k % 5
        if kind == 1:
            matrix[rng.randrange(n)] = [0] * n
        elif kind == 2:
            i, j = rng.randrange(n), rng.randrange(n)
            matrix[i] = [rng.randint(-2, 2) * x for x in matrix[j]]
        elif kind == 3:
            matrix = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                      for _ in range(n)]
        yield p, matrix


def test_substitution_matches_the_term_by_term_expansion():
    seen = collections.Counter()
    for p, matrix in seeded_substitutions(1701, 320):
        got = p.substitute_linear(matrix)
        assert got == substitute_term_by_term(p, matrix)
        assert got.num_vars == p.num_vars
        assert all(type(c) is Fraction for c in got.terms.values())
        seen["n=1"] += p.num_vars == 1
        seen["zero p"] += p.is_zero()
        seen["constant term"] += (0,) * p.num_vars in p.terms
        seen["zero result"] += got.is_zero() and not p.is_zero()
        seen["zero row"] += any(not any(row) for row in matrix)
    assert min(seen.values()) >= 10, seen


def test_substitution_composes():
    # p(A x) under x -> B x is p(A B x)
    batch = list(seeded_substitutions(1702, 120))
    for (p, a), (_, b) in zip(batch, batch[4:]):
        n = p.num_vars
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert p.substitute_linear(a).substitute_linear(b) == p.substitute_linear(ab)


def test_substitution_of_a_constant_is_the_constant():
    p = MultiPoly(3, {(0, 0, 0): Fraction(-2, 3)})
    for matrix in ([[0] * 3] * 3, [[1, 2, 0], [0, 1, 0], [4, 0, 1]]):
        assert p.substitute_linear(matrix) == p
    assert MultiPoly.zero(2).substitute_linear([[1, 1], [1, 1]]).is_zero()
    with pytest.raises(ValueError):
        p.substitute_linear([[1, 0, 0], [0, 1, 0]])


def test_scalar_adds_as_a_constant_term_in_either_order():
    x = variable(2, 0)
    expected = MultiPoly(2, {(1, 0): 1, (0, 0): Fraction(1, 2)})
    assert x + Fraction(1, 2) == Fraction(1, 2) + x == expected
    assert 3 + x - 3 == x == x + 0
    assert x + 1 - x == MultiPoly(2, {(0, 0): 1})
    with pytest.raises(TypeError):
        x + QuadExt(1, 1, 2)
    with pytest.raises(TypeError):
        QuadExt(1, 1, 2) + x
    with pytest.raises(TypeError):
        x + 0.5


def test_constructors_refuse_binary_floats():
    # 0.1 is not 1/10 in binary: a float would put 3602879701896397/2^55
    # into a resultant. Exact strings are read as written.
    refused = [
        lambda: SymmetricCubic(3, 0.1, 0, 1),
        lambda: Momentum.of([0.1, 0, 0]),
        lambda: MultiPoly(2, {(1, 0): 0.1}),
        lambda: QuadExt(0.1, 1, 2),
        lambda: QuadExt.lift(0.1, 2),
        lambda: variable(2, 0).scale(0.1),
        lambda: variable(2, 0) * 0.1,
        lambda: variable(2, 0).substitute_linear([[0.1, 0], [0, 1]]),
    ]
    for build in refused:
        with pytest.raises(TypeError, match="float"):
            build()
    assert SymmetricCubic(3, "1/3", 0, 1).a1 == Fraction(1, 3)
    assert Momentum.of(["1/10", 0, 0]).y[0] == Fraction(1, 10)
    assert MultiPoly(1, {(1,): "1/3"}).terms == {(1,): Fraction(1, 3)}
    assert QuadExt("1/2", 1, 2).rational == Fraction(1, 2)


def test_scalar_subtracts_on_either_side():
    x = variable(2, 0)
    assert 1 - x == -(x - 1)
    assert Fraction(1, 2) - x == MultiPoly(2, {(1, 0): -1, (0, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        0.5 - x


def test_evaluation_points_refuse_binary_floats():
    # in floats 0.1 + 0.2 is 0.30000000000000004; exact coordinates are read
    # as written
    with pytest.raises(TypeError, match="float"):
        elem_sym(2, 1).eval([0.1, 0.2])
    assert elem_sym(2, 1).eval(["1/10", "1/5"]) == Fraction(3, 10)
    assert elem_sym(2, 1).eval([1, Fraction(1, 2)]) == Fraction(3, 2)


def test_library_and_cli_read_every_string_the_same_way():
    # every constructor reads a str through the CLI's scalar syntax: the same
    # Fraction, or a ValueError from both
    read = [
        lambda s: SymmetricCubic(3, s, 0, 1).a1,
        lambda s: Momentum.of([s]).y[0],
        lambda s: MultiPoly(1, {(1,): s}).terms.get((1,), 0),
        lambda s: QuadExt(s, 0, 2).rational,
    ]
    valid = {"+3": 3, " 3 ": 3, "1/-2": Fraction(-1, 2), "-7/4": Fraction(-7, 4), "0": 0}
    for text, value in valid.items():
        assert parse_scalar(text) == value
        assert [build(text) for build in read] == [value] * len(read)
    for text in ("0.5", "1e3", "1_0", "\u0663", "\u00a03", "3/", "/3", "1/0", "x"):
        with pytest.raises(ValueError):
            parse_scalar(text)
        for build in read:
            with pytest.raises(ValueError):
                build(text)


def test_an_exponent_string_is_refused_at_once():
    # Fraction("1e10000000") would build a 33-Mbit integer first
    start = time.perf_counter()
    with pytest.raises(ValueError):
        SymmetricCubic(3, "1e10000000", 0, 1)
    assert time.perf_counter() - start < 1


def test_a_decimal_is_refused_at_once():
    # Fraction(Decimal("1e1000000")) would build a 3.3-Mbit integer first;
    # only int, Fraction and str are scalars
    start = time.perf_counter()
    for build in (lambda d: SymmetricCubic(3, d, 0, 1), lambda d: Momentum.of([d]),
                  lambda d: MultiPoly(1, {(1,): d}), lambda d: QuadExt(d, 0, 2)):
        with pytest.raises(TypeError, match="Decimal"):
            build(Decimal("1e1000000"))
    assert time.perf_counter() - start < 1
