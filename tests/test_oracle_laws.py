"""Property laws of the Macaulay oracle over random rational cubics."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symres.closedform import closed_form_resultant  # noqa: E402
from symres.oracle import MacaulaySystem, det_bareiss, macaulay_resultant  # noqa: E402
from symres.symcubic import SymmetricCubic  # noqa: E402

#: Same examples on every run, no example database, bounded count.
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=20)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
nonzero_rationals = rationals.filter(lambda q: q != 0)


def oracle(forms):
    return macaulay_resultant(MacaulaySystem.from_forms(forms))


@DERANDOMIZED
@given(coeffs=st.tuples(rationals, rationals, rationals).filter(any), lam=nonzero_rationals)
def test_homogeneity_of_the_gradient_resultant(coeffs, lam):
    # R is homogeneous of degree 2^(n-1) in each of the n forms
    n = 3
    forms = SymmetricCubic(n, *coeffs).gradient_system()
    assert oracle([f * lam for f in forms]) == lam ** (n * 2 ** (n - 1)) * oracle(forms)


@pytest.mark.parametrize("n", [3, 4])
@DERANDOMIZED
@given(coeffs=st.tuples(rationals, rationals, rationals).filter(any))
def test_closed_form_equals_oracle(n, coeffs):
    sc = SymmetricCubic(n, *coeffs)
    assert oracle(sc.gradient_system()) == closed_form_resultant(sc).canonical_value


def square_matrices(size):
    """Sparse integer size x size matrices: about half the entries are 0."""
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)


@DERANDOMIZED
@given(pair=st.integers(0, 10).flatmap(lambda size: st.tuples(square_matrices(size),
                                                              square_matrices(size))))
def test_det_is_multiplicative(pair):
    a, b = pair
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert det_bareiss(product) == det_bareiss(a) * det_bareiss(b)
