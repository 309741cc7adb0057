"""sympy's MacaulayResultant as a second, independently written oracle at n=3."""
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.multivariate_resultants import MacaulayResultant  # noqa: E402

from symres.closedform import closed_form_resultant  # noqa: E402
from symres.oracle import MacaulaySystem, macaulay_resultant  # noqa: E402
from symres.symcubic import SymmetricCubic  # noqa: E402

from test_oracle import PENCIL_FORMS, stratum_cubics  # noqa: E402


def sympy_resultant(forms):
    """Resultant of n quadratic forms in n variables through sympy alone.

    sympy's ``get_submatrix`` finds the rows of M' by looking for the
    symbolic x_i^2 coefficients a_i, so the system enters with a symbol a_i
    there. Each a_i is then set to its value plus t; det(M)/det(M') is
    divided over Q[t] and read at t = 0, which also answers when det(M')
    vanishes at t = 0.
    """
    n = len(forms)
    xs = sympy.symbols(f"x0:{n}")
    leads = sympy.symbols(f"a0:{n}")
    t = sympy.Symbol("t")
    polys, shift = [], {}
    for i, form in enumerate(forms):
        poly = leads[i] * xs[i] ** 2
        shift[leads[i]] = t
        for exps, c in form.terms.items():
            c = sympy.Rational(c.numerator, c.denominator)
            if exps[i] == 2:
                shift[leads[i]] = c + t
            else:
                poly += c * sympy.Mul(*(x ** k for x, k in zip(xs, exps)))
        polys.append(poly)
    mac = MacaulayResultant(polys, list(xs))
    matrix = mac.get_matrix()
    ring = sympy.QQ[t]
    num, den = (ring.to_sympy(DomainMatrix.from_Matrix(m.subs(shift)).convert_to(ring).det())
                for m in (matrix, mac.get_submatrix(matrix)))
    value = sympy.cancel(num / den).subs(t, 0)
    return Fraction(int(value.p), int(value.q))


CUBICS = {"anchor": SymmetricCubic(3, 1, -3, 3), **stratum_cubics(3)}


@pytest.mark.parametrize("name", list(CUBICS))
def test_sympy_macaulay_equals_oracle_and_closed_form(name):
    sc = CUBICS[name]
    forms = sc.gradient_system()
    value = sympy_resultant(forms)
    assert value == macaulay_resultant(MacaulaySystem.from_forms(forms))
    assert value == closed_form_resultant(sc).canonical_value
    if name == "anchor":
        assert value == 531441


def test_sympy_macaulay_equals_oracle_through_the_pencil():
    # every retry is stuck and the full matrix has full rank, so the
    # oracle's value comes from the pencil
    value = sympy_resultant(PENCIL_FORMS)
    assert value == 56523852
    assert value == macaulay_resultant(MacaulaySystem.from_forms(PENCIL_FORMS))
