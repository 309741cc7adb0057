#!/usr/bin/env python3
"""Tour of the three computation routes for one symmetric cubic.

S = s1^3 - 3*s1*s2 + 3*s3 is the power-sum cubic x1^3 + x2^3 + x3^3; its
gradient system is {3*x1^2, 3*x2^2, 3*x3^2}, whose resultant is forced by
scaling covariance alone, so every route has a known target to hit.
"""
from symres import (
    MacaulaySystem,
    SymmetricCubic,
    closed_form_resultant,
    macaulay_resultant,
    resultant_via_reduction,
)

sc = SymmetricCubic(3, 1, -3, 3)
print("cubic:", sc)
print("expanded:", sc.expand())
print()

print("gradient system:")
for i, form in enumerate(sc.gradient_system()):
    print(f"  d/dx{i + 1}:", form)
print()

report = closed_form_resultant(sc)
print("closed form:")
print("  factors:", [(f.k, str(f.value), f.exponent) for f in report.factors])
print("  raw formula value:", report.formula_value)
print("  canonical value:  ", report.canonical_value)
print("  ratio (always 2^(2^(n-1))):", report.formula_value / report.canonical_value)
print()

print("reduction chain:")
rp = sc.reduced_params()
print("  reduced parameters: a =", rp.a, " b =", rp.b, " d =", rp.d)
print("  chain value:", resultant_via_reduction(sc))
print()

oracle = macaulay_resultant(MacaulaySystem.from_forms(sc.gradient_system()))
print("Macaulay oracle:", oracle)
print()
print("agreement:", report.canonical_value == resultant_via_reduction(sc) == oracle)
print("expected 3^12 =", 3 ** 12, "(each of the 3 forms carries a factor 3,")
print("and scaling one quadratic form scales the resultant by 3^(2^(n-1)) = 81)")
