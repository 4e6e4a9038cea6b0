#!/usr/bin/env python3
"""Read chi_c and the degree d_rho off a generating series.

The series

    g(x) = (1 + x + x^2 + ...)^(r - chi_c) * prod_j (1 - x^{w_j})

has finitely many terms at exponents <= rho once truncated, and the sum
of its coefficients over the window (0, rho] is all that matters:
chi_c = -(window sum) and d_rho = 1 + (window sum).  Fractional weights
put terms at fractional exponents; exponents that collide (1/2 + 1/2 = 1)
merge exactly because everything is rational arithmetic.
"""
from fractions import Fraction as F

from barychi import ProblemInstance, chen_lin_series, chi_c_series, validate

instance = validate(ProblemInstance(chi_c=2, weights=(F(1, 2),), rho=F(1)))
g = chen_lin_series(instance, bound=F(3))

print("g(x) = (1 + x + ...)^(-1) * (1 - x^(1/2)), truncated at 3:")
running = 0
for exponent, coeff in g.terms():
    if exponent == 0:
        print(f"  x^0: {coeff}   (constant term, always 1)")
        continue
    marker = ""
    if exponent <= instance.rho:
        running += coeff
        marker = f"   running window sum = {running}"
    print(f"  x^{exponent}: {coeff}{marker}")

result = chi_c_series(instance)
print(f"\nwindow (0, {instance.rho}] sums to {running}")
print(f"chi_c = {result.chi_c_value}, d_rho = {result.degree_d_rho}")

# Sanity check against the no-singular-points case: with r = 0 the series
# is the pure geometric power and the window sum telescopes, so enlarging
# rho walks through 1 - C(k - chi_c, k) step by step.
print("\nr = 0, chi_c = -1 (a wedge of two circles), rho = 1..6:")
for k in range(1, 7):
    res = chi_c_series(validate(ProblemInstance(chi_c=-1, weights=(), rho=F(k))))
    print(f"  rho = {k}: chi_c(B_{k}(X)) = {res.chi_c_value}")
