#!/usr/bin/env python3
"""Compute chi_c of a weighted barycenter space three independent ways.

The space: X with chi_c(X) = 2 (think of a sphere), three singular points
of weights 3/10, 2/5, 3/5, and total mass allowance rho = 9/2.  Any one
algorithm alone could hide a sign slip in an alternating sum; running the
closed-form sum, the stratified sum, and the generating-series window
side by side makes a silent error nearly impossible.
"""
from fractions import Fraction as F

from barychi import (
    ProblemInstance,
    chi_c_direct,
    chi_c_series,
    chi_c_strata,
    topological_chi_applicable,
    validate,
)

instance = validate(ProblemInstance(
    chi_c=2,
    weights=(F(3, 10), F(2, 5), F(3, 5)),
    rho=F(9, 2),
))

# breakdown=True asks the routes to keep their per-term rows, printed below.
direct = chi_c_direct(instance, breakdown=True)
strata = chi_c_strata(instance, breakdown=True)
series = chi_c_series(instance)

print("three algorithms, one answer:")
for name, result in (("direct", direct), ("strata", strata), ("series", series)):
    print(f"  {name:>7}: chi_c = {result.chi_c_value}, d_rho = {result.degree_d_rho}")
assert direct.chi_c_value == strata.chi_c_value == series.chi_c_value

print("\nhow the direct sum assembles (subset of singular points -> signed term):")
for indices, term in direct.term_breakdown:
    label = "{" + ",".join(map(str, indices)) + "}"
    print(f"  {label:>9}: {term:>4}")
print(f"  chi_c = 1 - (sum of terms) = {direct.chi_c_value}")

print("\nthe strata route adds per-stratum values instead:")
for indices, value in strata.term_breakdown:
    label = "{" + ",".join(map(str, indices)) + "}"
    print(f"  {label:>9}: {value:>4}")
print(f"  chi_c = sum of strata = {strata.chi_c_value}")

# All weights are <= 1 and the space is compact, so the number above is
# also the ordinary topological Euler characteristic.
print(f"\ntopological chi applies: {topological_chi_applicable(instance)}")
