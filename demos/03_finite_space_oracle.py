#!/usr/bin/env python3
"""Ground-truth the formulas on finite spaces by counting faces.

For X a finite set of weighted points, the weighted barycenter space is a
plain simplicial complex: the faces of the full simplex whose total
vertex weight stays within rho.  Its Euler characteristic is a direct
alternating face count, sharing no code with the formula routes, which
is what makes the comparison meaningful.
"""
import random
from fractions import Fraction as F

from barychi import (
    FiniteWeightedSpace,
    chi_c_direct,
    chi_c_series,
    chi_c_strata,
    oracle_chi,
    validate,
)
from barychi.oracle import skeleton_chi
from barychi.selftest import random_finite_space

# Three points, two of weight 1/2: with rho = 1 the faces are the three
# vertices plus the single edge joining the two light points.
space = FiniteWeightedSpace.of(3, (F(1, 2), F(1, 2)))
print(f"vertices weighted {[str(w) for w in space.vertex_weights]}, rho = 1")
print(f"  face count gives chi = {oracle_chi(space, F(1))}  (3 vertices - 1 edge)")

instance = validate(space.matching_instance(F(1)))
print(f"  closed-form sum gives  {chi_c_direct(instance).chi_c_value}")
print(f"  strata sum gives       {chi_c_strata(instance).chi_c_value}")
print(f"  series window gives    {chi_c_series(instance).chi_c_value}")

# With every weight 1, the bound rho = k carves out the (k-1)-skeleton of
# a simplex, which is a bouquet of spheres: three formulas, one number.
print("\nskeleta of the 5-simplex (all weights 1):")
for k in range(1, 7):
    print(f"  k = {k}: face count {skeleton_chi(5, k):>3}, "
          f"oracle {oracle_chi(FiniteWeightedSpace.of(6), F(k)):>3}")

# Randomized agreement, reproducible by seed.
rng = random.Random(20181201)
cases = 200
print(f"\n{cases} random finite spaces (m <= 10, rational weights):")
disagreements = 0
for _ in range(cases):
    space, rho = random_finite_space(rng)
    expected = oracle_chi(space, rho)
    inst = validate(space.matching_instance(rho))
    if chi_c_direct(inst).chi_c_value != expected:
        disagreements += 1
print(f"  disagreements with the face count: {disagreements}")
