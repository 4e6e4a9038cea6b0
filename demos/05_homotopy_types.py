#!/usr/bin/env python3
"""Symbolic homotopy types for one and two singular points.

With weights below 1 the homotopy type of the weighted barycenter space
is completely determined in the r <= 2 regimes, by where the weights
fall relative to the fractional part of rho.  Each symbolic answer
evaluates to an Euler characteristic, which must (and does) agree with
the exact engine.
"""
from fractions import Fraction as F

from barychi import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    chi_c_direct,
    classify,
    validate,
)


def show(instance, descriptor):
    chi = descriptor.chi_value
    engine = chi_c_direct(instance).chi_c_value
    tick = "ok" if chi == engine else "MISMATCH"
    weights = ",".join(str(w) for w in instance.weights)
    print(f"  w = [{weights:<9}]  ->  {descriptor.text:<24} "
          f"chi = {chi:>2}  engine = {engine:>2}  {tick}")


print("one singular point on X with chi = 3, rho = 5/2 (so eps = 1/2):")
for w in (F(3, 10), F(7, 10)):
    inst = validate(ProblemInstance(3, (w,), F(5, 2)))
    show(inst, classify(inst))

print("\ntwo singular points, connected X with chi = 3, rho = 5/2:")
for w1, w2 in [
    (F(1, 10), F(1, 5)),   # both tiny: cone, contractible
    (F(3, 10), F(2, 5)),   # both below eps but jointly above: a suspension
    (F(2, 5), F(4, 5)),    # straddling eps: contractible again
    (F(3, 5), F(7, 10)),   # both above eps, jointly modest: wedge with a circle
    (F(4, 5), F(9, 10)),   # jointly heavy: the plain barycenter space
]:
    inst = validate(ProblemInstance(3, (w1, w2), F(5, 2)))
    show(inst, classify(inst))

print("\nsame weights on a two-component space (chi = 2 and 1):")
# The components' singular indices say where the points sit.
for placement, first, second in (("one-each", {1}, {2}), ("both-first", {1, 2}, set())):
    components = (
        ComponentSpec(2, True, frozenset(first)),
        ComponentSpec(1, True, frozenset(second)),
    )
    inst = validate(ProblemInstance(
        3, (F(3, 10), F(2, 5)), F(5, 2), SpaceKind.UNION_OF_BASIC, components,
    ))
    print(f"  {placement:<11}", end="")
    show(inst, classify(inst))
print("  (different homotopy types, same Euler characteristic)")
