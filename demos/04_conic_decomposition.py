#!/usr/bin/env python3
"""Decompose a weighted barycenter space into conic subspaces.

When all weights are below 1, the space is a union of pieces
B_n(X, p_i for i in I): configurations with at most n points away from
the marked set I.  One piece per subset of singular points; most are
swallowed by larger ones, and filtering to the inclusion-maximal pieces
gives the economical description of the space.
"""
from fractions import Fraction as F

from barychi import ProblemInstance, maximal_pieces, validate
from barychi.classifier import ConicPiece, colimit_pieces, piece_includes

instance = validate(ProblemInstance(
    chi_c=2,
    weights=(F(3, 10), F(2, 5), F(3, 5)),
    rho=F(9, 2),
))

pieces = colimit_pieces(instance)
maximal = maximal_pieces(instance)
maximal_set = set(maximal)

print(f"rho = {instance.rho}, weights = {[str(w) for w in instance.weights]}")
print(f"\nall {len(pieces)} conic pieces (level = floor(rho - w_I)):")
for piece in pieces:
    status = "maximal" if piece in maximal_set else "absorbed"
    print(f"  {piece.render():<22} {status}")

print("\nwhere the absorbed pieces go:")
for piece in pieces:
    if piece in maximal_set:
        continue
    homes = [q.render() for q in maximal if piece_includes(piece, q)]
    print(f"  {piece.render():<22} -> {', '.join(homes)}")

print("\nmaximal decomposition:")
print("  " + "  u  ".join(p.render() for p in maximal))

# The inclusion test is combinatorial: a piece fits inside another when
# its level is no larger and its extra marked points can ride along as
# generic points.
a = ConicPiece(4, frozenset({1}))
b = ConicPiece(5, frozenset())
print(f"\n{a.render()} inside {b.render()}? {piece_includes(a, b)}")
