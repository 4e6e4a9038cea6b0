"""Brute-force ground truth on finite spaces.

For X a finite set of weighted points, the weighted barycenter space is
the subcomplex of the full simplex on X whose faces have total vertex
weight <= rho.  Its Euler characteristic comes from counting faces
directly, sharing no code with the engine or series routes but input checks.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import comb, lcm

from .errors import InputFormatError, NonPositiveWeight, NoVertices, TooManyVertices, TooManyWeights
from .model import ProblemInstance, SpaceKind, _exact, _is_int, _listed, _Record, _shown

# 2^m faces are enumerated outright.
MAX_VERTICES = 22


def _check_vertex_count(m: int) -> None:
    """Refuse a vertex count that is not an int (a bool included), below 1, or past the cap."""
    if not _is_int(m):
        raise InputFormatError(f"the vertex count must be an int, got {_shown(m)}")
    if m < 1:
        raise NoVertices("need at least one vertex")
    if m > MAX_VERTICES:
        raise TooManyVertices(
            f"m = {_shown(m)} vertices exceeds the face-enumeration cap {MAX_VERTICES}")


class FiniteWeightedSpace(_Record, namedtuple("FiniteWeightedSpace", "vertex_weights")):
    """A finite discrete space: a tuple or a list of one weight per vertex (1 =
    generic) for 1 to ``MAX_VERTICES`` vertices, each an int or a ``Fraction``
    (``InputFormatError`` otherwise, as in ``validate``), kept as a tuple of
    ``Fraction``s.  The call, ``_make``, ``_replace``, copy and pickle all check."""

    __slots__ = ()

    def __new__(cls, vertex_weights: tuple[Fraction, ...]) -> "FiniteWeightedSpace":
        _check_vertex_count(len(_listed(vertex_weights, "vertex weights")))
        vertex_weights = tuple([_exact(w, "vertex weights") for w in vertex_weights])
        for w in vertex_weights:
            if w <= 0:
                raise NonPositiveWeight(f"vertex weight {_shown(w)} is not strictly positive")
        return super().__new__(cls, vertex_weights)

    @classmethod
    def _make(cls, iterable: Iterable[tuple[Fraction, ...]]) -> "FiniteWeightedSpace":
        # namedtuple's own _make, which _replace calls, is tuple.__new__.
        return cls(*iterable)

    @classmethod
    def of(cls, m: int, singular_weights: tuple[Fraction, ...] = ()) -> "FiniteWeightedSpace":
        """m vertices, the first len(singular_weights) carrying the given
        weights and the rest weight 1.  The vertex count is checked before
        any weight is built."""
        _check_vertex_count(m)
        if len(_listed(singular_weights, "singular weights")) > m:
            raise TooManyWeights("more weights than vertices")
        return cls(tuple(singular_weights) + (Fraction(1),) * (m - len(singular_weights)))

    def matching_instance(self, rho: Fraction | int) -> ProblemInstance:
        """The engine-side view of this space: chi_c = m (m compact points),
        singular weights = the non-unit vertex weights, rho as given (checked by ``validate``)."""
        singular = tuple(w for w in self.vertex_weights if w != 1)
        return ProblemInstance(len(self.vertex_weights), singular, rho, SpaceKind.COMPACT)


def oracle_chi(space: FiniteWeightedSpace, rho: Fraction | int) -> int:
    """Euler characteristic of the weight-bounded subcomplex by direct face
    enumeration: sum over nonempty vertex subsets S with w(S) <= rho of
    (-1)^(|S|+1).  rho is an int or a ``Fraction`` (``InputFormatError`` otherwise).

    Face weights are integers over the LCD of rho and the vertex weights,
    kept in two lists by the parity of |S|.  Each vertex extends only the
    subsets it keeps under rho (one integer add each); a heavier subset
    has no face among its supersets.  The vertices go heaviest first, in
    descending weight order, so that pruning cuts the lists while they are
    short; the count is the same in any order.  The lightest vertex comes
    last, and its faces are counted one comparison each, never stored.
    O(2^m) time and O(2^(m-1)) memory when rho is at least the total weight.
    """
    rho = _exact(rho, "rho")
    scale = lcm(rho.denominator, *(w.denominator for w in space.vertex_weights))
    top = rho.numerator * (scale // rho.denominator)
    if top < 0:
        return 0  # not even the empty set fits
    *steps, lightest = sorted((w.numerator * (scale // w.denominator)
                               for w in space.vertex_weights), reverse=True)
    even, odd = [0], []  # weights * scale of the subsets that fit, |S| even / odd
    for step in steps:
        cap = top - step  # s + step <= top
        even, odd = (even + [s + step for s in odd if s <= cap],
                     odd + [s + step for s in even if s <= cap])
    cap = top - lightest
    # The empty set is no face; an even subset plus the lightest vertex is
    # an odd face, an odd subset plus it an even one.
    return (len(odd) - (len(even) - 1)
            + len([s for s in even if s <= cap]) - len([s for s in odd if s <= cap]))


def skeleton_chi(n: int, k: int) -> int:
    """Euler characteristic of the (k-1)-skeleton of the n-simplex by face
    count: sum_{i=0..k-1} (-1)^i C(n+1, i+1).

    For all vertex weights 1 and rho = k this is exactly what
    ``oracle_chi`` counts; for k <= n the complex is a bouquet of C(n, k)
    spheres of dimension k-1.
    """
    if not 1 <= k <= n + 1:
        raise ValueError("need 1 <= k <= n + 1")
    total = 0
    for i in range(k):
        total += (-1) ** i * comb(n + 1, i + 1)
    return total
