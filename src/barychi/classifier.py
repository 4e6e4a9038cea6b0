"""Symbolic homotopy types for one or two singular points, and the conic
decomposition with maximality filtering.

The classifier only answers in the regimes where the homotopy type is
actually pinned down (r <= 2 over a connected space, r = 2 over two
components, all weights <= 1); everything else raises ``OutOfScope``.
Each descriptor carries an Euler characteristic that must agree with the
engine whenever the topological chi applies.
"""
from __future__ import annotations

from collections import namedtuple
from math import floor

from .combinatorics import ext_binomial
from .errors import OutOfScope, TooManySingularPoints, WeightOutOfRange
from .model import ValidatedInstance, _Record, _shown, subset_levels

# The conic decomposition keeps all 2^r levels.  Weights k/(2k+1), rho = r,
# one process (Python 3.11, 2 vCPUs): ``maximal_pieces`` took 0.2 s / 31 MB
# at r = 16, 0.8 s / 83 MB at r = 18, 4.3 s / 286 MB at r = 20: 4x per 2 points.
MAX_CONIC_POINTS = 20


# ---------------------------------------------------------------------------
# Homotopy descriptors.


class Descriptor(_Record, namedtuple("Descriptor", "text chi_value")):
    """A homotopy type as ``classify`` prints it (a str), with its Euler
    characteristic (an int).  ``CIRCLE``, ``CONTRACTIBLE`` and a labelled space such
    as ``Descriptor("A1", chi)`` are the leaves; ``wedge``, ``union``,
    ``bary`` and ``susp`` build the rest, each applying its operation's
    rule to both fields."""

    __slots__ = ()


CIRCLE = Descriptor("S1", 0)
CONTRACTIBLE = Descriptor("contractible", 1)


def wedge(*parts: Descriptor) -> Descriptor:
    # One shared basepoint: each extra part over-counts a point.
    return Descriptor(" v ".join(p.text for p in parts),
                      sum(p.chi_value for p in parts) - (len(parts) - 1))


def union(*parts: Descriptor) -> Descriptor:
    return Descriptor(" | ".join(p.text for p in parts), sum(p.chi_value for p in parts))


def bary(n: int, x: Descriptor) -> Descriptor:
    """B_n of x; n = 0 denotes the empty space (chi = 0)."""
    return Descriptor(f"B_{n}({x.text})", 1 - ext_binomial(n - x.chi_value, n) if n else 0)


def susp(x: Descriptor) -> Descriptor:
    return Descriptor(f"susp({x.text})", 2 - x.chi_value)


# ---------------------------------------------------------------------------
# Conic decomposition.


class ConicPiece(_Record, namedtuple("ConicPiece", "n index_set")):
    """B_n(X, p_i for i in I), n an int: at most n points outside the marked set
    I (a frozenset of canonical 1-based weight indices), any mass at the marked points."""

    __slots__ = ()

    def render(self) -> str:
        if not self.index_set:
            return f"B_{self.n}(X)"
        marks = ",".join(f"p{i}" for i in sorted(self.index_set))
        return f"B_{self.n}(X,{marks})"


def _conic_levels(instance: ValidatedInstance) -> list[int]:
    """``subset_levels``, once r is checked against ``MAX_CONIC_POINTS`` and
    every weight to be < 1 (drop the weights of exactly 1 with
    ``normalize_drop_unit_weights`` first)."""
    if instance.r > MAX_CONIC_POINTS:
        raise TooManySingularPoints(
            f"the conic decomposition lists 2^r levels; r = {instance.r} exceeds its cap "
            f"{MAX_CONIC_POINTS}"
        )
    for w in instance.weights:
        if w >= 1:
            raise WeightOutOfRange(f"conic decomposition needs w < 1, got {_shown(w)}")
    return subset_levels(instance)


def _members(mask: int) -> frozenset[int]:
    """The canonical index set whose bits ``mask`` sets (bit i is index i+1).
    ``maximal_pieces`` builds one only for each piece it keeps, where a
    ``subset_members`` table would hold all 2^r."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def colimit_pieces(instance: ValidatedInstance) -> tuple[ConicPiece, ...]:
    """All conic subspaces whose union is the weighted barycenter space:
    one piece (floor(rho - w_I), I) per subset I with floor(rho - w_I) >= 0,
    in binary-counter order.  Requires every weight < 1."""
    return tuple(ConicPiece(n, _members(mask))
                 for mask, n in enumerate(_conic_levels(instance)) if n >= 0)


def piece_includes(a: ConicPiece, b: ConicPiece) -> bool:
    """Whether a's conic subspace is contained in b's: a.n <= b.n and a's
    marked set splits into a part inside b's and a remainder of size
    <= b.n - a.n (the remainder rides along as generic points)."""
    return a.n <= b.n and len(a.index_set - b.index_set) <= b.n - a.n


def maximal_pieces(instance: ValidatedInstance) -> tuple[ConicPiece, ...]:
    """The inclusion-maximal conic pieces, in ``colimit_pieces`` order, in
    O(2^r * r): piece (n, I) is swallowed exactly when adding a point to I
    keeps level n or removing one raises it to n + 1.  Such a neighbour
    includes it.  Conversely, if q includes it with t = |I - q.I|: for t = 0,
    every set from I to q.I has level n; for t >= 1, I & q.I has level
    >= n + t, and as removing a weight < 1 raises a level by at most 1,
    removing any point of I - q.I raises it by exactly 1."""
    levels = _conic_levels(instance)
    bits = [1 << j for j in range(instance.r)]
    return tuple(
        ConicPiece(n, _members(mask))
        for mask, n in enumerate(levels)
        if n >= 0 and not any(levels[mask ^ bit] == (n + 1 if mask & bit else n) for bit in bits)
    )


# ---------------------------------------------------------------------------
# Homotopy-type tables.


def classify(instance: ValidatedInstance) -> Descriptor:
    """The homotopy type for r <= 2 singular points of weight <= 1.

    r = 0 gives B_floor(rho)(X).  r = 1, and r = 2 on a connected space,
    use their case tables; on r = 2 the table glues X and a circle.  On
    X = A1 u A2 (two disjoint components) the r = 2 table glues A1 and A2
    when each holds one point, and otherwise wedges a circle onto the
    component that holds both.  Any other r, or r = 2 over another number
    of components, raises ``OutOfScope``.
    """
    if instance.r > 2:
        raise OutOfScope(f"no homotopy classification for r = {instance.r}")
    x = Descriptor("X", instance.chi_c)
    if instance.r == 0:
        return bary(floor(instance.rho), x)
    if instance.r == 1:
        return _r1_table(instance, x)
    if instance.components is None:
        return _r2_table(instance, wedge(x, CIRCLE), x)
    if len(instance.components) != 2:
        raise OutOfScope("need exactly two components with chi values")
    c1, c2 = instance.components
    a1 = Descriptor("A1", c1.chi_c)
    a2 = Descriptor("A2", c2.chi_c)
    if c1.singular_indices and c2.singular_indices:
        glued = wedge(a1, a2)
    elif c1.singular_indices:
        glued = union(wedge(a1, CIRCLE), a2)
    else:
        glued = union(a1, wedge(a2, CIRCLE))
    return _r2_table(instance, glued, union(a1, a2))


def _r1_table(instance: ValidatedInstance, x: Descriptor) -> Descriptor:
    """One singular point of weight 0 < w <= 1.  Writing rho = n + eps:
    for w <= eps the space cones off and is contractible; otherwise it is
    B_n of X itself."""
    w = instance.weights[0]
    if w > 1:
        raise OutOfScope(f"w = {_shown(w)} > 1: complement-like regime, not classified")
    n = floor(instance.rho)
    if floor(instance.rho - w) < n:
        return bary(n, x)
    return CONTRACTIBLE


def _r2_table(instance: ValidatedInstance, glued: Descriptor, split: Descriptor) -> Descriptor:
    """The r = 2 case table for 0 < w1 <= w2 <= 1, rho = n + eps:

    1. w1 + w2 <= eps          -> contractible
    2. w1, w2 <= eps < w1+w2   -> susp(B_n(glued))
    3. w1 <= eps < w2          -> contractible
    4. eps < w1, w2 and w1 + w2 <= 1 + eps -> B_n(glued)
    5. w1 + w2 > 1 + eps       -> B_n(split)

    Ties are resolved in favor of the earlier case.
    """
    w1, w2 = instance.weights  # canonical order: w1 <= w2
    if w2 > 1:
        raise OutOfScope(f"w = {_shown(w2)} > 1: complement-like regime, not classified")
    n = floor(instance.rho)
    eps = instance.rho - n
    if w1 + w2 <= eps:
        return CONTRACTIBLE
    if w1 <= eps and w2 <= eps:
        return susp(bary(n, glued))
    if w1 <= eps:
        return CONTRACTIBLE
    if w1 + w2 <= 1 + eps:
        return bary(n, glued)
    return bary(n, split)
