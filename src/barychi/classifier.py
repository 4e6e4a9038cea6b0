"""Symbolic homotopy types for one or two singular points, and the conic
decomposition with maximality filtering.

The classifier only answers in the regimes where the homotopy type is
actually pinned down (r <= 2 over a connected space, r = 2 over two
components, all weights <= 1); everything else raises ``OutOfScope``.
Descriptors evaluate to an Euler characteristic that must agree with the
engine whenever the topological chi applies.
"""
from __future__ import annotations

from math import floor

from .combinatorics import ext_binomial
from .errors import OutOfScope, WeightOutOfRange
from .model import ValidatedInstance, _Record, subset_levels


# ---------------------------------------------------------------------------
# Space expressions and homotopy descriptors (tagged variants).


class SpaceExpr(_Record):
    """A symbolic space with ``chi()`` and ``render()``: a labelled piece, a
    wedge or union of pieces, or a homotopy type (contractible, a
    barycenter space of an expression, or an iterated suspension of one)."""

    __slots__ = ()


class Base(SpaceExpr):
    """An opaque space known only through its Euler characteristic."""

    __slots__ = ("chi_value", "label")

    def __init__(self, chi_value: int, label: str = "X") -> None:
        object.__setattr__(self, "chi_value", chi_value)
        object.__setattr__(self, "label", label)

    def chi(self) -> int:
        return self.chi_value

    def render(self) -> str:
        return self.label


class Circle(SpaceExpr):
    __slots__ = ()

    def chi(self) -> int:
        return 0

    def render(self) -> str:
        return "S1"


class Wedge(SpaceExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SpaceExpr, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def chi(self) -> int:
        # One shared basepoint: each extra part over-counts a point.
        return sum(p.chi() for p in self.parts) - (len(self.parts) - 1)

    def render(self) -> str:
        return " v ".join(p.render() for p in self.parts)


class DisjointUnion(SpaceExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SpaceExpr, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def chi(self) -> int:
        return sum(p.chi() for p in self.parts)

    def render(self) -> str:
        return " | ".join(p.render() for p in self.parts)


class Contractible(SpaceExpr):
    __slots__ = ()

    def chi(self) -> int:
        return 1

    def render(self) -> str:
        return "contractible"


class Bary(SpaceExpr):
    """B_n of a space expression; n = 0 denotes the empty space (chi = 0)."""

    __slots__ = ("n", "space")

    def __init__(self, n: int, space: SpaceExpr) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "space", space)

    def chi(self) -> int:
        if self.n == 0:
            return 0
        return 1 - ext_binomial(self.n - self.space.chi(), self.n)

    def render(self) -> str:
        return f"B_{self.n}({self.space.render()})"


class Suspension(SpaceExpr):
    __slots__ = ("inner",)

    def __init__(self, inner: SpaceExpr) -> None:
        object.__setattr__(self, "inner", inner)

    def chi(self) -> int:
        return 2 - self.inner.chi()

    def render(self) -> str:
        return f"susp({self.inner.render()})"


# ---------------------------------------------------------------------------
# Conic decomposition.


class ConicPiece(_Record):
    """B_n(X, p_i for i in I): at most n points outside the marked set I
    (canonical 1-based weight indices), any mass at the marked points."""

    __slots__ = ("n", "index_set")

    def __init__(self, n: int, index_set: frozenset[int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index_set", index_set)

    def render(self) -> str:
        if not self.index_set:
            return f"B_{self.n}(X)"
        marks = ",".join(f"p{i}" for i in sorted(self.index_set))
        return f"B_{self.n}(X,{marks})"


def _conic_levels(instance: ValidatedInstance) -> list[int]:
    """``subset_levels``, once every weight is checked to be < 1 (drop the
    weights of exactly 1 with ``normalize_drop_unit_weights`` first)."""
    for w in instance.weights:
        if w >= 1:
            raise WeightOutOfRange(f"conic decomposition needs w < 1, got {w}")
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


def classify(instance: ValidatedInstance) -> SpaceExpr:
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
    if instance.r == 0:
        return Bary(floor(instance.rho), Base(instance.chi_c))
    if instance.r == 1:
        return _r1_table(instance)
    if instance.components is None:
        x = Base(instance.chi_c)
        return _r2_table(instance, Wedge((x, Circle())), x)
    if len(instance.components) != 2:
        raise OutOfScope("need exactly two components with chi values")
    c1, c2 = instance.components
    a1 = Base(c1.chi_c, "A1")
    a2 = Base(c2.chi_c, "A2")
    if c1.singular_indices and c2.singular_indices:
        glued: SpaceExpr = Wedge((a1, a2))
    elif c1.singular_indices:
        glued = DisjointUnion((Wedge((a1, Circle())), a2))
    else:
        glued = DisjointUnion((a1, Wedge((a2, Circle()))))
    return _r2_table(instance, glued, DisjointUnion((a1, a2)))


def _r1_table(instance: ValidatedInstance) -> SpaceExpr:
    """One singular point of weight 0 < w <= 1.  Writing rho = n + eps:
    for w <= eps the space cones off and is contractible; otherwise it is
    B_n of X itself."""
    w = instance.weights[0]
    if w > 1:
        raise OutOfScope(f"w = {w} > 1: complement-like regime, not classified")
    n = floor(instance.rho)
    if floor(instance.rho - w) < n:
        return Bary(n, Base(instance.chi_c))
    return Contractible()


def _r2_table(instance: ValidatedInstance, glued: SpaceExpr, split: SpaceExpr) -> SpaceExpr:
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
        raise OutOfScope(f"w = {w2} > 1: complement-like regime, not classified")
    n = floor(instance.rho)
    eps = instance.rho - n
    if w1 + w2 <= eps:
        return Contractible()
    if w1 <= eps and w2 <= eps:
        return Suspension(Bary(n, glued))
    if w1 <= eps:
        return Contractible()
    if w1 + w2 <= 1 + eps:
        return Bary(n, glued)
    return Bary(n, split)


def chi_disjoint_union_decomposition(chi_a: int, chi_b: int, k: int) -> int:
    """chi of B_k(A u B) evaluated term by term over its wedge decomposition
    (A, B compact): barycenter spaces of each part, suspensions (chi 2 - x),
    joins of complementary parts (of compact x and y: x + y - x*y), and the
    wedge-point correction -2k.

    Equals 1 - C(k - chi_a - chi_b, k) for every k >= 2.
    """
    if k < 2:
        raise ValueError("decomposition applies for k >= 2")

    def bary(j: int, chi: int) -> int:
        return 0 if j == 0 else 1 - ext_binomial(j - chi, j)

    parts = [
        bary(k, chi_a),
        2 - bary(k - 1, chi_a),
        bary(k, chi_b),
        2 - bary(k - 1, chi_b),
    ]
    for l in range(1, k):
        x, y = bary(k - l, chi_a), bary(l, chi_b)
        parts.append(x + y - x * y)
    for l in range(2, k):
        x, y = bary(k - l, chi_a), bary(l - 1, chi_b)
        parts.append(2 - (x + y - x * y))
    return sum(parts) - 2 * k
