"""Symbolic homotopy types for one or two singular points, and the conic
decomposition with maximality filtering.

The classifier only answers in the regimes where the homotopy type is
actually pinned down (r = 1, r = 2 over a connected space, r = 2 over two
components, all weights <= 1); everything else raises ``OutOfScope``.
Descriptors evaluate to an Euler characteristic that must agree with the
engine whenever the topological chi applies.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import floor

from .combinatorics import ext_binomial
from .engine import chi_join, chi_suspension
from .errors import OutOfScope, WeightOutOfRange
from .model import ValidatedInstance, enumerate_subset_weights


# ---------------------------------------------------------------------------
# Space expressions and homotopy descriptors (tagged variants).


class SpaceExpr:
    """A symbolic space with ``chi()`` and ``render()``: a labelled piece, a
    wedge or union of pieces, or a homotopy type (contractible, a
    barycenter space of an expression, or an iterated suspension of one)."""


@dataclass(frozen=True)
class Base(SpaceExpr):
    """An opaque space known only through its Euler characteristic."""

    chi_value: int
    label: str = "X"

    def chi(self) -> int:
        return self.chi_value

    def render(self) -> str:
        return self.label


@dataclass(frozen=True)
class Circle(SpaceExpr):
    def chi(self) -> int:
        return 0

    def render(self) -> str:
        return "S1"


@dataclass(frozen=True)
class Point(SpaceExpr):
    def chi(self) -> int:
        return 1

    def render(self) -> str:
        return "pt"


@dataclass(frozen=True)
class Wedge(SpaceExpr):
    parts: tuple[SpaceExpr, ...]

    def chi(self) -> int:
        # One shared basepoint: each extra part over-counts a point.
        return sum(p.chi() for p in self.parts) - (len(self.parts) - 1)

    def render(self) -> str:
        return " v ".join(p.render() for p in self.parts)


@dataclass(frozen=True)
class DisjointUnion(SpaceExpr):
    parts: tuple[SpaceExpr, ...]

    def chi(self) -> int:
        return sum(p.chi() for p in self.parts)

    def render(self) -> str:
        return " | ".join(p.render() for p in self.parts)


@dataclass(frozen=True)
class Contractible(SpaceExpr):
    def chi(self) -> int:
        return 1

    def render(self) -> str:
        return "contractible"


@dataclass(frozen=True)
class Bary(SpaceExpr):
    """B_n of a space expression; n = 0 denotes the empty space (chi = 0)."""

    n: int
    space: SpaceExpr

    def chi(self) -> int:
        if self.n == 0:
            return 0
        return 1 - ext_binomial(self.n - self.space.chi(), self.n)

    def render(self) -> str:
        return f"B_{self.n}({self.space.render()})"


@dataclass(frozen=True)
class Suspension(SpaceExpr):
    inner: SpaceExpr

    def chi(self) -> int:
        return chi_suspension(self.inner.chi(), 1)

    def render(self) -> str:
        return f"susp({self.inner.render()})"


# ---------------------------------------------------------------------------
# Conic decomposition.


@dataclass(frozen=True)
class ConicPiece:
    """B_n(X, p_i for i in I): at most n points outside the marked set I
    (canonical 1-based weight indices), any mass at the marked points."""

    n: int
    index_set: frozenset[int]

    def render(self) -> str:
        if not self.index_set:
            return f"B_{self.n}(X)"
        marks = ",".join(f"p{i}" for i in sorted(self.index_set))
        return f"B_{self.n}(X,{marks})"


def colimit_pieces(instance: ValidatedInstance) -> tuple[ConicPiece, ...]:
    """All conic subspaces whose union is the weighted barycenter space:
    one piece (floor(rho - w_I), I) per subset I with floor(rho - w_I) >= 0.

    Requires every weight < 1 (points of weight exactly 1 should be
    dropped by unit-weight normalization first).
    """
    for w in instance.weights:
        if w >= 1:
            raise WeightOutOfRange(f"conic decomposition needs w < 1, got {w}")
    pieces = []
    for sw in enumerate_subset_weights(instance):
        n = floor(instance.rho - sw.total)
        if n >= 0:
            pieces.append(ConicPiece(n, sw.index_set))
    return tuple(pieces)


def piece_includes(a: ConicPiece, b: ConicPiece) -> bool:
    """Whether a's conic subspace is contained in b's: a.n <= b.n and a's
    marked set splits into a part inside b's and a remainder of size
    <= b.n - a.n (the remainder rides along as generic points)."""
    return a.n <= b.n and len(a.index_set - b.index_set) <= b.n - a.n


def maximal_pieces(instance: ValidatedInstance) -> tuple[ConicPiece, ...]:
    """The inclusion-maximal conic pieces; their union is still the whole
    space, with no piece swallowed by another."""
    pieces = colimit_pieces(instance)
    return tuple(
        p for p in pieces if not any(q != p and piece_includes(p, q) for q in pieces)
    )


# ---------------------------------------------------------------------------
# Homotopy-type tables.


class Placement(Enum):
    """Where the two singular points sit on a two-component space."""

    ONE_EACH = "one-each"
    BOTH_IN_FIRST = "both-first"


def classify_r1(instance: ValidatedInstance) -> SpaceExpr:
    """Homotopy type with a single singular point of weight 0 < w <= 1.

    Writing rho = floor(rho) + eps: for w <= eps the space cones off and
    is contractible; otherwise it is B_floor(rho) of X itself.
    """
    if instance.r != 1:
        raise OutOfScope(f"r = {instance.r}, classifier handles r = 1")
    w = instance.weights[0]
    if w > 1:
        raise OutOfScope(f"w = {w} > 1: complement-like regime, not classified")
    n = floor(instance.rho)
    if floor(instance.rho - w) < n:
        return Bary(n, Base(instance.chi_c))
    return Contractible()


def classify_r2_connected(instance: ValidatedInstance) -> SpaceExpr:
    """Homotopy type for two singular points on a connected space X:
    ``_r2_table`` with glued space X v S1 and split space X."""
    if instance.r != 2:
        raise OutOfScope(f"r = {instance.r}, classifier handles r = 2")
    x = Base(instance.chi_c)
    return _r2_table(instance, Wedge((x, Circle())), x)


def classify_r2_two_components(instance: ValidatedInstance, placement: Placement) -> SpaceExpr:
    """Homotopy type for two singular points on X = A1 u A2 (disjoint).

    The case conditions are those of the connected table; the target
    spaces differ by placement: with one point on each component the
    quotient wedges A1 and A2 together, with both on the first it wedges
    a circle onto A1 and leaves A2 disjoint.  Cases 1 and 3 are
    contractible either way, and case 5 is B_n(A1 | A2) for both.
    """
    if instance.r != 2:
        raise OutOfScope(f"r = {instance.r}, classifier handles r = 2")
    if instance.components is None or len(instance.components) != 2:
        raise OutOfScope("need exactly two components with chi values")
    c1, c2 = instance.components
    a1 = Base(c1.chi_c, "A1")
    a2 = Base(c2.chi_c, "A2")
    if placement is Placement.ONE_EACH:
        glued: SpaceExpr = Wedge((a1, a2))
    else:
        glued = DisjointUnion((Wedge((a1, Circle())), a2))
    return _r2_table(instance, glued, DisjointUnion((a1, a2)))


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
    (A, B compact): barycenter spaces of each part, suspensions, joins of
    complementary parts, and the wedge-point correction -2k.

    Equals 1 - C(k - chi_a - chi_b, k) for every k >= 2.
    """
    if k < 2:
        raise ValueError("decomposition applies for k >= 2")

    def bary(j: int, chi: int) -> int:
        return 0 if j == 0 else 1 - ext_binomial(j - chi, j)

    parts = [
        bary(k, chi_a),
        chi_suspension(bary(k - 1, chi_a), 1),
        bary(k, chi_b),
        chi_suspension(bary(k - 1, chi_b), 1),
    ]
    for l in range(1, k):
        parts.append(chi_join((bary(k - l, chi_a), True), (bary(l, chi_b), True)))
    for l in range(2, k):
        parts.append(
            chi_suspension(chi_join((bary(k - l, chi_a), True), (bary(l - 1, chi_b), True)), 1)
        )
    return sum(parts) - 2 * k
