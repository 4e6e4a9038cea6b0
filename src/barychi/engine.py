"""Euler characteristic with compact supports of weighted barycenter spaces.

Two independent routes to the same integer:

* ``chi_c_direct`` evaluates the closed-form alternating sum over all
  subsets of the singular points,

      chi_c = 1 - sum_I (-1)^|I| * C(floor(rho - w_I) - chi_c(X) + r, floor(rho - w_I)),

  with terms where floor(rho - w_I) < 0 set to zero.

* ``chi_c_strata`` decomposes the space into locally closed strata (one
  family of strata per subset of singular points actually present in a
  configuration, one stratum per count of generic points) and adds up the
  per-stratum values.

Both return a ``ChiResult`` carrying the Leray-Schauder degree
``d_rho = 1 - chi_c`` and, when asked for, a term breakdown for reporting.
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .combinatorics import ext_binomial
from .model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    _Record,
    scaled_subset_sums,
    validate,
)

METHOD_DIRECT = "direct"
METHOD_STRATA = "strata"
METHOD_SERIES = "series"


class ChiResult(_Record):
    """chi_c of the weighted barycenter space, with provenance.

    ``term_breakdown`` entries are ``(key, value)`` pairs: subset index
    sets for the direct and strata methods, rational exponents for the
    series method.  For the direct method, chi_c_value = 1 - sum(values);
    for strata, chi_c_value = sum(values).  It is empty unless the route
    was called with ``breakdown=True``.
    """

    __slots__ = ("chi_c_value", "method", "term_breakdown")

    def __init__(
        self,
        chi_c_value: int,
        method: str,
        term_breakdown: tuple[tuple[frozenset[int] | Fraction, int], ...] = (),
    ) -> None:
        object.__setattr__(self, "chi_c_value", chi_c_value)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "term_breakdown", term_breakdown)

    @property
    def degree_d_rho(self) -> int:
        """The associated topological degree, always 1 - chi_c."""
        return 1 - self.chi_c_value


def chi_c_direct(instance: ValidatedInstance, *, breakdown: bool = False) -> ChiResult:
    """Closed-form alternating sum over the power set of {1..r}.

    Valid for connected and disconnected X alike; only chi_c(X), the
    weights, and rho enter.  Only the subsets with w_I <= rho are built
    (the others contribute zero); they are tallied by level into signed
    counts, so ``ext_binomial`` runs once per distinct level.  With
    ``breakdown`` the result lists every subset's signed term, 0 for the
    ones not built, in binary-counter order (see
    ``enumerate_subset_weights``).
    """
    chi, r = instance.chi_c, instance.r
    packed, top, scale = scaled_subset_sums(instance)
    full = (1 << r) - 1
    signed: dict[int, int] = {}
    for e in packed:
        level = (top - e) // scale
        signed[level] = signed.get(level, 0) + (-1 if (e & full).bit_count() % 2 else 1)
    value = {level: ext_binomial(level - chi + r, level) for level in signed}
    acc = sum(count * value[level] for level, count in signed.items())
    rows = []
    if breakdown:
        terms = [0] * (full + 1)  # pruned subsets contribute 0
        for e in packed:
            mask = e & full
            terms[mask] = (-1 if mask.bit_count() % 2 else 1) * value[(top - e) // scale]
        rows = [(_members(mask), term) for mask, term in enumerate(terms)]
    return ChiResult(1 - acc, METHOD_DIRECT, tuple(rows))


def _members(mask: int) -> frozenset[int]:
    """The canonical index set whose bits ``mask`` sets (bit i is index i+1)."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _stratum_chi(chi: int, r: int, k: int, cap: int) -> int:
    """chi_c of the stratum whose configurations contain exactly a fixed set
    of k singular points and at most ``cap`` generic points.

    The stratum splits further into locally closed levels indexed by the
    generic-point count i; additivity sums their chi_c values:

    * level 0 exists only for k >= 1 (an open (k-1)-simplex, chi_c = (-1)^{k-1});
    * level i >= 1 contributes (-1)^{k+1} * C(i - chi + r - 1, i).
    """
    sign = 1 if k % 2 else -1  # (-1)^{k+1}
    total = sign if k >= 1 else 0
    for i in range(1, cap + 1):
        total += sign * ext_binomial(i - chi + r - 1, i)
    return total


def chi_c_strata(instance: ValidatedInstance, *, breakdown: bool = False) -> ChiResult:
    """Sum of chi_c over the disjoint stratification by singular support.

    Each subset I with rho - w_I >= 0 contributes one stratum family with
    level cap floor(rho - w_I); subsets with rho - w_I < 0 contribute no
    stratum at all.  Agrees with ``chi_c_direct`` on every instance.  With
    ``breakdown`` the result lists each contributing subset's value, in
    binary-counter order.
    """
    chi, r = instance.chi_c, instance.r
    packed, top, scale = scaled_subset_sums(instance)
    full = (1 << r) - 1
    # _stratum_chi depends on k only through its class: 0 (k = 0), 1 (k odd)
    # or 2 (k even >= 2).  The memo key is level * 3 + class.
    memo: dict[int, int] = {}
    rows = []
    acc = 0
    for e in packed:
        mask = e & full
        k = mask.bit_count()
        key = (top - e) // scale * 3 + (k if k < 2 else 2 - k % 2)
        value = memo.get(key)
        if value is None:
            level, size_class = divmod(key, 3)
            value = memo[key] = _stratum_chi(chi, r, size_class, level)
        if breakdown:
            rows.append((_members(mask), value))
        acc += value
    return ChiResult(acc, METHOD_STRATA, tuple(rows))


# ---------------------------------------------------------------------------
# Normalizations: the two reductions every correct formula must respect.


def normalize_drop_heavy(instance: ValidatedInstance) -> ValidatedInstance:
    """Remove singular points heavier than rho.

    A point with w_i > rho can never appear in a configuration, so it is
    removed from the space itself: chi_c drops by one per removed point
    (and a compact component containing one stops being compact).
    chi_c_direct is invariant under this reduction.
    """
    return _drop(instance, lambda w: w > instance.rho, leaves_space=True)


def normalize_drop_unit_weights(instance: ValidatedInstance) -> ValidatedInstance:
    """Remove singular points of weight exactly 1.

    Such points are indistinguishable from generic points, so they stop
    being singular: chi_c is unchanged, r drops.  chi_c_direct is
    invariant under this reduction.
    """
    return _drop(instance, lambda w: w == 1, leaves_space=False)


def _drop(
    instance: ValidatedInstance, drops: Callable[[Fraction], bool], leaves_space: bool
) -> ValidatedInstance:
    """Remove the singular points whose weight ``drops`` selects, renumbering
    the rest; with ``leaves_space`` each removed point also leaves X."""
    keep = [i for i, w in enumerate(instance.weights, 1) if not drops(w)]
    if len(keep) == instance.r:
        return instance
    new_index = {old: new for new, old in enumerate(keep, 1)}
    components = None
    if instance.components is not None:
        components = []
        for c in instance.components:
            lost = sum(i not in new_index for i in c.singular_indices) if leaves_space else 0
            components.append(ComponentSpec(
                chi_c=c.chi_c - lost,
                is_compact=c.is_compact and not lost,
                singular_indices=frozenset(
                    new_index[i] for i in c.singular_indices if i in new_index
                ),
            ))
        components = tuple(components)
    lost = instance.r - len(keep) if leaves_space else 0
    return validate(
        ProblemInstance(
            chi_c=instance.chi_c - lost,
            weights=tuple(instance.weights[i - 1] for i in keep),
            rho=instance.rho,
            space_kind=instance.space_kind,
            components=components,
        )
    )


def topological_chi_applicable(instance: ValidatedInstance) -> bool:
    """Whether the computed chi_c is also the topological Euler characteristic.

    True when every weight is <= 1 and the space is compact, the interior
    of an even-dimensional manifold with boundary, or a union whose
    components all qualify (with the available flags: all compact).
    """
    if any(w > 1 for w in instance.weights):
        return False
    kind = instance.space_kind
    if kind in (SpaceKind.COMPACT, SpaceKind.INTERIOR_EVEN_DIM_MANIFOLD):
        return True
    if kind is SpaceKind.UNION_OF_BASIC and instance.components is not None:
        return all(c.is_compact for c in instance.components)
    return False


# ---------------------------------------------------------------------------
# Small chi_c calculators used by the classifier.


def chi_join(x: tuple[int, bool], y: tuple[int, bool]) -> int:
    """chi_c of the join X * Y from (chi_c, is_compact) pairs.

    Both non-compact: -chi_x * chi_y; otherwise chi_x + chi_y - chi_x * chi_y.
    """
    (chi_x, compact_x), (chi_y, compact_y) = x, y
    if not compact_x and not compact_y:
        return -chi_x * chi_y
    return chi_x + chi_y - chi_x * chi_y


def chi_suspension(chi_c: int, k: int) -> int:
    """chi_c of the k-fold suspension: 1 + (-1)^k (chi_c - 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 1 + (chi_c - 1 if k % 2 == 0 else 1 - chi_c)
