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
``d_rho = 1 - chi_c`` and a term breakdown for reporting.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Callable

from .combinatorics import ext_binomial
from .errors import InconsistentComponents
from .model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    enumerate_subset_weights,
    validate,
)

METHOD_DIRECT = "direct"
METHOD_STRATA = "strata"
METHOD_SERIES = "series"


@dataclass(frozen=True)
class ChiResult:
    """chi_c of the weighted barycenter space, with provenance.

    ``term_breakdown`` entries are ``(key, value)`` pairs: subset index
    sets for the direct and strata methods, rational exponents for the
    series method.  For the direct method, chi_c_value = 1 - sum(values);
    for strata, chi_c_value = sum(values).
    """

    chi_c_value: int
    method: str
    term_breakdown: tuple[tuple[frozenset[int] | Fraction, int], ...] = ()

    @property
    def degree_d_rho(self) -> int:
        """The associated topological degree, always 1 - chi_c."""
        return 1 - self.chi_c_value


def chi_c_direct(instance: ValidatedInstance) -> ChiResult:
    """Closed-form alternating sum over the power set of {1..r}.

    Valid for connected and disconnected X alike; only chi_c(X), the
    weights, and rho enter.
    """
    chi, r, rho = instance.chi_c, instance.r, instance.rho
    breakdown = []
    acc = 0
    for sw in enumerate_subset_weights(instance):
        level = floor(rho - sw.total)
        if level < 0:
            term = 0
        else:
            term = sw.parity * ext_binomial(level - chi + r, level)
        breakdown.append((sw.index_set, term))
        acc += term
    return ChiResult(1 - acc, METHOD_DIRECT, tuple(breakdown))


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


def chi_c_strata(instance: ValidatedInstance) -> ChiResult:
    """Sum of chi_c over the disjoint stratification by singular support.

    Each subset I with rho - w_I >= 0 contributes one stratum family with
    level cap floor(rho - w_I); subsets with rho - w_I < 0 contribute no
    stratum at all.  Agrees with ``chi_c_direct`` on every instance.
    """
    chi, r, rho = instance.chi_c, instance.r, instance.rho
    breakdown = []
    acc = 0
    for sw in enumerate_subset_weights(instance):
        if rho - sw.total < 0:
            continue
        cap = floor(rho - sw.total)
        value = _stratum_chi(chi, r, len(sw.index_set), cap)
        breakdown.append((sw.index_set, value))
        acc += value
    return ChiResult(acc, METHOD_STRATA, tuple(breakdown))


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
# Small chi_c calculators used by the classifier and the disconnected theory.


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


def chi_quotient_wedge(components: tuple[ComponentSpec, ...]) -> int:
    """Topological chi of the quotient collapsing every boundary and every
    singular point to a single basepoint.

    Bookkeeping per component: a non-compact component contributes its
    boundary-collapsed chi (chi_c + 1) plus one circle per singular point;
    a compact component with s >= 1 singular points contributes its chi
    plus s - 1 circles; compact components without singular points stay
    disjoint.  The result always equals chi_c(X) - r + 1, checked here.
    """
    seen: set[int] = set()
    for c in components:
        if c.singular_indices & seen:
            raise InconsistentComponents("singular index assigned to two components")
        seen |= c.singular_indices
    r = len(seen)

    wedge_parts: list[int] = []
    loose = 0
    for c in components:
        s = len(c.singular_indices)
        if not c.is_compact:
            wedge_parts.append(c.chi_c + 1)
            wedge_parts.extend([0] * s)
        elif s >= 1:
            wedge_parts.append(c.chi_c)
            wedge_parts.extend([0] * (s - 1))
        else:
            loose += c.chi_c
    if wedge_parts:
        value = sum(wedge_parts) - (len(wedge_parts) - 1) + loose
    else:
        # Nothing collapses onto the basepoint, which stays as its own piece.
        value = 1 + loose

    closed_form = sum(c.chi_c for c in components) - r + 1
    if value != closed_form:
        raise ArithmeticError(f"quotient bookkeeping gives {value}, closed form {closed_form}")
    return value
