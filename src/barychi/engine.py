"""Euler characteristic with compact supports of weighted barycenter spaces.

Two independent routes to the same integer:

* ``chi_c_direct`` evaluates the closed-form alternating sum over all
  subsets of the singular points,

      chi_c = 1 - sum_I (-1)^|I| * C(floor(rho - w_I) - chi_c(X) + r, floor(rho - w_I)),

  with terms where floor(rho - w_I) < 0 set to zero.  It counts the
  subsets per level by meet in the middle, over the two halves of the
  weights.

* ``chi_c_strata`` decomposes the space into locally closed strata (one
  family of strata per subset of singular points actually present in a
  configuration, one stratum per count of generic points) and adds up the
  per-stratum values.  It enumerates the fitting subsets whole, by parity,
  and tallies them per level.

The two share no enumerator: each builds its own subset sums, so their
agreement checks the enumeration as well as the formulas.  Both walk the
weights heaviest first, against the ascending canonical order: no superset
of a subset heavier than rho fits, so the heavy weights cut the lists of
fitting sums while they are short, and the tallies do not depend on the
order.  Both return a ``ChiResult`` carrying the Leray-Schauder degree
``d_rho = 1 - chi_c`` and, when asked for, a term breakdown for reporting.
Only the breakdown rows come from shared tables, both in binary-counter
(mask) order: the levels floor(rho - w_I) of ``subset_levels`` and the
ascending index tuples of ``subset_members``.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict, namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import floordiv

from .combinatorics import ext_binomial
from .model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    _Record,
    subset_levels,
    subset_members,
    validate,
)


class ChiResult(_Record, namedtuple("ChiResult", "chi_c_value term_breakdown", defaults=((),))):
    """chi_c of the weighted barycenter space (an int), and its rows.

    ``term_breakdown`` entries are ``(key, value)`` pairs, keyed as the
    report prints them: a subset's indices as an ascending tuple of ints
    for the direct and strata methods, an exponent in lowest terms as an
    int pair ``(numerator, denominator)`` for the series method.  For the
    direct method, chi_c_value = 1 - sum(values); for strata, chi_c_value =
    sum(values); for series, chi_c_value = -sum(values).  It is empty
    unless the route was called with ``breakdown=True``.
    """

    __slots__ = ()

    @property
    def degree_d_rho(self) -> int:
        """The associated topological degree, always 1 - chi_c."""
        return 1 - self.chi_c_value


def chi_c_direct(instance: ValidatedInstance, *, breakdown: bool = False) -> ChiResult:
    """Closed-form alternating sum over the power set of {1..r}.

    Valid for connected and disconnected X alike; only chi_c(X), the
    weights, and rho enter.  The sum needs only N(L), the signed count of
    the subsets at each level L = floor(rho - w_I) (see
    ``_signed_level_counts``), so ``ext_binomial`` runs once per level
    whose count is nonzero.  With ``breakdown`` the result lists every
    subset's signed term, 0 for the ones heavier than rho, in
    binary-counter order (see ``subset_levels``).
    """
    chi, r = instance.chi_c, instance.r
    counts = _signed_level_counts(instance)
    acc = sum(count * ext_binomial(level - chi + r, level) for level, count in counts.items())
    rows = ()
    if breakdown:
        levels = subset_levels(instance)
        # A subset heavier than rho has a negative level and contributes 0.
        value = {level: ext_binomial(level - chi + r, level) for level in set(levels) if level >= 0}
        rows = tuple((members, -term if len(members) % 2 else term)
                     for members, term in zip(subset_members(r), map(value.get, levels, repeat(0))))
    return ChiResult(1 - acc, rows)


def _signed_level_counts(instance: ValidatedInstance) -> dict[int, int]:
    """N(L) = sum of (-1)^|I| over the subsets I with floor(rho - w_I) = L,
    for each level L >= 0 where it is nonzero.

    Meet in the middle (Horowitz and Sahni, JACM 1974).  With rho and the
    weights as integers over their LCD ``base`` (rho becomes ``top``), the
    subsets of each half of the weights that stay under ``top`` are
    enumerated apart, about 2^(r/2) each.  Write ``top - a = base*qa + ra``
    for a first-half sum a and ``b = base*qb + rb`` for a second-half sum b,
    with residues in [0, base).  The union of the two subsets has level
    floor((top - a - b) / base) = qa - qb - [rb > ra], and it fits under rho
    exactly when that is >= 0.  The second half is grouped by qb, with its
    residues ascending and the running signed count beside them, so each
    pair of a first-half group (one qa) and a second-half group (qb <= qa)
    costs one ``bisect`` per first-half sum.  That is O(2^(r/2) * levels)
    bisects in all.
    """
    rho = instance.rho
    base = lcm(rho.denominator, *(w.denominator for w in instance.weights))
    top = rho.numerator * (base // rho.denominator)
    steps = [w.numerator * (base // w.denominator) for w in instance.weights]

    # qa -> the residues ra of the first-half sums at that quotient, by parity.
    first: dict[int, tuple[list[int], list[int]]] = {}
    for parity, sums in enumerate(_fitting_sums(steps[0::2], top)):
        for a in sums:
            qa, ra = divmod(top - a, base)
            first.setdefault(qa, ([], []))[parity].append(ra)
    # qb -> (ascending residues rb, signed count of the first j of them at j).
    even, odd = _fitting_sums(steps[1::2], top)
    second: dict[int, tuple[list[int], list[int]]] = {}
    for b, sign in sorted([*zip(even, repeat(1)), *zip(odd, repeat(-1))]):
        qb, rb = divmod(b, base)
        residues, running = second.setdefault(qb, ([], [0]))
        residues.append(rb)
        running.append(running[-1] + sign)

    counts: defaultdict[int, int] = defaultdict(int)
    for qa, (ra_even, ra_odd) in first.items():
        net = len(ra_even) - len(ra_odd)
        for qb, (residues, running) in second.items():
            if qb > qa:
                continue
            # Signed count of the pairs with rb <= ra: they sit at level qa - qb.
            at = running.__getitem__
            low = (sum(map(at, map(bisect_right, repeat(residues), ra_even)))
                   - sum(map(at, map(bisect_right, repeat(residues), ra_odd))))
            counts[qa - qb] += low
            if qa > qb:  # the pairs with rb > ra sit one level lower
                counts[qa - qb - 1] += net * running[-1] - low
    return {level: count for level, count in counts.items() if count}


def _fitting_sums(steps: list[int], top: int) -> tuple[list[int], list[int]]:
    """The sums of the subsets of ``steps`` that stay <= top, split by the
    parity of the subset size: ``(even, odd)``.  The empty sum 0 is in
    ``even``.  A step extends only the sums it keeps under ``top``; a
    heavier sum has no fitting extension, as the steps are positive.  The
    steps come in ascending (canonical) order and are walked from the
    heaviest, which prunes while the lists are short; the sums are the same
    in any order."""
    even, odd = [0], []
    for step in reversed(steps):
        cap = top - step
        even, odd = (even + [s + step for s in odd if s <= cap],
                     odd + [s + step for s in even if s <= cap])
    return even, odd


def chi_c_strata(instance: ValidatedInstance, *, breakdown: bool = False) -> ChiResult:
    """Sum of chi_c over the disjoint stratification by singular support.

    Each subset I with rho - w_I >= 0 contributes one stratum family with
    level cap L = floor(rho - w_I); subsets with rho - w_I < 0 contribute no
    stratum at all.  The family of a fixed set of k singular points splits
    into locally closed levels by its count i of generic points, and
    additivity sums their chi_c values:

    * level 0 exists only for k >= 1 (an open (k-1)-simplex, chi_c = (-1)^{k-1});
    * level i >= 1 contributes (-1)^{k+1} * C(i - chi + r - 1, i).

    With H(L) = 1 + sum_{i=1..L} C(i - chi + r - 1, i) (see
    ``_family_values``), a family is worth H(L) for odd k, -H(L) for even
    k >= 2 and 1 - H(L) for the empty set.  So chi_c is 1 plus the sum, over
    levels, of (odd families - even families) * H(L): the fitting subsets
    are only tallied per level and parity.  The weights are walked heaviest
    first (``reversed`` canonical order): a room a heavy weight does not fit
    in is dropped before the light weights would double it, and the tally is
    the same in any order.  Agrees with ``chi_c_direct`` on every instance.
    With ``breakdown`` the result lists each contributing subset's value, in
    binary-counter order.
    """
    chi, r, rho = instance.chi_c, instance.r, instance.rho
    base = lcm(rho.denominator, *(w.denominator for w in instance.weights))
    top = rho.numerator * (base // rho.denominator)
    # (rho - w_I) * base for the fitting subsets I, |I| even / odd.
    even, odd = [top], []
    for w in reversed(instance.weights):
        step = w.numerator * (base // w.denominator)
        even, odd = (even + [room - step for room in odd if room >= step],
                     odd + [room - step for room in even if room >= step])
    odd_at = Counter(map(floordiv, odd, repeat(base)))  # level -> families
    even_at = Counter(map(floordiv, even, repeat(base)))
    value = _family_values(r - chi, odd_at.keys() | even_at.keys())
    acc = (1 + sum(count * value[level] for level, count in odd_at.items())
           - sum(count * value[level] for level, count in even_at.items()))
    rows = ()
    if breakdown:
        rows = []
        for members, level in zip(subset_members(r), subset_levels(instance)):
            if level >= 0:
                h = value[level]
                rows.append((members, h if len(members) % 2 else -h if members else 1 - h))
        rows = tuple(rows)
    return ChiResult(acc, rows)


def _family_values(m: int, levels: Iterable[int]) -> dict[int, int]:
    """H(L) = 1 + sum_{i=1..L} C(m + i - 1, i) for each L in ``levels``.

    One running sum serves every level: each term is the one before times
    (m + i - 1) / i, exactly.  When m <= 0 the terms end at i = 1 - m
    (C(m + i - 1, i) is then the polynomial (1 - x)^(-m)), and H stays put.
    """
    values = {}
    term = total = 1
    i = 0
    for level in sorted(levels):
        while i < level and term:
            i += 1
            term = term * (m + i - 1) // i
            total += term
        values[level] = total
    return values


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
            components.append(ComponentSpec(c.chi_c - lost, c.is_compact and not lost, frozenset(
                new_index[i] for i in c.singular_indices if i in new_index)))
        components = tuple(components)
    lost = instance.r - len(keep) if leaves_space else 0
    return validate(ProblemInstance(instance.chi_c - lost,
                                    tuple([instance.weights[i - 1] for i in keep]),
                                    instance.rho, instance.space_kind, components))


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
    if kind is SpaceKind.UNION_OF_BASIC:
        return all(c.is_compact for c in instance.components)
    return False
