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

Each sums N(L) times a level value over the levels L, with N(L) the signed
count sum (-1)^|I| of the subsets I at level floor(rho - w_I) = L.  Direct
counts N(L) by meet in the middle and takes ``math.comb``; strata tallies
the fitting subsets whole and takes one running sum.  They share no
enumerator, so their agreement checks the enumeration as well as the
formulas.  Both walk the weights heaviest first, against the ascending
canonical order: no superset of a subset heavier than rho fits, so the heavy
weights cut the fitting sums while they are few, and the tallies do not
depend on the order.  Both return a ``ChiResult`` carrying the
Leray-Schauder degree ``d_rho = 1 - chi_c`` and, when asked for, a term
breakdown for reporting.  Only the breakdown rows come from shared tables,
both in binary-counter (mask) order: the levels floor(rho - w_I) of
``subset_levels`` and the ascending index tuples of ``subset_members``.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict, namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import floordiv, mul

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
    weights, and rho enter.  By level, chi_c = 1 - sum_L N(L) * C(L - chi_c(X) + r, L),
    with N(L) the signed count of the subsets at level L = floor(rho - w_I)
    (see ``_signed_level_counts``), so ``ext_binomial`` runs once per level
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
    weights as integers over their LCD ``base`` (rho becomes ``top``), each
    half of the weights gets a table of its distinct sums under ``top`` and
    their signed counts.  Write ``top - a = base*qa + ra`` for a first-half
    sum a and ``b = base*qb + rb`` for a second-half sum b, with residues in
    [0, base).  The union of the two subsets has level
    floor((top - a - b) / base) = qa - qb - [rb > ra], and it fits under rho
    exactly when that is >= 0.  The second half is grouped by qb, with its
    residues ascending and the running signed count beside them, so each
    pair of a first-half group (one qa) and a second-half group (qb <= qa)
    costs one ``bisect`` per distinct first-half sum, times its count:
    O(2^(r/2) * levels) bisects in all.
    """
    rho = instance.rho
    base = lcm(rho.denominator, *(w.denominator for w in instance.weights))
    top = rho.numerator * (base // rho.denominator)
    steps = [w.numerator * (base // w.denominator) for w in instance.weights]

    # qa -> {residue ra of a first-half sum at that quotient: its signed count}.
    first: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for a, count in _fitting_sums(steps[0::2], top).items():
        qa, ra = divmod(top - a, base)
        first[qa][ra] = count
    # qb -> (ascending residues rb, signed count of the first j of them at j).
    second: dict[int, tuple[list[int], list[int]]] = {}
    for b, count in sorted(_fitting_sums(steps[1::2], top).items()):
        qb, rb = divmod(b, base)
        residues, running = second.setdefault(qb, ([], [0]))
        residues.append(rb)
        running.append(running[-1] + count)

    counts: defaultdict[int, int] = defaultdict(int)
    for qa, at_qa in first.items():
        net = sum(at_qa.values())
        for qb, (residues, running) in second.items():
            if qb > qa:
                continue
            # Signed count of the pairs with rb <= ra: they sit at level qa - qb.
            low = sum(map(mul, at_qa.values(),
                          map(running.__getitem__, map(bisect_right, repeat(residues), at_qa))))
            counts[qa - qb] += low
            if qa > qb:  # the pairs with rb > ra sit one level lower
                counts[qa - qb - 1] += net * running[-1] - low
    return {level: count for level, count in counts.items() if count}


def _fitting_sums(steps: list[int], top: int) -> dict[int, int]:
    """``sum -> sum of (-1)^|I|`` over the subsets I of ``steps`` with a sum
    <= top, zeros dropped; equal sums share one entry.  A step extends only
    the sums it keeps under ``top`` (the steps are positive, so a heavier
    sum has no fitting extension), and the heaviest step comes first, which
    prunes while the table is short; the table is the same in any order."""
    table = {0: 1}
    for step in reversed(steps):
        cap = top - step
        grown = table.copy()
        for s, n in table.items():
            if s <= cap:
                grown[s + step] = grown.get(s + step, 0) - n
        table = grown
    return {s: n for s, n in table.items() if n}


def _room_level_counts(instance: ValidatedInstance) -> Counter[int]:
    """N(L) for each level L >= 0 that holds a fitting subset, 0 where they
    cancel: the rooms (rho - w_I) * base of the fitting subsets I, tallied
    per level, the even less the odd.  The subsets without the lightest
    weight are built whole by the parity of |I|, heaviest weight first; the
    lightest weight's extensions, the largest share, are tallied as they are
    made and never stored, odd's adding to the counts and even's
    subtracting."""
    rho = instance.rho
    base = lcm(rho.denominator, *(w.denominator for w in instance.weights))
    steps = [w.numerator * (base // w.denominator) for w in instance.weights]
    even, odd = [rho.numerator * (base // rho.denominator)], []
    for step in reversed(steps[1:]):
        even, odd = (even + [room - step for room in odd if room >= step],
                     odd + [room - step for room in even if room >= step])
    counts = Counter(map(floordiv, even, repeat(base)))
    counts.subtract(Counter(map(floordiv, odd, repeat(base))))
    if steps:
        step = steps[0]
        counts.update((room - step) // base for room in odd if room >= step)
        counts.subtract(Counter((room - step) // base for room in even if room >= step))
    return counts


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
    k >= 2 and 1 - H(L) for the empty set.  So chi_c = 1 - sum_L N(L) * H(L),
    with N(L) from ``_room_level_counts``.  Agrees with ``chi_c_direct`` on
    every instance.  With ``breakdown`` the result lists each contributing
    subset's value, in binary-counter order.
    """
    chi, r = instance.chi_c, instance.r
    counts = _room_level_counts(instance)
    value = _family_values(r - chi, counts)
    acc = 1 - sum(count * value[level] for level, count in counts.items())
    rows = ()
    if breakdown:  # a subset past rho has a negative level, which has no value
        values = map(value.get, subset_levels(instance))
        rows = tuple((members, h if len(members) % 2 else -h if members else 1 - h)
                     for members, h in zip(subset_members(r), values) if h is not None)
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
