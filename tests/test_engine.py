from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, floor, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barychi.combinatorics import ext_binomial
from barychi.engine import (
    ChiResult,
    _fitting_sums,
    _room_level_counts,
    _signed_level_counts,
    chi_c_direct,
    chi_c_strata,
    normalize_drop_heavy,
    normalize_drop_unit_weights,
    topological_chi_applicable,
)
from barychi.model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    enumerate_subset_weights,
    subset_levels,
    validate,
)
from barychi.series import chi_c_series

F = Fraction


def make(chi_c, weights, rho, kind=SpaceKind.COMPACT, components=None):
    return validate(ProblemInstance(chi_c, tuple(F(w) for w in weights), F(rho), kind, components))


class TestChiCDirect:
    def test_single_half_weight(self):
        # Oracle-checked: two points, one of weight 1/2, rho 1 -> two 0-cells.
        assert chi_c_direct(make(2, ["1/2"], 1)).chi_c_value == 2

    def test_two_half_weights(self):
        # Oracle-checked: three points, faces {p1},{p2},{q},{p1 p2}.
        assert chi_c_direct(make(3, ["1/2", "1/2"], 1)).chi_c_value == 2

    @pytest.mark.parametrize("chi", [-3, 0, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_singular_points(self, chi, k):
        assert chi_c_direct(make(chi, [], k)).chi_c_value == 1 - ext_binomial(k - chi, k)

    def test_empty_space(self):
        # rho below every weight and below 1: nothing fits, chi_c = 0.
        for chi in (-4, 1, 3):
            assert chi_c_direct(make(chi, ["1/2", "3/4"], "1/4")).chi_c_value == 0

    def test_breakdown_recombines(self):
        res = chi_c_direct(make(-2, ["1/3", "3/5", "7/4"], "7/2"), breakdown=True)
        assert res.chi_c_value == 1 - sum(v for _, v in res.term_breakdown)
        assert len(res.term_breakdown) == 8

    def test_degree_relation(self):
        res = chi_c_direct(make(4, ["2/3"], "5/2"))
        assert res.degree_d_rho == 1 - res.chi_c_value


@st.composite
def lightest_closes_at_rho(draw):
    """r = 1..8 weights drawn with repeats from a few, and rho = w_1 + w_J + n
    for the lightest weight w_1, a drawn set J of the others and n in 0..2:
    at n = 0 the subset J + {1} weighs exactly rho, so the room it leaves
    for the lightest weight is exactly that weight."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    weight = st.one_of(st.integers(1, 3 * den).map(lambda n: F(n, den)),
                       st.fractions(F(1, 12), F(3), max_denominator=12))
    pool = draw(st.lists(weight, min_size=1, max_size=3))
    weights = sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
    closing = [w for w in weights[1:] if draw(st.booleans())]
    rho = sum(closing, weights[0] + draw(st.integers(0, 2)))
    return make(draw(st.integers(-5, 5)), weights, rho)


class TestChiCStrata:
    def test_single_half_weight_contributions(self):
        res = chi_c_strata(make(2, ["1/2"], 1), breakdown=True)
        by_set = dict(res.term_breakdown)
        assert by_set[()] == 1
        assert by_set[(1,)] == 1
        assert res.chi_c_value == 2

    def test_no_singular_points_telescopes(self):
        for chi in range(-5, 6):
            for n in range(1, 7):
                assert chi_c_strata(make(chi, [], n)).chi_c_value == 1 - ext_binomial(n - chi, n)

    def test_empty_space_has_no_strata(self):
        res = chi_c_strata(make(2, ["1/2", "3/4"], "1/4"), breakdown=True)
        # only the empty subset qualifies, and floor(rho) = 0 means no levels
        assert res.chi_c_value == 0
        assert dict(res.term_breakdown)[()] == 0

    def test_contributions_match_closed_forms(self):
        inst = make(-1, ["1/3", "2/3", "5/4"], "10/3")
        chi, r = inst.chi_c, inst.r
        rows = chi_c_strata(inst, breakdown=True).term_breakdown
        fitting = [s for s, total in enumerate_subset_weights(inst) if inst.rho - total >= 0]
        assert len(rows) == len(fitting)
        for index_set, value in rows:
            n = floor(inst.rho - sum((inst.weights[i - 1] for i in index_set), F(0)))
            k = len(index_set)
            if k == 0:
                expected = 1 - ext_binomial(n - chi + r, n) if n >= 1 else 0
            else:
                expected = (-1) ** (k + 1) * ext_binomial(n - chi + r, n)
            assert value == expected, (index_set, value, expected)

    def test_agrees_with_direct(self, engine_corpus):
        corpus = engine_corpus[:200]
        # A subset whose weights sum exactly to rho, the tie the prune
        # sites' >= keeps: without one the agreement cannot tell >= from >.
        assert any(index_set and total == inst.rho
                   for inst in corpus for index_set, total in enumerate_subset_weights(inst))
        for inst in corpus:
            assert chi_c_strata(inst).chi_c_value == chi_c_direct(inst).chi_c_value

    def test_a_pair_whose_weights_sum_to_rho_is_counted(self):
        # w_1 + w_2 = rho: the pair's room is 0, and its family is the open
        # 1-simplex at level 0, worth -1.
        inst = make(0, ["1/2", "3/2"], 2)
        assert chi_c_strata(inst).chi_c_value == chi_c_direct(inst).chi_c_value == -2

    @settings(max_examples=200, deadline=None)
    @given(lightest_closes_at_rho())
    @example(make(2, ["1/2"], "1/2"))
    @example(make(0, ["1/2", "1/2", "3/2"], 2))
    @example(make(1, ["1/2", "1/2", "1/2"], "3/2"))
    def test_the_lightest_weight_is_tallied_at_rho(self, inst):
        # Strata tallies the lightest weight's extensions without storing
        # them; a subset it closes exactly at rho sits at level 0.
        assert chi_c_strata(inst).chi_c_value == chi_c_direct(inst).chi_c_value
        assert nonzero(_room_level_counts(inst)) == tally_levels(inst)

    def test_a_pair_of_the_heavier_weights_summing_to_rho_is_counted(self):
        # 3/2 + 1/2 = rho with the lightest weight, a second 1/2, left out:
        # the pair is built whole before the lightest weight is tallied.
        inst = make(0, ["1/2", "1/2", "3/2"], 2)
        assert chi_c_strata(inst).chi_c_value == chi_c_direct(inst).chi_c_value == -6

    def test_breakdown_lists_a_level_whose_signed_count_is_zero(self):
        # Three half weights at rho 1: the three singles and the three pairs
        # all sit at level 0, so N(0) = 0, and each is still a stratum family.
        rows = dict(chi_c_strata(make(2, ["1/2"] * 3, 1), breakdown=True).term_breakdown)
        assert sorted(rows) == [(), (1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]
        assert [rows[(i,)] for i in (1, 2, 3)] == [1, 1, 1]
        assert [rows[pair] for pair in ((1, 2), (1, 3), (2, 3))] == [-1, -1, -1]


@st.composite
def tie_heavy_instances(draw, max_r=10):
    """r <= max_r weights with denominators <= 20 and rho = w_J + n for a
    drawn nonempty J and n in 0..3, so floor(rho - w_I) sits on a tie for
    I = J and for every I with the same weight sum."""
    weights = draw(st.lists(st.fractions(F(1, 20), F(2), max_denominator=20),
                            min_size=1, max_size=max_r))
    chosen = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights))
                  .filter(any))
    rho = sum((w for w, c in zip(weights, chosen) if c), F(0)) + draw(st.integers(0, 3))
    return make(draw(st.integers(-5, 5)), weights, rho)


def reference_rows(inst):
    """Direct and strata rows from enumerate_subset_weights and Fraction
    floors, keyed by sorted index tuples; strata values by the closed forms
    of each stratum family."""
    chi, r = inst.chi_c, inst.r
    direct, strata = [], []
    for index_set, total in enumerate_subset_weights(inst):
        key = tuple(sorted(index_set))
        level = floor(inst.rho - total)
        if level < 0:
            direct.append((key, 0))
            continue
        binomial = ext_binomial(level - chi + r, level)
        parity = -1 if len(index_set) % 2 else 1
        direct.append((key, parity * binomial))
        strata.append((key, -parity * binomial if index_set else 1 - binomial))
    return tuple(direct), tuple(strata)


class TestBreakdown:
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_instances())
    def test_rows_match_fraction_reference(self, inst):
        direct, strata = reference_rows(inst)
        got_direct = chi_c_direct(inst, breakdown=True)
        got_strata = chi_c_strata(inst, breakdown=True)
        assert got_direct.term_breakdown == direct
        assert got_strata.term_breakdown == strata
        assert got_direct.chi_c_value == 1 - sum(v for _, v in direct)
        assert got_strata.chi_c_value == sum(v for _, v in strata)

    def test_default_is_empty(self):
        inst = make(-2, ["1/3", "3/5", "7/4"], "7/2")
        for route in (chi_c_direct, chi_c_strata, chi_c_series):
            plain, full = route(inst), route(inst, breakdown=True)
            assert plain.term_breakdown == ()
            assert full.term_breakdown
            assert plain == ChiResult(full.chi_c_value)

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_instances())
    def test_row_keys_are_ascending_int_tuples(self, inst):
        for route in (chi_c_direct, chi_c_strata):
            for key, _ in route(inst, breakdown=True).term_breakdown:
                assert type(key) is tuple
                assert all(type(i) is int and 1 <= i <= inst.r for i in key)
                assert list(key) == sorted(set(key))


@st.composite
def kernel_instances(draw):
    """r = 0..10 instances at the level kernels' edge cases.

    Most weights share a small denominator, so many subset sums share a
    residue mod the LCD; weights 1 and weights above rho are drawn too.
    rho is a drawn subset's weight plus 0..2 (ties w_J = rho), an integer,
    or free; chi_c(X) is small or very negative."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    weight = st.one_of(st.just(F(1)), st.integers(1, 4 * den).map(lambda n: F(n, den)),
                       st.fractions(F(1, 20), F(5), max_denominator=20))
    weights = draw(st.lists(weight, min_size=0, max_size=10))
    chosen = [w for w in weights if draw(st.booleans())]
    rho = draw(st.one_of(
        st.integers(0, 2).map(lambda n: sum(chosen, F(n))),
        st.integers(1, 8).map(F),
        st.integers(1, 8 * den).map(lambda n: F(n, den)),
    ))
    chi = draw(st.one_of(st.integers(-6, 6), st.integers(-10**6, -10**5)))
    return make(chi, weights, rho if rho > 0 else F(1, den))


def tally_levels(inst):
    """N(L) by a signed tally over the fitting subsets of subset_levels."""
    counts = Counter()
    for mask, level in enumerate(subset_levels(inst)):
        if level >= 0:
            counts[level] += -1 if mask.bit_count() % 2 else 1
    return nonzero(counts)


def nonzero(counts):
    """The levels of ``counts`` whose count is not 0, as a plain dict."""
    return {level: count for level, count in counts.items() if count}


def stratum_chi(chi, r, k, cap):
    """chi_c of the stratum family of a fixed set of k singular points with at
    most ``cap`` generic points, summed level by level: level 0 (k >= 1 only)
    is an open (k-1)-simplex, level i >= 1 is worth
    (-1)^{k+1} C(i - chi + r - 1, i)."""
    sign = 1 if k % 2 else -1
    total = sign if k >= 1 else 0
    for i in range(1, cap + 1):
        total += sign * ext_binomial(i - chi + r - 1, i)
    return total


@st.composite
def union_instances(draw):
    """A ``kernel_instances`` instance, and the same instance, unvalidated,
    as a union of two components: its weights in a drawn order, the points
    at positions 1..cut on the first component and the rest on the second,
    chi_c(X) split at a drawn value and compactness drawn."""
    inst = draw(kernel_instances())
    cut = draw(st.integers(0, inst.r))
    chi_a = draw(st.integers(-6, 6))
    components = (ComponentSpec(chi_a, draw(st.booleans()), tuple(range(1, cut + 1))),
                  ComponentSpec(inst.chi_c - chi_a, draw(st.booleans()),
                                list(range(cut + 1, inst.r + 1))))
    return inst, ProblemInstance(inst.chi_c, tuple(draw(st.permutations(inst.weights))),
                                 inst.rho, SpaceKind.UNION_OF_BASIC, components)


@st.composite
def tie_heavy_steps(draw):
    """Up to 10 steps, the weights of a few drawn values with denominators
    1..6 (repeats and equal subset sums are common) over their LCD, and a
    top below, at or above their total."""
    pool = draw(st.lists(st.fractions(F(1, 6), F(3), max_denominator=6), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(pool), max_size=10))
    base = lcm(*(w.denominator for w in weights))
    steps = [w.numerator * (base // w.denominator) for w in weights]
    total = sum(steps)
    top = draw(st.one_of(st.integers(0, total), st.just(total),
                         st.integers(total, total + 3 * base)))
    return steps, top


def signed_table(steps, top):
    """sum -> sum of (-1)^|I| over every subset I of ``steps`` with a sum
    <= top, one subset at a time, zeros dropped."""
    counts = Counter()
    for size in range(len(steps) + 1):
        for subset in combinations(steps, size):
            if sum(subset) <= top:
                counts[sum(subset)] += (-1) ** size
    return {total: count for total, count in counts.items() if count}


class TestRoutesAgree:
    """direct = strata = series on general instances: chi_c(X) down to
    -10^6, unit weights and weights above rho, integer rho and ties, and
    the same instances as two-component unions, which the routes must read
    through their totals alone."""

    ROUTES = (chi_c_direct, chi_c_strata, chi_c_series)

    @settings(max_examples=300, deadline=None)
    @given(kernel_instances())
    def test_on_kernel_instances(self, inst):
        assert len({route(inst).chi_c_value for route in self.ROUTES}) == 1

    @settings(max_examples=300, deadline=None)
    @given(union_instances())
    def test_on_two_component_unions(self, pair):
        inst, given = pair
        union = validate(given)
        # validate remaps each component's indices to the canonical order.
        for before, after in zip(given.components, union.components):
            assert (sorted(given.weights[i - 1] for i in before.singular_indices)
                    == sorted(union.weights[i - 1] for i in after.singular_indices))
        expected = chi_c_direct(inst).chi_c_value
        assert [route(union).chi_c_value for route in self.ROUTES] == [expected] * 3


class TestLevelKernels:
    """Each kernel against the per-subset code it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_instances())
    def test_meet_in_the_middle_counts_match_tally(self, inst):
        # Strata's room tally gives the same N(L), level by level.
        assert nonzero(_room_level_counts(inst)) == _signed_level_counts(inst) == tally_levels(inst)

    @settings(max_examples=200, deadline=None)
    @given(union_instances())
    def test_level_counts_match_tally_on_two_component_unions(self, pair):
        union = validate(pair[1])
        assert (nonzero(_room_level_counts(union)) == _signed_level_counts(union)
                == tally_levels(union))

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_steps())
    def test_fitting_sums_are_the_signed_table_per_subset(self, case):
        steps, top = case
        assert _fitting_sums(steps, top) == signed_table(steps, top)

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    def test_tallied_strata_match_per_subset_sum(self, inst):
        chi, r = inst.chi_c, inst.r
        memo = {}
        expected = 0
        for mask, level in enumerate(subset_levels(inst)):
            if level < 0:
                continue
            key = (mask.bit_count(), level)
            if key not in memo:
                memo[key] = stratum_chi(chi, r, *key)
            expected += memo[key]
        assert chi_c_strata(inst).chi_c_value == expected

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_all_subsets_at_one_level(self, r):
        # Unit weights under a large integer rho: every subset fits, and the
        # ones of size k sit at level rho - k.
        inst = make(-3, ["1"] * r, 9)
        expected = {9 - k: (-1) ** k * ext_binomial(r, k) for k in range(r + 1)}
        assert _signed_level_counts(inst) == nonzero(_room_level_counts(inst)) == expected

    def test_a_pair_past_rho_in_one_quotient_group_has_no_level(self):
        # Two half weights at rho 1/2: both halves' sums share the quotient 0,
        # and {1, 2} is heavier than rho, so it has no level, not level -1.
        assert _signed_level_counts(make(2, ["1/2", "1/2"], "1/2")) == {0: -1}


class TestNormalizations:
    def test_drop_heavy_example(self):
        inst = make(2, ["1/2", "3"], 1)
        reduced = normalize_drop_heavy(inst)
        assert reduced.chi_c == 1
        assert reduced.weights == (F(1, 2),)

    def test_drop_heavy_noop(self):
        inst = make(3, ["1/2", "3/4"], 1)
        assert normalize_drop_heavy(inst) is inst

    def test_drop_heavy_everything(self):
        inst = make(5, [2, 3, 4], 1)
        reduced = normalize_drop_heavy(inst)
        assert (reduced.chi_c, reduced.weights) == (2, ())
        assert chi_c_direct(reduced).chi_c_value == chi_c_direct(inst).chi_c_value

    def test_drop_heavy_updates_components(self):
        components = (
            ComponentSpec(2, True, frozenset({1, 2})),
            ComponentSpec(1, True, frozenset({3})),
        )
        inst = make(3, ["1/2", "3", "2/3"], 1, SpaceKind.UNION_OF_BASIC, components)
        reduced = normalize_drop_heavy(inst)
        assert reduced.chi_c == 2
        assert reduced.weights == (F(1, 2), F(2, 3))
        # the component that lost a point is punctured: chi drops, compactness lost
        punctured = [c for c in reduced.components if not c.is_compact]
        assert len(punctured) == 1 and punctured[0].chi_c == 1

    def test_drop_unit_weights(self):
        inst = make(2, [1, "1/2"], 2)
        reduced = normalize_drop_unit_weights(inst)
        assert reduced.chi_c == 2
        assert reduced.weights == (F(1, 2),)

    def test_drop_unit_weights_all(self):
        inst = make(-1, [1, 1, 1], "7/2")
        reduced = normalize_drop_unit_weights(inst)
        assert reduced.weights == ()
        assert chi_c_direct(reduced).chi_c_value == chi_c_direct(inst).chi_c_value

    def test_drop_unit_weights_noop(self):
        inst = make(0, ["1/2", "3/2"], 2)
        assert normalize_drop_unit_weights(inst) is inst

    def test_invariance_on_corpus(self, engine_corpus):
        for inst in engine_corpus[:200]:
            base = chi_c_direct(inst).chi_c_value
            assert chi_c_direct(normalize_drop_heavy(inst)).chi_c_value == base
            assert chi_c_direct(normalize_drop_unit_weights(inst)).chi_c_value == base


class TestTopologicalChiApplicable:
    def test_compact_small_weights(self):
        assert topological_chi_applicable(make(2, ["1/2", 1], 3))

    def test_even_interior(self):
        assert topological_chi_applicable(
            make(1, ["1/2"], 1, SpaceKind.INTERIOR_EVEN_DIM_MANIFOLD)
        )

    def test_heavy_weight_disqualifies(self):
        assert not topological_chi_applicable(make(2, ["3/2"], 2))

    def test_locally_closed_not_enough(self):
        assert not topological_chi_applicable(make(2, ["1/2"], 1, SpaceKind.LOCALLY_CLOSED_BASIC))

    def test_union_of_compact_components(self):
        components = (
            ComponentSpec(1, True, frozenset({1})),
            ComponentSpec(1, True, frozenset()),
        )
        inst = make(2, ["1/2"], 1, SpaceKind.UNION_OF_BASIC, components)
        assert topological_chi_applicable(inst)

    def test_union_with_noncompact_component(self):
        components = (
            ComponentSpec(1, True, frozenset({1})),
            ComponentSpec(1, False, frozenset()),
        )
        inst = make(2, ["1/2"], 1, SpaceKind.UNION_OF_BASIC, components)
        assert not topological_chi_applicable(inst)


class TestSmallCalculators:
    def test_complement(self):
        # X minus r points has chi_c(X) - r: dropping r too-heavy points
        # removes them from the space.
        for chi, heavy in ((2, 2), (7, 0), (-1, 3)):
            inst = make(chi, ["1/2"] + ["3"] * heavy, 2)
            assert normalize_drop_heavy(inst).chi_c == chi - heavy


class TestClosedFormFamilies:
    def test_single_point_case_split(self):
        # rho = n + eps; a weight in (eps, 1] knocks the level down by one,
        # a weight <= eps leaves a contractible cone.
        for chi in range(-5, 6):
            for n in range(1, 7):
                rho = F(n) + F(1, 2)
                heavy = make(chi, [F(7, 10)], rho)
                assert chi_c_direct(heavy).chi_c_value == 1 - ext_binomial(n - chi, n)
                light = make(chi, [F(3, 10)], rho)
                assert chi_c_direct(light).chi_c_value == 1

    def test_light_point_on_open_disk(self):
        # chi_c of an open disk is +1 or -1 by parity; either way the
        # bounded space with one light point at rho just above 1 gives 1.
        for chi in (1, -1):
            inst = make(chi, [F(1, 10)], F(11, 10), SpaceKind.LOCALLY_CLOSED_BASIC)
            assert chi_c_direct(inst).chi_c_value == 1

    def test_kind_never_changes_the_value(self):
        for kind in (SpaceKind.COMPACT, SpaceKind.LOCALLY_CLOSED_BASIC,
                     SpaceKind.INTERIOR_EVEN_DIM_MANIFOLD):
            inst = make(-3, ["2/5", "6/5"], "13/4", kind)
            assert chi_c_direct(inst).chi_c_value == chi_c_direct(
                make(-3, ["2/5", "6/5"], "13/4")
            ).chi_c_value

    def test_rho_constant_between_integers(self):
        for chi in range(-4, 5):
            values = {
                chi_c_direct(make(chi, [], F(3) + eps)).chi_c_value
                for eps in (F(0), F(1, 7), F(1, 2), F(9, 10))
            }
            assert len(values) == 1


class TestFormulaStructure:
    """How chi_c moves when chi_c(X) or rho moves, checked on each route.
    Every level contributes a binomial in chi = chi_c(X), so these catch
    errors all routes could share, such as a level off by one or a tie at
    w_I = rho read the wrong way."""

    ROUTES = [chi_c_direct, chi_c_strata, chi_c_series]

    @pytest.mark.parametrize("route", ROUTES, ids=["direct", "strata", "series"])
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_instances())
    def test_pascal_across_rho_and_chi(self, route, inst):
        # d_{rho+1}(chi) = d_rho(chi) + d_{rho+1}(chi + 1), from Pascal's rule
        # on each level's binomial; a subset that first fits at rho + 1 adds
        # 1 on both sides.
        def d(chi, rho):
            return 1 - route(make(chi, inst.weights, rho)).chi_c_value

        chi, rho = inst.chi_c, inst.rho
        assert d(chi, rho + 1) == d(chi, rho) + d(chi + 1, rho + 1)

    @pytest.mark.parametrize("route", ROUTES, ids=["direct", "strata", "series"])
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_instances())
    def test_polynomial_in_chi(self, route, inst):
        # chi_c is a polynomial in chi of degree at most L = floor(rho), the
        # top level.  Only the subsets I with w_I <= rho - L reach level L,
        # each with (-1)^|I| C(L - chi + r, L), whose leading term is
        # (-1)^L chi^L / L!; so the L-th difference is (-1)^(L+1) N(L).
        top = floor(inst.rho)
        values = [route(make(inst.chi_c + j, inst.weights, inst.rho)).chi_c_value
                  for j in range(top + 2)]

        def difference(order):
            return sum((-1) ** (order - j) * comb(order, j) * values[j] for j in range(order + 1))

        assert difference(top + 1) == 0
        if top >= 1:
            n_top = sum((-1) ** k for k in range(inst.r + 1)
                        for subset in combinations(inst.weights, k)
                        if sum(subset, F(0)) <= inst.rho - top)
            assert difference(top) == (-1) ** (top + 1) * n_top
