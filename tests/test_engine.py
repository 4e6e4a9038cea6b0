from fractions import Fraction
from math import floor

import pytest

from barychi.combinatorics import ext_binomial
from barychi.engine import (
    chi_c_direct,
    chi_c_strata,
    chi_join,
    chi_quotient_wedge,
    chi_suspension,
    normalize_drop_heavy,
    normalize_drop_unit_weights,
    topological_chi_applicable,
)
from barychi.errors import InconsistentComponents
from barychi.model import ComponentSpec, ProblemInstance, SpaceKind, validate

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
        res = chi_c_direct(make(-2, ["1/3", "3/5", "7/4"], "7/2"))
        assert res.chi_c_value == 1 - sum(v for _, v in res.term_breakdown)
        assert len(res.term_breakdown) == 8

    def test_degree_relation(self):
        res = chi_c_direct(make(4, ["2/3"], "5/2"))
        assert res.degree_d_rho == 1 - res.chi_c_value


class TestChiCStrata:
    def test_single_half_weight_contributions(self):
        res = chi_c_strata(make(2, ["1/2"], 1))
        by_set = dict(res.term_breakdown)
        assert by_set[frozenset()] == 1
        assert by_set[frozenset({1})] == 1
        assert res.chi_c_value == 2

    def test_no_singular_points_telescopes(self):
        for chi in range(-5, 6):
            for n in range(1, 7):
                assert chi_c_strata(make(chi, [], n)).chi_c_value == 1 - ext_binomial(n - chi, n)

    def test_empty_space_has_no_strata(self):
        res = chi_c_strata(make(2, ["1/2", "3/4"], "1/4"))
        # only the empty subset qualifies, and floor(rho) = 0 means no levels
        assert res.chi_c_value == 0
        assert dict(res.term_breakdown)[frozenset()] == 0

    def test_contributions_match_closed_forms(self):
        inst = make(-1, ["1/3", "2/3", "5/4"], "10/3")
        chi, r = inst.chi_c, inst.r
        for index_set, value in chi_c_strata(inst).term_breakdown:
            n = floor(inst.rho - sum((inst.weights[i - 1] for i in index_set), F(0)))
            k = len(index_set)
            if k == 0:
                expected = 1 - ext_binomial(n - chi + r, n) if n >= 1 else 0
            else:
                expected = (-1) ** (k + 1) * ext_binomial(n - chi + r, n)
            assert value == expected, (index_set, value, expected)

    def test_agrees_with_direct(self, engine_corpus):
        for inst in engine_corpus[:200]:
            assert chi_c_strata(inst).chi_c_value == chi_c_direct(inst).chi_c_value


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

    def test_join_of_open_disks(self):
        # D^n * D^m is D^{n+m+1}; chi_c of an open n-disk is (-1)^n.
        for n in range(0, 5):
            for m in range(0, 5):
                got = chi_join(((-1) ** n, False), ((-1) ** m, False))
                assert got == (-1) ** (n + m + 1)

    def test_cone_is_contractible(self):
        for chi in (-3, 0, 2):
            assert chi_join((chi, True), (1, True)) == 1

    def test_join_with_s0_is_suspension(self):
        # S^0 is two compact points (chi = 2); joining is one suspension.
        for chi in range(-4, 5):
            for compact in (True, False):
                assert chi_join((chi, compact), (2, True)) == chi_suspension(chi, 1)

    def test_suspension(self):
        assert chi_suspension(5, 0) == 5
        assert chi_suspension(0, 1) == 2
        for chi in range(-4, 5):
            assert chi_suspension(chi, 2) == chi
            assert chi_suspension(chi, 3) == 2 - chi


class TestChiQuotientWedge:
    def test_single_compact_component(self):
        for chi in (-2, 0, 3):
            for r in (1, 2, 4):
                comp = (ComponentSpec(chi, True, frozenset(range(1, r + 1))),)
                assert chi_quotient_wedge(comp) == chi - (r - 1)

    def test_single_noncompact_component(self):
        for chi in (-2, 0, 3):
            for r in (1, 3):
                comp = (ComponentSpec(chi, False, frozenset(range(1, r + 1))),)
                assert chi_quotient_wedge(comp) == (chi + 1) - r

    def test_two_compact_components(self):
        comp = (
            ComponentSpec(2, True, frozenset({1})),
            ComponentSpec(-1, True, frozenset({2})),
        )
        assert chi_quotient_wedge(comp) == 2 + (-1) - 2 + 1

    def test_mixed_components_and_spectators(self):
        comp = (
            ComponentSpec(1, False, frozenset({1, 2})),
            ComponentSpec(3, True, frozenset({3})),
            ComponentSpec(-2, True, frozenset()),
        )
        assert chi_quotient_wedge(comp) == (1 + 3 - 2) - 3 + 1

    def test_no_singular_points(self):
        comp = (ComponentSpec(2, True, frozenset()), ComponentSpec(1, True, frozenset()))
        assert chi_quotient_wedge(comp) == 3 + 1

    def test_overlapping_indices_rejected(self):
        comp = (
            ComponentSpec(1, True, frozenset({1})),
            ComponentSpec(1, True, frozenset({1})),
        )
        with pytest.raises(InconsistentComponents):
            chi_quotient_wedge(comp)


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
