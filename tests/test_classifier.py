import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barychi.classifier import (
    CIRCLE,
    CONTRACTIBLE,
    ConicPiece,
    Descriptor,
    bary,
    classify,
    colimit_pieces,
    maximal_pieces,
    piece_includes,
    susp,
    union,
    wedge,
)
from barychi.combinatorics import ext_binomial
from barychi.engine import chi_c_direct
from barychi.errors import OutOfScope, TooManySingularPoints, WeightOutOfRange
from barychi.model import ComponentSpec, ProblemInstance, SpaceKind, validate
from barychi.selftest import chi_disjoint_union_decomposition

F = Fraction


def make(chi_c, weights, rho, kind=SpaceKind.COMPACT, components=None):
    return validate(ProblemInstance(chi_c, tuple(F(w) for w in weights), F(rho), kind, components))


# Where the two singular points sit: (indices on A1, indices on A2).
ONE_EACH = ({1}, {2})
BOTH_IN_FIRST = ({1, 2}, set())
BOTH_IN_SECOND = (set(), {1, 2})
PLACEMENTS = (ONE_EACH, BOTH_IN_FIRST, BOTH_IN_SECOND)


def two_component(chi_1, chi_2, weights, rho, placement):
    first, second = placement
    components = (
        ComponentSpec(chi_1, True, frozenset(first)),
        ComponentSpec(chi_2, True, frozenset(second)),
    )
    return make(chi_1 + chi_2, weights, rho, SpaceKind.UNION_OF_BASIC, components)


class TestColimitPieces:
    def test_worked_decomposition_pieces(self):
        pieces = set(colimit_pieces(make(2, ["3/10", "2/5", "3/5"], "9/2")))
        assert ConicPiece(4, frozenset({1})) in pieces
        assert ConicPiece(4, frozenset({2})) in pieces
        assert ConicPiece(3, frozenset({1, 2, 3})) in pieces
        assert len(pieces) == 8

    def test_no_singular_points(self):
        assert colimit_pieces(make(1, [], "7/2")) == (ConicPiece(3, frozenset()),)

    def test_half_weight(self):
        pieces = colimit_pieces(make(2, ["1/2"], 1))
        assert set(pieces) == {ConicPiece(1, frozenset()), ConicPiece(0, frozenset({1}))}

    def test_weight_one_rejected(self):
        with pytest.raises(WeightOutOfRange):
            colimit_pieces(make(2, [1], 2))


class TestPieceIncludes:
    def test_reflexive(self):
        p = ConicPiece(3, frozenset({1, 2, 3}))
        assert piece_includes(p, p)

    def test_marked_point_rides_along(self):
        assert piece_includes(ConicPiece(0, frozenset({1})), ConicPiece(1, frozenset()))
        assert piece_includes(ConicPiece(2, frozenset({1})), ConicPiece(3, frozenset({2})))

    def test_too_many_extra_points(self):
        assert not piece_includes(
            ConicPiece(3, frozenset({1, 2, 3})), ConicPiece(4, frozenset({1}))
        )

    def test_transitive_on_generated_pieces(self):
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(0, 4)
            weights = tuple(F(rng.randint(1, 9), 10) for _ in range(r))
            rho = F(rng.randint(1, 40), 8)
            pieces = colimit_pieces(make(0, weights, rho))
            for a, b, c in itertools.product(pieces, repeat=3):
                if piece_includes(a, b) and piece_includes(b, c):
                    assert piece_includes(a, c)


@st.composite
def conic_instances(draw):
    """r <= 9 weights in (0, 1), mostly on one small denominator so that
    subset sums collide, and rho = w_J + n for a drawn J and n in 0..3, so
    levels sit on ties."""
    den = draw(st.sampled_from([2, 3, 4, 5, 6, 12]))
    weight = st.one_of(st.integers(1, den - 1).map(lambda k: F(k, den)),
                       st.fractions(F(1, 20), F(19, 20), max_denominator=20))
    weights = draw(st.lists(weight, max_size=9))
    chosen = [w for w in weights if draw(st.booleans())]
    rho = sum(chosen, F(draw(st.integers(0, 3))))
    return make(draw(st.integers(-3, 3)), weights, rho if rho > 0 else F(1, den))


def pairwise_maximal(inst):
    """The definition: the pieces that no other piece includes."""
    pieces = colimit_pieces(inst)
    return tuple(p for p in pieces if not any(q != p and piece_includes(p, q) for q in pieces))


class TestMaximalPieces:
    @settings(max_examples=150, deadline=None)
    @given(conic_instances())
    def test_neighbour_rule_matches_pairwise_definition(self, inst):
        assert maximal_pieces(inst) == pairwise_maximal(inst)

    def test_weight_one_rejected(self):
        with pytest.raises(WeightOutOfRange):
            maximal_pieces(make(2, ["1/2", 1], 2))

    def test_worked_decomposition(self):
        got = set(maximal_pieces(make(2, ["3/10", "2/5", "3/5"], "9/2")))
        assert got == {
            ConicPiece(4, frozenset({1})),
            ConicPiece(4, frozenset({2})),
            ConicPiece(3, frozenset({1, 2, 3})),
        }

    def test_no_singular_points(self):
        assert maximal_pieces(make(1, [], "7/2")) == (ConicPiece(3, frozenset()),)

    def test_half_weight_collapses(self):
        assert set(maximal_pieces(make(2, ["1/2"], 1))) == {ConicPiece(1, frozenset())}

    def test_soundness(self):
        rng = random.Random(11)
        for _ in range(50):
            r = rng.randint(0, 4)
            weights = tuple(F(rng.randint(1, 9), 10) for _ in range(r))
            rho = F(rng.randint(1, 40), 8)
            inst = make(0, weights, rho)
            pieces = colimit_pieces(inst)
            maximal = set(maximal_pieces(inst))
            for p in pieces:
                assert any(piece_includes(p, q) for q in maximal)
            for p, q in itertools.combinations(maximal, 2):
                assert not piece_includes(p, q)
                assert not piece_includes(q, p)


class TestConicCap:
    @pytest.mark.parametrize("r", [21, 22])
    @pytest.mark.parametrize("decompose", [colimit_pieces, maximal_pieces])
    def test_refused_before_any_level_is_built(self, decompose, r):
        inst = make(0, [F(k, 2 * k + 1) for k in range(1, r + 1)], r)
        start = time.perf_counter()
        with pytest.raises(TooManySingularPoints, match=f"r = {r} exceeds its cap 20"):
            decompose(inst)
        assert time.perf_counter() - start < 1


class TestLongWeightsAreCut:
    """A refused weight is echoed cut: one of 4,001 digits by its start, one
    of 5,001, past the int-to-str limit, by its type's name.  Whole, the first
    made a line of 4,000 characters and the second raised a bare ValueError."""

    @pytest.mark.parametrize("digits", [4000, 5000])
    @pytest.mark.parametrize("weights,refuse,error", [
        ([], classify, OutOfScope),
        ([F(1, 2)], classify, OutOfScope),
        ([F(1, 2)], maximal_pieces, WeightOutOfRange),
    ], ids=["r1-table", "r2-table", "conic"])
    def test_refused_with_a_short_message(self, digits, weights, refuse, error):
        with pytest.raises(error) as info:
            refuse(make(1, [*weights, F(10**digits)], 1))
        assert len(str(info.value)) < 200


@st.composite
def case_table_instances(draw, min_r=0):
    """(chi_c, weights, rho) with min_r <= r <= 2, weights in (0, 1] with
    denominators <= 20, and mostly rho = w_J + n for a subset J and an
    integer n: the fractional part of rho lands on the table's edges w1, w2,
    w1 + w2 and w1 + w2 - 1."""
    weight = st.fractions(F(1, 20), 1, max_denominator=20)
    weights = draw(st.lists(weight, min_size=min_r, max_size=2))
    tie = sum((w for w in weights if draw(st.booleans())), F(0))
    rho = draw(st.one_of(st.just(tie), weight)) + draw(st.integers(-1, 4))
    if rho <= 0:
        rho += 2
    return draw(st.integers(-5, 5)), weights, rho


class TestClassifyAgreesOnEveryEdge:
    """Each descriptor chi rule, on every branch of both case tables, against
    the direct route, with ties between eps and the weights."""

    @settings(max_examples=300, deadline=None)
    @given(case_table_instances())
    def test_connected(self, case):
        inst = make(*case)
        assert classify(inst).chi_value == chi_c_direct(inst).chi_c_value

    @settings(max_examples=300, deadline=None)
    @given(case_table_instances(min_r=2), st.integers(-5, 5), st.sampled_from(PLACEMENTS))
    def test_two_components(self, case, chi_1, placement):
        chi, weights, rho = case
        inst = two_component(chi_1, chi - chi_1, weights, rho, placement)
        assert classify(inst).chi_value == chi_c_direct(inst).chi_c_value


class TestClassifyR0:
    def test_no_singular_points(self):
        assert classify(make(0, [], 3)) == bary(3, Descriptor("X", 0))
        assert classify(make(2, [], "7/2")) == bary(3, Descriptor("X", 2))


class TestClassifyR1:
    def test_heavy_point_keeps_the_space(self):
        desc = classify(make(3, ["7/10"], "5/2"))
        assert desc == bary(2, Descriptor("X", 3))

    def test_light_point_cones_off(self):
        assert classify(make(2, ["3/10"], "5/2")) == CONTRACTIBLE

    def test_unit_weight(self):
        # weight exactly 1 is a generic point: B_1(X) is X itself
        assert classify(make(4, [1], 1)) == bary(1, Descriptor("X", 4))

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            classify(make(2, ["3/2"], 2))
        with pytest.raises(OutOfScope, match="r = 3"):
            classify(make(2, ["1/2", "1/2", "1/2"], 2))

    def test_engine_consistency_sweep(self):
        for chi in range(-5, 6):
            for tenths in range(1, 11):
                for quarters in range(1, 25):
                    inst = make(chi, [F(tenths, 10)], F(quarters, 4))
                    assert classify(inst).chi_value == chi_c_direct(inst).chi_c_value


class TestClassifyR2Connected:
    def test_both_light_suspension(self):
        desc = classify(make(3, ["3/10", "2/5"], "5/2"))
        assert desc == susp(bary(2, wedge(Descriptor("X", 3), CIRCLE)))
        assert desc.text == "susp(B_2(X v S1))"

    def test_both_heavy_wedge(self):
        desc = classify(make(3, ["3/5", "7/10"], "5/2"))
        assert desc == bary(2, wedge(Descriptor("X", 3), CIRCLE))

    def test_very_heavy_pair(self):
        desc = classify(make(3, ["4/5", "9/10"], "5/2"))
        assert desc == bary(2, Descriptor("X", 3))

    def test_tiny_pair_contractible(self):
        assert classify(make(0, ["1/10", "1/10"], "5/2")) == CONTRACTIBLE

    def test_split_pair_contractible(self):
        assert classify(make(0, ["2/5", "4/5"], "5/2")) == CONTRACTIBLE

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            classify(make(2, ["1/2", "3/2"], 2))

    def test_engine_consistency_sweep(self):
        tenths = [F(k, 10) for k in range(1, 11)]
        for chi in range(-5, 6):
            for i, w1 in enumerate(tenths):
                for w2 in tenths[i:]:
                    for quarters in range(1, 25):
                        inst = make(chi, [w1, w2], F(quarters, 4))
                        got = classify(inst).chi_value
                        assert got == chi_c_direct(inst).chi_c_value, (chi, w1, w2, quarters)


class TestClassifyR2TwoComponents:
    def test_one_each_suspension(self):
        desc = classify(two_component(2, 1, ["3/10", "2/5"], "5/2", ONE_EACH))
        assert desc == susp(bary(2, wedge(Descriptor("A1", 2), Descriptor("A2", 1))))
        assert desc.text == "susp(B_2(A1 v A2))"

    def test_both_first_suspension(self):
        desc = classify(two_component(2, 1, ["3/10", "2/5"], "5/2", BOTH_IN_FIRST))
        assert desc == susp(
            bary(2, union(wedge(Descriptor("A1", 2), CIRCLE), Descriptor("A2", 1)))
        )
        assert desc.text == "susp(B_2(A1 v S1 | A2))"

    def test_both_second_suspension(self):
        desc = classify(two_component(2, 1, ["3/10", "2/5"], "5/2", BOTH_IN_SECOND))
        assert desc == susp(
            bary(2, union(Descriptor("A1", 2), wedge(Descriptor("A2", 1), CIRCLE)))
        )
        assert desc.text == "susp(B_2(A1 | A2 v S1))"

    def test_very_heavy_pair_ignores_placement(self):
        for placement in PLACEMENTS:
            desc = classify(two_component(2, 1, ["4/5", "9/10"], "5/2", placement))
            assert desc == bary(2, union(Descriptor("A1", 2), Descriptor("A2", 1)))

    def test_contractible_cases(self):
        inst = two_component(1, 1, ["1/10", "1/10"], "5/2", ONE_EACH)
        assert classify(inst) == CONTRACTIBLE
        inst = two_component(1, 1, ["2/5", "4/5"], "5/2", BOTH_IN_FIRST)
        assert classify(inst) == CONTRACTIBLE

    def test_requires_components(self):
        one = (ComponentSpec(2, True, frozenset({1, 2})),)
        three = (*one, ComponentSpec(0, True, frozenset()), ComponentSpec(0, False, frozenset()))
        for components in (one, three):
            inst = make(2, ["1/2", "1/2"], 2, SpaceKind.UNION_OF_BASIC, components)
            with pytest.raises(OutOfScope, match="exactly two components"):
                classify(inst)

    def test_engine_consistency_and_placement_equality(self):
        tenths = [F(k, 10) for k in range(1, 11)]
        for chi_1 in range(-2, 4):
            for chi_2 in range(-2, 4):
                for i, w1 in enumerate(tenths):
                    for w2 in tenths[i:]:
                        instances = [two_component(chi_1, chi_2, [w1, w2], F(13, 4), p)
                                     for p in PLACEMENTS]
                        want = chi_c_direct(instances[0]).chi_c_value
                        assert [classify(inst).chi_value for inst in instances] == [want] * 3


class TestChiOfDescriptor:
    def test_contractible(self):
        assert CONTRACTIBLE.chi_value == 1

    def test_bary_of_wedge(self):
        desc = bary(2, wedge(Descriptor("X", 3), CIRCLE))
        assert desc.chi_value == 1 - ext_binomial(0, 2) == 1

    def test_suspension_composition(self):
        desc = susp(bary(2, wedge(Descriptor("X", 3), CIRCLE)))
        assert desc.chi_value == 1

    def test_empty_barycenter_space(self):
        assert bary(0, Descriptor("X", 5)).chi_value == 0

    def test_point_and_union(self):
        point = Descriptor("pt", 1)
        assert bary(1, union(point, point)).chi_value == \
            1 - ext_binomial(1 - 2, 1)

    def test_suspension(self):
        assert susp(Descriptor("X", 0)).chi_value == 2
        assert susp(Descriptor("S0", 2)).chi_value == 0

    def test_rendering(self):
        assert CONTRACTIBLE.text == "contractible"
        assert bary(3, Descriptor("X", 0)).text == "B_3(X)"
        assert susp(bary(1, wedge(Descriptor("A1", 1), CIRCLE))).text == \
            "susp(B_1(A1 v S1))"


class TestDisjointUnionDecomposition:
    def test_two_contractible_components(self):
        assert chi_disjoint_union_decomposition(1, 1, 2) == 1 - ext_binomial(0, 2) == 1

    def test_point_component_identity(self):
        # adding a lone point wedges on a suspension of the next space down
        for chi in range(-4, 5):
            bary2 = 1 - ext_binomial(2 - chi, 2)
            assert chi_disjoint_union_decomposition(chi, 1, 2) == bary2 + (2 - chi) - 1

    def test_k2_product_identity(self):
        for chi_1 in range(-4, 5):
            for chi_2 in range(-4, 5):
                b2a = 1 - ext_binomial(2 - chi_1, 2)
                b2b = 1 - ext_binomial(2 - chi_2, 2)
                expected = b2a + (2 - chi_1 * chi_2) + b2b - 2
                assert chi_disjoint_union_decomposition(chi_1, chi_2, 2) == expected

    def test_closed_form(self):
        for chi_1 in range(-6, 7):
            for chi_2 in range(-6, 7):
                for k in range(2, 11):
                    assert chi_disjoint_union_decomposition(chi_1, chi_2, k) == \
                        1 - ext_binomial(k - chi_1 - chi_2, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi_disjoint_union_decomposition(0, 0, 1)
