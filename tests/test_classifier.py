import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barychi.classifier import (
    Bary,
    Base,
    Circle,
    ConicPiece,
    Contractible,
    DisjointUnion,
    Placement,
    Point,
    Suspension,
    Wedge,
    chi_disjoint_union_decomposition,
    classify_r1,
    classify_r2_connected,
    classify_r2_two_components,
    colimit_pieces,
    maximal_pieces,
    piece_includes,
)
from barychi.combinatorics import ext_binomial
from barychi.engine import chi_c_direct
from barychi.errors import OutOfScope, WeightOutOfRange
from barychi.model import ComponentSpec, ProblemInstance, SpaceKind, validate

F = Fraction


def make(chi_c, weights, rho, kind=SpaceKind.COMPACT, components=None):
    return validate(ProblemInstance(chi_c, tuple(F(w) for w in weights), F(rho), kind, components))


def two_component(chi_1, chi_2, weights, rho):
    components = (
        ComponentSpec(chi_1, True, frozenset({1})),
        ComponentSpec(chi_2, True, frozenset({2})),
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


class TestClassifyR1:
    def test_heavy_point_keeps_the_space(self):
        desc = classify_r1(make(3, ["7/10"], "5/2"))
        assert desc == Bary(2, Base(3))

    def test_light_point_cones_off(self):
        assert classify_r1(make(2, ["3/10"], "5/2")) == Contractible()

    def test_unit_weight(self):
        # weight exactly 1 is a generic point: B_1(X) is X itself
        assert classify_r1(make(4, [1], 1)) == Bary(1, Base(4))

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            classify_r1(make(2, ["3/2"], 2))
        with pytest.raises(OutOfScope):
            classify_r1(make(2, ["1/2", "1/2"], 2))

    def test_engine_consistency_sweep(self):
        for chi in range(-5, 6):
            for tenths in range(1, 11):
                for quarters in range(1, 25):
                    inst = make(chi, [F(tenths, 10)], F(quarters, 4))
                    assert classify_r1(inst).chi() == chi_c_direct(inst).chi_c_value


class TestClassifyR2Connected:
    def test_both_light_suspension(self):
        desc = classify_r2_connected(make(3, ["3/10", "2/5"], "5/2"))
        assert desc == Suspension(Bary(2, Wedge((Base(3), Circle()))))
        assert desc.render() == "susp(B_2(X v S1))"

    def test_both_heavy_wedge(self):
        desc = classify_r2_connected(make(3, ["3/5", "7/10"], "5/2"))
        assert desc == Bary(2, Wedge((Base(3), Circle())))

    def test_very_heavy_pair(self):
        desc = classify_r2_connected(make(3, ["4/5", "9/10"], "5/2"))
        assert desc == Bary(2, Base(3))

    def test_tiny_pair_contractible(self):
        assert classify_r2_connected(make(0, ["1/10", "1/10"], "5/2")) == Contractible()

    def test_split_pair_contractible(self):
        assert classify_r2_connected(make(0, ["2/5", "4/5"], "5/2")) == Contractible()

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            classify_r2_connected(make(2, ["1/2", "3/2"], 2))

    def test_engine_consistency_sweep(self):
        tenths = [F(k, 10) for k in range(1, 11)]
        for chi in range(-5, 6):
            for i, w1 in enumerate(tenths):
                for w2 in tenths[i:]:
                    for quarters in range(1, 25):
                        inst = make(chi, [w1, w2], F(quarters, 4))
                        got = classify_r2_connected(inst).chi()
                        assert got == chi_c_direct(inst).chi_c_value, (chi, w1, w2, quarters)


class TestClassifyR2TwoComponents:
    def test_one_each_suspension(self):
        inst = two_component(2, 1, ["3/10", "2/5"], "5/2")
        desc = classify_r2_two_components(inst, Placement.ONE_EACH)
        assert desc == Suspension(Bary(2, Wedge((Base(2, "A1"), Base(1, "A2")))))
        assert desc.render() == "susp(B_2(A1 v A2))"

    def test_both_first_suspension(self):
        inst = two_component(2, 1, ["3/10", "2/5"], "5/2")
        desc = classify_r2_two_components(inst, Placement.BOTH_IN_FIRST)
        assert desc == Suspension(
            Bary(2, DisjointUnion((Wedge((Base(2, "A1"), Circle())), Base(1, "A2"))))
        )
        assert desc.render() == "susp(B_2(A1 v S1 | A2))"

    def test_very_heavy_pair_ignores_placement(self):
        inst = two_component(2, 1, ["4/5", "9/10"], "5/2")
        for placement in Placement:
            desc = classify_r2_two_components(inst, placement)
            assert desc == Bary(2, DisjointUnion((Base(2, "A1"), Base(1, "A2"))))

    def test_contractible_cases(self):
        inst = two_component(1, 1, ["1/10", "1/10"], "5/2")
        assert classify_r2_two_components(inst, Placement.ONE_EACH) == Contractible()
        inst = two_component(1, 1, ["2/5", "4/5"], "5/2")
        assert classify_r2_two_components(inst, Placement.BOTH_IN_FIRST) == Contractible()

    def test_requires_components(self):
        with pytest.raises(OutOfScope):
            classify_r2_two_components(make(2, ["1/2", "1/2"], 2), Placement.ONE_EACH)

    def test_engine_consistency_and_placement_equality(self):
        tenths = [F(k, 10) for k in range(1, 11)]
        for chi_1 in range(-2, 4):
            for chi_2 in range(-2, 4):
                for i, w1 in enumerate(tenths):
                    for w2 in tenths[i:]:
                        inst = two_component(chi_1, chi_2, [w1, w2], F(13, 4))
                        want = chi_c_direct(inst).chi_c_value
                        got = {
                            p: classify_r2_two_components(inst, p).chi()
                            for p in Placement
                        }
                        assert got[Placement.ONE_EACH] == want
                        assert got[Placement.BOTH_IN_FIRST] == want


class TestChiOfDescriptor:
    def test_contractible(self):
        assert Contractible().chi() == 1

    def test_bary_of_wedge(self):
        desc = Bary(2, Wedge((Base(3), Circle())))
        assert desc.chi() == 1 - ext_binomial(0, 2) == 1

    def test_suspension_composition(self):
        desc = Suspension(Bary(2, Wedge((Base(3), Circle()))))
        assert desc.chi() == 1

    def test_empty_barycenter_space(self):
        assert Bary(0, Base(5)).chi() == 0

    def test_point_and_union(self):
        assert Bary(1, DisjointUnion((Point(), Point()))).chi() == \
            1 - ext_binomial(1 - 2, 1)

    def test_rendering(self):
        assert Contractible().render() == "contractible"
        assert Bary(3, Base(0)).render() == "B_3(X)"
        assert Suspension(Bary(1, Wedge((Base(1, "A1"), Circle())))).render() == \
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
