from fractions import Fraction
from itertools import combinations, permutations
from math import comb, floor, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barychi.classifier import classify
from barychi.combinatorics import ext_binomial
from barychi.engine import chi_c_direct, chi_c_strata
from barychi.errors import (
    BarychiError,
    InputFormatError,
    NonPositiveWeight,
    NoVertices,
    TooManyVertices,
    TooManyWeights,
)
from barychi.model import validate
from barychi.oracle import FiniteWeightedSpace, _check_vertex_count, oracle_chi, skeleton_chi
from barychi.series import chi_c_series

F = Fraction


def fraction_face_count(weights, rho):
    """sum of (-1)^(|S|+1) over the nonempty vertex sets S with w(S) <= rho,
    each w(S) summed as a Fraction."""
    faces = [
        mask.bit_count()
        for mask in range(1, 1 << len(weights))
        if sum((w for i, w in enumerate(weights) if mask >> i & 1), F(0)) <= rho
    ]
    return sum(1 if k % 2 else -1 for k in faces)


def full_list_count(weights, rho):
    """The face count with every fitting vertex set stored: the weights of
    the sets over the LCD, in two lists by the parity of the set's size,
    each vertex in the given order extending the sets it keeps under rho;
    the odd sets less the nonempty even ones."""
    scale = lcm(rho.denominator, *(w.denominator for w in weights))
    top = rho * scale
    if top < 0:
        return 0
    even, odd = [0], []
    for w in weights:
        step = w * scale
        even, odd = (even + [s + step for s in odd if s + step <= top],
                     odd + [s + step for s in even if s + step <= top])
    return len(odd) - (len(even) - 1)


@st.composite
def lightest_face_at_rho(draw):
    """m = 1..10 vertex weights drawn with repeats from a few, unit weights
    among them, and rho = w_min + w_J + n for the lightest vertex, a drawn
    set J of the others and n in 0..1: at n = 0 a face through the lightest
    vertex weighs exactly rho."""
    weight = st.just(F(1)) | st.fractions(F(1, 12), F(3), max_denominator=12)
    pool = draw(st.lists(weight, min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    lightest = weights.index(min(weights))
    closing = [w for i, w in enumerate(weights) if i != lightest and draw(st.booleans())]
    return weights, sum(closing, weights[lightest] + draw(st.integers(0, 1)))


class TestFiniteWeightedSpace:
    def test_padding(self):
        space = FiniteWeightedSpace.of(4, (F(1, 2),))
        assert space.vertex_weights == (F(1, 2), F(1), F(1), F(1))
        # Four compact points: the matching instance's chi_c counts every vertex.
        assert space.matching_instance(2).chi_c == 4

    def test_rejects_zero_weight(self):
        with pytest.raises(NonPositiveWeight):
            FiniteWeightedSpace((F(0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteWeightedSpace(())
        with pytest.raises(NoVertices):
            FiniteWeightedSpace.of(0)
        assert issubclass(NoVertices, BarychiError)

    def test_vertex_count_checked_before_building(self):
        # At 10^9 vertices a padded tuple would take about 8 GB.
        with pytest.raises(TooManyVertices):
            FiniteWeightedSpace.of(10**9)
        with pytest.raises(TooManyVertices):
            FiniteWeightedSpace((F(1),) * 23)

    def test_rejects_surplus_weights(self):
        with pytest.raises(ValueError):
            FiniteWeightedSpace.of(1, (F(1, 2), F(1, 3)))
        with pytest.raises(TooManyWeights):
            FiniteWeightedSpace.of(1, (F(1, 2), F(1, 3)))
        assert issubclass(TooManyWeights, BarychiError)

    @pytest.mark.parametrize("weight", [0.5, True, "1/2", 1j],
                             ids=["float", "bool", "str", "complex"])
    def test_rejects_inexact_weight(self, weight):
        # Accepted, a float would fail in oracle_chi with an AttributeError.
        with pytest.raises(InputFormatError):
            FiniteWeightedSpace((F(1, 2), weight))
        with pytest.raises(InputFormatError):
            FiniteWeightedSpace.of(3, (weight,))

    @pytest.mark.parametrize("args", [("3",), (3.0,), (2.5,), (True,), (3, 0.5),
                                      (3, (w for w in [F(1, 2)]))],
                             ids=["str-count", "float-count", "fractional-count", "bool-count",
                                  "float-weights", "generator-weights"])
    def test_of_refuses_a_mistyped_count_or_weight_list(self, args):
        # They raised a bare TypeError, and True built one vertex.
        with pytest.raises(InputFormatError):
            FiniteWeightedSpace.of(*args)

    def test_error_cuts_a_long_weight(self):
        # Whole, the message repeated all 100,000 characters.
        with pytest.raises(InputFormatError) as info:
            FiniteWeightedSpace((F(1, 3), "x" * 100_000))
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_error_cuts_a_long_nonpositive_weight(self, digits):
        # Whole, 4,001 digits made a line of 4,000 characters, and 5,001, past
        # the int-to-str limit, raised a bare ValueError.
        with pytest.raises(NonPositiveWeight) as info:
            FiniteWeightedSpace((F(1, 3), F(-(10**digits))))
        assert len(str(info.value)) < 200

    def test_error_names_a_count_past_the_digit_limit_by_its_type(self):
        # Whole, the message raised a bare ValueError.
        for check in (FiniteWeightedSpace.of, _check_vertex_count):
            with pytest.raises(TooManyVertices, match="<unprintable int>"):
                check(10**5000)

    def test_int_weights_accepted(self):
        space = FiniteWeightedSpace.of(3, (2,))
        assert space == FiniteWeightedSpace((F(2), F(1), F(1)))
        assert oracle_chi(space, F(3)) == oracle_chi(FiniteWeightedSpace.of(3, (F(2),)), F(3))


class TestOracleChi:
    def test_two_vertices(self):
        space = FiniteWeightedSpace.of(2, (F(1, 2),))
        assert oracle_chi(space, F(1)) == 2

    def test_three_vertices(self):
        space = FiniteWeightedSpace.of(3, (F(1, 2), F(1, 2)))
        assert oracle_chi(space, F(1)) == 2

    def test_unit_weights_give_skeleta(self):
        for n in range(0, 7):
            for k in range(1, n + 2):
                space = FiniteWeightedSpace.of(n + 1)
                assert oracle_chi(space, F(k)) == skeleton_chi(n, k)

    def test_an_edge_without_the_lightest_vertex_at_rho(self):
        # Weights 1, 1/2, 1/2 at rho 3/2: three vertices and three edges, the
        # edges {1, 1/2} at exactly rho; the heavier of them is stored whole.
        space = FiniteWeightedSpace((F(1), F(1, 2), F(1, 2)))
        assert oracle_chi(space, F(3, 2)) == 3 - 3

    def test_vertex_cap(self):
        with pytest.raises(TooManyVertices):
            oracle_chi(FiniteWeightedSpace.of(23), F(1))

    def test_saturation(self):
        space = FiniteWeightedSpace((F(1, 2), F(3), F(1)))
        total = sum(space.vertex_weights)
        assert oracle_chi(space, total) == 1
        assert oracle_chi(space, total + 5) == 1

    def test_empty_complex(self):
        space = FiniteWeightedSpace((F(1, 2), F(2, 3)))
        assert oracle_chi(space, F(1, 3)) == 0

    @pytest.mark.parametrize("rho", [0.1, "5/6", True], ids=["float", "str", "bool"])
    def test_rejects_inexact_rho(self, rho):
        # Accepted, they counted 0, 1 and 2, and matching_instance turned
        # 0.1 into the rho 3602879701896397/36028797018963968.
        space = FiniteWeightedSpace((F(1, 3), F(1, 2), F(1)))
        with pytest.raises(InputFormatError):
            oracle_chi(space, rho)
        with pytest.raises(InputFormatError):
            validate(space.matching_instance(rho))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_fraction_face_count(self, data):
        # rho is the weight of a drawn vertex set plus 0..2, so faces tie it.
        weights = data.draw(st.lists(
            st.just(F(1)) | st.fractions(F(1, 20), F(3), max_denominator=20),
            min_size=1, max_size=12))
        chosen = data.draw(st.lists(st.booleans(), min_size=len(weights),
                                    max_size=len(weights)))
        rho = sum((w for w, c in zip(weights, chosen) if c), F(0)) + data.draw(st.integers(0, 2))
        expected = fraction_face_count(weights, rho)
        assert oracle_chi(FiniteWeightedSpace(tuple(weights)), rho) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_vertex_order_does_not_matter(self, data):
        # Half the spaces are all-unit.  rho is a drawn face's weight plus
        # 0 or 1, or at most the heaviest vertex, which can then weigh more.
        weight = st.just(F(1))
        if not data.draw(st.booleans()):
            weight |= st.fractions(F(1, 12), F(4), max_denominator=12)
        weights = data.draw(st.lists(weight, min_size=1, max_size=6))
        chosen = data.draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
        rho = data.draw(st.one_of(
            st.integers(0, 1).map(lambda n: sum((w for w, c in zip(weights, chosen) if c), F(n))),
            st.fractions(F(1, 12), max(weights), max_denominator=12),
        ))
        expected = fraction_face_count(weights, rho)
        for order in set(permutations(weights)):
            assert oracle_chi(FiniteWeightedSpace(order), rho) == expected

    @settings(max_examples=200, deadline=None)
    @given(lightest_face_at_rho())
    @example(([F(1, 2)], F(1, 2)))
    @example(([F(1), F(1, 2), F(1, 2)], F(3, 2)))
    def test_the_lightest_vertex_is_counted_at_rho(self, drawn):
        # The lightest vertex's faces are counted, not stored; those that
        # weigh exactly rho are faces.
        weights, rho = drawn
        assert oracle_chi(FiniteWeightedSpace(tuple(weights)), rho) == full_list_count(weights, rho)

    def test_negative_rho_has_no_faces(self):
        assert oracle_chi(FiniteWeightedSpace.of(3), F(-1, 2)) == 0

    def test_pruning_edge_cases(self):
        space = FiniteWeightedSpace((F(1, 2), F(2, 3), F(1), F(3, 4)))
        total = sum(space.vertex_weights)
        # Every subset fits: the full simplex is contractible.
        assert oracle_chi(space, total) == 1
        # Nothing but the empty set fits, and it is no face.
        assert oracle_chi(space, F(49, 100)) == 0
        assert oracle_chi(space, F(0)) == 0
        assert oracle_chi(space, F(-3)) == 0
        # rho equal to a face weight keeps that face (ties at the prune test).
        assert oracle_chi(space, F(1, 2)) == 1  # one vertex
        assert oracle_chi(space, F(2, 3)) == 2  # two vertices
        assert oracle_chi(space, F(7, 6)) == 4 - 1  # the edge {1/2, 2/3}
        assert oracle_chi(space, F(17, 12)) == 4 - 3  # and {1/2, 3/4}, {2/3, 3/4}
        assert oracle_chi(space, F(23, 12)) == 4 - 6 + 1  # the triangle {1/2, 2/3, 3/4}
        assert oracle_chi(space, total - F(1, 12)) == 4 - 6 + 4  # all but the top face

    def test_matches_engines(self, finite_corpus):
        for space, rho in finite_corpus[:100]:
            expected = oracle_chi(space, rho)
            inst = validate(space.matching_instance(rho))
            assert chi_c_direct(inst).chi_c_value == expected
            assert chi_c_strata(inst).chi_c_value == expected
            assert chi_c_series(inst).chi_c_value == expected


@st.composite
def tie_heavy_spaces(draw, max_vertices, span):
    """Up to four non-unit vertex weights in (0, 2] over the denominators 2,
    3, 4 and 6, rho, and a vertex count m with m + span(rho) <= max_vertices,
    where ``span`` says how many vertices a test adds; the vertices past the
    non-unit ones weigh 1.  About half the time rho = w_J + n for a nonempty
    set J of the non-unit weights and n in 0..2, so faces tie it; otherwise
    it is a fraction in (0, 5] over the same denominators."""
    def fractions(top):
        return st.sampled_from([2, 3, 4, 6]).flatmap(
            lambda d: st.integers(1, top * d).map(lambda n: F(n, d)))

    weights = [w for w in draw(st.lists(fractions(2), max_size=4)) if w != 1]
    if weights and draw(st.booleans()):
        chosen = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights))
                      .filter(any))
        rho = sum((w for w, c in zip(weights, chosen) if c), F(draw(st.integers(0, 2))))
    else:
        rho = draw(fractions(5))
    top = max_vertices - span(rho)
    assume(max(1, len(weights)) <= top)
    return tuple(weights), draw(st.integers(max(1, len(weights)), top)), rho


class TestFormulaStructureOnTheOracle:
    """The relations of ``test_engine.TestFormulaStructure`` with chi_c(X)
    a vertex count: the oracle counts faces and shares no code with the
    formula, so it must obey them on its own.  Adding a unit-weight vertex
    raises chi_c(X) by one and leaves the singular weights alone."""

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_spaces(18, lambda rho: 1))
    def test_pascal_across_rho_and_chi(self, drawn):
        # d_{rho+1}(m) = d_rho(m) + d_{rho+1}(m + 1).
        weights, m, rho = drawn

        def d(vertices, bound):
            return 1 - oracle_chi(FiniteWeightedSpace.of(vertices, weights), bound)

        assert d(m, rho + 1) == d(m, rho) + d(m + 1, rho + 1)

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_spaces(18, lambda rho: floor(rho) + 1))
    def test_polynomial_in_chi(self, drawn):
        # chi_c is a polynomial in m of degree at most L = floor(rho); its
        # L-th difference is (-1)^(L+1) N(L), N(L) the signed count of the
        # non-unit weight sets I with w_I <= rho - L.
        weights, m, rho = drawn
        top = floor(rho)
        values = [oracle_chi(FiniteWeightedSpace.of(m + j, weights), rho) for j in range(top + 2)]

        def difference(order):
            return sum((-1) ** (order - j) * comb(order, j) * values[j] for j in range(order + 1))

        assert difference(top + 1) == 0
        if top >= 1:
            n_top = sum((-1) ** k for k in range(len(weights) + 1)
                        for subset in combinations(weights, k)
                        if sum(subset, F(0)) <= rho - top)
            assert difference(top) == (-1) ** (top + 1) * n_top


@settings(max_examples=150, deadline=None)
@given(tie_heavy_spaces(12, lambda rho: 0))
def test_every_route_agrees_on_one_instance(drawn):
    # The face count, the three routes on the matching instance and, where it
    # answers (r <= 2, every singular weight <= 1), the classifier's chi.
    weights, m, rho = drawn
    space = FiniteWeightedSpace.of(m, weights)
    expected = oracle_chi(space, rho)
    inst = validate(space.matching_instance(rho))
    assert chi_c_direct(inst).chi_c_value == expected
    assert chi_c_strata(inst).chi_c_value == expected
    assert chi_c_series(inst).chi_c_value == expected
    if inst.r <= 2 and all(w <= 1 for w in inst.weights):
        assert classify(inst).chi_value == expected


class TestSkeletonChi:
    def test_triangle_boundary(self):
        assert skeleton_chi(2, 2) == 0

    def test_one_skeleton_of_tetrahedron(self):
        assert skeleton_chi(3, 2) == -2 == 1 - ext_binomial(-2, 2)

    def test_full_simplex_contractible(self):
        for n in range(0, 8):
            assert skeleton_chi(n, n + 1) == 1

    def test_triple_identity(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                face_count = skeleton_chi(n, k)
                assert face_count == 1 - ext_binomial(k - (n + 1), k)
                assert face_count == 1 + (-1) ** (k - 1) * comb(n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            skeleton_chi(3, 0)
        with pytest.raises(ValueError):
            skeleton_chi(3, 5)
