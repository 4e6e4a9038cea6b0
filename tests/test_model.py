import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barychi.errors import (
    InconsistentComponents,
    InputFormatError,
    NonPositiveRho,
    NonPositiveWeight,
    TooManySingularPoints,
)
from barychi.model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    enumerate_subset_weights,
    instance_from_json,
    instance_to_json_dict,
    parse_fraction,
    parse_weights,
    subset_levels,
    subset_members,
    validate,
)

F = Fraction


class TestValidate:
    def test_valid_instance(self):
        inst = validate(ProblemInstance(2, (F(1, 2),), F(1)))
        assert inst.chi_c == 2
        assert inst.weights == (F(1, 2),)
        assert inst.r == 1

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            validate(ProblemInstance(2, (F(0),), F(1)))

    def test_negative_rho_rejected(self):
        with pytest.raises(NonPositiveRho):
            validate(ProblemInstance(2, (), F(-1)))

    def test_too_many_singular_points(self):
        with pytest.raises(TooManySingularPoints):
            validate(ProblemInstance(0, (F(1, 2),) * 31, F(1)))

    def test_component_chi_mismatch(self):
        components = (
            ComponentSpec(2, True, frozenset({1})),
            ComponentSpec(2, True, frozenset({2})),
        )
        with pytest.raises(InconsistentComponents):
            validate(
                ProblemInstance(3, (F(1, 2), F(1, 2)), F(1), SpaceKind.UNION_OF_BASIC, components)
            )

    def test_component_index_coverage(self):
        components = (ComponentSpec(3, True, frozenset({1})),)
        with pytest.raises(InconsistentComponents):
            validate(
                ProblemInstance(3, (F(1, 2), F(1, 2)), F(1), SpaceKind.UNION_OF_BASIC, components)
            )
        # Both indices are covered, but index 1 sits in two components.
        components = (ComponentSpec(2, True, frozenset({1, 2})),
                      ComponentSpec(1, True, frozenset({1})))
        with pytest.raises(InconsistentComponents, match="assigned twice"):
            validate(
                ProblemInstance(3, (F(1, 2), F(1, 2)), F(1), SpaceKind.UNION_OF_BASIC, components)
            )

    @pytest.mark.parametrize("kind", [SpaceKind.COMPACT, SpaceKind.LOCALLY_CLOSED_BASIC,
                                      SpaceKind.INTERIOR_EVEN_DIM_MANIFOLD])
    def test_components_only_with_the_union_kind(self, kind):
        components = (ComponentSpec(1, True, frozenset({1})), ComponentSpec(0, True, frozenset()))
        with pytest.raises(InconsistentComponents, match=f"got kind '{kind.value}' with"):
            validate(ProblemInstance(1, (F(1, 2),), F(1), kind, components))
        with pytest.raises(InconsistentComponents, match="got kind 'union' without"):
            validate(ProblemInstance(1, (F(1, 2),), F(1), SpaceKind.UNION_OF_BASIC))

    def test_component_indices_follow_the_sort(self):
        components = (
            ComponentSpec(1, True, frozenset({1})),   # the 3/5 point
            ComponentSpec(1, False, frozenset({2})),  # the 1/2 point
        )
        inst = validate(
            ProblemInstance(2, (F(3, 5), F(1, 2)), F(2), SpaceKind.UNION_OF_BASIC, components)
        )
        assert inst.weights == (F(1, 2), F(3, 5))
        assert inst.components[0].singular_indices == frozenset({2})
        assert inst.components[1].singular_indices == frozenset({1})

    def test_validated_instance_is_a_problem_instance(self):
        inst = validate(ProblemInstance(1, (F(3, 5), F(1, 2)), F(2)))
        assert type(inst) is ValidatedInstance
        assert isinstance(inst, ProblemInstance)
        assert inst != ProblemInstance(1, (F(1, 2), F(3, 5)), F(2))

    def test_idempotent(self):
        inst = validate(ProblemInstance(1, (F(3, 5), F(1, 2)), F(2)))
        assert validate(inst) == inst

    @pytest.mark.parametrize("chi,weights,rho", [
        (1, (0.1,), 1),        # would become 3602879701896397/36028797018963968
        (1, (True,), 2),
        (1, (F(1, 2),), 1.5),
        (1, (F(1, 2),), True),
        (True, (F(1, 2),), 1),  # would be reported as JSON true
        (1.0, (F(1, 2),), 1),   # would die in chi_c_direct with a TypeError
        ("1", (F(1, 2),), 1),
        (0, (F(1, 2),), "1e1000000"),  # would skip parse_fraction's digit guard
        (1, ("1/2",), 1),
        (1, (1j,), 1),               # would raise a bare TypeError
        (1, (F(1, 2),), "abc"),      # would raise a bare ValueError
        (1, (Decimal("0.5"),), 1),
    ], ids=["float-weight", "bool-weight", "float-rho", "bool-rho", "bool-chi",
            "float-chi", "str-chi", "str-rho", "str-weight", "complex-weight",
            "unparsable-str-rho", "decimal-weight"])
    def test_inexact_or_mistyped_number_refused(self, chi, weights, rho):
        with pytest.raises(InputFormatError):
            validate(ProblemInstance(chi, weights, rho))

    @pytest.mark.parametrize("chi", [1.0, True], ids=["float", "bool"])
    def test_mistyped_component_chi_refused(self, chi):
        components = (ComponentSpec(chi, True, frozenset({1})),
                      ComponentSpec(0, True, frozenset()))
        with pytest.raises(InputFormatError):
            validate(ProblemInstance(1, (F(1, 2),), F(1), SpaceKind.UNION_OF_BASIC, components))

    @pytest.mark.parametrize("kind", ["compact", None], ids=["str", "none"])
    def test_mistyped_space_kind_refused(self, kind):
        # Accepted, "compact" would read as not compact in
        # topological_chi_applicable and break instance_to_json_dict.
        with pytest.raises(InputFormatError):
            validate(ProblemInstance(1, (F(1, 2),), F(1), kind))

    def test_mistyped_is_compact_refused(self):
        # Accepted, it would be reported as "is_compact": 1, which
        # instance_from_json refuses.
        components = (ComponentSpec(1, 1, frozenset({1})),)
        with pytest.raises(InputFormatError):
            validate(ProblemInstance(1, (F(1, 2),), F(1), SpaceKind.UNION_OF_BASIC, components))

    @pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
    def test_mistyped_singular_index_refused(self, index):
        components = (ComponentSpec(1, True, frozenset({index})),)
        with pytest.raises(InputFormatError):
            validate(ProblemInstance(1, (F(1, 2),), F(1), SpaceKind.UNION_OF_BASIC, components))

    def test_int_weights_and_rho_accepted(self):
        inst = validate(ProblemInstance(-1, (1, 2), 3))
        assert (inst.weights, inst.rho) == ((F(1), F(2)), F(3))


class TestEnumerateSubsetWeights:
    def test_worked_triple(self):
        inst = validate(ProblemInstance(2, (F(3, 10), F(2, 5), F(3, 5)), F(9, 2)))
        subsets = list(enumerate_subset_weights(inst))
        assert len(subsets) == 8
        by_set = {sw.index_set: sw.total for sw in subsets}
        assert by_set[frozenset({1, 2, 3})] == F(13, 10)
        assert by_set[frozenset()] == 0

    def test_empty_weight_list(self):
        inst = validate(ProblemInstance(5, (), F(1)))
        subsets = list(enumerate_subset_weights(inst))
        assert len(subsets) == 1
        assert subsets[0].index_set == frozenset()
        assert subsets[0].total == 0
        assert subsets[0].parity == 1

    def test_two_halves(self):
        inst = validate(ProblemInstance(2, (F(1, 2), F(1, 2)), F(1)))
        totals = [sw.total for sw in enumerate_subset_weights(inst)]
        assert totals == [F(0), F(1, 2), F(1, 2), F(1)]

    def test_complementary_subsets_sum_to_total(self):
        inst = validate(ProblemInstance(0, (F(1, 3), F(2, 7), F(5, 4)), F(3)))
        full = sum(inst.weights, F(0))
        by_set = {sw.index_set: sw.total for sw in enumerate_subset_weights(inst)}
        universe = frozenset(range(1, inst.r + 1))
        for index_set, total in by_set.items():
            assert total + by_set[universe - index_set] == full

    def test_binary_counter_order(self):
        inst = validate(ProblemInstance(0, (F(1, 4), F(1, 3), F(1, 2)), F(1)))
        sets = [tuple(sorted(sw.index_set)) for sw in enumerate_subset_weights(inst)]
        assert sets == [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3)]


@st.composite
def tied_instances(draw):
    """r <= 10 weights with denominators <= 20 and rho = w_J exactly for a
    drawn nonempty J, so subsets tie rho and sit on level 0."""
    weights = draw(st.lists(st.fractions(F(1, 20), F(2), max_denominator=20),
                            min_size=1, max_size=10))
    chosen = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights))
                  .filter(any))
    rho = sum((w for w, c in zip(weights, chosen) if c), F(0))
    return validate(ProblemInstance(0, tuple(weights), rho))


class TestSubsetLevels:
    @settings(max_examples=150, deadline=None)
    @given(tied_instances())
    def test_levels_in_binary_counter_order(self, inst):
        expected = [math.floor(inst.rho - sw.total) for sw in enumerate_subset_weights(inst)]
        assert subset_levels(inst) == expected

    def test_all_fit(self):
        inst = validate(ProblemInstance(0, (F(1, 4), F(1, 3), F(1, 2)), F(13, 12)))
        assert subset_levels(inst) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_none_fit(self):
        # Every nonempty subset is heavier than rho: its level is negative.
        inst = validate(ProblemInstance(0, (F(1, 4), F(1, 3), F(1, 2)), F(1, 5)))
        assert subset_levels(inst) == [0, -1, -1, -1, -1, -1, -1, -1]

    def test_no_weights(self):
        inst = validate(ProblemInstance(0, (), F(7, 2)))
        assert subset_levels(inst) == [3]

    def test_far_below_zero(self):
        # floor(rho - w_I) for w_I = 7/2 + 5/2 over rho = 1/2: floor(-11/2) = -6.
        inst = validate(ProblemInstance(0, (F(7, 2), F(5, 2)), F(1, 2)))
        assert subset_levels(inst) == [0, -2, -3, -6]


def members_by_bits(mask: int) -> frozenset[int]:
    """The reference index set of ``mask``: bit i set means index i+1."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class TestSubsetMembers:
    @pytest.mark.parametrize("r", range(13))
    def test_every_mask_matches_its_bits(self, r):
        members = subset_members(r)
        assert len(members) == 1 << r
        assert all(s == tuple(sorted(members_by_bits(mask))) for mask, s in enumerate(members))
        assert all(type(s) is tuple for s in members)

    def test_order_matches_enumerate_subset_weights(self):
        inst = validate(ProblemInstance(0, (F(1, 4), F(1, 3), F(1, 2), F(2, 3)), F(1)))
        assert subset_members(inst.r) == [tuple(sorted(sw.index_set))
                                          for sw in enumerate_subset_weights(inst)]


class TestFractionParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/10", F(3, 10)),
            ("0.3", F(3, 10)),
            ("7", F(7)),
            (" 9/2 ", F(9, 2)),
            ("1.25", F(5, 4)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_fraction(text) == expected

    @pytest.mark.parametrize("text", ["", "1/0", "abc", "1/2/3"])
    def test_invalid(self, text):
        with pytest.raises(InputFormatError):
            parse_fraction(text)

    def test_digit_limit(self):
        # Just under the limit the value still prints; at it, it is refused.
        limit = sys.get_int_max_str_digits()
        for text in (f"1e{limit - 2}", f"1e-{limit - 2}", "." + "7" * (limit - 2),
                     "9" * (limit - 1) + "/" + "7" * (limit - 1)):
            str(parse_fraction(text))
        for text in (f"1e{limit - 1}", f"1e-{limit - 1}", "." + "7" * (limit - 1),
                     "9/" + "7" * limit, "1e" + "9" * (limit + 1)):
            with pytest.raises(InputFormatError):
                parse_fraction(text)

    def test_rejects_non_strings(self):
        with pytest.raises(InputFormatError):
            parse_fraction(0.3)

    def test_weights_csv(self):
        assert parse_weights("") == ()
        assert parse_weights("   ") == ()
        assert parse_weights("1/2,0.3") == (F(1, 2), F(3, 10))


class TestJsonDocument:
    def test_round_trip(self):
        components = (
            ComponentSpec(1, True, frozenset({1})),
            ComponentSpec(1, False, frozenset({2})),
        )
        inst = validate(
            ProblemInstance(2, (F(1, 2), F(3, 10)), F(9, 2), SpaceKind.UNION_OF_BASIC, components)
        )
        doc = json.dumps(instance_to_json_dict(inst))
        again = validate(instance_from_json(doc))
        assert again.chi_c == inst.chi_c
        assert again.weights == inst.weights
        assert again.rho == inst.rho
        assert again.space_kind == inst.space_kind
        assert again.components == inst.components

    def test_defaults(self):
        inst = instance_from_json({"chi_c": 2, "rho": "1"})
        assert inst.weights == ()
        assert inst.space_kind is SpaceKind.COMPACT

    def test_missing_field(self):
        with pytest.raises(InputFormatError):
            instance_from_json({"weights": ["1/2"], "rho": "1"})

    def test_bad_kind(self):
        with pytest.raises(InputFormatError):
            instance_from_json({"chi_c": 1, "rho": "1", "space": {"kind": "mystery"}})

    def test_chi_c_must_be_integer(self):
        with pytest.raises(InputFormatError):
            validate(instance_from_json({"chi_c": "2", "rho": "1"}))

    @pytest.mark.parametrize("doc", [
        {"chi_c": 1.5, "rho": "1"},
        {"chi_c": 1, "rho": "1", "space": {"kind": "union", "components": [
            {"chi_c": 1, "is_compact": "no", "singular_indices": []}]}},
    ], ids=["chi_c", "is_compact"])
    def test_field_types_are_left_to_validate(self, doc):
        inst = instance_from_json(doc)
        with pytest.raises(InputFormatError, match="must be"):
            validate(inst)

    def test_weights_accept_decimal_strings(self):
        inst = instance_from_json({"chi_c": 0, "weights": ["0.3", "2/5"], "rho": "4.5"})
        assert inst.weights == (F(3, 10), F(2, 5))
        assert inst.rho == F(9, 2)
