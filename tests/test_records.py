"""The package's value types are immutable records: constructed by position
or keyword with their documented defaults, equal only to a record of the
same class with equal fields, hashable, and printed like a dataclass."""
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import barychi
from barychi.classifier import CIRCLE, CONTRACTIBLE, ConicPiece, Descriptor, union, wedge
from barychi.engine import ChiResult
from barychi.errors import NonPositiveWeight
from barychi.model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    SubsetWeight,
    ValidatedInstance,
    _Record,
)
from barychi.oracle import FiniteWeightedSpace

COMPONENT = ComponentSpec(2, True, frozenset({1}))

# (positional arguments, the same call by keyword) for every record type.
RECORDS = [
    (ComponentSpec, (2, True, frozenset({1})),
     dict(chi_c=2, is_compact=True, singular_indices=frozenset({1}))),
    (ProblemInstance, (2, (F(1, 2),), F(3), SpaceKind.UNION_OF_BASIC, (COMPONENT,)),
     dict(chi_c=2, weights=(F(1, 2),), rho=F(3), space_kind=SpaceKind.UNION_OF_BASIC,
          components=(COMPONENT,))),
    (ValidatedInstance, (2, (F(1, 2),), F(3), SpaceKind.COMPACT, None),
     dict(chi_c=2, weights=(F(1, 2),), rho=F(3), space_kind=SpaceKind.COMPACT,
          components=None)),
    (SubsetWeight, (frozenset({1, 2}), F(5, 6)), dict(index_set=frozenset({1, 2}), total=F(5, 6))),
    (ChiResult, (3, "strata", ((frozenset(), 1),)),
     dict(chi_c_value=3, method="strata", term_breakdown=((frozenset(), 1),))),
    (FiniteWeightedSpace, ((F(1, 2), F(1)),), dict(vertex_weights=(F(1, 2), F(1)))),
    (Descriptor, ("A1", -1), dict(text="A1", chi_value=-1)),
    (ConicPiece, (2, frozenset({1})), dict(n=2, index_set=frozenset({1}))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, name) for name in kwargs] == list(args)


@pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, kwargs):
    record = cls(*args)
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*args)


@pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=IDS)
def test_copy_and_pickle_give_an_equal_record(cls, args, kwargs):
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


def test_defaults():
    assert ProblemInstance(1, (), F(2)) == ProblemInstance(1, (), F(2), SpaceKind.COMPACT, None)
    assert ChiResult(1, "direct").term_breakdown == ()


def test_records_lists_every_record_type():
    for module in pkgutil.iter_modules(barychi.__path__):
        importlib.import_module(f"barychi.{module.name}")
    found, stack = set(), [_Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            found.add(cls)
            stack.append(cls)
    assert found == {cls for cls, _, _ in RECORDS}


def test_wrong_arity_is_a_type_error():
    with pytest.raises(TypeError):
        Descriptor("X")
    with pytest.raises(TypeError):
        ConicPiece(1)
    for cls, args, kwargs in RECORDS:
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(**kwargs, extra=None)
        first = next(iter(kwargs))
        with pytest.raises(TypeError):
            cls(*args, **{first: args[0]})


def test_equality_needs_the_same_class_and_equal_fields():
    x = Descriptor("X", 1)
    assert CIRCLE != CONTRACTIBLE
    assert CIRCLE == Descriptor("S1", 0)
    assert CONTRACTIBLE != x
    assert x != Descriptor("A1", 1)
    assert ConicPiece(2, frozenset({1})) != ConicPiece(2, frozenset({2}))
    assert ConicPiece(2, frozenset({1})) != (2, frozenset({1}))
    # Same field values, different record types.
    same = dict(chi_c=1, weights=(), rho=F(2), space_kind=SpaceKind.COMPACT, components=None)
    assert ProblemInstance(**same) != ValidatedInstance(**same)
    # A wedge and a union of the same parts differ in text and in chi.
    assert wedge(x, CIRCLE) != union(x, CIRCLE)
    assert len({CIRCLE, Descriptor("S1", 0), CONTRACTIBLE, ConicPiece(1, frozenset()),
                ConicPiece(1, frozenset())}) == 3


def test_repr_is_dataclass_style():
    assert repr(ChiResult(2, "direct")) == "ChiResult(chi_c_value=2, method='direct', term_breakdown=())"
    assert repr(CIRCLE) == "Descriptor(text='S1', chi_value=0)"
    assert repr(wedge(Descriptor("X", 1), CIRCLE)) == "Descriptor(text='X v S1', chi_value=0)"
    assert repr(ProblemInstance(1, (F(1, 2),), F(2))) == (
        "ProblemInstance(chi_c=1, weights=(Fraction(1, 2),), rho=Fraction(2, 1), "
        "space_kind=<SpaceKind.COMPACT: 'compact'>, components=None)"
    )


def test_properties_survive():
    assert ValidatedInstance(0, (F(1), F(2)), F(3), SpaceKind.COMPACT, None).r == 2
    assert SubsetWeight(frozenset({1, 2, 3}), F(1)).parity == -1
    assert ChiResult(3, "direct").degree_d_rho == -2
    assert FiniteWeightedSpace((F(1), F(1, 2))).m == 2


def test_finite_space_checks_at_construction():
    with pytest.raises(ValueError):
        FiniteWeightedSpace(())
    with pytest.raises(NonPositiveWeight):
        FiniteWeightedSpace((F(1), F(0)))
