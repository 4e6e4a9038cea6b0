"""Problem instances: a space's chi_c, its singular weights, and the mass bound.

Weights and the bound rho are exact rationals.  Floor expressions such as
``floor(rho - w_I)`` are discontinuous, so binary floats would silently
flip results at ties; every fraction is therefore parsed exactly ("3/10",
or a finite decimal "0.3" read as 3/10) and kept as a ``Fraction``.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .errors import (
    InconsistentComponents,
    InputFormatError,
    NonPositiveRho,
    NonPositiveWeight,
    TooManySingularPoints,
)

# Strata and the oracle build only the subsets with w_I <= rho, but when
# rho >= sum(w) that is all 2^r.  There, at r = 22 with weights k/(k+1),
# strata takes about 1.6 s and 205 MB, and each further point doubles both;
# direct builds about 2^(r/2) sums per half and takes 0.1 s.  The series
# route costs far more there (README, limits).
MAX_SINGULAR_POINTS = 22


class SpaceKind(Enum):
    """What is known about the underlying space X (chi_c is caller-supplied)."""

    COMPACT = "compact"
    LOCALLY_CLOSED_BASIC = "lc"
    INTERIOR_EVEN_DIM_MANIFOLD = "even-interior"
    UNION_OF_BASIC = "union"


class _Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in constructor order, and
    sets each one once in ``__init__`` with ``object.__setattr__``; a
    subclass of a record adds its own ``__slots__`` after its base's, and
    ``_fields`` lists them all.  Records compare equal when they are of the
    same class with equal fields; they hash, print, copy and pickle like
    frozen dataclasses, and refuse assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = names = tuple(name for klass in reversed(cls.__mro__)
                                    for name in vars(klass).get("__slots__", ()))
        # attrgetter returns a tuple only when it is given two names or more.
        cls._values = (attrgetter(*names) if len(names) > 1
                       else staticmethod(lambda record: tuple(getattr(record, n) for n in names)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")


class ComponentSpec(_Record):
    """One connected component: its chi_c, compactness, and which singular
    points (1-based weight indices) live on it."""

    __slots__ = ("chi_c", "is_compact", "singular_indices")

    def __init__(self, chi_c: int, is_compact: bool, singular_indices: frozenset[int]) -> None:
        object.__setattr__(self, "chi_c", chi_c)
        object.__setattr__(self, "is_compact", is_compact)
        object.__setattr__(self, "singular_indices", singular_indices)


class ProblemInstance(_Record):
    """Raw input: chi_c(X), the singular weights w_1..w_r, and rho."""

    __slots__ = ("chi_c", "weights", "rho", "space_kind", "components")

    def __init__(
        self,
        chi_c: int,
        weights: tuple[Fraction, ...],
        rho: Fraction,
        space_kind: SpaceKind = SpaceKind.COMPACT,
        components: tuple[ComponentSpec, ...] | None = None,
    ) -> None:
        object.__setattr__(self, "chi_c", chi_c)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "space_kind", space_kind)
        object.__setattr__(self, "components", components)


class ValidatedInstance(ProblemInstance):
    """A checked instance with weights in canonical (ascending) order.

    Component singular indices are remapped to canonical positions.
    """

    __slots__ = ()

    @property
    def r(self) -> int:
        return len(self.weights)


class SubsetWeight(_Record):
    """A subset I of {1..r} with its exact weight sum w_I (w_empty = 0)."""

    __slots__ = ("index_set", "total")

    def __init__(self, index_set: frozenset[int], total: Fraction) -> None:
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "total", total)

    @property
    def parity(self) -> int:
        """(-1)^|I|."""
        return -1 if len(self.index_set) % 2 else 1


def validate(instance: ProblemInstance) -> ValidatedInstance:
    """Check all invariants and return the canonical form of the instance.

    Idempotent: validating a ``ValidatedInstance`` returns an equal one.
    This is the only check of the types of ``chi_c`` and of a component's
    ``chi_c`` and ``is_compact``; ``instance_from_json`` leaves them to it.

    Raises ``InputFormatError`` for a ``chi_c`` (of the instance or of a
    component) that is not an int, for a weight or rho that is not an int
    or a ``Fraction`` (a float, bool, str or complex), for a ``space_kind``
    that is not a ``SpaceKind``, and for a component's ``is_compact`` that
    is not a bool or singular index that is not an int; then
    ``NonPositiveWeight``, ``NonPositiveRho``, ``TooManySingularPoints``,
    or ``InconsistentComponents``, which also refuses components given
    for any kind but ``UNION_OF_BASIC`` and that kind without them.  (An
    int here is never a bool.)
    """
    if not _is_int(instance.chi_c):
        raise InputFormatError(f"chi_c must be an int, got {instance.chi_c!r}")
    if not isinstance(instance.space_kind, SpaceKind):
        raise InputFormatError(f"space_kind must be a SpaceKind, got {instance.space_kind!r}")
    for value in (*instance.weights, instance.rho):
        if not _is_exact(value):
            raise InputFormatError(
                f"weights and rho must be exact (an int or a Fraction), got {value!r}"
            )

    weights = tuple(Fraction(w) for w in instance.weights)
    for w in weights:
        if w <= 0:
            raise NonPositiveWeight(f"weight {w} is not strictly positive")
    rho = Fraction(instance.rho)
    if rho <= 0:
        raise NonPositiveRho(f"rho {rho} is not strictly positive")
    r = len(weights)
    if r > MAX_SINGULAR_POINTS:
        raise TooManySingularPoints(
            f"r = {r} singular points exceeds the enumeration cap {MAX_SINGULAR_POINTS}"
        )

    order = sorted(range(r), key=lambda i: weights[i])  # stable ascending
    canonical = tuple(weights[i] for i in order)

    components = instance.components
    if (components is None) is (instance.space_kind is SpaceKind.UNION_OF_BASIC):
        given = "without" if components is None else "with"
        raise InconsistentComponents("components are given exactly when the space kind is "
                                     f"'union'; got kind {instance.space_kind.value!r} "
                                     f"{given} components")
    if components is not None:
        components = _check_components(instance.chi_c, r, components, order)

    return ValidatedInstance(
        chi_c=instance.chi_c,
        weights=canonical,
        rho=rho,
        space_kind=instance.space_kind,
        components=components,
    )


def _check_components(
    chi_c: int,
    r: int,
    components: Sequence[ComponentSpec],
    order: list[int],
) -> tuple[ComponentSpec, ...]:
    """Reconcile component data with the totals and remap singular indices
    (1-based positions in the incoming weight tuple) to canonical order."""
    for c in components:
        if not _is_int(c.chi_c):
            raise InputFormatError(f"component chi_c must be an int, got {c.chi_c!r}")
        if not isinstance(c.is_compact, bool):
            raise InputFormatError(f"component is_compact must be a bool, got {c.is_compact!r}")
        for i in c.singular_indices:
            if not _is_int(i):
                raise InputFormatError(f"singular index must be an int, got {i!r}")
    total_chi = sum(c.chi_c for c in components)
    if total_chi != chi_c:
        raise InconsistentComponents(
            f"component chi_c values sum to {total_chi}, instance says {chi_c}"
        )
    seen: set[int] = set()
    for c in components:
        for i in c.singular_indices:
            if not 1 <= i <= r:
                raise InconsistentComponents(f"singular index {i} outside 1..{r}")
            if i in seen:
                raise InconsistentComponents(f"singular index {i} assigned twice")
            seen.add(i)
    if len(seen) != r:
        raise InconsistentComponents(
            f"components assign {len(seen)} singular points, instance has {r}"
        )
    # order[j] = incoming slot that lands at canonical position j.
    canon_of_label = {order[j] + 1: j + 1 for j in range(r)}
    return tuple(
        ComponentSpec(
            chi_c=c.chi_c,
            is_compact=c.is_compact,
            singular_indices=frozenset(canon_of_label[i] for i in c.singular_indices),
        )
        for c in components
    )


def enumerate_subset_weights(instance: ValidatedInstance) -> Iterator[SubsetWeight]:
    """Yield all 2^r subsets of {1..r} exactly once, in binary-counter order
    (bit i of the counter toggles canonical index i+1), with exact totals."""
    weights = instance.weights
    r = len(weights)
    for mask in range(1 << r):
        total = Fraction(0)
        members = []
        for i in range(r):
            if mask >> i & 1:
                total += weights[i]
                members.append(i + 1)
        yield SubsetWeight(frozenset(members), total)


def subset_levels(instance: ValidatedInstance) -> list[int]:
    """floor(rho - w_I) for every subset I, indexed by its mask (bit i is
    index i+1, the indices ``subset_members`` lists at the same place), in
    the binary-counter order of ``enumerate_subset_weights``; negative
    exactly when w_I > rho.  It fills the ``--breakdown`` rows and the conic
    decomposition; the routes keep their own enumerations.  Weight j appends
    the masks with bit j set; each room (rho - w_I) * base, over the LCD
    ``base``, is floor-divided once."""
    rho = instance.rho
    base = lcm(rho.denominator, *(w.denominator for w in instance.weights))
    rooms = [rho.numerator * (base // rho.denominator)]
    for w in instance.weights:
        step = w.numerator * (base // w.denominator)
        rooms += [room - step for room in rooms]
    return [room // base for room in rooms]


def subset_members(r: int) -> list[tuple[int, ...]]:
    """The indices of every subset of {1..r} as an ascending tuple, indexed
    by its mask in the order of ``subset_levels``.  Index j appends the
    subsets that hold it, each built once from the one without j by putting
    j, the largest index so far, at its end."""
    sets = [()]
    for j in range(1, r + 1):
        sets += [s + (j,) for s in sets]
    return sets


# ---------------------------------------------------------------------------
# Exact fraction and instance-document parsing


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", an integer, or a finite decimal ("0.3" -> 3/10) exactly.

    Binary floats are never accepted; only strings convert.  A number is
    refused before it is built when its length (the longer side of a
    ``/``) plus its decimal exponent reach the interpreter's int-to-str
    limit (``sys.get_int_max_str_digits()``, 4300 by default): its
    numerator or denominator could not be printed, and ``Fraction`` takes
    time superlinear in the exponent to expand one.
    """
    if not isinstance(text, str):
        raise InputFormatError(f"expected a fraction string, got {type(text).__name__}")
    number = text.strip()
    mantissa, _, exponent = number.lower().partition("e")
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    try:
        # Each side of the mantissa has at most as many digits as characters.
        if limit and max(map(len, mantissa.split("/"))) + abs(int(exponent or 0)) >= limit:
            raise InputFormatError(f"{text!r} reaches the {limit}-digit int-to-str limit")
        return Fraction(number)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse {text!r} as an exact fraction") from exc


def parse_weights(csv: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated weight list; empty or blank means r = 0."""
    csv = csv.strip()
    if not csv:
        return ()
    return tuple(parse_fraction(part) for part in csv.split(","))


def instance_from_json(doc: str | dict) -> ProblemInstance:
    """Build an instance from the JSON document format.

    Fields: ``chi_c`` (int), ``weights`` (list of fraction strings, or one
    comma-separated string), ``rho`` (fraction string), optional ``space``
    (``{"kind": ..., "components": [...]}``).  Only the document's shape
    is checked here; ``validate`` checks the values.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # malformed, or an int past the digit limit
            raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("instance document must be a JSON object")
    try:
        chi_c = doc["chi_c"]
        raw_weights = doc.get("weights", [])
        raw_rho = doc["rho"]
    except KeyError as exc:
        raise InputFormatError(f"instance document missing field {exc}") from exc
    if isinstance(raw_weights, str):
        weights = parse_weights(raw_weights)
    elif isinstance(raw_weights, list):
        weights = tuple(parse_fraction(w) for w in raw_weights)
    else:
        raise InputFormatError("weights must be a JSON list or a comma-separated string")
    rho = parse_fraction(raw_rho)

    kind = SpaceKind.COMPACT
    components = None
    space = doc.get("space")
    if space is not None:
        if not isinstance(space, dict):
            raise InputFormatError("space must be a JSON object")
        name = space.get("kind", SpaceKind.COMPACT.value)
        try:
            kind = SpaceKind(name)
        except ValueError:
            raise InputFormatError(f"unknown space kind {name!r}; expected one of "
                                   f"{sorted(member.value for member in SpaceKind)}") from None
        if space.get("components") is not None:
            components = parse_components(space["components"])
    return ProblemInstance(chi_c, weights, rho, kind, components)


def parse_components(entries: object) -> tuple[ComponentSpec, ...]:
    """Parse a JSON list of component objects (``space.components`` of an
    instance document, or ``--components`` on the command line)."""
    if not isinstance(entries, list):
        raise InputFormatError("components must be a JSON list")
    return tuple(_component_from_json(entry) for entry in entries)


def _is_int(value: object) -> bool:
    """Whether ``value`` is an int, and not a bool posing as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_exact(value: object) -> bool:
    """Whether ``value`` is an int (never a bool) or a ``Fraction``: a float
    is inexact, and a str would skip ``parse_fraction``'s digit guard."""
    return _is_int(value) or isinstance(value, Fraction)


def _component_from_json(entry: object) -> ComponentSpec:
    if not isinstance(entry, dict):
        raise InputFormatError("each component must be a JSON object")
    try:
        chi_c = entry["chi_c"]
        is_compact = entry.get("is_compact", True)
        indices = entry.get("singular_indices", [])
    except KeyError as exc:
        raise InputFormatError(f"component missing field {exc}") from exc
    # A frozenset of unhashable entries would raise TypeError.
    if not isinstance(indices, list) or not all(map(_is_int, indices)):
        raise InputFormatError("component singular_indices must be a list of JSON integers")
    return ComponentSpec(chi_c, is_compact, frozenset(indices))


def instance_to_json_dict(instance: ValidatedInstance) -> dict:
    """Canonical JSON form of a validated instance (fractions as strings,
    weights in canonical order); parsing it back reproduces the instance."""
    space: dict = {"kind": instance.space_kind.value}
    if instance.components is not None:
        space["components"] = [
            {
                "chi_c": c.chi_c,
                "is_compact": c.is_compact,
                "singular_indices": sorted(c.singular_indices),
            }
            for c in instance.components
        ]
    return {
        "chi_c": instance.chi_c,
        "weights": [str(w) for w in instance.weights],
        "rho": str(instance.rho),
        "space": space,
    }
