"""Problem instances: a space's chi_c, its singular weights, and the mass bound.

Weights and the bound rho are exact rationals.  Floor expressions such as
``floor(rho - w_I)`` are discontinuous, so binary floats would silently
flip results at ties; every fraction is therefore parsed exactly ("3/10",
or a finite decimal "0.3" read as 3/10) and kept as a ``Fraction``.
"""
from __future__ import annotations

import re
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction
from math import lcm

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


class _Record(tuple):
    """Base of the package's immutable value types.

    Each record class derives from ``_Record`` and from one
    ``namedtuple("Name", "fields", defaults=...)``, which declares its
    fields in constructor order and the defaults of its trailing ones, and
    builds, prints, copies and pickles it and refuses assignment.  This base
    keeps only equality: records are equal when they are of the same class
    with equal fields, so a record never equals a plain tuple or a record of
    another class, and they hash as the tuple of their fields.  Like any
    tuple they also unpack, index, have a ``len`` and order.
    """

    __slots__ = ()

    # A plain bool, never NotImplemented: a tuple would answer the reflected
    # comparison by fields alone.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class ComponentSpec(_Record, namedtuple("ComponentSpec", "chi_c is_compact singular_indices")):
    """One connected component: its chi_c (an int), compactness (a bool), and
    which singular points (1-based weight indices; a set, tuple or list of
    ints, which ``validate`` turns into a frozenset) live on it."""

    __slots__ = ()


class ProblemInstance(_Record, namedtuple("ProblemInstance",
                                          "chi_c weights rho space_kind components",
                                          defaults=(SpaceKind.COMPACT, None))):
    """Raw input: chi_c(X), an int; the singular weights w_1..w_r (a tuple) and
    rho, as ``Fraction``s; the ``SpaceKind``; and a ``ComponentSpec`` tuple or None."""

    __slots__ = ()


class ValidatedInstance(ProblemInstance):
    """A checked instance with weights in canonical (ascending) order.

    Component singular indices are remapped to canonical positions.
    """

    __slots__ = ()

    @property
    def r(self) -> int:
        return len(self.weights)


def validate(instance: ProblemInstance) -> ValidatedInstance:
    """Check all invariants and return the canonical form of the instance.

    Idempotent: validating a ``ValidatedInstance`` returns an equal one.
    This is the only check of the types of ``chi_c`` and of a component's
    ``chi_c``, ``is_compact`` and ``singular_indices``, and the only check
    that no index repeats; ``instance_from_json`` leaves them to it.

    Raises ``InputFormatError`` for a ``chi_c`` (of the instance or of a
    component) that is not an int, for a weight or rho that is not an int
    or a ``Fraction`` (a float, bool, str or complex), for a ``space_kind``
    that is not a ``SpaceKind``, for weights or components (of
    ``ComponentSpec`` records) not in a tuple or a list, and for a
    component's ``is_compact`` that is not a bool or singular indices not
    a set, tuple or list of ints; then
    ``NonPositiveWeight``, ``NonPositiveRho``, ``TooManySingularPoints``,
    or ``InconsistentComponents``, which also refuses components given
    for any kind but ``UNION_OF_BASIC`` and that kind without them.  (An
    int here is never a bool.)
    """
    if not _is_int(instance.chi_c):
        raise InputFormatError(f"chi_c must be an int, got {_shown(instance.chi_c)}")
    if not isinstance(instance.space_kind, SpaceKind):
        raise InputFormatError(f"space_kind must be a SpaceKind, got {_shown(instance.space_kind)}")
    weights = tuple([_exact(w, "weights and rho") for w in _listed(instance.weights, "weights")])
    rho = _exact(instance.rho, "weights and rho")
    for w in weights:
        if w.numerator <= 0:
            raise NonPositiveWeight(f"weight {_shown(w)} is not strictly positive")
    if rho.numerator <= 0:
        raise NonPositiveRho(f"rho {_shown(rho)} is not strictly positive")
    r = len(weights)
    if r > MAX_SINGULAR_POINTS:
        raise TooManySingularPoints(
            f"r = {r} singular points exceeds the enumeration cap {MAX_SINGULAR_POINTS}"
        )

    # Stable ascending, by the weights as integers over their LCD.
    scale = lcm(*[w.denominator for w in weights])
    keys = [w.numerator * (scale // w.denominator) for w in weights]
    order = sorted(range(r), key=keys.__getitem__)
    canonical = tuple([weights[i] for i in order])

    components = instance.components
    if (components is None) is (instance.space_kind is SpaceKind.UNION_OF_BASIC):
        given = "without" if components is None else "with"
        raise InconsistentComponents("components are given exactly when the space kind is "
                                     f"'union'; got kind {instance.space_kind.value!r} "
                                     f"{given} components")
    if components is not None:
        components = _check_components(instance.chi_c, r, components, order)

    return ValidatedInstance(instance.chi_c, canonical, rho, instance.space_kind, components)


def _check_components(
    chi_c: int,
    r: int,
    components: Sequence[ComponentSpec],
    order: list[int],
) -> tuple[ComponentSpec, ...]:
    """Reconcile component data with the totals and remap singular indices
    (1-based positions in the incoming weight tuple) to canonical order."""
    # A lone ComponentSpec is a tuple too, but of its fields, not of records.
    if (not isinstance(components, (tuple, list))
            or not all(isinstance(c, ComponentSpec) for c in components)):
        raise InputFormatError("components must be a tuple or a list of ComponentSpec records, "
                               f"got {_shown(components)}")
    for c in components:
        if not _is_int(c.chi_c):
            raise InputFormatError(f"component chi_c must be an int, got {_shown(c.chi_c)}")
        if not isinstance(c.is_compact, bool):
            raise InputFormatError(
                f"component is_compact must be a bool, got {_shown(c.is_compact)}")
        indices = c.singular_indices
        if not isinstance(indices, (set, frozenset, tuple, list)) or not all(map(_is_int, indices)):
            raise InputFormatError("component singular_indices must be a set, tuple or list of "
                                   f"ints, got {_shown(indices)}")
    total_chi = sum(c.chi_c for c in components)
    if total_chi != chi_c:
        raise InconsistentComponents(
            f"component chi_c values sum to {_shown(total_chi)}, instance says {_shown(chi_c)}"
        )
    seen: set[int] = set()
    for c in components:
        for i in c.singular_indices:
            if not 1 <= i <= r:
                raise InconsistentComponents(f"singular index {_shown(i)} outside 1..{r}")
            if i in seen:
                raise InconsistentComponents(f"singular index {i} assigned twice")
            seen.add(i)
    if len(seen) != r:
        raise InconsistentComponents(
            f"components assign {len(seen)} singular points, instance has {r}"
        )
    # order[j] = incoming slot that lands at canonical position j.
    canon_of_label = {order[j] + 1: j + 1 for j in range(r)}
    return tuple(ComponentSpec(c.chi_c, c.is_compact,
                               frozenset(canon_of_label[i] for i in c.singular_indices))
                 for c in components)


def enumerate_subset_weights(instance: ValidatedInstance) -> Iterator[tuple[frozenset, Fraction]]:
    """Yield all 2^r subsets I of {1..r} exactly once, as ``(index_set, total)``
    pairs (a frozenset of ints and the exact ``Fraction`` w_I, w_empty = 0), in
    binary-counter order (bit i of the counter toggles canonical index i+1)."""
    weights = instance.weights
    r = len(weights)
    for mask in range(1 << r):
        total = Fraction(0)
        members = []
        for i in range(r):
            if mask >> i & 1:
                total += weights[i]
                members.append(i + 1)
        yield frozenset(members), total


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


_EXACT_TEXT = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", an integer or a finite decimal ("0.3" -> 3/10, "-1e3") exactly.

    Binary floats are never accepted; only strings in the ASCII grammar of
    ``_EXACT_TEXT`` convert (``Fraction``'s own grammar reads "9 / 2",
    "1_000" or non-ASCII digits on some Python versions only).  A number is
    refused before it is built when its length (the longer side of a
    ``/``) plus its decimal exponent reach the interpreter's int-to-str
    limit (``sys.get_int_max_str_digits()``, 4300 by default): its
    numerator or denominator could not be printed, and ``Fraction`` takes
    time superlinear in the exponent to expand one.
    """
    if not isinstance(text, str):
        raise InputFormatError(f"expected a fraction string, got {type(text).__name__}")
    number = text.strip()
    if not _EXACT_TEXT.fullmatch(number):
        raise InputFormatError(f"cannot parse {_shown(text)} as an exact fraction")
    mantissa, _, exponent = number.lower().partition("e")
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    try:
        # Each side of the mantissa has at most as many digits as characters.
        if limit and max(map(len, mantissa.split("/"))) + abs(int(exponent or 0)) >= limit:
            raise InputFormatError(f"{_shown(text)} reaches the {limit}-digit int-to-str limit")
        return Fraction(number)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse {_shown(text)} as an exact fraction") from exc


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
    (``{"kind": ..., "components": [...]}``).  An absent kind is
    ``"union"`` when components are given and ``"compact"`` otherwise; a
    null kind or components is refused.  Only the document's shape is
    checked here; ``validate`` checks the values.  The command line reads
    its flags as the document they spell.
    """
    if isinstance(doc, str):
        import json  # loaded only for a document given as text

        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:  # malformed, too deep, or a huge int
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

    space = {} if doc.get("space") is None else doc["space"]
    if not isinstance(space, dict):
        raise InputFormatError("space must be a JSON object")
    given = "components" in space
    name = space.get("kind", (SpaceKind.UNION_OF_BASIC if given else SpaceKind.COMPACT).value)
    try:
        kind = SpaceKind(name)
    except ValueError:
        raise InputFormatError(f"unknown space kind {_shown(name)}; expected one of "
                               f"{sorted(member.value for member in SpaceKind)}") from None
    components = None
    if given:
        entries = space["components"]
        if not isinstance(entries, list):
            raise InputFormatError("components must be a JSON list")
        components = tuple(_component_from_json(entry) for entry in entries)
    return ProblemInstance(chi_c, weights, rho, kind, components)


def _is_int(value: object) -> bool:
    """Whether ``value`` is an int, and not a bool posing as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _exact(value: object, what: str) -> Fraction:
    """``value`` as a ``Fraction``, if it is an int (never a bool) or a
    ``Fraction``; a value of type ``Fraction`` itself comes back unchanged."""
    if type(value) is Fraction:
        return value
    if _is_int(value) or isinstance(value, Fraction):
        return Fraction(value)
    raise InputFormatError(f"{what} must be exact (an int or a Fraction), got {_shown(value)}")


def _listed(value: object, what: str) -> tuple | list:
    """``value``, when it is a tuple or a list."""
    if not isinstance(value, (tuple, list)):
        raise InputFormatError(f"{what} must be a tuple or a list, got {_shown(value)}")
    return value


_SHOWN = 60  # characters of an input's repr that an error message shows whole


def _cut(text: str, limit: int) -> str:
    """``text``, or its first ``limit`` characters and its length, so that one
    long value cannot flood an error line: the one cut of the package."""
    return f"{text[:limit]}... ({len(text)} characters)" if len(text) > limit else text


def _shown(value: object) -> str:
    """``value`` as an error line quotes it: a ``Fraction`` as ``p/q`` and
    anything else by its ``repr``, cut to ``_SHOWN`` characters, or its
    type's name if it cannot be printed."""
    try:
        return _cut(str(value) if isinstance(value, Fraction) else repr(value), _SHOWN)
    except Exception:  # an int past the int-to-str limit, a list nested too deep
        return f"<unprintable {type(value).__name__}>"


def _component_from_json(entry: object) -> ComponentSpec:
    if not isinstance(entry, dict):
        raise InputFormatError("each component must be a JSON object")
    try:
        chi_c = entry["chi_c"]
    except KeyError as exc:
        raise InputFormatError(f"component missing field {exc}") from exc
    return ComponentSpec(chi_c, entry.get("is_compact", True), entry.get("singular_indices", []))


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
