"""Problem instances: a space's chi_c, its singular weights, and the mass bound.

Weights and the bound rho are exact rationals.  Floor expressions such as
``floor(rho - w_I)`` are discontinuous, so binary floats would silently
flip results at ties; every fraction is therefore parsed exactly ("3/10",
or a finite decimal "0.3" read as 3/10) and kept as a ``Fraction``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    InconsistentComponents,
    InputFormatError,
    NonPositiveRho,
    NonPositiveWeight,
    TooManySingularPoints,
)

# The closed-form sum is Theta(2^r); fail loudly instead of hanging.
MAX_SINGULAR_POINTS = 30


class SpaceKind(Enum):
    """What is known about the underlying space X (chi_c is caller-supplied)."""

    COMPACT = "compact"
    LOCALLY_CLOSED_BASIC = "lc"
    INTERIOR_EVEN_DIM_MANIFOLD = "even-interior"
    UNION_OF_BASIC = "union"


@dataclass(frozen=True)
class ComponentSpec:
    """One connected component: its chi_c, compactness, and which singular
    points (1-based weight indices) live on it."""

    chi_c: int
    is_compact: bool
    singular_indices: frozenset[int]


@dataclass(frozen=True)
class ProblemInstance:
    """Raw input: chi_c(X), the singular weights w_1..w_r, and rho."""

    chi_c: int
    weights: tuple[Fraction, ...]
    rho: Fraction
    space_kind: SpaceKind = SpaceKind.COMPACT
    components: tuple[ComponentSpec, ...] | None = None


@dataclass(frozen=True)
class ValidatedInstance:
    """A checked instance with weights in canonical (ascending) order.

    ``source_positions[i]`` is the 1-based position the i-th canonical
    weight had in the caller's list, kept for reporting only.  Component
    singular indices are remapped to canonical positions.
    """

    chi_c: int
    weights: tuple[Fraction, ...]
    rho: Fraction
    space_kind: SpaceKind
    components: tuple[ComponentSpec, ...] | None
    source_positions: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SubsetWeight:
    """A subset I of {1..r} with its exact weight sum w_I (w_empty = 0)."""

    index_set: frozenset[int]
    total: Fraction

    @property
    def parity(self) -> int:
        """(-1)^|I|."""
        return -1 if len(self.index_set) % 2 else 1


def validate(instance: ProblemInstance | ValidatedInstance) -> ValidatedInstance:
    """Check all invariants and return the canonical form of the instance.

    Idempotent: validating a ``ValidatedInstance`` returns an equal one.

    Raises ``NonPositiveWeight``, ``NonPositiveRho``,
    ``InconsistentComponents``, or ``TooManySingularPoints``.
    """
    if isinstance(instance, ValidatedInstance):
        positions = instance.source_positions
    else:
        positions = tuple(range(1, len(instance.weights) + 1))

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
    source = tuple(positions[i] for i in order)

    components = instance.components
    if components is not None:
        components = _check_components(instance.chi_c, r, components, order)

    return ValidatedInstance(
        chi_c=instance.chi_c,
        weights=canonical,
        rho=rho,
        space_kind=instance.space_kind,
        components=components,
        source_positions=source,
    )


def _check_components(
    chi_c: int,
    r: int,
    components: Sequence[ComponentSpec],
    order: list[int],
) -> tuple[ComponentSpec, ...]:
    """Reconcile component data with the totals and remap singular indices
    (1-based positions in the incoming weight tuple) to canonical order."""
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


# ---------------------------------------------------------------------------
# Exact fraction and instance-document parsing


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", an integer, or a finite decimal ("0.3" -> 3/10) exactly.

    Binary floats are never accepted; only strings convert.
    """
    if not isinstance(text, str):
        raise InputFormatError(f"expected a fraction string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse {text!r} as an exact fraction") from exc


def parse_weights(csv: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated weight list; empty or blank means r = 0."""
    csv = csv.strip()
    if not csv:
        return ()
    return tuple(parse_fraction(part) for part in csv.split(","))


_KIND_BY_NAME = {kind.value: kind for kind in SpaceKind}


def instance_from_json(doc: str | dict) -> ProblemInstance:
    """Build an instance from the JSON document format.

    Fields: ``chi_c`` (int), ``weights`` (list of fraction strings),
    ``rho`` (fraction string), optional ``space``
    (``{"kind": ..., "components": [...]}``).
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("instance document must be a JSON object")
    try:
        chi_c = doc["chi_c"]
        raw_weights = doc.get("weights", [])
        raw_rho = doc["rho"]
    except KeyError as exc:
        raise InputFormatError(f"instance document missing field {exc}") from exc
    if not _is_json_int(chi_c):
        raise InputFormatError("chi_c must be a JSON integer")
    if isinstance(raw_weights, str):
        weights = parse_weights(raw_weights)
    else:
        weights = tuple(parse_fraction(w) for w in raw_weights)
    rho = parse_fraction(raw_rho)

    kind = SpaceKind.COMPACT
    components = None
    space = doc.get("space")
    if space is not None:
        if not isinstance(space, dict):
            raise InputFormatError("space must be a JSON object")
        name = space.get("kind", SpaceKind.COMPACT.value)
        if name not in _KIND_BY_NAME:
            raise InputFormatError(
                f"unknown space kind {name!r}; expected one of {sorted(_KIND_BY_NAME)}"
            )
        kind = _KIND_BY_NAME[name]
        if space.get("components") is not None:
            components = parse_components(space["components"])
    return ProblemInstance(chi_c, weights, rho, kind, components)


def parse_components(entries: object) -> tuple[ComponentSpec, ...]:
    """Parse a JSON list of component objects (``space.components`` of an
    instance document, or ``--components`` on the command line)."""
    if not isinstance(entries, list):
        raise InputFormatError("components must be a JSON list")
    return tuple(_component_from_json(entry) for entry in entries)


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _component_from_json(entry: object) -> ComponentSpec:
    if not isinstance(entry, dict):
        raise InputFormatError("each component must be a JSON object")
    try:
        chi_c = entry["chi_c"]
        is_compact = entry.get("is_compact", True)
        indices = entry.get("singular_indices", [])
    except KeyError as exc:
        raise InputFormatError(f"component missing field {exc}") from exc
    if not _is_json_int(chi_c):
        raise InputFormatError("component chi_c must be a JSON integer")
    if not isinstance(is_compact, bool):
        raise InputFormatError("component is_compact must be a JSON boolean")
    if not isinstance(indices, list) or not all(map(_is_json_int, indices)):
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
