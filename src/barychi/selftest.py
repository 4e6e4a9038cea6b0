"""Seeded randomized cross-check corpora.

Three independent algorithms plus a brute-force face count should never
disagree; these corpora hammer on that.  Every generator takes an
explicit ``random.Random`` so failures reproduce from a printed seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .classifier import (
    Placement,
    chi_disjoint_union_decomposition,
    classify_r1,
    classify_r2_connected,
    classify_r2_two_components,
)
from .combinatorics import ext_binomial, gould_convolution, hockey_stick_sum
from .engine import (
    chi_c_direct,
    chi_c_strata,
    normalize_drop_heavy,
    normalize_drop_unit_weights,
)
from .model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    validate,
)
from .cli import compare_with_oracle
from .oracle import FiniteWeightedSpace
from .series import chi_c_series


def random_instance(rng: random.Random, max_r: int = 8) -> ValidatedInstance:
    """chi_c in [-10, 10], r in [0, max_r], weights in (0, 2] with
    denominators <= 20, rho in (0, 12]."""
    chi_c = rng.randint(-10, 10)
    r = rng.randint(0, max_r)
    weights = []
    for _ in range(r):
        d = rng.randint(1, 20)
        weights.append(Fraction(rng.randint(1, 2 * d), d))
    d = rng.randint(1, 20)
    rho = Fraction(rng.randint(1, 12 * d), d)
    kind = rng.choice(list(SpaceKind))
    components = None
    if kind is SpaceKind.UNION_OF_BASIC:
        # Two components, singular points split at a random cut.
        cut = rng.randint(0, r)
        chi_1 = rng.randint(-5, 5)
        components = (
            ComponentSpec(chi_1, rng.random() < 0.5, frozenset(range(1, cut + 1))),
            ComponentSpec(chi_c - chi_1, rng.random() < 0.5, frozenset(range(cut + 1, r + 1))),
        )
    return validate(ProblemInstance(chi_c, tuple(weights), rho, kind, components))


def random_finite_space(rng: random.Random, max_m: int = 10) -> tuple[FiniteWeightedSpace, Fraction]:
    """A finite space with m <= max_m vertices, weights in (0, 2] with
    denominators <= 12, and rho in (0, m + 1]."""
    m = rng.randint(1, max_m)
    weights = []
    for _ in range(m):
        if rng.random() < 0.3:
            weights.append(Fraction(1))  # keep plenty of generic vertices
        else:
            d = rng.randint(1, 12)
            weights.append(Fraction(rng.randint(1, 2 * d), d))
    d = rng.randint(1, 12)
    rho = Fraction(rng.randint(1, (m + 1) * d), d)
    return FiniteWeightedSpace(tuple(weights)), rho


# ---------------------------------------------------------------------------
# Corpus checks.  Each returns a list of human-readable failure strings.


def check_triple_agreement(instance: ValidatedInstance) -> list[str]:
    """direct == strata == series, and d_rho = 1 - chi_c for each."""
    failures = []
    results = [chi_c_direct(instance), chi_c_strata(instance), chi_c_series(instance)]
    values = {res.chi_c_value for res in results}
    if len(values) != 1:
        failures.append(
            f"method disagreement on {_describe(instance)}: "
            + ", ".join(f"{res.method}={res.chi_c_value}" for res in results)
        )
    for res in results:
        if res.degree_d_rho + res.chi_c_value != 1:
            failures.append(f"degree relation broken for {res.method} on {_describe(instance)}")
    return failures


def check_normalization(instance: ValidatedInstance) -> list[str]:
    """Dropping too-heavy weights or unit weights must not change chi_c."""
    failures = []
    base = chi_c_direct(instance).chi_c_value
    for name, normalize in (
        ("drop-heavy", normalize_drop_heavy),
        ("drop-unit", normalize_drop_unit_weights),
    ):
        reduced = chi_c_direct(normalize(instance)).chi_c_value
        if reduced != base:
            failures.append(
                f"{name} changed chi_c from {base} to {reduced} on {_describe(instance)}"
            )
    return failures


def check_oracle(space: FiniteWeightedSpace, rho: Fraction) -> list[str]:
    """Face enumeration equals all three algorithms with chi_c = m, compared
    the way ``barychi oracle`` compares them."""
    _, expected, values = compare_with_oracle(space, rho)
    return [
        f"oracle {expected} != {method} {value} for "
        f"weights={[str(w) for w in space.vertex_weights]} rho={rho}"
        for method, value in values.items()
        if value != expected
    ]


def classifier_sweep_failures() -> list[str]:
    """Deterministic sweeps of the r = 1 and r = 2 case tables against the
    engine (compact space, weights <= 1, so topological chi applies)."""
    failures = []
    rhos = [Fraction(k, 4) for k in range(1, 25)]
    tenths = [Fraction(k, 10) for k in range(1, 11)]

    for chi in range(-5, 6):
        for w in tenths:
            for rho in rhos:
                inst = validate(ProblemInstance(chi, (w,), rho))
                got = classify_r1(inst).chi()
                want = chi_c_direct(inst).chi_c_value
                if got != want:
                    failures.append(f"r1 chi={chi} w={w} rho={rho}: {got} != {want}")

    for chi in range(-5, 6):
        for i, w1 in enumerate(tenths):
            for w2 in tenths[i:]:
                for rho in rhos:
                    inst = validate(ProblemInstance(chi, (w1, w2), rho))
                    got = classify_r2_connected(inst).chi()
                    want = chi_c_direct(inst).chi_c_value
                    if got != want:
                        failures.append(
                            f"r2 chi={chi} w=({w1},{w2}) rho={rho}: {got} != {want}"
                        )

    for chi_1 in range(-2, 4):
        for chi_2 in range(-2, 4):
            for i, w1 in enumerate(tenths):
                for w2 in tenths[i:]:
                    for rho in (Fraction(5, 2), Fraction(13, 4), Fraction(1, 2)):
                        failures.extend(
                            _two_component_case(chi_1, chi_2, w1, w2, rho)
                        )
    return failures


def _two_component_case(
    chi_1: int, chi_2: int, w1: Fraction, w2: Fraction, rho: Fraction
) -> list[str]:
    components = (
        ComponentSpec(chi_1, True, frozenset({1})),
        ComponentSpec(chi_2, True, frozenset({2})),
    )
    inst = validate(
        ProblemInstance(chi_1 + chi_2, (w1, w2), rho, SpaceKind.UNION_OF_BASIC, components)
    )
    want = chi_c_direct(inst).chi_c_value
    failures = []
    values = {}
    for placement in Placement:
        got = classify_r2_two_components(inst, placement).chi()
        values[placement] = got
        if got != want:
            failures.append(
                f"r2-two-components {placement.value} chi=({chi_1},{chi_2}) "
                f"w=({w1},{w2}) rho={rho}: {got} != {want}"
            )
    if values[Placement.ONE_EACH] != values[Placement.BOTH_IN_FIRST]:
        failures.append(
            f"placement changed chi for chi=({chi_1},{chi_2}) w=({w1},{w2}) rho={rho}"
        )
    return failures


def identity_failures() -> list[str]:
    """The exact combinatorial identities over their stated ranges."""
    failures = []
    for m in range(-20, 21):
        for n in range(1, 21):
            if ext_binomial(m, n - 1) + ext_binomial(m, n) != ext_binomial(m + 1, n):
                failures.append(f"Pascal rule fails at ({m}, {n})")
    for m in range(-15, 16):
        for n in range(0, 16):
            if hockey_stick_sum(m, n) != ext_binomial(m + n, n):
                failures.append(f"hockey stick fails at ({m}, {n})")
    for chi_1 in range(-8, 9):
        for chi_2 in range(-8, 9):
            for k in range(0, 13):
                if gould_convolution(chi_1, chi_2, k) != ext_binomial(k - chi_1 - chi_2, k):
                    failures.append(f"Gould convolution fails at ({chi_1}, {chi_2}, {k})")
    for chi_1 in range(-6, 7):
        for chi_2 in range(-6, 7):
            for k in range(2, 11):
                got = chi_disjoint_union_decomposition(chi_1, chi_2, k)
                want = 1 - ext_binomial(k - chi_1 - chi_2, k)
                if got != want:
                    failures.append(f"union decomposition fails at ({chi_1}, {chi_2}, {k})")
    return failures


def run_selftest(
    cases: int = 1000,
    seed: int | None = None,
    emit: Callable[[str], None] = print,
) -> bool:
    """Run every corpus; print one line per corpus and return overall truth."""
    if seed is None:
        seed = random.randrange(2**32)
    emit(f"seed: {seed}")
    ok = True

    rng = random.Random(seed)
    instances = [random_instance(rng) for _ in range(cases)]
    for name, check in (
        ("triple-agreement", check_triple_agreement),
        ("normalization-invariance", check_normalization),
    ):
        failures = [msg for inst in instances for msg in check(inst)]
        ok &= _report(emit, name, cases, failures)

    oracle_cases = max(cases // 2, 1)
    rng = random.Random(seed + 1)
    failures = []
    for _ in range(oracle_cases):
        space, rho = random_finite_space(rng)
        failures.extend(check_oracle(space, rho))
    ok &= _report(emit, "oracle-equivalence", oracle_cases, failures)

    failures = classifier_sweep_failures()
    ok &= _report(emit, "classifier-consistency", None, failures)
    failures = identity_failures()
    ok &= _report(emit, "identity-suite", None, failures)

    emit(f"result: {'PASS' if ok else 'FAIL'}")
    return ok


def _report(emit: Callable[[str], None], name: str, cases: int | None, failures: list[str]) -> bool:
    counted = f"{cases} cases, " if cases is not None else ""
    emit(f"{name}: {counted}{len(failures)} failures")
    for msg in failures[:10]:
        emit(f"  {msg}")
    return not failures


def _describe(instance: ValidatedInstance) -> str:
    weights = ",".join(str(w) for w in instance.weights)
    return f"(chi_c={instance.chi_c} weights=[{weights}] rho={instance.rho})"
