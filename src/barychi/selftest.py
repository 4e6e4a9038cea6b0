"""Seeded randomized cross-check corpora.

Three independent algorithms plus a brute-force face count should never
disagree; these corpora hammer on that.  Every generator takes an
explicit ``random.Random`` so failures reproduce from a printed seed.
"""
from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import product

from .classifier import classify
from .combinatorics import ext_binomial
from .engine import chi_c_direct, normalize_drop_heavy, normalize_drop_unit_weights
from .model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    validate,
)
from .cli import _METHOD_RUNNERS, compare_with_oracle
from .oracle import FiniteWeightedSpace
from .series import COLUMNS_FROM, chen_lin_series


def random_instance(rng: random.Random) -> ValidatedInstance:
    """chi_c in [-10, 10], r in [0, 8], weights in (0, 2] with
    denominators <= 20, rho in (0, 12], or, one draw in eight, in
    (COLUMNS_FROM, 2 * COLUMNS_FROM], where the series route expands its
    residue columns."""
    chi_c = rng.randint(-10, 10)
    r = rng.randint(0, 8)
    weights = []
    for _ in range(r):
        d = rng.randint(1, 20)
        weights.append(Fraction(rng.randint(1, 2 * d), d))
    d = rng.randint(1, 20)
    low, high = (COLUMNS_FROM, 2 * COLUMNS_FROM) if rng.randrange(8) == 0 else (0, 12)
    rho = Fraction(rng.randint(low * d + 1, high * d), d)
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


def random_finite_space(rng: random.Random) -> tuple[FiniteWeightedSpace, Fraction]:
    """A finite space with m <= 10 vertices, weights in (0, 2] with
    denominators <= 12, and rho in (0, m + 1]."""
    m = rng.randint(1, 10)
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
    """Every route of ``cli._METHOD_RUNNERS`` gives one chi_c, and
    d_rho = 1 - chi_c for each; and so does 1 minus the sum of the whole
    ``chen_lin_series``, what the ``series`` command and a breakdown print,
    as the series route counts its last two factors without expanding them."""
    failures = []
    results = {name: run(instance) for name, run in _METHOD_RUNNERS.items()}
    chis = {res.chi_c_value for res in results.values()}
    expanded = 1 - sum(coefficient for _, coefficient in chen_lin_series(instance).terms())
    if len(chis) != 1:
        failures.append(
            f"method disagreement on {_describe(instance)}: "
            + ", ".join(f"{name}={res.chi_c_value}" for name, res in results.items())
        )
    elif expanded not in chis:
        failures.append(f"the expanded series gives {expanded}, every route {chis.pop()}, "
                        f"on {_describe(instance)}")
    for name, res in results.items():
        if res.degree_d_rho + res.chi_c_value != 1:
            failures.append(f"degree relation broken for {name} on {_describe(instance)}")
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
    """``classify`` against direct on every instance of ``_sweep_groups``
    (compact spaces, weights <= 1, so the topological chi applies), and the
    placements of one group against each other."""
    failures = []
    for group in _sweep_groups():
        chis = []
        for instance in group:
            got, want = classify(instance).chi_value, chi_c_direct(instance).chi_c_value
            chis.append(got)
            if got != want:
                failures.append(f"classify gives {got}, direct {want} on {_describe(instance)}")
        if len(set(chis)) > 1:
            failures.append("placement changes chi: " + ", ".join(
                f"{chi} on {_describe(instance)}" for chi, instance in zip(chis, group)))
    return failures


def _sweep_groups() -> Iterator[list[ValidatedInstance]]:
    """The classifier's r = 1 and connected r = 2 tables, one space a group,
    then two compact components, each group one space's two points placed
    one on each component and both on the first."""
    rhos = [Fraction(k, 4) for k in range(1, 25)]
    tenths = [Fraction(k, 10) for k in range(1, 11)]
    pairs = [(w1, w2) for i, w1 in enumerate(tenths) for w2 in tenths[i:]]
    for table in ([(w,) for w in tenths], pairs):
        for chi, weights, rho in product(range(-5, 6), table, rhos):
            yield [validate(ProblemInstance(chi, weights, rho))]
    placements = ((frozenset({1}), frozenset({2})), (frozenset({1, 2}), frozenset()))
    for chi_1, chi_2, weights, rho in product(range(-2, 4), range(-2, 4), pairs,
                                             (Fraction(5, 2), Fraction(13, 4), Fraction(1, 2))):
        yield [validate(ProblemInstance(
            chi_1 + chi_2, weights, rho, SpaceKind.UNION_OF_BASIC,
            (ComponentSpec(chi_1, True, first), ComponentSpec(chi_2, True, second))))
            for first, second in placements]


def hockey_stick_sum(m: int, n: int) -> int:
    """1 + sum_{j=1..n} C(m+j-1, j), which telescopes to C(m+n, n).

    Valid for every integer m, including m <= 0; n must be >= 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 1
    for j in range(1, n + 1):
        total += ext_binomial(m + j - 1, j)
    return total


def gould_convolution(chi1: int, chi2: int, k: int) -> int:
    """sum_{l=0..k} C(k-l-chi1, k-l) * C(l-1-chi2, l).

    The Vandermonde-style convolution that collapses a two-part
    decomposition into the single coefficient C(k-chi1-chi2, k).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0
    for l in range(k + 1):
        total += ext_binomial(k - l - chi1, k - l) * ext_binomial(l - 1 - chi2, l)
    return total


def chi_disjoint_union_decomposition(chi_a: int, chi_b: int, k: int) -> int:
    """chi of B_k(A u B) evaluated term by term over its wedge decomposition
    (A, B compact): barycenter spaces of each part, suspensions (chi 2 - x),
    joins of complementary parts (of compact x and y: x + y - x*y), and the
    wedge-point correction -2k.

    Equals 1 - C(k - chi_a - chi_b, k) for every k >= 2.
    """
    if k < 2:
        raise ValueError("decomposition applies for k >= 2")

    # Its own B_j term, not ``classifier.bary``: this is the reference.
    def bary(j: int, chi: int) -> int:
        return 0 if j == 0 else 1 - ext_binomial(j - chi, j)

    parts = [
        bary(k, chi_a),
        2 - bary(k - 1, chi_a),
        bary(k, chi_b),
        2 - bary(k - 1, chi_b),
    ]
    for l in range(1, k):
        x, y = bary(k - l, chi_a), bary(l, chi_b)
        parts.append(x + y - x * y)
    for l in range(2, k):
        x, y = bary(k - l, chi_a), bary(l - 1, chi_b)
        parts.append(2 - (x + y - x * y))
    return sum(parts) - 2 * k


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


def run_selftest(cases: int = 1000, seed: int | None = None) -> bool:
    """Run every corpus; print one line per corpus and return overall truth.

    Each random instance is checked as soon as it is drawn, and a corpus
    keeps only its failure count and first ten messages, so a run holds one
    instance and ten messages a corpus, however many ``cases`` it draws.
    """
    if seed is None:
        seed = random.randrange(2**32)
    print(f"seed: {seed}")

    rng = random.Random(seed)
    triple, normalization = _Failures(), _Failures()
    for _ in range(cases):
        instance = random_instance(rng)
        triple.add(check_triple_agreement(instance))
        normalization.add(check_normalization(instance))
    ok = triple.report("triple-agreement", cases)
    ok &= normalization.report("normalization-invariance", cases)

    oracle_cases = max(cases // 2, 1)
    rng = random.Random(seed + 1)
    oracle = _Failures()
    for _ in range(oracle_cases):
        oracle.add(check_oracle(*random_finite_space(rng)))
    ok &= oracle.report("oracle-equivalence", oracle_cases)

    ok &= _Failures(classifier_sweep_failures()).report("classifier-consistency")
    ok &= _Failures(identity_failures()).report("identity-suite")

    print(f"result: {'PASS' if ok else 'FAIL'}")
    return ok


class _Failures:
    """A corpus's failure count and the first ten messages its report prints."""

    def __init__(self, messages: Sequence[str] = ()) -> None:
        self.count, self.first = len(messages), list(messages[:10])

    def add(self, messages: Sequence[str]) -> None:
        self.count += len(messages)
        self.first += messages[:10 - len(self.first)]

    def report(self, name: str, cases: int | None = None) -> bool:
        counted = f"{cases} cases, " if cases is not None else ""
        print(f"{name}: {counted}{self.count} failures")
        for msg in self.first:
            print(f"  {msg}")
        return not self.count


def _describe(instance: ValidatedInstance) -> str:
    weights = ",".join(str(w) for w in instance.weights)
    components = ";".join(f"{c.chi_c}:{sorted(c.singular_indices)}"
                          for c in instance.components or ())
    where = f" components={components}" if components else ""
    return f"(chi_c={instance.chi_c} weights=[{weights}] rho={instance.rho}{where})"
