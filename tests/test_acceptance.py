"""Acceptance criteria, one test per criterion.

Every check is exact integer equality (no tolerances anywhere); each test
prints a single PASS line once its criterion holds.  Run with ``-s`` (or
read captured output) for the per-criterion lines.
"""
import time
from fractions import Fraction
from math import comb

from barychi.classifier import (
    ConicPiece,
    classify_r1,
    colimit_pieces,
    maximal_pieces,
    piece_includes,
)
from barychi.combinatorics import ext_binomial, gould_convolution, hockey_stick_sum
from barychi.engine import (
    chi_c_direct,
    chi_c_strata,
    normalize_drop_heavy,
    normalize_drop_unit_weights,
)
from barychi.model import ProblemInstance, SpaceKind, validate
from barychi.oracle import oracle_chi, skeleton_chi
from barychi.selftest import classifier_sweep_failures
from barychi.series import chi_c_series

F = Fraction


def make(chi_c, weights, rho, kind=SpaceKind.COMPACT):
    return validate(ProblemInstance(chi_c, tuple(F(w) for w in weights), F(rho), kind))


def report(line):
    print(f"PASS {line}")


def test_criterion_1_maximal_piece_decomposition():
    inst = make(2, ["3/10", "2/5", "3/5"], "9/2")
    got = set(maximal_pieces(inst))
    assert got == {
        ConicPiece(4, frozenset({1})),
        ConicPiece(4, frozenset({2})),
        ConicPiece(3, frozenset({1, 2, 3})),
    }
    report("criterion 1: rho=9/2 maximal conic pieces are exactly "
           "{B_4(X,p1), B_4(X,p2), B_3(X,p1,p2,p3)}")


def test_criterion_2_single_point_case_split():
    checks = 0
    for chi in range(-5, 6):
        for n in range(1, 7):
            for k in range(1, 11):
                w = F(k, 10)
                # epsilon below the weight: the closed form with one level lost
                eps = w - F(1, 20)
                inst = make(chi, [w], F(n) + eps)
                assert chi_c_direct(inst).chi_c_value == 1 - ext_binomial(n - chi, n)
                checks += 1
                # weight at or below epsilon: always contractible value 1
                if w < 1:
                    inst = make(chi, [w], F(n) + w)
                    assert chi_c_direct(inst).chi_c_value == 1
                    checks += 1
    report(f"criterion 2: single-point case split holds ({checks} exact checks)")


def test_criterion_3_light_point_on_open_disk():
    for chi in (1, -1):
        inst = make(chi, [F(1, 10)], F(11, 10), SpaceKind.LOCALLY_CLOSED_BASIC)
        assert chi_c_direct(inst).chi_c_value == 1
    report("criterion 3: chi_c(B_1(D,p)) = 1 for open disks of either parity")


def test_criterion_4_triple_agreement(engine_corpus):
    assert len(engine_corpus) >= 1000
    start = time.monotonic()
    mismatches = 0
    for inst in engine_corpus:
        direct = chi_c_direct(inst).chi_c_value
        strata = chi_c_strata(inst).chi_c_value
        series = chi_c_series(inst).chi_c_value
        if not direct == strata == series:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"corpus took {elapsed:.1f}s"
    report(f"criterion 4: direct = strata = series on {len(engine_corpus)} "
           f"random instances in {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence(finite_corpus):
    assert len(finite_corpus) >= 500
    for space, rho in finite_corpus:
        expected = oracle_chi(space, rho)
        inst = validate(space.matching_instance(rho))
        assert chi_c_direct(inst).chi_c_value == expected
        assert chi_c_strata(inst).chi_c_value == expected
        assert chi_c_series(inst).chi_c_value == expected
    report(f"criterion 5: face enumeration matches all three algorithms on "
           f"{len(finite_corpus)} random finite spaces")


def test_criterion_6_skeleton_bouquet_triple_identity():
    for n in range(1, 13):
        for k in range(1, n + 1):
            face_count = skeleton_chi(n, k)
            assert face_count == 1 - ext_binomial(k - (n + 1), k)
            assert face_count == 1 + (-1) ** (k - 1) * comb(n, k)
    report("criterion 6: skeleton chi = closed form = bouquet count for 1 <= k <= n <= 12")


def test_criterion_7_normalization_invariance(engine_corpus):
    for inst in engine_corpus:
        base = chi_c_direct(inst).chi_c_value
        assert chi_c_direct(normalize_drop_heavy(inst)).chi_c_value == base
        assert chi_c_direct(normalize_drop_unit_weights(inst)).chi_c_value == base
    report(f"criterion 7: chi_c invariant under both normalizations on "
           f"{len(engine_corpus)} instances")


def test_criterion_8_identity_suite():
    for m in range(-20, 21):
        for n in range(1, 21):
            assert ext_binomial(m, n - 1) + ext_binomial(m, n) == ext_binomial(m + 1, n)
    for m in range(-15, 16):
        for n in range(0, 16):
            assert hockey_stick_sum(m, n) == ext_binomial(m + n, n)
    for chi1 in range(-8, 9):
        for chi2 in range(-8, 9):
            for k in range(0, 13):
                assert gould_convolution(chi1, chi2, k) == ext_binomial(k - chi1 - chi2, k)
    report("criterion 8: Pascal, hockey-stick, and convolution identities hold exactly")


def test_criterion_9_classifier_consistency():
    failures = classifier_sweep_failures()
    assert failures == []
    report("criterion 9: descriptor chi equals engine chi_c across all case sweeps, "
           "both placements")


def test_criterion_10_degree_relation(engine_corpus):
    for inst in engine_corpus[:250]:
        for res in (
            chi_c_direct(inst),
            chi_c_strata(inst),
            chi_c_series(inst),
        ):
            assert res.degree_d_rho == 1 - res.chi_c_value
    # and on classifier-backed values, via the r=1 descriptor
    for chi in range(-5, 6):
        inst = make(chi, ["7/10"], "5/2")
        res = chi_c_direct(inst)
        assert res.degree_d_rho == 1 - classify_r1(inst).chi()
    report("criterion 10: d_rho = 1 - chi_c on every computed instance")


def test_colimit_criterion_support():
    # the criterion-1 decomposition is a genuine filtering: all 8 pieces
    # exist first, the non-maximal five include into the survivors
    inst = make(2, ["3/10", "2/5", "3/5"], "9/2")
    pieces = colimit_pieces(inst)
    maximal = set(maximal_pieces(inst))
    assert len(pieces) == 8
    for p in pieces:
        assert any(piece_includes(p, q) for q in maximal)
