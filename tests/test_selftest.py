"""selftest checks each random instance before it draws the next, and keeps
a corpus's failure count and first ten messages, so a run holds one instance
and ten messages at a time however many cases it is asked for."""
import contextlib
import gc
import io
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import count
from types import SimpleNamespace

from barychi import cli, selftest
from barychi.engine import (
    ChiResult,
    chi_c_direct,
    normalize_drop_heavy,
    normalize_drop_unit_weights,
)
from barychi.model import ComponentSpec, ProblemInstance, SpaceKind, validate
from barychi.oracle import FiniteWeightedSpace
from barychi.series import chen_lin_series

# chi_c = 1 on every route.
INSTANCE = validate(ProblemInstance(2, (F(1, 2),), F(3, 2)))


def test_each_instance_is_checked_before_the_next_is_drawn(monkeypatch, capsys):
    events = []
    draw = selftest.random_instance

    def logged_draw(rng):
        instance = draw(rng)
        events.append(("draw", instance))
        return instance

    def logged_check(name):
        def check(instance):
            events.append((name, instance))
            return []
        return check

    monkeypatch.setattr(selftest, "random_instance", logged_draw)
    monkeypatch.setattr(selftest, "check_triple_agreement", logged_check("triple"))
    monkeypatch.setattr(selftest, "check_normalization", logged_check("normalization"))
    # The other corpora draw no random instance; they are not under test here.
    monkeypatch.setattr(selftest, "check_oracle", lambda space, rho: [])
    monkeypatch.setattr(selftest, "classifier_sweep_failures", list)
    monkeypatch.setattr(selftest, "identity_failures", list)

    assert selftest.run_selftest(cases=5, seed=3)
    rng = random.Random(3)
    expected = [draw(rng) for _ in range(5)]
    assert events == [(name, instance) for instance in expected
                      for name in ("draw", "triple", "normalization")]
    assert capsys.readouterr().out.splitlines()[:3] == [
        "seed: 3",
        "triple-agreement: 5 cases, 0 failures",
        "normalization-invariance: 5 cases, 0 failures",
    ]


def test_failures_keep_their_corpus_and_order(monkeypatch, capsys):
    # Interleaving the checks must not interleave their reports.
    def failing(name):
        return lambda instance: [f"{name} {instance.chi_c}"]

    monkeypatch.setattr(selftest, "check_triple_agreement", failing("triple"))
    monkeypatch.setattr(selftest, "check_normalization", failing("normalization"))
    monkeypatch.setattr(selftest, "check_oracle", lambda space, rho: [])
    monkeypatch.setattr(selftest, "classifier_sweep_failures", list)
    monkeypatch.setattr(selftest, "identity_failures", list)

    assert not selftest.run_selftest(cases=12, seed=5)
    rng = random.Random(5)
    chis = [selftest.random_instance(rng).chi_c for _ in range(12)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:24] == [
        "triple-agreement: 12 cases, 12 failures",
        *(f"  triple {chi}" for chi in chis[:10]),
        "normalization-invariance: 12 cases, 12 failures",
        *(f"  normalization {chi}" for chi in chis[:10]),
        "oracle-equivalence: 6 cases, 0 failures",
    ]
    assert lines[-1] == "result: FAIL"


def test_failing_cases_are_counted_not_kept(monkeypatch):
    # Every case fails.  The draws return one fixed instance and space, so
    # the only memory that could grow with the cases is the failures kept.
    instance = selftest.random_instance(random.Random(0))
    space = selftest.random_finite_space(random.Random(0))
    monkeypatch.setattr(selftest, "random_instance", lambda rng: instance)
    monkeypatch.setattr(selftest, "random_finite_space", lambda rng: space)
    monkeypatch.setattr(selftest, "check_normalization", lambda instance: [])
    monkeypatch.setattr(selftest, "check_oracle", lambda space, rho: [])
    monkeypatch.setattr(selftest, "classifier_sweep_failures", list)
    monkeypatch.setattr(selftest, "identity_failures", list)
    described = selftest._describe(instance)

    def run(cases):
        numbers = count()
        monkeypatch.setattr(selftest, "check_triple_agreement", lambda instance: [
            f"method disagreement {next(numbers)} on {selftest._describe(instance)}"])
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert not selftest.run_selftest(cases=cases, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, out.getvalue().splitlines()

    small, _ = run(500)
    large, lines = run(5000)
    assert lines == [
        "seed: 1",
        "triple-agreement: 5000 cases, 5000 failures",
        *(f"  method disagreement {n} on {described}" for n in range(10)),
        "normalization-invariance: 5000 cases, 0 failures",
        "oracle-equivalence: 2500 cases, 0 failures",
        "classifier-consistency: 0 failures",
        "identity-suite: 0 failures",
        "result: FAIL",
    ]
    # Keeping every message would add about 4500 strings of some 80 bytes.
    assert large - small < 20_000


def test_long_runs_leave_no_tuples_behind():
    # A tuple built from a generator is grown by reallocation, outside
    # CPython's tuple free lists, but freed into them; with the collector
    # off, up to 2,000 per size then stay parked, and the memory held after
    # a run grows with its length.  Built from a list, a tuple takes its
    # block from the free list and gives it back.
    def held(draws):
        rng = random.Random(1)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(draws):
                instance = selftest.random_instance(rng)
                normalize_drop_heavy(instance)
                normalize_drop_unit_weights(instance)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()

    small = held(2_000)
    # About 270 KiB more when validate and _drop build their tuples from generators.
    assert held(20_000) - small < 150 * 1024


def test_agreement_runs_exactly_the_routes_of_the_cli_table(monkeypatch):
    calls = []
    for name, run in list(cli._METHOD_RUNNERS.items()):
        def logged(instance, name=name, run=run):
            calls.append(name)
            return run(instance)
        monkeypatch.setitem(cli._METHOD_RUNNERS, name, logged)
    assert selftest.check_triple_agreement(INSTANCE) == []
    assert calls == ["direct", "strata", "series"]


def test_a_route_added_to_the_cli_table_is_checked_and_named(monkeypatch):
    described = selftest._describe(INSTANCE)
    monkeypatch.setitem(cli._METHOD_RUNNERS, "shifted", lambda instance: ChiResult(0))
    assert selftest.check_triple_agreement(INSTANCE) == [
        f"method disagreement on {described}: direct=1, strata=1, series=1, shifted=0"]
    # A result whose degree is not 1 - chi_c is named by its table entry.
    monkeypatch.setitem(cli._METHOD_RUNNERS, "shifted",
                        lambda instance: SimpleNamespace(chi_c_value=1, degree_d_rho=1))
    assert selftest.check_triple_agreement(INSTANCE) == [
        f"degree relation broken for shifted on {described}"]


def test_an_expanded_series_that_disagrees_with_every_route_is_named(monkeypatch):
    # The series route counts its last factor; the whole expansion, which
    # the series command prints, is checked against the routes on its own.
    wrong = chen_lin_series(validate(ProblemInstance(2, (F(1, 2),), F(1, 4))))
    monkeypatch.setattr(selftest, "chen_lin_series", lambda instance: wrong)
    assert selftest.check_triple_agreement(INSTANCE) == [
        f"the expanded series gives 0, every route 1, on {selftest._describe(INSTANCE)}"]


# Each check of selftest below is made to fail once, and the line it prints
# must name what failed.

def two_components(first, second):
    # chi_c = 2 on every route, and on classify with either placement.
    return validate(ProblemInstance(
        1, (F(3, 10), F(2, 5)), F(5, 2), SpaceKind.UNION_OF_BASIC,
        (ComponentSpec(-2, True, frozenset(first)), ComponentSpec(3, True, frozenset(second)))))


def test_the_sweep_has_the_r1_r2_and_two_component_groups():
    # (group size, r, connected): 29,040 instances in all.
    shapes = Counter((len(group), group[0].r, group[0].components is None)
                     for group in selftest._sweep_groups())
    assert shapes == {(1, 1, True): 2640, (1, 2, True): 14520, (2, 2, False): 5940}


def test_the_sweep_names_each_instance_that_classify_gets_wrong(monkeypatch):
    # One r = 1 space, one connected r = 2 space, and one of the two
    # placements on two components, which the placement check then names.
    wrong = {INSTANCE, validate(ProblemInstance(0, (F(3, 10), F(7, 10)), F(5, 4))),
             two_components({1, 2}, set())}
    classify = selftest.classify

    def off_by_one(instance):
        descriptor = classify(instance)
        return descriptor._replace(chi_value=descriptor.chi_value + (instance in wrong))

    monkeypatch.setattr(selftest, "classify", off_by_one)
    both_first = "(chi_c=1 weights=[3/10,2/5] rho=5/2 components=-2:[1, 2];3:[])"
    assert selftest.classifier_sweep_failures() == [
        "classify gives 2, direct 1 on (chi_c=2 weights=[1/2] rho=3/2)",
        "classify gives 0, direct -1 on (chi_c=0 weights=[3/10,7/10] rho=5/4)",
        f"classify gives 3, direct 2 on {both_first}",
        "placement changes chi: 2 on (chi_c=1 weights=[3/10,2/5] rho=5/2 "
        f"components=-2:[1];3:[2]), 3 on {both_first}",
    ]


def test_a_normalization_that_changes_chi_c_is_named(monkeypatch):
    # Dropping the weight 1/2, which fits under rho, changes chi_c from 1 to 2.
    monkeypatch.setattr(selftest, "normalize_drop_heavy", lambda instance: validate(
        ProblemInstance(instance.chi_c, (), instance.rho)))
    assert selftest.check_normalization(INSTANCE) == [
        "drop-heavy changed chi_c from 1 to 2 on (chi_c=2 weights=[1/2] rho=3/2)"]


def test_a_route_that_disagrees_with_the_oracle_is_named(monkeypatch):
    space = FiniteWeightedSpace.of(3, (F(1, 2),))
    assert selftest.check_oracle(space, F(5, 2)) == []
    monkeypatch.setitem(cli._METHOD_RUNNERS, "shifted",
                        lambda instance: ChiResult(chi_c_direct(instance).chi_c_value + 1))
    assert selftest.check_oracle(space, F(5, 2)) == [
        "oracle 1 != shifted 2 for weights=['1/2', '1', '1'] rho=5/2"]


def test_each_identity_names_the_point_where_it_fails(monkeypatch):
    def wrong_at(function, point):
        return lambda *args: function(*args) + (args == point)

    # C(21, 20) is read by Pascal's rule alone, at (20, 20).
    for name, point in (("ext_binomial", (21, 20)), ("hockey_stick_sum", (3, 4)),
                        ("gould_convolution", (1, -2, 5)),
                        ("chi_disjoint_union_decomposition", (0, 1, 5))):
        monkeypatch.setattr(selftest, name, wrong_at(getattr(selftest, name), point))
    assert selftest.identity_failures() == [
        "Pascal rule fails at (20, 20)",
        "hockey stick fails at (3, 4)",
        "Gould convolution fails at (1, -2, 5)",
        "union decomposition fails at (0, 1, 5)",
    ]
