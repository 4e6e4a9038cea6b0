"""selftest checks each random instance before it draws the next, so a run
holds one instance at a time however many cases it is asked for."""
import random

from barychi import selftest


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
