"""Spans around barychi's layer calls, recorded from the benchmark's side.

The traced run calls ``barychi.cli.main`` with the same argv as the untraced
run, but with the layer functions that ``cli`` looks up by name replaced by
wrappers that open a span, so the spans nest in the order ``cli`` makes the
calls.  Two layers that ``cli`` reaches only through the engine are replayed
after each request instead: the drain of ``enumerate_subset_weights`` once
per direct or strata call, and ``ext_binomial`` on the direct route's
``(n, k)`` arguments.  Nothing inside the program changes.

Spans stay in memory and are written when the run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import checks

# cli global -> span name.  A name missing from cli is skipped (its time
# then shows in the caller's span); ``installed`` reports what was hooked.
CLI_HOOKS = {
    "parse_weights": "model.parse_validate",
    "parse_fraction": "model.parse_validate",
    "instance_from_json": "model.parse_validate",
    "validate": "model.parse_validate",
    "chi_c_direct": "engine.direct",
    "chi_c_strata": "engine.strata",
    "chi_c_series": "series.chi_c_series",
    "chen_lin_series": "series.chen_lin_series",
    "build_report": "cli.report",
    "oracle_chi": "oracle.oracle_chi",
    "classify_r1": "classifier.classify",
    "classify_r2_connected": "classifier.classify",
    "classify_r2_two_components": "classifier.classify",
    "chi_of_descriptor": "classifier.classify",
    "descriptor_text": "classifier.classify",
}

# Per-layer time metric -> span names whose self time it sums.
SELF_TIME = {
    "cli.own_s": ("cli.main",),
    "cli.report_s": ("cli.report",),
    "model.parse_validate_s": ("model.parse_validate",),
    "model.enumerate_s": ("model.enumerate",),
    "engine.direct_s": ("engine.direct",),
    "engine.strata_s": ("engine.strata",),
    "combinatorics.ext_binomial_s": ("combinatorics.ext_binomial",),
    "series.chi_c_series_s": ("series.chi_c_series", "series.chen_lin_series"),
    "oracle.oracle_chi_s": ("oracle.oracle_chi",),
    "classifier.classify_s": ("classifier.classify",),
}

COUNTS = {
    "cli.report_bytes": "bytes",
    "engine.breakdown_terms": "count",
    "model.subsets": "count",
    "combinatorics.binomial_calls": "count",
    "combinatorics.binomial_max_bits": "bits",
    "engine.strata_levels": "count",
    "series.support_terms": "count",
    "series.lcd_max": "count",
    "oracle.faces": "count",
}


class Tracer:
    """Spans as ``[id, parent, request, name, start_ns, end_ns]`` rows, plus
    the arguments and results of the hooked calls of the current request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self.request: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = [len(self.spans), self._stack[-1] if self._stack else None,
               self.request, name, time.perf_counter_ns(), None]
        self.spans.append(row)
        self._stack.append(row[0])
        try:
            yield
        finally:
            row[5] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls.append((name, args, result))
            return result
        return traced


@contextmanager
def hooked(cli, tracer: Tracer):
    """Route cli's layer calls through ``tracer`` and yield the hooked names."""
    saved = {}
    wrapped = {}
    for attr, name in CLI_HOOKS.items():
        fn = getattr(cli, attr, None)
        if callable(fn):
            saved[attr] = fn
            wrapped[fn] = tracer.wrap(name, fn)
            setattr(cli, attr, wrapped[fn])
    # compute and oracle reach the routes through this table, built at import.
    runners = getattr(cli, "_METHOD_RUNNERS", None)
    saved_runners = dict(runners) if isinstance(runners, dict) else {}
    for key, fn in saved_runners.items():
        if fn in wrapped:
            runners[key] = wrapped[fn]
    try:
        yield sorted(saved)
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)
        if saved_runners:
            runners.update(saved_runners)


def replay(tracer: Tracer, req: dict, stdout: str, counts: dict[str, int]) -> None:
    """Replay the current request's hidden layers under spans and add its
    work counts, taken from the request and the results the hooks saw."""
    counts["cli.report_bytes"] += len(stdout.encode())
    ran_series = False
    for name, args, result in tracer.calls:
        if name in ("engine.direct", "engine.strata"):
            _replay_route(tracer, name, args[0], result, counts)
        elif name in ("series.chi_c_series", "series.chen_lin_series"):
            ran_series = True
            terms = getattr(result, "term_breakdown", result)
            counts["series.support_terms"] += len(terms)
        elif name == "oracle.oracle_chi":
            counts["oracle.faces"] += (1 << len(args[0].vertex_weights)) - 1
    if ran_series:
        exact = [Fraction(w) for w in req["weights"]] + [Fraction(req["rho"])]
        if req.get("bound"):
            exact.append(Fraction(req["bound"]))
        counts["series.lcd_max"] = max(counts["series.lcd_max"],
                                       lcm(*(q.denominator for q in exact)))


def _replay_route(tracer, name, instance, result, counts) -> None:
    from barychi import combinatorics, model

    r = len(instance.weights)
    counts["model.subsets"] += 1 << r
    counts["engine.breakdown_terms"] += len(getattr(result, "term_breakdown", ()))
    with tracer.span("model.enumerate"):
        for _ in model.enumerate_subset_weights(instance):
            pass
    levels = [level for level in checks.subset_levels(instance.weights, instance.rho)
              if level >= 0]
    if name == "engine.strata":
        counts["engine.strata_levels"] += sum(levels)
        return
    chi = instance.chi_c
    arguments = [(level - chi + r, level) for level in levels]
    with tracer.span("combinatorics.ext_binomial"):
        values = [combinatorics.ext_binomial(n, k) for n, k in arguments]
    counts["combinatorics.binomial_calls"] += len(values)
    bits = max((abs(v).bit_length() for v in values), default=0)
    counts["combinatorics.binomial_max_bits"] = max(
        counts["combinatorics.binomial_max_bits"], bits)


def self_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    child_ns: dict[int, int] = defaultdict(int)
    for row in spans:
        if row[1] is not None:
            child_ns[row[1]] += row[5] - row[4]
    return [row[5] - row[4] - child_ns[row[0]] for row in spans]


def request_self_ms(spans: list[list], requests: int) -> list[dict[str, float]]:
    """Self time in milliseconds per span name, for each request in order."""
    rows: list[dict[str, float]] = [defaultdict(float) for _ in range(requests)]
    for row, own in zip(spans, self_ns(spans)):
        rows[row[2]][row[3]] += own / 1e6
    return rows


def layer_seconds(spans: list[list]) -> dict[str, float]:
    """Per-layer self times in seconds; ``cli.main_s`` is inclusive."""
    by_name: dict[str, int] = defaultdict(int)
    for row, own in zip(spans, self_ns(spans)):
        by_name[row[3]] += own
    out = {"cli.main_s": sum(row[5] - row[4] for row in spans if row[3] == "cli.main") / 1e9}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(by_name[n] for n in names) / 1e9
    return out
