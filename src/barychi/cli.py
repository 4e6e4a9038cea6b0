"""Command-line front end.

Subcommands: ``compute`` (run one or all algorithms and cross-check),
``series`` (dump the generating series), ``oracle`` (finite-space face
count vs the algorithms), ``classify`` (symbolic homotopy type), and
``selftest`` (randomized corpora).

Exit codes: 0 on success/MATCH, 1 on input error, 2 on MISMATCH (which
would mean a genuine bug; the algorithms are proven equal).
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import itemgetter

from .classifier import classify
from .engine import (
    METHOD_SERIES,
    ChiResult,
    chi_c_direct,
    chi_c_strata,
    topological_chi_applicable,
)
from .errors import (
    BarychiError,
    InputFormatError,
    TooManyDigits,
    TooManySingularPoints,
)
from .model import (
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    ValidatedInstance,
    instance_from_json,
    instance_to_json_dict,
    parse_components,
    parse_fraction,
    parse_weights,
    validate,
)
from .oracle import FiniteWeightedSpace, _check_vertex_count, oracle_chi
from .series import chen_lin_series, chi_c_series, reduced_columns, truncation_bound

_METHOD_RUNNERS = {"direct": chi_c_direct, "strata": chi_c_strata, "series": chi_c_series}

# --breakdown prints a row per subset, and each further point doubles its
# time and memory; README (limits) gives the measured cost at the cap.
MAX_BREAKDOWN_POINTS = 16


class _InputError(Exception):
    """Raised for flag-level problems; converted to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # cross-check mismatches, so route parse errors through exit code 1.
    def error(self, message: str):
        raise _InputError(message)


def main(argv: list[str] | None = None) -> int:
    # A request makes no reference cycles but argparse's (tests/test_cli.py,
    # TestNoCyclicGarbage), so each collector pass inside one would scan a
    # heap of live tuples for nothing.  The collector is off for the request,
    # and the caller's setting comes back on every exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.run(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BarychiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def _build_parser() -> _Parser:
    parser = _Parser(prog="barychi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="chi_c and d_rho, cross-checked")
    _instance_flags(compute)
    compute.add_argument(
        "--method",
        choices=[*_METHOD_RUNNERS, "all"],
        default="all",
        help="which algorithm(s) to run (default: all, cross-checked)",
    )
    compute.add_argument("--breakdown", action="store_true", help="show per-term contributions")
    compute.add_argument("--json", action="store_true", help="emit a canonical JSON report")
    compute.set_defaults(run=_cmd_compute)

    series = sub.add_parser("series", help="dump the generating series")
    _instance_flags(series)
    series.add_argument("--bound", help="truncate at this exponent instead of rho")
    series.add_argument("--json", action="store_true")
    series.set_defaults(run=_cmd_series)

    oracle = sub.add_parser("oracle", help="finite-space face count vs the algorithms")
    oracle.add_argument("--vertices", type=int, required=True, help="number of vertices")
    oracle.add_argument(
        "--weights", default="", help="weights of the first vertices (rest weigh 1)"
    )
    oracle.add_argument("--rho", required=True, help="total-mass bound, exact fraction")
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(run=_cmd_oracle)

    classify = sub.add_parser("classify", help="symbolic homotopy type (r <= 2)")
    _instance_flags(classify)
    classify.add_argument(
        "--placement",
        choices=["one-each", "both-first"],
        help="how --chi-a/--chi-b split the singular points (default: one-each)",
    )
    classify.add_argument("--chi-a", type=int, help="chi of the first component")
    classify.add_argument("--chi-b", type=int, help="chi of the second component")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(run=_cmd_classify)

    st = sub.add_parser("selftest", help="randomized cross-check corpora")
    st.add_argument("--cases", type=int, default=1000)
    st.add_argument("--seed", type=int, default=None)
    st.set_defaults(run=_cmd_selftest)

    return parser


def _instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--chi-c", type=int, help="Euler characteristic (compact supports) of X")
    sub.add_argument("--weights", help="comma-separated singular weights")
    sub.add_argument("--rho", help="total-mass bound, exact fraction")
    sub.add_argument(
        "--space",
        choices=["compact", "lc", "even-interior"],
        default=None,
        help="what is known about X (default: compact)",
    )
    sub.add_argument("--components", help="JSON array of component objects")
    sub.add_argument("--instance", help="path to an instance JSON document")


def _load_instance(args: argparse.Namespace) -> ValidatedInstance:
    # None is each flag's default, so an empty flag ("") counts as given.
    if args.instance is not None:
        given = [flag for flag, value in (("--chi-c", args.chi_c), ("--weights", args.weights),
                                          ("--rho", args.rho), ("--space", args.space),
                                          ("--components", args.components))
                 if value is not None]
        if given:
            raise _InputError(f"--instance cannot be combined with {', '.join(given)}")
        try:
            with open(args.instance, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read --instance file: {exc}") from exc
        return validate(instance_from_json(text))
    if args.chi_c is None or args.rho is None:
        raise _InputError("--chi-c and --rho are required (or pass --instance FILE)")
    weights = parse_weights(args.weights or "")
    rho = parse_fraction(args.rho)
    components = _components_for(args, len(weights))
    # Components imply union only when --space is absent; validate refuses
    # them beside any other kind, as it does for an instance document.
    implied = SpaceKind.COMPACT if components is None else SpaceKind.UNION_OF_BASIC
    kind = implied if args.space is None else SpaceKind(args.space)
    return validate(ProblemInstance(args.chi_c, weights, rho, kind, components))


def _components_for(args: argparse.Namespace, r: int) -> tuple[ComponentSpec, ...] | None:
    if getattr(args, "components", None) is not None:
        try:
            entries = json.loads(args.components)
        except ValueError as exc:  # malformed, or an int past the digit limit
            raise InputFormatError(f"--components is not valid JSON: {exc}") from exc
        return parse_components(entries)
    chi_a = getattr(args, "chi_a", None)
    chi_b = getattr(args, "chi_b", None)
    if chi_a is None and chi_b is None:
        return None
    if chi_a is None or chi_b is None:
        raise _InputError("--chi-a and --chi-b must be given together")
    if getattr(args, "placement", None) == "both-first":
        split = (frozenset(range(1, r + 1)), frozenset())
    else:
        split = (frozenset(range(1, min(r, 1) + 1)), frozenset(range(2, r + 1)))
    return (
        ComponentSpec(chi_a, True, split[0]),
        ComponentSpec(chi_b, True, split[1]),
    )


def _dump(obj: dict) -> str:
    # A report is built fresh for each output and holds no cycles.
    return json.dumps(obj, separators=(",", ":"), check_circular=False)


def _digits_checked(make: Callable[[], object]) -> object:
    """Return ``make()``.  ``str`` raises ValueError for an int past Python's
    int-to-str limit; that is refused as ``TooManyDigits``, so ``make`` must
    only make text, never run a route."""
    try:
        return make()
    except ValueError as exc:
        raise TooManyDigits(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the int-to-str limit (sys.get_int_max_str_digits())"
        ) from exc


def _write(render: Callable[[], Iterable[str]]) -> None:
    """Build the whole text that ``render`` makes (``_digits_checked``),
    then write it, or write none of it.  The lines go into one buffer as
    they are made, so a lazy ``render`` never holds them all as separate
    strings."""
    text = io.StringIO()
    _digits_checked(lambda: text.writelines(render()))
    sys.stdout.write(text.getvalue())


def _exponent_texts(exponents: Iterable[tuple[int, int]]) -> list[str]:
    """Each exponent ``(n, d)`` in lowest terms as ``str`` prints the same
    ``Fraction``: "n/d", or "n" when d is 1."""
    return [f"{n}/{d}" if d != 1 else str(n) for n, d in exponents]


# ---------------------------------------------------------------------------
# compute


def _cmd_compute(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if args.breakdown and instance.r > MAX_BREAKDOWN_POINTS:
        raise TooManySingularPoints(
            f"--breakdown lists up to 2^r rows; r = {instance.r} exceeds its cap "
            f"{MAX_BREAKDOWN_POINTS}"
        )
    names = list(_METHOD_RUNNERS) if args.method == "all" else [args.method]
    results = [_METHOD_RUNNERS[name](instance, breakdown=args.breakdown) for name in names]
    # The report prints series exponents as text.
    report = _digits_checked(lambda: build_report(instance, results, breakdown=args.breakdown))
    _write(lambda: [_dump(report), "\n"] if args.json else _report_text(report))
    return 2 if report["verdict"] == "MISMATCH" else 0


def build_report(
    instance: ValidatedInstance, results: list[ChiResult], breakdown: bool = False
) -> dict:
    """Assemble the canonical report dictionary (field order is fixed)."""
    values = {res.method: res.chi_c_value for res in results}
    agreed = len(set(values.values())) == 1
    chi = results[0].chi_c_value if agreed else None
    report = {
        "instance": instance_to_json_dict(instance),
        "methods": values,
        "chi_c": chi,
        "d_rho": 1 - chi if chi is not None else None,
        "verdict": "MATCH" if agreed else "MISMATCH",
        "topological_chi_applies": topological_chi_applicable(instance),
    }
    if breakdown:
        tables = report["breakdown"] = {}
        for res in results:
            # Index tuples print as they are; series exponents print as text.
            rows = res.term_breakdown
            if res.method == METHOD_SERIES:
                rows = list(zip(_exponent_texts(map(itemgetter(0), rows)),
                                map(itemgetter(1), rows)))
            tables[res.method] = rows
    return report


def _report_text(report: dict) -> Iterator[str]:
    inst = report["instance"]
    weights = ",".join(inst["weights"]) or "(none)"
    yield (f"instance: chi_c={inst['chi_c']} weights={weights} rho={inst['rho']} "
           f"space={inst['space']['kind']}\n")
    for name, value in report["methods"].items():
        yield f"{name}: {value}\n"
    if report["chi_c"] is not None:
        yield f"chi_c(B_rho) = {report['chi_c']}\n"
        yield f"d_rho = {report['d_rho']}\n"
    yield f"topological chi applies: {'yes' if report['topological_chi_applies'] else 'no'}\n"
    for method, rows in report.get("breakdown", {}).items():
        yield f"{method} terms:\n"
        if method == METHOD_SERIES:
            yield from (f"  {key}: {value}\n" for key, value in rows)
        else:  # an index tuple (1, 3) prints as {1,3}
            yield from (f"  {{{','.join(map(str, key))}}}: {value}\n" for key, value in rows)
    yield f"verdict: {report['verdict']}\n"


# ---------------------------------------------------------------------------
# series


def _cmd_series(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    bound = truncation_bound(instance.rho,
                             parse_fraction(args.bound) if args.bound is not None else None)
    g = chen_lin_series(instance, bound)
    # Key 0 is the constant term 1 (checked by chen_lin_series), which is no
    # output; the window (0, rho] is the run of keys after it up to rho.
    top = instance.rho.numerator * (g.scale // instance.rho.denominator)
    keys, numerators, denominators, coefficients = reduced_columns(g, 1)
    del g  # its dict is as large as the output, which is built without it
    inside = bisect_right(keys, top) - 1
    chi_c = -sum(islice(coefficients, inside))

    def render() -> Iterable[str]:
        exponents = _exponent_texts(zip(numerators, denominators))
        if args.json:
            return [_dump({
                "instance": instance_to_json_dict(instance),
                "bound": str(bound),
                "terms": list(zip(exponents, coefficients)),
                "window_sum": -chi_c,
                "chi_c": chi_c,
                "d_rho": 1 - chi_c,
            }), "\n"]
        return chain([f"chi_c={chi_c} d_rho={1 - chi_c}\n"],
                     (f"{e} {c}\t# sum={total}\n" for e, c, total in
                      zip(exponents, coefficients, accumulate(islice(coefficients, inside)))),
                     [f"# window end: rho={instance.rho}\n"],
                     (f"{e} {c}\n" for e, c in
                      zip(islice(exponents, inside, None), islice(coefficients, inside, None))))

    _write(render)
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args: argparse.Namespace) -> int:
    weights = parse_weights(args.weights)
    _check_vertex_count(args.vertices)
    if len(weights) > args.vertices:
        raise _InputError("--weights lists more entries than --vertices")
    space = FiniteWeightedSpace.of(args.vertices, weights)
    instance, expected, values = compare_with_oracle(space, parse_fraction(args.rho))
    match = all(v == expected for v in values.values())
    verdict = "MATCH" if match else "MISMATCH"

    def render() -> Iterable[str]:
        if args.json:
            return [_dump({
                "instance": instance_to_json_dict(instance),
                "oracle": expected,
                "methods": values,
                "verdict": verdict,
            }), "\n"]
        return [f"oracle: {expected}\n", *(f"{name}: {value}\n" for name, value in values.items()),
                f"verdict: {verdict}\n"]

    _write(render)
    return 0 if match else 2


def compare_with_oracle(
    space: FiniteWeightedSpace, rho: Fraction
) -> tuple[ValidatedInstance, int, dict[str, int]]:
    """The face count of ``space`` under ``rho``, the matching instance, and
    each route's chi_c on that instance, keyed by method name."""
    expected = oracle_chi(space, rho)
    instance = validate(space.matching_instance(rho))
    values = {name: run(instance).chi_c_value for name, run in _METHOD_RUNNERS.items()}
    return instance, expected, values


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if args.placement and (instance.components is None or instance.r != 2):
        raise _InputError("--placement needs two components (--chi-a/--chi-b)")
    descriptor = classify(instance)
    # Checked last, so that an input refused for another reason keeps its message.
    split_flags = (args.chi_a, args.chi_b, args.placement)
    if ((args.components is not None or args.instance is not None)
            and any(f is not None for f in split_flags)):
        raise _InputError("--chi-a, --chi-b and --placement cannot be combined with "
                          "--components or --instance")
    chi = descriptor.chi()
    engine = chi_c_direct(instance).chi_c_value
    verdict = "MATCH" if chi == engine else "MISMATCH"

    def render() -> list[str]:
        if args.json:
            return [_dump({
                "instance": instance_to_json_dict(instance),
                "descriptor": descriptor.render(),
                "descriptor_chi": chi,
                "engine_chi_c": engine,
                "verdict": verdict,
            }), "\n"]
        return [f"descriptor: {descriptor.render()}\n", f"descriptor chi: {chi}\n",
                f"engine chi_c: {engine}\n", f"verdict: {verdict}\n"]

    _write(render)
    return 0 if verdict == "MATCH" else 2


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args: argparse.Namespace) -> int:
    if args.cases < 1:
        raise _InputError(f"--cases must be at least 1, got {args.cases}")
    # selftest checks the oracle through this module, so it is imported late.
    from .selftest import run_selftest

    ok = run_selftest(cases=args.cases, seed=args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
