"""Command-line front end.

Subcommands: ``compute`` (run one or all algorithms and cross-check),
``series`` (dump the generating series), ``oracle`` (finite-space face
count vs the algorithms), ``classify`` (symbolic homotopy type), and
``selftest`` (randomized corpora).

Exit codes: 0 on success/MATCH, 1 on input error, 2 on MISMATCH or a
selftest FAIL (which would mean a genuine bug; the algorithms are proven
equal).
"""
from __future__ import annotations

import argparse
import functools
import gc
import io
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import floor
from operator import itemgetter

from .engine import ChiResult, chi_c_direct, chi_c_strata, topological_chi_applicable
from .errors import (
    BarychiError,
    InputFormatError,
    TooManyDigits,
    TooManyLevels,
    TooManySingularPoints,
    TooManyWeights,
)
from .model import (
    ValidatedInstance,
    _cut,
    _shown,
    instance_from_json,
    instance_to_json_dict,
    parse_fraction,
    parse_weights,
    validate,
)
# Eager, unlike json and the classifier: perfbench's tracer hooks the global oracle_chi.
from .oracle import FiniteWeightedSpace, oracle_chi
from .series import chen_lin_series, chi_c_series, truncation_bound, window_columns

# The one list of routes: --method, the report, the oracle comparison and
# selftest's agreement check all run what this table names.
_METHOD_RUNNERS = {"direct": chi_c_direct, "strata": chi_c_strata, "series": chi_c_series}

# --breakdown prints a row per subset, and each further point doubles its
# time and memory; README (limits) gives the measured cost at the cap.
MAX_BREAKDOWN_POINTS = 16

# strata and series walk the levels up to floor(rho) (for series, of its
# bound) one at a time; README (limits) gives the measured cost a level.
MAX_LEVELS = {"strata": 10**7, "series": 10**6}

_MESSAGE_SHOWN = 200  # characters of an argparse or OS message an error line shows


class _InputError(Exception):
    """Raised for flag-level problems; converted to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # cross-check mismatches, so parse errors exit 1, a long message cut.
    def error(self, message: str):
        raise _InputError(_cut(message, _MESSAGE_SHOWN))


def main(argv: list[str] | None = None) -> int:
    # A request makes no reference cycles but argparse's (tests/test_cli.py,
    # TestNoCyclicGarbage), so each collector pass inside one would scan a
    # heap of live tuples for nothing.  The collector is off for the request,
    # and the caller's setting comes back on every exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
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


def _build_parser(argv: list[str]) -> _Parser:
    """The parser of ``argv``: every subcommand by name and help line, and
    the ``-h`` and flags of the one that ``argv`` invokes."""
    # argparse makes a HelpFormatter for each flag it adds, and each one would
    # ask the OS for the terminal size; the width is read once a build, so
    # help still follows COLUMNS on every call.
    import shutil

    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="barychi", description=__doc__.splitlines()[0],
                     formatter_class=formatter)
    # Given prog, argparse does not lay out a usage line to find the prefix.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog,
                                parser_class=functools.partial(_Parser, formatter_class=formatter))
    # The top level takes no option with a value, so argparse dispatches to
    # the first word of argv that names a subcommand; no other subcommand
    # parses, prints or refuses anything, so it holds no action at all.
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_line, declare) in _COMMANDS.items():
        if name == command:
            declare(sub.add_parser(name, help=help_line))
        else:
            sub.add_parser(name, help=help_line, add_help=False)
    return parser


def _instance_flags(parser: _Parser) -> None:
    """The instance flags of compute, series and classify."""
    parser.add_argument("--chi-c", type=int, help="Euler characteristic (compact supports) of X")
    parser.add_argument("--weights", help="comma-separated singular weights")
    parser.add_argument("--rho", help="total-mass bound, exact fraction")
    parser.add_argument(
        "--space",
        choices=["compact", "lc", "even-interior"],
        default=None,
        help="what is known about X (default: compact)",
    )
    parser.add_argument("--components", help="JSON array of component objects")
    parser.add_argument("--instance", help="path to an instance JSON document")


def _compute_flags(compute: _Parser) -> None:
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


def _series_flags(series: _Parser) -> None:
    _instance_flags(series)
    series.add_argument("--bound", help="truncate at this exponent instead of rho")
    series.add_argument("--json", action="store_true")
    series.set_defaults(run=_cmd_series)


def _oracle_flags(oracle: _Parser) -> None:
    oracle.add_argument("--vertices", type=int, required=True, help="number of vertices")
    oracle.add_argument(
        "--weights", default="", help="weights of the first vertices (rest weigh 1)"
    )
    oracle.add_argument("--rho", required=True, help="total-mass bound, exact fraction")
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(run=_cmd_oracle)


def _classify_flags(classify: _Parser) -> None:
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


def _selftest_flags(selftest: _Parser) -> None:
    selftest.add_argument("--cases", type=int, default=1000)
    selftest.add_argument("--seed", type=int, default=None)
    selftest.set_defaults(run=_cmd_selftest)


# Each subcommand, in help order: its help line and what declares its flags.
_COMMANDS = {
    "compute": ("chi_c and d_rho, cross-checked", _compute_flags),
    "series": ("dump the generating series", _series_flags),
    "oracle": ("finite-space face count vs the algorithms", _oracle_flags),
    "classify": ("symbolic homotopy type (r <= 2)", _classify_flags),
    "selftest": ("randomized cross-check corpora", _selftest_flags),
}


def _load_instance(args: argparse.Namespace) -> ValidatedInstance:
    """The instance of ``--instance FILE``, or of the flags read as the
    document they spell; ``instance_from_json`` reads either."""
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
                doc = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = _cut(str(exc), _MESSAGE_SHOWN)
            raise InputFormatError(f"cannot read --instance file: {reason}") from exc
    elif args.chi_c is None or args.rho is None:
        raise _InputError("--chi-c and --rho are required (or pass --instance FILE)")
    else:
        kind = {} if args.space is None else {"kind": args.space}
        doc = {"chi_c": args.chi_c, "weights": args.weights or "", "rho": args.rho,
               "space": {**kind, **_components_for(args)}}
    return validate(instance_from_json(doc))


def _components_for(args: argparse.Namespace) -> dict:
    """``{"components": entries}`` for the JSON of ``--components``, or for
    the two entries that classify's ``--chi-a/--chi-b [--placement]``
    spell; ``{}`` when neither is given."""
    if args.components is not None:
        import json

        try:
            return {"components": json.loads(args.components)}
        except (ValueError, RecursionError) as exc:  # malformed, too deep, or a huge int
            raise InputFormatError(f"--components is not valid JSON: {exc}") from exc
    chi_a = getattr(args, "chi_a", None)
    chi_b = getattr(args, "chi_b", None)
    if chi_a is None and chi_b is None:
        return {}
    if chi_a is None or chi_b is None:
        raise _InputError("--chi-a and --chi-b must be given together")
    # The first component holds points 1..cut: all of them, or the first.
    r = len(parse_weights(args.weights or ""))
    cut = r if args.placement == "both-first" else min(r, 1)
    return {"components": [
        {"chi_c": chi_a, "is_compact": True, "singular_indices": list(range(1, cut + 1))},
        {"chi_c": chi_b, "is_compact": True, "singular_indices": list(range(cut + 1, r + 1))},
    ]}


def _write(args: argparse.Namespace, document: Callable[[], dict],
           lines: Callable[[], Iterable[str]]) -> None:
    """Write the JSON of ``document()`` under ``--json``, else the text of
    ``lines()``: all of it, or none of it.  ``str`` raises ValueError for an
    int past Python's int-to-str limit, which is refused as ``TooManyDigits``,
    so a maker must only make text, never run a route.  What a maker builds
    is held here alone, and it is freed, like the buffer, before the text is
    written; the lines go into the buffer as they are made."""
    buffer = io.StringIO()
    if args.json:  # only a --json request loads json
        import json
    try:
        # A document is built fresh for each output and holds no cycles.
        buffer.writelines([json.dumps(document(), separators=(",", ":"), check_circular=False),
                           "\n"] if args.json else lines())
    except ValueError as exc:
        raise TooManyDigits(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the int-to-str limit (sys.get_int_max_str_digits())"
        ) from exc
    text = buffer.getvalue()
    del buffer
    sys.stdout.write(text)


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
    for name in names:
        if name in MAX_LEVELS:
            _check_levels(instance, name, instance.rho)
    # The report maker pops the results, keyed by route name, so once the
    # report is built it alone holds their rows, and _write frees it before
    # it writes.
    results = [{name: _METHOD_RUNNERS[name](instance, breakdown=args.breakdown)
                for name in names}]
    agreed = len({res.chi_c_value for res in results[0].values()}) == 1

    def report() -> dict:
        return build_report(instance, results.pop(), breakdown=args.breakdown)

    _write(args, report, lambda: _report_text(report()))
    return 0 if agreed else 2


def _check_levels(instance: ValidatedInstance, method: str, bound: Fraction) -> None:
    """Refuse the ``method`` route when it would walk more than its cap of
    levels: L = floor(bound) of them when m = r - chi_c > 0, and min(L, 1 - m)
    when m <= 0, where the polynomial (1 - x)^(-m) ends and the walk stops."""
    m = instance.r - instance.chi_c
    walk = floor(bound) if m > 0 else min(floor(bound), 1 - m)
    if walk > MAX_LEVELS[method]:
        raise TooManyLevels(f"the {method} route walks {_shown(walk)} levels, past its cap "
                            f"{MAX_LEVELS[method]}")


def build_report(
    instance: ValidatedInstance, results: dict[str, ChiResult], breakdown: bool = False
) -> dict:
    """Assemble the canonical report dictionary (field order is fixed) from
    each route's result, keyed by its ``_METHOD_RUNNERS`` name."""
    values = {name: res.chi_c_value for name, res in results.items()}
    agreed = len(set(values.values())) == 1
    chi = next(iter(values.values())) if agreed else None
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
        for name, res in results.items():
            # Index tuples print as they are; series exponents print as text.
            rows = res.term_breakdown
            if name == "series":
                rows = list(zip(_exponent_texts(map(itemgetter(0), rows)),
                                map(itemgetter(1), rows)))
            tables[name] = rows
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
        if method == "series":
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
    _check_levels(instance, "series", bound)
    # g is as large as the output, and is freed before the output is built.
    inside, numerators, denominators, coefficients = window_columns(
        chen_lin_series(instance, bound), instance.rho)
    chi_c = -sum(islice(coefficients, inside))

    def document() -> dict:
        return {
            "instance": instance_to_json_dict(instance),
            "bound": str(bound),
            "terms": list(zip(_exponent_texts(zip(numerators, denominators)), coefficients)),
            "window_sum": -chi_c,
            "chi_c": chi_c,
            "d_rho": 1 - chi_c,
        }

    def lines() -> Iterator[str]:
        exponents = _exponent_texts(zip(numerators, denominators))
        return chain([f"chi_c={chi_c} d_rho={1 - chi_c}\n"],
                     (f"{e} {c}\t# sum={total}\n" for e, c, total in
                      zip(exponents, coefficients, accumulate(islice(coefficients, inside)))),
                     [f"# window end: rho={instance.rho}\n"],
                     (f"{e} {c}\n" for e, c in
                      zip(islice(exponents, inside, None), islice(coefficients, inside, None))))

    _write(args, document, lines)
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        space = FiniteWeightedSpace.of(args.vertices, parse_weights(args.weights))
    except TooManyWeights:
        raise _InputError("--weights lists more entries than --vertices") from None
    instance, expected, values = compare_with_oracle(space, parse_fraction(args.rho))
    match = all(v == expected for v in values.values())
    verdict = "MATCH" if match else "MISMATCH"

    _write(args, lambda: {
        "instance": instance_to_json_dict(instance),
        "oracle": expected,
        "methods": values,
        "verdict": verdict,
    }, lambda: [f"oracle: {expected}\n", *(f"{name}: {value}\n" for name, value in values.items()),
                f"verdict: {verdict}\n"])
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
    # Only classify loads the classifier.
    from .classifier import classify

    descriptor = classify(instance)
    # Checked last, so that an input refused for another reason keeps its message.
    split_flags = (args.chi_a, args.chi_b, args.placement)
    if ((args.components is not None or args.instance is not None)
            and any(f is not None for f in split_flags)):
        raise _InputError("--chi-a, --chi-b and --placement cannot be combined with "
                          "--components or --instance")
    chi = descriptor.chi_value
    engine = chi_c_direct(instance).chi_c_value
    verdict = "MATCH" if chi == engine else "MISMATCH"

    _write(args, lambda: {
        "instance": instance_to_json_dict(instance),
        "descriptor": descriptor.text,
        "descriptor_chi": chi,
        "engine_chi_c": engine,
        "verdict": verdict,
    }, lambda: [f"descriptor: {descriptor.text}\n", f"descriptor chi: {chi}\n",
                f"engine chi_c: {engine}\n", f"verdict: {verdict}\n"])
    return 0 if verdict == "MATCH" else 2


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args: argparse.Namespace) -> int:
    if args.cases < 1:
        raise _InputError(f"--cases must be at least 1, got {_shown(args.cases)}")
    # selftest checks the oracle through this module, so it is imported late.
    from .selftest import run_selftest

    ok = run_selftest(cases=args.cases, seed=args.seed)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
