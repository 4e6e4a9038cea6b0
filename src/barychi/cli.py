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
import json
import math
import sys
from fractions import Fraction

from .classifier import (
    Bary,
    Base,
    Placement,
    SpaceExpr,
    classify_r1,
    classify_r2_connected,
    classify_r2_two_components,
)
from .engine import (
    ChiResult,
    chi_c_direct,
    chi_c_strata,
    topological_chi_applicable,
)
from .errors import BarychiError, InputFormatError, OutOfScope
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
from .oracle import FiniteWeightedSpace, oracle_chi
from .series import chen_lin_series, chi_c_series, truncation_bound

_METHOD_RUNNERS = {"direct": chi_c_direct, "strata": chi_c_strata, "series": chi_c_series}


class _InputError(Exception):
    """Raised for flag-level problems; converted to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # cross-check mismatches, so route parse errors through exit code 1.
    def error(self, message: str):
        raise _InputError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BarychiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="barychi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="chi_c and d_rho, cross-checked")
    _instance_flags(compute)
    compute.add_argument(
        "--method",
        choices=["direct", "strata", "series", "all"],
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
        choices=[p.value for p in Placement],
        help="two-component placement of the singular points",
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
    sub.add_argument("--weights", default="", help="comma-separated singular weights")
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
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            return validate(instance_from_json(fh.read()))
    if args.chi_c is None or args.rho is None:
        raise _InputError("--chi-c and --rho are required (or pass --instance FILE)")
    weights = parse_weights(args.weights)
    rho = parse_fraction(args.rho)
    components = _components_for(args, len(weights))
    if components is not None:
        kind = SpaceKind.UNION_OF_BASIC
    else:
        kind = SpaceKind(args.space) if args.space else SpaceKind.COMPACT
    return validate(ProblemInstance(args.chi_c, weights, rho, kind, components))


def _components_for(args: argparse.Namespace, r: int) -> tuple[ComponentSpec, ...] | None:
    if getattr(args, "components", None):
        try:
            entries = json.loads(args.components)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"--components is not valid JSON: {exc}") from exc
        return parse_components(entries)
    chi_a = getattr(args, "chi_a", None)
    chi_b = getattr(args, "chi_b", None)
    if chi_a is None and chi_b is None:
        return None
    if chi_a is None or chi_b is None:
        raise _InputError("--chi-a and --chi-b must be given together")
    placement = Placement(getattr(args, "placement", None) or Placement.ONE_EACH.value)
    if placement is Placement.ONE_EACH:
        split = (frozenset(range(1, min(r, 1) + 1)), frozenset(range(2, r + 1)))
    else:
        split = (frozenset(range(1, r + 1)), frozenset())
    return (
        ComponentSpec(chi_a, True, split[0]),
        ComponentSpec(chi_b, True, split[1]),
    )


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# compute


def _cmd_compute(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    names = ["direct", "strata", "series"] if args.method == "all" else [args.method]
    results = [_METHOD_RUNNERS[name](instance) for name in names]
    report = build_report(instance, results, breakdown=args.breakdown)
    if args.json:
        print(_dump(report))
    else:
        _print_report(report)
    return 0 if report["verdict"] == "MATCH" else 2


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
        report["breakdown"] = {
            res.method: [[_breakdown_key(key), value] for key, value in res.term_breakdown]
            for res in results
        }
    return report


def _breakdown_key(key: frozenset[int] | Fraction) -> list[int] | str:
    if isinstance(key, frozenset):
        return sorted(key)
    return str(key)


def _print_report(report: dict) -> None:
    inst = report["instance"]
    weights = ",".join(inst["weights"]) or "(none)"
    print(f"instance: chi_c={inst['chi_c']} weights={weights} rho={inst['rho']} "
          f"space={inst['space']['kind']}")
    for name, value in report["methods"].items():
        print(f"{name}: {value}")
    if report["chi_c"] is not None:
        print(f"chi_c(B_rho) = {report['chi_c']}")
        print(f"d_rho = {report['d_rho']}")
    print(f"topological chi applies: {'yes' if report['topological_chi_applies'] else 'no'}")
    if "breakdown" in report:
        for method, rows in report["breakdown"].items():
            print(f"{method} terms:")
            for key, value in rows:
                label = "{" + ",".join(map(str, key)) + "}" if isinstance(key, list) else key
                print(f"  {label}: {value}")
    print(f"verdict: {report['verdict']}")


# ---------------------------------------------------------------------------
# series


def _cmd_series(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    bound = truncation_bound(instance.rho, parse_fraction(args.bound) if args.bound else None)
    g = chen_lin_series(instance, bound)
    result = chi_c_series(instance, bound)
    terms = [(e, c) for e, c in g.terms() if e > 0]
    if args.json:
        print(_dump({
            "instance": instance_to_json_dict(instance),
            "bound": str(bound),
            "terms": [[str(e), c] for e, c in terms],
            "window_sum": -result.chi_c_value,
            "chi_c": result.chi_c_value,
            "d_rho": result.degree_d_rho,
        }))
        return 0
    print(f"chi_c={result.chi_c_value} d_rho={result.degree_d_rho}")
    running = 0
    inside = True
    for e, c in terms:
        if inside and e > instance.rho:
            print(f"# window end: rho={instance.rho}")
            inside = False
        if inside:
            running += c
            print(f"{e} {c}\t# sum={running}")
        else:
            print(f"{e} {c}")
    if inside:
        print(f"# window end: rho={instance.rho}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args: argparse.Namespace) -> int:
    weights = parse_weights(args.weights)
    if len(weights) > args.vertices:
        raise _InputError("--weights lists more entries than --vertices")
    space = FiniteWeightedSpace.of(args.vertices, weights)
    instance, expected, values = compare_with_oracle(space, parse_fraction(args.rho))
    match = all(v == expected for v in values.values())
    verdict = "MATCH" if match else "MISMATCH"
    if args.json:
        print(_dump({
            "instance": instance_to_json_dict(instance),
            "oracle": expected,
            "methods": values,
            "verdict": verdict,
        }))
    else:
        print(f"oracle: {expected}")
        for name, value in values.items():
            print(f"{name}: {value}")
        print(f"verdict: {verdict}")
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
    placement = Placement(args.placement) if args.placement else None
    descriptor = _classify(instance, placement)
    chi = descriptor.chi()
    engine = chi_c_direct(instance).chi_c_value
    verdict = "MATCH" if chi == engine else "MISMATCH"
    if args.json:
        print(_dump({
            "instance": instance_to_json_dict(instance),
            "descriptor": descriptor.render(),
            "descriptor_chi": chi,
            "engine_chi_c": engine,
            "verdict": verdict,
        }))
    else:
        print(f"descriptor: {descriptor.render()}")
        print(f"descriptor chi: {chi}")
        print(f"engine chi_c: {engine}")
        print(f"verdict: {verdict}")
    return 0 if verdict == "MATCH" else 2


def _classify(instance: ValidatedInstance, placement: Placement | None) -> SpaceExpr:
    if instance.components is not None and instance.r == 2:
        return classify_r2_two_components(instance, placement or Placement.ONE_EACH)
    if placement is not None:
        raise _InputError("--placement needs two components (--chi-a/--chi-b)")
    if instance.r == 0:
        # No singular points: the space is plain B_floor(rho)(X).
        return Bary(math.floor(instance.rho), Base(instance.chi_c))
    if instance.r == 1:
        return classify_r1(instance)
    if instance.r == 2:
        return classify_r2_connected(instance)
    raise OutOfScope(f"no homotopy classification for r = {instance.r}")


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args: argparse.Namespace) -> int:
    # selftest checks the oracle through this module, so it is imported late.
    from .selftest import run_selftest

    ok = run_selftest(cases=args.cases, seed=args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
