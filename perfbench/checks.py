"""Output checks and the benchmark's own reference value of chi_c.

The reference evaluates the closed-form subset sum with integer-scaled
weights and ``math.comb``; it shares no code with barychi, so a request
passes only if the program's answer equals an independently computed one,
not merely if its routes agree with each other.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb, lcm


def ext_binomial(n: int, k: int) -> int:
    """C(n, k) for every integer n (k < 0 gives 0)."""
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def subset_sums(weights, scale: int) -> list[int]:
    """scale * w_I for all 2^r subsets I, in binary-counter order (bit i of
    the index set means weight i is in I); ``scale`` must be a multiple of
    every weight's denominator, so each sum is an exact integer."""
    sums = [0]
    for w in weights:
        step = int(Fraction(w) * scale)
        sums += [s + step for s in sums]
    return sums


def subset_levels(weights, rho) -> list[int]:
    """floor(rho - w_I) for all 2^r subsets I, in binary-counter order."""
    fracs = [Fraction(w) for w in weights]
    rho = Fraction(rho)
    scale = lcm(rho.denominator, *(w.denominator for w in fracs))
    top = int(rho * scale)
    return [(top - s) // scale for s in subset_sums(fracs, scale)]


def reference_chi(chi: int, weights, rho) -> int:
    """chi_c = 1 - sum_I (-1)^|I| C(L_I - chi + r, L_I) over L_I >= 0."""
    r = len(weights)
    term: dict[int, int] = {}
    acc = 0
    for mask, level in enumerate(subset_levels(weights, rho)):
        if level < 0:
            continue
        if level not in term:
            term[level] = ext_binomial(level - chi + r, level)
        acc += -term[level] if mask.bit_count() % 2 else term[level]
    return 1 - acc


def expected_chi(req: dict) -> int:
    """The reference chi_c for a request; an oracle space of m points has
    chi_c = m and its non-unit vertex weights as singular weights."""
    if req["cmd"] == "oracle":
        singular = [w for w in req["weights"] if Fraction(w) != 1]
        return reference_chi(req["vertices"], singular, req["rho"])
    return reference_chi(req["chi"], req["weights"], req["rho"])


def check(req: dict, code: int | None, stdout: str) -> str | None:
    """None if the request's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    want = expected_chi(req)
    try:
        if req.get("json"):
            report = json.loads(stdout)
            return _CHECKS[req["cmd"]](req, report, want)
        return _check_compute_text(req, stdout, want)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _echo_error(req: dict, echo: dict) -> str | None:
    weights = sorted(req["weights"], key=Fraction)
    if req["cmd"] == "oracle":
        weights = [w for w in weights if Fraction(w) != 1]
        chi = req["vertices"]
    else:
        chi = req["chi"]
    got = (echo["chi_c"], echo["weights"], echo["rho"])
    if got != (chi, [str(Fraction(w)) for w in weights], str(Fraction(req["rho"]))):
        return f"instance echo {got} does not match the request"
    return None


def _methods_error(methods: dict, names: list[str], want: int) -> str | None:
    if list(methods) != names:
        return f"methods {list(methods)}, expected {names}"
    wrong = {name: value for name, value in methods.items() if value != want}
    if wrong:
        return f"methods {wrong} differ from reference chi_c {want}"
    return None


def _check_compute(req: dict, report: dict, want: int) -> str | None:
    if report["verdict"] != "MATCH":
        return f"verdict {report['verdict']}"
    names = ["direct", "strata", "series"] if req["method"] == "all" else [req["method"]]
    error = _echo_error(req, report["instance"]) or _methods_error(report["methods"], names, want)
    if error:
        return error
    if (report["chi_c"], report["d_rho"]) != (want, 1 - want):
        return f"chi_c/d_rho {report['chi_c']}/{report['d_rho']}, reference chi_c {want}"
    if req.get("breakdown"):
        return _breakdown_error(report["breakdown"], len(req["weights"]), want)
    return None


def _breakdown_error(breakdown: dict, r: int, want: int) -> str | None:
    """direct terms re-sum to 1 - chi_c over all 2^r subsets, strata terms
    to chi_c, and the series window to -chi_c."""
    direct = breakdown["direct"]
    if len(direct) != 1 << r or 1 - sum(v for _, v in direct) != want:
        return "direct breakdown does not re-sum to 1 - chi_c over 2^r subsets"
    if sum(v for _, v in breakdown["strata"]) != want:
        return "strata breakdown does not re-sum to chi_c"
    if -sum(v for _, v in breakdown["series"]) != want:
        return "series breakdown does not re-sum to -chi_c"
    return None


def _check_series(req: dict, report: dict, want: int) -> str | None:
    rho, bound = Fraction(req["rho"]), Fraction(req["bound"])
    if report["bound"] != str(bound):
        return f"bound {report['bound']}, requested {bound}"
    exponents = [Fraction(e) for e, _ in report["terms"]]
    if exponents != sorted(set(exponents)) or not all(0 < e <= bound for e in exponents):
        return "series terms are not strictly increasing inside (0, bound]"
    window = sum(c for (_, c), e in zip(report["terms"], exponents) if e <= rho)
    if window != -want or report["window_sum"] != -want:
        return f"window sum {window} (reported {report['window_sum']}), reference -chi_c {-want}"
    if (report["chi_c"], report["d_rho"]) != (want, 1 - want):
        return f"chi_c/d_rho {report['chi_c']}/{report['d_rho']}, reference chi_c {want}"
    return _echo_error(req, report["instance"])


def _check_oracle(req: dict, report: dict, want: int) -> str | None:
    if report["verdict"] != "MATCH":
        return f"verdict {report['verdict']}"
    if report["oracle"] != want:
        return f"oracle {report['oracle']}, reference {want}"
    return (_methods_error(report["methods"], ["direct", "strata", "series"], want)
            or _echo_error(req, report["instance"]))


def _check_classify(req: dict, report: dict, want: int) -> str | None:
    if report["verdict"] != "MATCH":
        return f"verdict {report['verdict']}"
    if (report["descriptor_chi"], report["engine_chi_c"]) != (want, want):
        return (f"descriptor_chi {report['descriptor_chi']} / engine_chi_c "
                f"{report['engine_chi_c']}, reference {want}")
    return _echo_error(req, report["instance"])


def _check_compute_text(req: dict, stdout: str, want: int) -> str | None:
    lines = stdout.splitlines()
    names = ["direct", "strata", "series"] if req["method"] == "all" else [req["method"]]
    methods = {}
    for line in lines[1:1 + len(names)]:
        name, value = line.split(": ")
        methods[name] = int(value)
    error = _methods_error(methods, names, want)
    if error:
        return error
    tail = lines[1 + len(names):]
    if tail[:2] != [f"chi_c(B_rho) = {want}", f"d_rho = {1 - want}"]:
        return f"report lines {tail[:2]}, reference chi_c {want}"
    if lines[-1] != "verdict: MATCH":
        return f"last line {lines[-1]!r}"
    return None


_CHECKS = {"compute": _check_compute, "series": _check_series,
           "oracle": _check_oracle, "classify": _check_classify}
