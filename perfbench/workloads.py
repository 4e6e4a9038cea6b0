"""Seeded request plans for the four benchmark workloads.

A plan is an endless sequence of cycles.  Cycle ``i`` of a workload is a
fixed list of request *shapes* (which subcommand, how many weights, which
band of rho) whose numbers are drawn from a generator seeded with
``(workload, seed, i)``.  The shape list is the same for every seed, so two
seeds ask the program for the same amount of work while the exact inputs
differ; the runner stops only at cycle boundaries, so a run always holds
whole cycles.

A request is a plain dict.  ``argv`` turns it into the command line a user
would type; the checker reads the same dict to know what to expect.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

import checks

WORKLOADS = ("corpus", "wide", "deep", "dump")

# Per-request time budget in seconds: about ten times the slowest request
# the workload generates, so only a real slowdown or a hang trips it.
BUDGET_S = {"corpus": 10.0, "wide": 90.0, "deep": 40.0, "dump": 20.0}

# Requests, from the start of the plan, that the traced run replays.  Fixed,
# so its work counts repeat exactly for one seed: four corpus cycles, one of
# each wide shape, one deep cycle and two dump cycles.
TRACE_REQUESTS = {"corpus": 240, "wide": 9, "deep": 23, "dump": 48}

_SPACE_KINDS = ("compact", "lc", "even-interior", "union")


def cycles(workload: str, seed: int, minimum: bool = False) -> Iterator[list[dict]]:
    """Yield the workload's cycles in order; ``minimum`` gives one cycle
    with every shape at its smallest size, for smoke tests."""
    make = _CYCLES[workload]
    if minimum:
        yield make(random.Random(f"{workload}:{seed}:min"), True)
        return
    index = 0
    while True:
        yield make(random.Random(f"{workload}:{seed}:{index}"), False)
        index += 1


def argv(req: dict) -> list[str]:
    """The barychi command line for one request."""
    cmd = req["cmd"]
    if cmd == "oracle":
        args = ["oracle", "--vertices", str(req["vertices"]),
                "--weights", ",".join(req["weights"]), "--rho", req["rho"]]
    else:
        args = [cmd, "--chi-c", str(req["chi"]), "--weights", ",".join(req["weights"]),
                "--rho", req["rho"]]
        if req.get("components") is not None:
            args += ["--components", json.dumps(req["components"])]
        elif req.get("space"):
            args += ["--space", req["space"]]
    if cmd == "compute":
        args += ["--method", req["method"]]
        if req.get("breakdown"):
            args.append("--breakdown")
    if cmd == "series":
        args += ["--bound", req["bound"]]
    if req.get("json"):
        args.append("--json")
    return args


# ---------------------------------------------------------------------------
# Value generators


def _weights(rng: random.Random, r: int) -> list[str]:
    """r weights in (0, 2] with denominators <= 20, as selftest draws them."""
    weights = []
    for _ in range(r):
        d = rng.randint(1, 20)
        weights.append(str(Fraction(rng.randint(1, 2 * d), d)))
    return weights


def _spread_weights(rng: random.Random, r: int) -> list[str]:
    """r <= 10 weights, the k-th in the k-th of r equal slices of (0, 2], with
    r distinct denominators from 11..20 (numerators prime to them where the
    slice has one)."""
    weights = []
    for k, d in enumerate(rng.sample(range(11, 21), r)):
        slice_ = range(2 * k * d // r + 1, 2 * (k + 1) * d // r + 1)
        weights.append(str(Fraction(rng.choice(
            [n for n in slice_ if gcd(n, d) == 1] or slice_), d)))
    return weights


def _nonintegral_rho(rng: random.Random, lo: int, hi: int) -> str:
    """A non-integer rho in (lo, hi] with denominator 2..20."""
    d = rng.randint(2, 20)
    n = rng.randint(lo * d + 1, hi * d - 1)
    if n % d == 0:
        n += 1
    return str(Fraction(n, d))


def _instance(rng: random.Random, weights: list[str], rho: str,
              chi: tuple[int, int] = (-10, 10), **extra) -> dict:
    """A compute request on a compact space with chi_c drawn from ``chi``."""
    req = {"cmd": "compute", "chi": rng.randint(*chi), "weights": weights,
           "rho": rho, "space": "compact", "components": None}
    req.update(extra)
    return req


def _selftest_instance(rng: random.Random) -> dict:
    """The selftest corpus distribution: chi_c in [-10, 10], r <= 8,
    denominators <= 20, rho in (0, 12], every space kind, and two-component
    unions split at a random cut."""
    chi = rng.randint(-10, 10)
    r = rng.randint(0, 8)
    weights = _weights(rng, r)
    d = rng.randint(1, 20)
    rho = str(Fraction(rng.randint(1, 12 * d), d))
    kind = rng.choice(_SPACE_KINDS)
    components = None
    if kind == "union":
        cut = rng.randint(0, r)
        chi_1 = rng.randint(-5, 5)
        components = [
            {"chi_c": chi_1, "is_compact": rng.random() < 0.5,
             "singular_indices": list(range(1, cut + 1))},
            {"chi_c": chi - chi_1, "is_compact": rng.random() < 0.5,
             "singular_indices": list(range(cut + 1, r + 1))},
        ]
    return {"cmd": "compute", "chi": chi, "weights": weights, "rho": rho,
            "space": None if kind == "union" else kind, "components": components,
            "method": "all", "json": True}


def _finite_space(rng: random.Random, m: int, units: int | None = None) -> dict:
    """An oracle request on m weighted vertices.

    With ``units`` None each vertex is generic (weight 1) with probability
    0.3, as in selftest; otherwise exactly ``units`` vertices are generic,
    which fixes the number of singular weights the three routes see.
    """
    if units is None:
        generic = [rng.random() < 0.3 for _ in range(m)]
    else:
        generic = [True] * units + [False] * (m - units)
        rng.shuffle(generic)
    weights = []
    for is_generic in generic:
        if is_generic:
            weights.append("1")
        else:
            d = rng.randint(1, 12)
            weights.append(str(Fraction(rng.randint(1, 2 * d), d)))
    d = rng.randint(1, 12)
    rho = str(Fraction(rng.randint(1, (m + 1) * d), d))
    return {"cmd": "oracle", "vertices": m, "weights": weights, "rho": rho, "json": True}


# ---------------------------------------------------------------------------
# Cycles


def _corpus_cycle(rng: random.Random, minimum: bool) -> list[dict]:
    """40 selftest instances as compute --method all --json, classify on the
    compact ones with r <= 2 and weights <= 1, and 20 selftest finite spaces
    (m <= 10) through the oracle."""
    instances, spaces = (2, 1) if minimum else (40, 20)
    reqs = []
    for i in range(instances):
        inst = _selftest_instance(rng)
        if minimum and i == 0:
            # Make sure the smoke run reaches the classifier.
            inst.update(space="compact", components=None,
                        weights=[str(Fraction(k, 10)) for k in (3, 7)])
        reqs.append(inst)
        if (inst["space"] == "compact" and len(inst["weights"]) <= 2
                and all(Fraction(w) <= 1 for w in inst["weights"])):
            reqs.append(dict(inst, cmd="classify"))
    reqs += [_finite_space(rng, rng.randint(1, 10)) for _ in range(spaces)]
    return reqs


# (r, share) for wide compute requests and (m, share) for wide oracle
# requests, with 5 generic vertices.  rho is drawn from the weights so that it
# admits that share of the 2^r subset sums: the work then follows r alone,
# not how the random weights happen to fall against a fixed rho.  Four of the
# other shapes are faster than r = 14 and four slower, so the seven extra
# r = 14 requests put a cluster of eight in the middle of the cycle's
# latencies: the median latency is theirs rather than whichever shape lands
# there.  They come last, so the first nine requests hold every shape once.
_WIDE_COMPUTE = ((12, 0.3), (13, 0.25), (14, 0.2), (15, 0.15), (16, 0.1), (17, 0.05))
_WIDE_ORACLE = ((16, 0.3), (17, 0.3), (18, 0.3))
_WIDE_EXTRA = ((14, 0.2),) * 7


def _rho_for_share(rng: random.Random, weights: list[str], share: float) -> str:
    """rho with denominator 10..20 and at most 12 admitting about ``share``
    of the subset sums of ``weights``."""
    scale = lcm(*(Fraction(w).denominator for w in weights))
    sums = sorted(checks.subset_sums(weights, scale))
    d = rng.randint(10, 20)
    target = Fraction(sums[int(share * len(sums))], scale)
    return str(min(max(Fraction(round(target * d), d), Fraction(1, d)), Fraction(12)))


def _wide_cycle(rng: random.Random, minimum: bool) -> list[dict]:
    """r = 12..17 weights as compute --method all --json, and finite spaces
    with m = 16..18 through the oracle."""
    def compute(shapes):
        for r, share in shapes:
            weights = _weights(rng, r)
            reqs.append(_instance(rng, weights, _rho_for_share(rng, weights, share),
                                  method="all", json=True))

    reqs: list[dict] = []
    compute(_WIDE_COMPUTE[:1] if minimum else _WIDE_COMPUTE)
    for m, share in _WIDE_ORACLE[:1] if minimum else _WIDE_ORACLE:
        req = _finite_space(rng, m, units=5)
        req["rho"] = _rho_for_share(rng, req["weights"], share)
        reqs.append(req)
    if not minimum:
        compute(_WIDE_EXTRA)
    return reqs


# rho windows for deep: cost grows with rho squared, so each window is narrow
# and every request shape costs about the same from seed to seed.
_DEEP_ALL = (300, 500, 700, 950)          # compute --method all, rho in (lo, lo + 25]
_DEEP_DIRECT = ((1, 10_000), (2, 19_500), (3, 29_500))  # --method direct, (lo, lo + 500]


def _deep_cycle(rng: random.Random, minimum: bool) -> list[dict]:
    """r <= 3 with non-integer rho in 300..1000 as compute --method all, and
    a --method direct slice at rho in 10^4..3*10^4 (r = 1..3).  chi_c < 0, so
    r - chi_c > 0: every binomial is a full-size big int and the series has
    a term at every integer up to rho."""
    if minimum:
        shapes = [(1, _DEEP_ALL[0], 25, "all"), (*_DEEP_DIRECT[0], 500, "direct")]
    else:
        shapes = [(r, lo, 25, "all") for r in range(4) for lo in _DEEP_ALL]
        # Four more r = 1 requests near rho = 700 fill the middle of the
        # latencies, so the median is theirs, as in wide.
        shapes += [(1, 700, 25, "all")] * 4
        shapes += [(r, lo, 500, "direct") for r, lo in _DEEP_DIRECT]
    return [_instance(rng, _weights(rng, r), _nonintegral_rho(rng, lo, lo + width),
                      chi=(-10, -1), method=method)
            for r, lo, width, method in shapes]


# Nine of the other requests are faster than compute at r = 8 and three
# quarters of the subset sums, and ten slower; four more of that shape put a
# cluster of five in the middle of the dump latencies, so the median is
# theirs, as in wide.
_DUMP_EXTRA = ((8, 0.75),) * 4


def _dump_cycle(rng: random.Random, minimum: bool) -> list[dict]:
    """r = 6..10 and rho <= 12 as compute --breakdown --json and, on the same
    instance, series --bound 2*rho --json.  rho admits a quarter or three
    quarters of the subset sums, as in wide.  The weights are spread evenly
    over (0, 2] with distinct denominators, so nearly every subset sum is its
    own series exponent and the number of terms follows r and the share
    rather than chance.  chi_c in [-5, 5] keeps r - chi_c > 0, so the series
    always has its integer shifts."""
    shapes = [(6, 0.25)] if minimum else [(r, share) for r in range(6, 11)
                                           for share in (0.25, 0.75)]
    def compute(r, share):
        weights = _spread_weights(rng, r)
        return _instance(rng, weights, _rho_for_share(rng, weights, share),
                         chi=(-5, 5), method="all", breakdown=True, json=True)

    reqs = []
    for r, share in shapes:
        inst = compute(r, share)
        reqs.append(inst)
        reqs.append(dict(inst, cmd="series", bound=str(2 * Fraction(inst["rho"]))))
    if not minimum:
        reqs += [compute(r, share) for r, share in _DUMP_EXTRA]
    return reqs


_CYCLES = {"corpus": _corpus_cycle, "wide": _wide_cycle, "deep": _deep_cycle,
           "dump": _dump_cycle}
