"""Chen and Lin's Leray-Schauder degree d_rho = 1 - chi_c(B_rho) in their own
units, and where it is defined.

Chen and Lin ("Topological degree for a mean field equation on Riemann
surfaces", CPAM 2003) state the degree for a surface of genus g, sources
of strength alpha_j > -1 and a parameter rho / 8 pi.  In barychi's terms
X has chi_c(X) = 2 - 2g, each source is a singular point of weight
1 + alpha_j, and rho / 8 pi is the mass bound rho.  The degree jumps only
at the critical values n + w_I (n >= 0, I a set of singular points); in
between, and from a critical value on, it is constant, which is why a
report at a critical rho prints the degree just above it.
"""
import contextlib
import io
import json
from fractions import Fraction as F
from itertools import combinations, pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barychi import cli
from barychi.engine import chi_c_direct, chi_c_strata
from barychi.model import ProblemInstance, validate
from barychi.series import chen_lin_series


def chen_lin_instance(genus, alphas, rho):
    """The instance of a genus-``genus`` surface with sources ``alphas`` at
    Chen and Lin's rho / 8 pi = ``rho``."""
    return validate(ProblemInstance(2 - 2 * genus, tuple(1 + F(a) for a in alphas), F(rho)))


def table(name, genus, alphas, rhos, degrees):
    return [pytest.param(genus, alphas, rho, degree, id=f"{name}-rho={rho}")
            for rho, degree in zip(rhos, degrees, strict=True)]


HALVES = ["1/2", "3/2", "5/2", "7/2", "9/2"]
QUARTERS = ["1/4", "3/4", "5/4", "7/4", "9/4"]

# (genus, source strengths alpha_j, rho / 8 pi, d_rho)
DEGREES = [
    *table("sphere", 0, [], HALVES[:4], [1, -1, 0, 0]),
    *table("torus", 1, [], HALVES, [1, 1, 1, 1, 1]),
    # C(k + 2g - 2, k) at rho = k + 1/2.
    *table("genus-2", 2, [], HALVES, [1, 3, 6, 10, 15]),
    *table("genus-3", 3, [], HALVES, [1, 5, 15, 35, 70]),
    *table("sphere-alpha=-1/2", 0, ["-1/2"], QUARTERS, [1, 0, -1, 0, 0]),
    *table("sphere-alpha=1/2", 0, ["1/2"], ["1/2", "5/4", "7/4", "9/4", "11/4"],
           [1, 0, -1, -1, 0]),
    *table("torus-alpha=-1/2", 1, ["-1/2"], QUARTERS, [1, 0, 1, 0, 1]),
]


@pytest.mark.parametrize("genus,alphas,rho,degree", DEGREES)
def test_chen_lin_degree_on_every_route_and_in_the_report(genus, alphas, rho, degree):
    inst = chen_lin_instance(genus, alphas, rho)
    assert {name: run(inst).degree_d_rho for name, run in cli._METHOD_RUNNERS.items()} == {
        name: degree for name in cli._METHOD_RUNNERS}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compute", "--chi-c", str(inst.chi_c), "--rho", rho,
                         "--weights", ",".join(map(str, inst.weights)), "--json"])
    assert code == 0
    assert json.loads(out.getvalue())["d_rho"] == degree


@st.composite
def tie_heavy_small_instances(draw):
    """chi_c(X) in [-6, 6] and r <= 4 weights in (0, 2], each over a
    denominator 1, 2, 3, 4 or 6, so many subset sums share a value."""
    weights = []
    for _ in range(draw(st.integers(0, 4))):
        den = draw(st.sampled_from([1, 2, 3, 4, 6]))
        weights.append(F(draw(st.integers(1, 2 * den)), den))
    return draw(st.integers(-6, 6)), tuple(weights)


def critical_values(weights, limit):
    """{n + w_I : n >= 0, I a subset of the weights} minus {0}, up to
    ``limit``, ascending; by brute force over every subset."""
    found = set()
    for size in range(len(weights) + 1):
        for subset in combinations(weights, size):
            value = sum(subset, F(0))
            while value <= limit:
                found.add(value)
                value += 1
    found.discard(0)
    return sorted(found)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_small_instances())
def test_chi_c_is_constant_from_a_critical_value_to_the_next(drawn):
    chi, weights = drawn
    for low, high in pairwise(critical_values(weights, 6)):
        step = (high - low) / 1000
        points = (low, low + step, (low + high) / 2, high - step)
        values = {(rho, run(validate(ProblemInstance(chi, weights, rho))).chi_c_value)
                  for rho in points for run in cli._METHOD_RUNNERS.values()}
        assert len({value for _, value in values}) == 1, (chi, weights, low, high, values)


@settings(max_examples=100, deadline=None)
@given(tie_heavy_small_instances())
def test_one_expansion_gives_the_profile_at_every_critical_value(drawn):
    # g expanded once, to 6: it jumps only at critical values, and minus its
    # running sum through a critical value c is chi_c at rho = c.
    chi, weights = drawn
    terms = chen_lin_series(validate(ProblemInstance(chi, weights, F(6)))).terms()
    critical = critical_values(weights, 6)
    assert {e for e, _ in terms if e > 0} <= set(critical), (chi, weights, terms)
    for c in critical:
        running = sum(coeff for e, coeff in terms if 0 < e <= c)
        inst = validate(ProblemInstance(chi, weights, c))
        assert (-running, -running) == (chi_c_direct(inst).chi_c_value,
                                        chi_c_strata(inst).chi_c_value), (chi, weights, c)
