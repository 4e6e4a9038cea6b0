import contextlib
import io
import json
from fractions import Fraction
from itertools import accumulate, compress
from math import floor, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barychi.cli import main
from barychi.combinatorics import ext_binomial
from barychi.engine import (
    ChiResult,
    chi_c_direct,
    chi_c_strata,
    topological_chi_applicable,
)
from barychi.errors import InputFormatError, NonPositiveRho, NonPositiveWeight
from barychi.model import ProblemInstance, instance_to_json_dict, validate
from barychi.series import (
    COLUMNS_FROM,
    SparseSeries,
    _expand_columns,
    _expand_terms,
    _factors,
    chen_lin_series,
    chi_c_series,
    truncation_bound,
    window_columns,
)

from test_engine import kernel_instances, make, tie_heavy_instances

F = Fraction

# Instances whose rho and bound denominators share no factor with the
# weights', and ties w_I = rho.
SCALE_CASES = [
    (-2, (F(2, 5), F(4, 3)), F(7, 2), F(15, 7)),
    (-2, (F(2, 5), F(4, 3)), F(7, 2), F(11, 2)),
    (-2, (F(2, 5), F(4, 3)), F(7, 2), F(50, 7)),
    (3, (F(2, 5), F(4, 3), F(3, 7)), F(9, 2), F(61, 11)),
    (-1, (F(2, 5), F(4, 3)), F(4, 3), F(13, 7)),
    (-1, (F(2, 5), F(4, 3)), F(26, 15), None),
    (2, (F(2, 5), F(4, 3), F(1, 2)), F(67, 30), F(9, 4)),
    (0, (F(3, 4), F(3, 4), F(5, 6)), F(3, 2), F(17, 7)),
]


def window_reference(g: SparseSeries, rho: Fraction) -> tuple[int, tuple]:
    """(chi_c, rows) read off g's coefficient window by its definition: the
    rows of ``g.terms()`` with 0 < e <= rho, each keyed by e's
    (numerator, denominator), and minus their sum."""
    rows = tuple(((e.numerator, e.denominator), c) for e, c in g.terms() if 0 < e <= rho)
    return -sum(c for _, c in rows), rows


def geometric_power(m: int, bound: Fraction | int) -> SparseSeries:
    """(1 + x + x^2 + ...)^m cut at ``bound``: ``chen_lin_series`` with no
    weights and chi_c = -m."""
    return chen_lin_series(validate(ProblemInstance(-m, (), F(bound))))


def brute_poly_product(a: dict, b: dict, bound: Fraction) -> dict:
    """Schoolbook product of exponent->coefficient maps, truncated."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e <= bound:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestSparseSeries:
    """The series ``chen_lin_series`` returns: int keys over one scale, read
    back by exponent value."""

    def test_zero_coefficients_dropped(self):
        # (1 + x + x^2 + x^3)(1 - x) cut at 3 is 1: every other term cancels.
        g = chen_lin_series(validate(ProblemInstance(0, (F(1),), F(3))))
        assert len(g) == 1
        assert g.terms() == [(F(0), 1)]

    def test_exponent_value_identity(self):
        # rho = 4/3 puts g at scale 6; the exponent 1/2 is stored as 3/6.
        g = chen_lin_series(validate(ProblemInstance(1, (F(1, 2),), F(4, 3))))
        assert g.scale == 6
        assert g.terms() == [(F(0), 1), (F(1, 2), -1)]

    def test_equality_across_scales(self):
        inst = validate(ProblemInstance(1, (F(1, 2),), F(1)))
        narrow, wide = chen_lin_series(inst), chen_lin_series(inst, F(4, 3))
        assert (narrow.scale, wide.scale) == (2, 6)
        assert narrow == wide
        assert narrow != chen_lin_series(validate(ProblemInstance(1, (F(1, 3),), F(1))))

    def test_terms_sorted(self):
        # The factor's terms land after the geometric power's in the dict.
        g = chen_lin_series(validate(ProblemInstance(-1, (F(1, 3),), F(2))))
        assert g.terms() == [(F(0), 1), (F(1, 3), -1), (F(1), 2), (F(4, 3), -2), (F(2), 3)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reduced_terms_are_terms_as_integers(self, data):
        # window_columns reads a hand-built series, with or without a
        # constant term, at any scale and any rho.
        scale = data.draw(st.one_of(
            st.integers(1, 60),
            st.sampled_from([2**61 - 1, 10**40 + 3, 2**40 * 3**20, 10**1000 + 1]),
            st.integers(1, 10**80),
        ), label="scale")
        key = st.one_of(
            st.just(0),
            st.integers(1, 40).map(lambda q: q * scale),  # integer exponents
            st.integers(1, 10**6).filter(lambda k: gcd(k, scale) == 1),
            st.integers(1, 10**90),
        )
        keys = data.draw(st.lists(key, min_size=1, max_size=8, unique=True), label="keys")
        g = SparseSeries(scale, {k: c for c, k in enumerate(keys, -3) if c})
        rho = data.draw(st.one_of(
            st.sampled_from(keys).map(lambda k: F(k, scale)),  # a tie at rho
            st.builds(F, st.integers(0, 10**90), st.integers(1, 10**6)),
        ), label="rho")
        inside, numerators, denominators, coefficients = window_columns(g, rho)
        reduced = list(zip(numerators, denominators, coefficients))
        terms = [(e, c) for e, c in g.terms() if e > 0]
        assert reduced == [(e.numerator, e.denominator, c) for e, c in terms]
        assert inside == sum(1 for e, _ in terms if e <= rho)

    def test_reduced_terms_of_a_series(self):
        # (1 + x + x^2)(1 - x^(1/2)) at scale 6: the key 3 reduces to 1/2 and
        # the key 6 to 1; the constant term is no column.
        g = chen_lin_series(validate(ProblemInstance(0, (F(1, 2),), F(4, 3))), F(2))
        assert g.scale == 6
        inside, numerators, denominators, coefficients = window_columns(g, F(4, 3))
        reduced = list(zip(numerators, denominators, coefficients))
        assert inside == 2
        assert reduced == [(1, 2, -1), (1, 1, 1), (3, 2, -1), (2, 1, 1)]

    def test_len_counts_terms(self):
        # perfbench's tracer reads series.support_terms as len() of the
        # series chen_lin_series returns.
        g = chen_lin_series(validate(ProblemInstance(-2, (F(2, 5), F(4, 3)), F(7, 2))))
        assert len(g) == len(g.terms()) == 13


class TestExpandGeometricPower:
    """The geometric power (1 + x + x^2 + ...)^m that ``chen_lin_series``
    expands before any factor, read with no weights."""

    def test_inverse_of_geometric(self):
        assert geometric_power(-1, 5).terms() == [(F(0), 1), (F(1), -1)]

    def test_power_zero(self):
        assert geometric_power(0, 5).terms() == [(F(0), 1)]

    def test_square(self):
        # (1 + x + x^2 + x^3)^2 truncated: coefficients count pairs.
        base = {F(n): 1 for n in range(4)}
        expected = brute_poly_product(base, base, F(3))
        assert geometric_power(2, 3).terms() == sorted(expected.items())

    def test_coefficients_are_repetition_counts(self):
        terms = dict(geometric_power(3, 6).terms())
        for n in range(7):
            assert terms[F(n)] == ext_binomial(3 + n - 1, n)

    def test_fractional_bound_truncates_to_floor(self):
        g = geometric_power(2, F(5, 2))
        assert max(e for e, _ in g.terms()) == 2


class TestMultiplyTruncated:
    """The truncated multiply by each factor 1 - x^w, through
    ``chen_lin_series``; where chi_c = r the geometric power is 1 and g is
    the bare product."""

    def test_identity(self):
        # A factor whose exponent is past the cut changes nothing.
        g = chen_lin_series(validate(ProblemInstance(0, (F(5),), F(2))))
        assert g == geometric_power(1, 2)

    def test_exponent_merge(self):
        g = chen_lin_series(validate(ProblemInstance(2, (F(1, 2), F(1, 2)), F(2))))
        assert g.terms() == [(F(0), 1), (F(1, 2), -2), (F(1), 1)]

    def test_mixed_factors(self):
        g = chen_lin_series(validate(ProblemInstance(2, (F(1), F(1, 2)), F(2))))
        assert g.terms() == [(F(0), 1), (F(1, 2), -1), (F(1), -1), (F(3, 2), 1)]

    @given(st.integers(0, 40))
    def test_matches_brute_force(self, seed):
        # The cut is a sum of some of the weights, so terms land exactly on it.
        import random

        rng = random.Random(seed)
        weights = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        cut = sum(rng.sample(weights, rng.randint(1, len(weights))))
        expected = {F(0): 1}
        for w in weights:
            expected = brute_poly_product(expected, {F(0): 1, w: -1}, cut)
        g = chen_lin_series(validate(ProblemInstance(len(weights), tuple(weights), cut)))
        assert g.terms() == sorted(expected.items())


class TestChenLinSeries:
    def test_worked_expansion(self):
        inst = validate(ProblemInstance(2, (F(1, 2),), F(1)))
        assert chen_lin_series(inst).terms() == [(F(0), 1), (F(1, 2), -1), (F(1), -1)]

    def test_no_weights_is_pure_geometric_power(self):
        for chi in (-3, 0, 2):
            inst = validate(ProblemInstance(chi, (), F(4)))
            expected = [(F(n), ext_binomial(-chi + n - 1, n)) for n in range(5)]
            assert chen_lin_series(inst).terms() == [(e, c) for e, c in expected if c]

    def test_chi_equal_r_leaves_only_the_product(self):
        weights = (F(1, 3), F(2, 3))
        inst = validate(ProblemInstance(2, weights, F(2)))
        expected = {F(0): 1}
        for w in weights:
            expected = brute_poly_product(expected, {F(0): 1, w: -1}, F(2))
        assert chen_lin_series(inst).terms() == sorted(expected.items())

    def test_constant_term_is_one(self):
        inst = validate(ProblemInstance(-4, (F(2, 5), F(7, 5), F(1)), F(6)))
        assert chen_lin_series(inst).terms()[0] == (F(0), 1)

    @given(
        st.integers(-4, 4),
        st.lists(st.fractions(F(1, 20), F(3), max_denominator=20), max_size=4),
        st.fractions(F(1, 20), F(6), max_denominator=20),
        st.none() | st.fractions(F(0), F(8), max_denominator=20),
    )
    def test_matches_brute_force(self, chi, weights, rho, bound):
        inst = validate(ProblemInstance(chi, tuple(weights), rho))
        cut = truncation_bound(rho, bound)
        m = len(weights) - chi
        expected = {F(n): ext_binomial(m + n - 1, n) for n in range(floor(cut) + 1)}
        expected = {e: c for e, c in expected.items() if c}
        for w in weights:
            expected = brute_poly_product(expected, {F(0): 1, w: -1}, cut)
        assert chen_lin_series(inst, bound).terms() == sorted(expected.items())

    def test_validates_inputs(self):
        # validate is the one place the series route's inputs are checked.
        with pytest.raises(NonPositiveWeight):
            chen_lin_series(validate(ProblemInstance(0, (F(0),), F(1))))
        with pytest.raises(NonPositiveRho):
            chen_lin_series(validate(ProblemInstance(0, (), F(-2))))

    @pytest.mark.parametrize("bound", [0.5, 2.5, "3", True],
                             ids=["float-below-rho", "float", "str", "bool"])
    def test_refuses_an_inexact_bound(self, bound):
        # A float or bool below rho was accepted, 2.5 raised an
        # AttributeError and "3" a TypeError.
        with pytest.raises(InputFormatError):
            chen_lin_series(validate(ProblemInstance(1, (F(1, 2),), F(2))), bound)


class TestChiCSeries:
    def test_worked_example(self):
        res = chi_c_series(validate(ProblemInstance(2, (F(1, 2),), F(1))), breakdown=True)
        assert res.chi_c_value == 2
        assert res.degree_d_rho == -1
        assert res.term_breakdown == (((1, 2), -1), ((1, 1), -1))

    def test_no_weights_contract(self):
        for chi in range(-5, 6):
            for k in range(1, 6):
                res = chi_c_series(validate(ProblemInstance(chi, (), F(k))))
                assert res.chi_c_value == 1 - ext_binomial(k - chi, k)

    def test_empty_window_is_empty_space(self):
        res = chi_c_series(validate(ProblemInstance(3, (F(1, 2), F(2, 3)), F(1, 4))))
        assert res.chi_c_value == 0

    def test_agrees_with_direct(self, engine_corpus):
        for inst in engine_corpus[:200]:
            res = chi_c_series(inst)
            assert res.chi_c_value == chi_c_direct(inst).chi_c_value

    def test_exponent_merge_consistency(self):
        # 1/2 + 1/2 collides with the integer exponent 1.
        inst = validate(ProblemInstance(3, (F(1, 2), F(1, 2)), F(2)))
        res = chi_c_series(inst)
        assert res.chi_c_value == chi_c_direct(inst).chi_c_value

    def test_truncation_stability(self):
        inst = validate(ProblemInstance(-2, (F(2, 5), F(4, 3)), F(7, 2)))
        base = chi_c_series(inst).chi_c_value
        for bound in (F(4), F(6), F(15, 2)):
            assert window_reference(chen_lin_series(inst, bound), inst.rho)[0] == base

    @pytest.mark.parametrize("chi,weights,rho,bound", SCALE_CASES)
    def test_coprime_denominators_and_ties(self, chi, weights, rho, bound):
        inst = validate(ProblemInstance(chi, weights, rho))
        chi, rows = window_reference(chen_lin_series(inst, bound), rho)
        assert chi == chi_c_direct(inst).chi_c_value
        # A longer cut leaves the window's rows as they are at rho.
        assert chi_c_series(inst, breakdown=True) == ChiResult(chi, rows)

    def test_unit_weight_factor_consistency(self):
        plain = validate(ProblemInstance(1, (F(2, 5),), F(3)))
        augmented = validate(ProblemInstance(1, (F(2, 5), F(1)), F(3)))
        res_plain = chi_c_series(plain)
        res_aug = chi_c_series(augmented)
        assert res_plain.chi_c_value == chi_c_direct(plain).chi_c_value
        assert res_aug.chi_c_value == chi_c_direct(augmented).chi_c_value
        assert res_plain.chi_c_value == res_aug.chi_c_value

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_instances())
    def test_row_keys_are_reduced_int_pairs(self, inst):
        rows = chi_c_series(inst, breakdown=True).term_breakdown
        assert rows == tuple(((e.numerator, e.denominator), c)
                             for e, c in chen_lin_series(inst).terms()[1:])
        assert all(type(n) is int and type(d) is int for (n, d), _ in rows)

    @settings(max_examples=150, deadline=None)
    @given(kernel_instances(), st.booleans())
    def test_one_sum_read_is_the_window_rule(self, inst, breakdown):
        # chi_c_series reads the series cut at rho in one sum; the window
        # rule read off any longer cut must give the same result.
        res = chi_c_series(inst, breakdown=breakdown)
        assert res.chi_c_value == chi_c_direct(inst).chi_c_value
        for bound in (None, inst.rho, inst.rho * F(3, 2), inst.rho + F(7, 3)):
            g = chen_lin_series(inst, bound)
            chi, rows = window_reference(g, inst.rho)
            assert res == ChiResult(chi, rows if breakdown else ())
            assert window_columns(g, inst.rho)[0] == len(rows)

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_instances(), st.fractions(F(1, 20), F(3), max_denominator=20),
           st.fractions(F(1, 97), F(8), max_denominator=97))
    def test_inside_counts_the_window(self, inst, beyond, rho):
        # Ties at rho, cuts at and above it, and a window end rho' whose
        # denominator need not divide g.scale.
        for bound in (None, inst.rho, inst.rho + beyond):
            g = chen_lin_series(inst, bound)
            for end in (inst.rho, rho):
                assert window_columns(g, end)[0] == len(window_reference(g, end)[1])


def series_command_reference(inst, bound: Fraction | None, as_json: bool) -> str:
    """What ``barychi series`` prints, rendered from ``g.terms()`` with
    ``str(Fraction)`` exponents and the window read by exponent value.  chi_c
    is direct's, so the window sum printed is checked against another route."""
    terms = chen_lin_series(inst, bound).terms()[1:]
    window = [c for e, c in terms if e <= inst.rho]
    chi = chi_c_direct(inst).chi_c_value
    if as_json:
        return json.dumps({
            "instance": instance_to_json_dict(inst),
            "bound": str(truncation_bound(inst.rho, bound)),
            "terms": [[str(e), c] for e, c in terms],
            "window_sum": -chi,
            "chi_c": chi,
            "d_rho": 1 - chi,
        }, separators=(",", ":")) + "\n"
    lines = [f"chi_c={chi} d_rho={1 - chi}\n"]
    lines += [f"{e} {c}\t# sum={total}\n" for (e, c), total in zip(terms, accumulate(window))]
    lines.append(f"# window end: rho={inst.rho}\n")
    lines += [f"{e} {c}\n" for e, c in terms[len(window):]]
    return "".join(lines)


def series_breakdown_reference(inst, as_json: bool) -> str:
    """What ``barychi compute --method series --breakdown`` prints, rendered
    from ``g.terms()`` with ``str(Fraction)`` exponents.  chi_c is direct's."""
    terms = chen_lin_series(inst).terms()[1:]
    chi = chi_c_direct(inst).chi_c_value
    doc = instance_to_json_dict(inst)
    if as_json:
        return json.dumps({
            "instance": doc,
            "methods": {"series": chi},
            "chi_c": chi,
            "d_rho": 1 - chi,
            "verdict": "MATCH",
            "topological_chi_applies": topological_chi_applicable(inst),
            "breakdown": {"series": [[str(e), c] for e, c in terms]},
        }, separators=(",", ":")) + "\n"
    applies = "yes" if topological_chi_applicable(inst) else "no"
    lines = [f"instance: chi_c={doc['chi_c']} weights={','.join(doc['weights']) or '(none)'} "
             f"rho={doc['rho']} space={doc['space']['kind']}\n",
             f"series: {chi}\n", f"chi_c(B_rho) = {chi}\n", f"d_rho = {1 - chi}\n",
             f"topological chi applies: {applies}\n", "series terms:\n"]
    lines += [f"  {e}: {c}\n" for e, c in terms]
    lines.append("verdict: MATCH\n")
    return "".join(lines)


@st.composite
def term_text_cases(draw):
    """(command, instance, bound, as_json) for the printed series terms:
    ``series`` with its bound absent, at rho, or on a subset sum above it,
    or ``compute --method series --breakdown`` (bound None).  The weights
    are drawn with repeats from a few with denominators 2 to 6, integers
    among them, so exponents tie, many are integers and the factors make
    negative coefficients; rho is a drawn subset's weight plus n, and n or
    the bound's floor reaches COLUMNS_FROM often, with m = r - chi_c >= 1
    there, so the columns are read; otherwise m may be 0 or below."""
    command = draw(st.sampled_from(["series", "breakdown"]))
    den = draw(st.sampled_from([2, 3, 4, 6]))
    pool = draw(st.lists(st.integers(1, 3).map(F) | st.integers(1, 3 * den).map(
        lambda n: F(n, den)), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(pool), max_size=4))

    def subset_sum_plus_n() -> Fraction:
        kept = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
        return sum(compress(weights, kept), F(draw(st.integers(0, 2))))

    far = draw(st.booleans())
    rho = subset_sum_plus_n() or F(1, den)
    bound = None
    if command == "series":
        bound = draw(st.sampled_from([None, "rho", "above"]))
        if bound == "rho":
            bound = rho
        elif bound == "above":
            bound = rho + subset_sum_plus_n() + (COLUMNS_FROM if far else 0)
    elif far:
        rho += COLUMNS_FROM
    m = draw(st.integers(1, 6) if far else st.integers(-2, 6))
    return command, make(len(weights) - m, weights, rho), bound, draw(st.booleans())


class TestSeriesOutputPath:
    """The series command reads g's int keys straight into text; it must
    print what ``g.terms()`` says."""

    @settings(max_examples=120, deadline=None)
    @given(tie_heavy_instances(), st.sampled_from(["absent", "rho", "above"]),
           st.fractions(F(1, 20), F(3), max_denominator=20), st.booleans())
    def test_series_command_prints_the_terms(self, inst, where, beyond, as_json):
        bound = {"absent": None, "rho": inst.rho, "above": inst.rho + beyond}[where]
        argv = ["series", "--chi-c", str(inst.chi_c), "--weights", ",".join(map(str, inst.weights)),
                "--rho", str(inst.rho)]
        argv += [] if bound is None else ["--bound", str(bound)]
        argv += ["--json"] if as_json else []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == series_command_reference(inst, bound, as_json)

    @settings(max_examples=150, deadline=None)
    @given(term_text_cases())
    @example(("series", make(2, ["1/2", "2/3"], "7/6"), F(13, 6), False))
    @example(("series", make(2, ["1/2", "2/3"], "7/6"), F(13, 6), True))
    @example(("breakdown", make(-1, ["1", "3/4"], "87/4"), None, False))
    @example(("breakdown", make(-1, ["1", "3/4"], "87/4"), None, True))
    def test_terms_print_as_the_reference_renders_them(self, case):
        # Integer and fractional exponents, negative coefficients, a cut on
        # a subset sum, and cuts past COLUMNS_FROM, where g is stored as
        # residue columns, in series and in a series breakdown, as text and
        # as JSON.
        command, inst, bound, as_json = case
        argv = ["--chi-c", str(inst.chi_c), "--weights", ",".join(map(str, inst.weights)),
                "--rho", str(inst.rho)]
        if command == "series":
            argv = ["series", *argv, *([] if bound is None else ["--bound", str(bound)])]
            want = series_command_reference(inst, bound, as_json)
        else:
            argv = ["compute", *argv, "--method", "series", "--breakdown"]
            want = series_breakdown_reference(inst, as_json)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, *(["--json"] if as_json else [])]) == 0
        assert out.getvalue() == want


def chen_lin_series_ascending(instance, bound=None):
    """g expanded with the factors 1 - x^w applied lightest first."""
    bound = truncation_bound(instance.rho, bound)
    scale = lcm(bound.denominator, instance.rho.denominator,
                *(w.denominator for w in instance.weights))
    top = bound.numerator * (scale // bound.denominator)
    m = instance.r - instance.chi_c
    terms = {n * scale: ext_binomial(m + n - 1, n) for n in range(floor(bound) + 1)}
    terms = {k: c for k, c in terms.items() if c}
    for w in instance.weights:
        step = w.numerator * (scale // w.denominator)
        for k, c in list(terms.items()):
            if k + step <= top:
                terms[k + step] = terms.get(k + step, 0) - c
        terms = {k: c for k, c in terms.items() if c}
    return SparseSeries(scale, terms)


class TestFactorOrder:
    @settings(max_examples=150, deadline=None)
    @given(kernel_instances(), st.sampled_from([None, F(1, 2), F(3, 2), F(2), F(7, 3)]))
    def test_denominator_order_matches_ascending(self, inst, stretch):
        if inst.r > 8:
            inst = validate(ProblemInstance(inst.chi_c, inst.weights[:8], inst.rho))
        bound = None if stretch is None else inst.rho * stretch
        assert chen_lin_series(inst, bound).terms() == \
            chen_lin_series_ascending(inst, bound).terms()


@st.composite
def column_cases(draw):
    """An instance and a cut at or above rho, tie-heavy: r = 0..6 weights
    drawn with repeats from a few that mostly share a small denominator,
    integer weights among them; rho a drawn subset's weight plus an integer,
    an integer, or on the small grid, with floor(rho) on both sides of
    ``COLUMNS_FROM``; m = r - chi_c from -3 to 12; the cut at rho, at a
    subset's weight plus an integer, just under the switch, on it, or
    further above rho."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    weight = st.one_of(st.integers(1, 3).map(F), st.integers(1, 4 * den).map(lambda n: F(n, den)),
                       st.fractions(F(1, 20), F(5), max_denominator=20))
    pool = draw(st.lists(weight, min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(pool), max_size=6))
    chosen = [w for w in weights if draw(st.booleans())]
    top = 2 * COLUMNS_FROM
    rho = draw(st.one_of(
        st.integers(0, top).map(lambda n: sum(chosen, F(n))),
        st.integers(1, top).map(F),
        st.integers(1, top * den).map(lambda n: F(n, den)),
    ))
    rho = rho if rho > 0 else F(1, den)
    inst = make(len(weights) - draw(st.integers(-3, 12)), weights, rho)
    bound = draw(st.one_of(
        st.none(),
        st.integers(0, top).map(lambda n: sum(chosen, F(n))),
        st.sampled_from([F(COLUMNS_FROM) - F(1, den), F(COLUMNS_FROM)]),
        st.fractions(F(0), F(COLUMNS_FROM), max_denominator=12).map(lambda b: rho + b),
    ))
    return inst, truncation_bound(rho, bound)


@st.composite
def ended_power_cases(draw):
    """m = r - chi_c from -3 to 0, so the geometric power is a polynomial of
    degree -m; r <= 3 weights, each small or of 10^19 to 10^30, some
    integers, some repeated; rho a drawn subset's weight plus an integer,
    or an integer, from ``COLUMNS_FROM`` to 10^40."""
    weight = st.one_of(st.integers(1, 3).map(F), st.fractions(F(1, 6), F(5), max_denominator=6),
                       st.integers(10**19, 10**30).map(F),
                       st.fractions(F(10**19), F(10**30), max_denominator=7))
    pool = draw(st.lists(weight, min_size=1, max_size=2))
    weights = draw(st.lists(st.sampled_from(pool), max_size=3))
    chosen = sum((w for w in weights if draw(st.booleans())), F(0))
    rho = draw(st.one_of(st.integers(COLUMNS_FROM, 10**40).map(lambda n: chosen + n),
                         st.integers(COLUMNS_FROM, 10**40).map(F)))
    return make(len(weights) - draw(st.integers(-3, 0)), weights, rho)


def ended_power_reference(inst) -> list[tuple[Fraction, int]]:
    """g's terms cut at rho for m <= 0, by its definition: the polynomial
    (1 - x)^(-m) times each subset's signed monomial (-1)^|I| x^(w_I)."""
    m = inst.r - inst.chi_c
    g: dict[Fraction, int] = {}
    for mask in range(1 << inst.r):
        w_i = sum((w for j, w in enumerate(inst.weights) if mask >> j & 1), F(0))
        for n in range(-m + 1):
            e = w_i + n
            if e <= inst.rho:
                sign = (-1) ** (mask.bit_count() + n)
                g[e] = g.get(e, 0) + sign * ext_binomial(-m, n)
    return sorted((e, c) for e, c in g.items() if c)


class TestResidueColumns:
    """A long cut with a term of the geometric power at every level under it
    is expanded as residue columns, any other cut term by term; the two must
    give the same series."""

    @settings(max_examples=400, deadline=None)
    @given(column_cases())
    def test_columns_give_the_terms_of_the_dict(self, case):
        inst, cut = case
        by_terms, by_columns = (expand(*_factors(inst, cut))
                                for expand in (_expand_terms, _expand_columns))
        assert by_columns.terms() == by_terms.terms()
        assert len(by_columns) == len(by_terms)

    def test_the_switch_is_on_the_floor_of_the_cut(self):
        inst = validate(ProblemInstance(-1, (F(1, 2), F(2, 3)), F(1)))
        below = chen_lin_series(inst, F(COLUMNS_FROM) - F(1, 6))
        at = chen_lin_series(inst, F(COLUMNS_FROM))
        assert type(below) is SparseSeries and type(at) is not SparseSeries
        assert at.terms()[:len(below)] == below.terms()

    @settings(max_examples=200, deadline=None)
    @given(ended_power_cases())
    def test_an_ended_power_keeps_the_dict(self, inst):
        g = chen_lin_series(inst)
        assert type(g) is SparseSeries
        assert g.terms() == ended_power_reference(inst)
        assert chi_c_series(inst).chi_c_value == chi_c_direct(inst).chi_c_value


def counted_weights(weights):
    """The weights of the factors that ``chi_c_series`` counts rather than
    expands: the last two (all of them at r < 2) of ``_factors``' order, by
    ascending denominator and heaviest first within one."""
    return sorted(weights, key=lambda w: (w.denominator, -w))[-2:]


@st.composite
def tally_cases(draw, columns):
    """Tie-heavy instances for the series' counted factors: r = 0..5
    weights, r = 2 and 3 as often as all others together, drawn with
    repeats from a few, and rho = w_K + w_J + n for a drawn nonempty set
    K of the counted factors' weights (none at r = 0), a drawn set J of
    the other weights and an integer n >= 0, so that g'' (g without the
    counted factors) has a term at the cap rho - w_K whenever the sum over
    J does not cancel.  With ``columns`` floor(rho) >= COLUMNS_FROM and
    m = r - chi_c >= 1, and a weight may lie past COLUMNS_FROM, so a cap
    can fall under 1; otherwise floor(rho) < COLUMNS_FROM, or m from -3 to
    0, the power that ends early, for which every cut keeps the dict."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    weight = st.one_of(st.integers(1, 3).map(F), st.integers(1, 4 * den).map(lambda n: F(n, den)),
                       st.fractions(F(1, 20), F(5), max_denominator=20))
    if columns:
        weight |= st.fractions(F(COLUMNS_FROM), F(2 * COLUMNS_FROM), max_denominator=12)
    pool = draw(st.lists(weight, min_size=1, max_size=3))
    r = draw(st.sampled_from([2, 3]) | st.integers(0, 5))
    weights = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r))
    counted, rest = counted_weights(weights), list(weights)
    for w in counted:
        rest.remove(w)
    picked = st.sets(st.sampled_from(range(len(counted))), min_size=1) if counted else st.just(())
    chosen = [counted[i] for i in draw(picked)] + [w for w in rest if draw(st.booleans())]
    rho = sum(chosen, F(draw(st.integers(0, 2))))
    if columns:
        rho += max(0, COLUMNS_FROM - floor(rho))
        m = draw(st.integers(1, 12))
    else:
        m = draw(st.integers(-3, 12))
        assume(floor(rho) < COLUMNS_FROM or m <= 0)
    return make(len(weights) - m, weights, rho if rho > 0 else F(1, den))


def expanded_chi(inst):
    """1 minus the sum of the coefficients of g expanded whole, cut at rho."""
    return 1 - sum(c for _, c in chen_lin_series(inst).terms())


class TestTalliedLastFactor:
    """Without a breakdown, chi_c_series expands g without its last two
    factors and counts those factors' terms; it must give what the whole
    expansion gives, with the breakdown and by ``chen_lin_series``."""

    @settings(max_examples=300, deadline=None)
    @given(tally_cases(columns=False))
    @example(make(0, [], 3))
    @example(make(-2, ["2/3"], "2/3"))
    # r = 2, both factors counted, rho at each cap.
    @example(make(1, ["1/2", "3/4"], "1/2"))
    @example(make(1, ["1/2", "3/4"], "3/4"))
    @example(make(1, ["1/2", "3/4"], "5/4"))
    @example(make(2, ["1/2", "3/4"], 1 + COLUMNS_FROM))
    # r = 3 and the counted 1/3 and 1/4 after 1/2, rho at each cap.
    @example(make(2, ["1/2", "1/3", "1/4"], "5/6"))
    @example(make(2, ["1/2", "1/3", "1/4"], "3/4"))
    @example(make(2, ["1/2", "1/3", "1/4"], "13/12"))
    @example(make(3, ["1/2", "1/3", "1/4"], "13/12"))
    def test_on_the_dict(self, inst):
        assert type(chen_lin_series(inst)) is SparseSeries
        tallied = chi_c_series(inst)
        assert tallied == ChiResult(chi_c_series(inst, breakdown=True).chi_c_value)
        assert tallied.chi_c_value == expanded_chi(inst)

    @settings(max_examples=150, deadline=None)
    @given(tally_cases(columns=True))
    @example(make(-3, [], COLUMNS_FROM))
    @example(make(-2, ["103/5"], "103/5"))
    @example(make(-1, ["1/2", "103/5"], "103/5"))
    @example(make(-1, ["1/2", "103/5"], "211/10"))
    @example(make(-1, ["1/2", "103/5"], "41/2"))
    # r = 3 and the counted 1/3 and 103/5 after 1/2, rho at each cap.
    @example(make(0, ["1/2", "1/3", "103/5"], "125/6"))
    @example(make(0, ["1/2", "1/3", "103/5"], "211/10"))
    @example(make(0, ["1/2", "1/3", "103/5"], "643/30"))
    def test_on_the_columns(self, inst):
        assert type(chen_lin_series(inst)) is not SparseSeries
        tallied = chi_c_series(inst)
        assert tallied == ChiResult(chi_c_series(inst, breakdown=True).chi_c_value)
        assert tallied.chi_c_value == expanded_chi(inst)

    @settings(max_examples=150, deadline=None)
    @given(column_cases(), st.data())
    def test_sum_through_reads_the_terms_up_to_the_cap(self, case, data):
        # Both storage classes, every residue of the scale as the cap's, and
        # caps under 0 and past the cut.
        inst, cut = case
        factors = _factors(inst, cut)
        scale, top = factors[0], factors[1]
        caps = data.draw(st.lists(st.integers(-scale, top + 2 * scale), min_size=1, max_size=8))
        for g in (_expand_terms(*factors), _expand_columns(*factors)):
            for cap in caps + list(range(scale)):
                assert g._sum_through(cap) == sum(c for e, c in g.terms() if e * scale <= cap)


@st.composite
def long_rho_instances(draw):
    """r <= 4 tie-heavy weights and rho = w_J + n with floor(rho) in 16..300."""
    weights = draw(st.lists(st.fractions(F(1, 12), F(3), max_denominator=12), max_size=4))
    chosen = sum((w for w in weights if draw(st.booleans())), F(0))
    rho = chosen + draw(st.integers(16 - floor(chosen), 300 - floor(chosen)))
    return make(draw(st.integers(-8, 4)), weights, rho)


class TestRoutesAgreeAtLongRho:
    @settings(max_examples=100, deadline=None)
    @given(long_rho_instances())
    def test_series_agrees_with_direct_and_strata(self, inst):
        res = chi_c_series(inst, breakdown=True)
        assert res.chi_c_value == chi_c_direct(inst).chi_c_value == chi_c_strata(inst).chi_c_value
        # The window rows read off the columns are those of the dict.
        assert res == ChiResult(*window_reference(_expand_terms(*_factors(inst, inst.rho)),
                                                  inst.rho))
