import contextlib
import gc
import io
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barychi import cli
from barychi.cli import MAX_BREAKDOWN_POINTS, main
from barychi.engine import (
    METHOD_SERIES,
    ChiResult,
    chi_c_direct,
    chi_c_strata,
    topological_chi_applicable,
)
from barychi.model import MAX_SINGULAR_POINTS, ProblemInstance, instance_to_json_dict, validate
from barychi.series import chen_lin_series, chi_c_series, truncation_bound
from test_engine import tie_heavy_instances
from test_series import SCALE_CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--chi-c", "2", "--weights", "1/2",
                           "--rho", "1", "--method", "all")
        assert code == 0
        assert "chi_c(B_rho) = 2" in out
        assert "d_rho = -1" in out
        assert "verdict: MATCH" in out

    def test_empty_weight_list(self, capsys):
        code, out, _ = run(capsys, "compute", "--chi-c", "3", "--weights", "", "--rho", "2")
        assert code == 0
        assert "chi_c(B_rho) = 0" in out

    def test_zero_weight_is_input_error(self, capsys):
        code, _, err = run(capsys, "compute", "--chi-c", "2", "--weights", "0", "--rho", "1")
        assert code == 1
        assert "NonPositiveWeight" in err

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "compute", "--chi-c", "2", "--weights", "1/2",
                           "--rho", "1", "--method", "series")
        assert code == 0
        assert "series: 2" in out
        assert "direct" not in out

    def test_breakdown(self, capsys):
        code, out, _ = run(capsys, "compute", "--chi-c", "2", "--weights", "1/2",
                           "--rho", "1", "--breakdown")
        assert code == 0
        assert "direct terms:" in out
        assert "{1}:" in out

    def test_singular_point_cap(self, capsys):
        # m points of weight 1/2 under rho = 1: m vertices and C(m, 2) edges.
        m = MAX_SINGULAR_POINTS
        code, out, _ = run(capsys, "compute", "--chi-c", str(m), "--weights",
                           ",".join(["1/2"] * m), "--rho", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["methods"] == dict.fromkeys(("direct", "strata", "series"), m - m * (m - 1) // 2)
        assert doc["verdict"] == "MATCH"

    def test_above_singular_point_cap(self, capsys):
        code, out, err = run(capsys, "compute", "--chi-c", "0", "--weights",
                             ",".join(["1/2"] * (MAX_SINGULAR_POINTS + 1)), "--rho", "1")
        assert code == 1
        assert out == ""
        assert "TooManySingularPoints" in err

    def test_breakdown_cap(self, capsys):
        m = MAX_BREAKDOWN_POINTS
        code, out, _ = run(capsys, "compute", "--chi-c", "0", "--weights",
                           ",".join(["1/2"] * m), "--rho", "1", "--method", "direct",
                           "--breakdown", "--json")
        assert code == 0
        assert len(json.loads(out)["breakdown"]["direct"]) == 2 ** m
        code, out, err = run(capsys, "compute", "--chi-c", "0", "--weights",
                             ",".join(["1/2"] * (m + 1)), "--rho", "1", "--breakdown")
        assert code == 1
        assert out == ""
        assert "TooManySingularPoints" in err

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "compute", "--weights", "1/2")
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "compute", "--chi-c", "2", "--rho", "1", "--frobnicate")
        assert code == 1

    def test_json_round_trip_is_byte_identical(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "--chi-c", "2", "--weights", "3/5,1/2",
                           "--rho", "9/2", "--json", "--breakdown")
        assert code == 0
        report = json.loads(out)
        doc = tmp_path / "instance.json"
        doc.write_text(json.dumps(report["instance"]))
        code2, out2, _ = run(capsys, "compute", "--instance", str(doc), "--json", "--breakdown")
        assert code2 == 0
        assert out2 == out

    def test_instance_file(self, capsys, tmp_path):
        doc = tmp_path / "instance.json"
        doc.write_text('{"chi_c": 2, "weights": ["0.5"], "rho": "1"}')
        code, out, _ = run(capsys, "compute", "--instance", str(doc))
        assert code == 0
        assert "chi_c(B_rho) = 2" in out


class TestInstanceRefusesInstanceFlags:
    """--instance names the whole instance, so a flag that would describe
    it too is refused (exit 1, one error line, no output), not dropped."""

    @pytest.mark.parametrize("command", ["compute", "series", "classify"])
    @pytest.mark.parametrize("extra,named", [
        (["--chi-c", "7"], "--chi-c"),
        (["--weights", "1/3,1/4"], "--weights"),
        (["--weights", ""], "--weights"),
        (["--rho", "9"], "--rho"),
        (["--space", "lc"], "--space"),
        (["--components", '[{"chi_c":1}]'], "--components"),
        (["--chi-c", "7", "--rho", "9", "--weights", "1/3,1/4"], "--chi-c, --weights, --rho"),
    ], ids=["chi-c", "weights", "empty-weights", "rho", "space", "components", "three"])
    def test_refused(self, capsys, tmp_path, command, extra, named):
        doc = tmp_path / "instance.json"
        doc.write_text('{"chi_c": 3, "weights": ["1/2"], "rho": "2"}')
        code, out, err = run(capsys, command, "--instance", str(doc), *extra)
        assert (code, out) == (1, "")
        assert err == f"error: --instance cannot be combined with {named}\n"

    def test_other_flags_still_combine(self, capsys, tmp_path):
        doc = tmp_path / "instance.json"
        doc.write_text('{"chi_c": 3, "weights": ["1/2"], "rho": "2"}')
        code, out, _ = run(capsys, "series", "--instance", str(doc), "--bound", "3", "--json")
        assert code == 0
        assert json.loads(out)["bound"] == "3"
        code, out, _ = run(capsys, "compute", "--instance", str(doc), "--method", "direct")
        assert (code, out.splitlines()[0]) == (0, "instance: chi_c=3 weights=1/2 rho=2 "
                                                  "space=compact")


class TestEmptyFlagsAreGiven:
    """An empty flag is given, not absent: it is refused (exit 1, one error
    line, no output) and never dropped in favour of the other flags."""

    FLAGS = ["--chi-c", "1", "--weights", "1/2", "--rho", "1"]

    @pytest.mark.parametrize("command", ["compute", "series", "classify"])
    def test_empty_instance(self, capsys, command):
        code, out, err = run(capsys, command, "--instance", "")
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: cannot read --instance file: ")
        assert err.count("\n") == 1
        code, out, err = run(capsys, command, "--instance", "", *self.FLAGS)
        assert (code, out) == (1, "")
        assert err == "error: --instance cannot be combined with --chi-c, --weights, --rho\n"

    @pytest.mark.parametrize("command", ["compute", "series", "classify"])
    def test_empty_components(self, capsys, command):
        code, out, err = run(capsys, command, "--components", "", *self.FLAGS)
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: --components is not valid JSON: ")
        assert err.count("\n") == 1

    def test_empty_bound(self, capsys):
        code, out, err = run(capsys, "series", "--bound", "", *self.FLAGS)
        assert (code, out) == (1, "")
        assert err == "error: InputFormatError: cannot parse '' as an exact fraction\n"


class TestUnreadableInstanceFile:
    """An --instance file that cannot be read or decoded is an
    InputFormatError (exit 1, one error line), not a traceback."""

    def check(self, capsys, path):
        code, out, err = run(capsys, "compute", "--instance", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: cannot read --instance file: ")
        assert err.count("\n") == 1

    def test_missing(self, capsys, tmp_path):
        self.check(capsys, tmp_path / "missing.json")

    def test_directory(self, capsys, tmp_path):
        self.check(capsys, tmp_path)

    def test_not_utf8(self, capsys, tmp_path):
        doc = tmp_path / "instance.json"
        doc.write_bytes(b'{"chi_c": 2, "rho": "1", "note": "\xff"}')
        self.check(capsys, doc)


class TestOversizedNumbers:
    """A number at or past the int-to-str digit limit is an InputFormatError
    (exit 1) at once: printing it in the report would raise, and expanding a
    huge exponent would take hours."""

    @pytest.mark.parametrize("weights,rho", [("1/2", "1e5000"), ("1e-5000", "1"),
                                             ("1/2", "1e300000000")],
                             ids=["rho-1e5000", "weight-1e-5000", "rho-1e300000000"])
    def test_refused_before_any_work(self, capsys, weights, rho):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--chi-c", "2", "--weights", weights,
                             "--rho", rho, "--method", "direct")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: InputFormatError: ")
        assert "int-to-str limit" in err

    def test_json_int_past_the_limit(self, capsys, tmp_path):
        huge = "1" * 5000
        doc = tmp_path / "instance.json"
        doc.write_text('{"chi_c": ' + huge + ', "rho": "1"}')
        for argv in (["--instance", str(doc)],
                     ["--chi-c", "2", "--rho", "1",
                      "--components", '[{"chi_c": ' + huge + '}, {"chi_c": 0}]']):
            code, out, err = run(capsys, "compute", *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error: InputFormatError: ")


def run_quiet(*argv):
    """main(argv) with its exit code and captured stdout, outside pytest's
    capture fixtures (hypothesis runs one test body many times)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def reference_compute(inst, as_json):
    """compute --method all --breakdown output, rendered from the routes'
    term_breakdown with index tuples as lists and (n, d) exponents as
    str(Fraction(n, d))."""
    results = [route(inst, breakdown=True)
               for route in (chi_c_direct, chi_c_strata, chi_c_series)]
    chi = results[0].chi_c_value
    assert all(res.chi_c_value == chi for res in results)
    doc = instance_to_json_dict(inst)
    tables = {res.method: [[str(Fraction(*key)) if res.method == "series" else list(key), value]
                           for key, value in res.term_breakdown] for res in results}
    if as_json:
        return json.dumps({
            "instance": doc,
            "methods": {res.method: res.chi_c_value for res in results},
            "chi_c": chi,
            "d_rho": 1 - chi,
            "verdict": "MATCH",
            "topological_chi_applies": topological_chi_applicable(inst),
            "breakdown": tables,
        }, separators=(",", ":")) + "\n"
    lines = [f"instance: chi_c={inst.chi_c} weights={','.join(doc['weights'])} "
             f"rho={inst.rho} space=compact"]
    lines += [f"{res.method}: {res.chi_c_value}" for res in results]
    lines += [f"chi_c(B_rho) = {chi}", f"d_rho = {1 - chi}",
              f"topological chi applies: {'yes' if topological_chi_applicable(inst) else 'no'}"]
    for method, rows in tables.items():
        lines.append(f"{method} terms:")
        for key, value in rows:
            label = "{" + ",".join(map(str, key)) + "}" if isinstance(key, list) else key
            lines.append(f"  {label}: {value}")
    lines.append("verdict: MATCH")
    return "\n".join(lines) + "\n"


def reference_series(inst, bound, as_json):
    """series output, rendered from terms() with str(Fraction) exponents."""
    cut = truncation_bound(inst.rho, bound)
    terms = chen_lin_series(inst, cut).terms()[1:]
    chi = chi_c_direct(inst).chi_c_value
    if as_json:
        return json.dumps({
            "instance": instance_to_json_dict(inst),
            "bound": str(cut),
            "terms": [[str(e), c] for e, c in terms],
            "window_sum": -chi,
            "chi_c": chi,
            "d_rho": 1 - chi,
        }, separators=(",", ":")) + "\n"
    lines = [f"chi_c={chi} d_rho={1 - chi}"]
    running = 0
    for e, c in terms:
        if e > inst.rho:
            break
        running += c
        lines.append(f"{e} {c}\t# sum={running}")
    lines.append(f"# window end: rho={inst.rho}")
    lines += [f"{e} {c}" for e, c in terms if e > inst.rho]
    return "\n".join(lines) + "\n"


class TestOutputsMatchReference:
    """Every byte of compute --breakdown and series on tie-heavy instances
    (r <= 8) equals a rendering of the library's documented values, and the
    report's instance read back through --instance gives the same bytes."""

    @settings(max_examples=60, deadline=None)
    @given(inst=tie_heavy_instances(max_r=8),
           bound=st.none() | st.fractions(Fraction(1, 7), 30, max_denominator=12),
           as_json=st.booleans())
    def test_compute_and_series(self, tmp_path_factory, inst, bound, as_json):
        flags = ["--json"] if as_json else []
        given_flags = ["--chi-c", str(inst.chi_c),
                       "--weights", ",".join(map(str, inst.weights)), "--rho", str(inst.rho)]
        compute = run_quiet("compute", *given_flags, "--method", "all", "--breakdown", *flags)
        assert compute == (0, reference_compute(inst, as_json))
        for cut in (None, bound):
            bound_flags = [] if cut is None else ["--bound", str(cut)]
            assert run_quiet("series", *given_flags, *bound_flags, *flags) == (
                0, reference_series(inst, cut, as_json))
        if as_json:
            doc = tmp_path_factory.mktemp("doc") / "instance.json"
            doc.write_text(json.dumps(json.loads(compute[1])["instance"]))
            assert run_quiet("compute", "--instance", str(doc), "--method", "all",
                             "--breakdown", "--json") == compute


class TestResultDigits:
    """A result past the int-to-str digit limit is refused with a typed
    error (exit 1) before anything is printed."""

    LIMIT = ("error: TooManyDigits: a result has more than 4300 digits, "
             "the int-to-str limit (sys.get_int_max_str_digits())\n")

    @pytest.mark.parametrize("argv", [
        ["compute", "--chi-c", "-100000", "--rho", "3000", "--method", "direct"],
        ["compute", "--chi-c", "-100000", "--rho", "3000", "--method", "direct", "--json"],
        ["series", "--chi-c", "-100000", "--rho", "3000"],
        ["series", "--chi-c", "-100000", "--rho", "3000", "--json"],
        ["classify", "--chi-c", "-100000", "--rho", "3000", "--weights", "1/2"],
        ["classify", "--chi-c", "-100000", "--rho", "3000", "--weights", "1/2", "--json"],
        *(["compute", "--chi-c", "-100000", "--rho", "3000", "--method", method, *flags]
          for method in ("strata", "series", "all") for flags in ([], ["--json"])),
    ])
    def test_refused_before_output(self, capsys, argv):
        assert run(capsys, *argv) == (1, "", self.LIMIT)

    @pytest.mark.parametrize("argv,route", [
        (["compute", "--method", "direct"], "direct"),
        (["series"], "chen_lin_series"),
        (["classify"], "chi_c_direct"),
    ], ids=["compute", "series", "classify"])
    def test_route_value_error_is_not_refused_as_digits(self, capsys, monkeypatch, argv, route):
        # Only text making is read as the digit limit: a route's own
        # ValueError propagates as it is, and nothing is printed.
        def broken(*args, **kwargs):
            raise ValueError("route failed")

        if route in cli._METHOD_RUNNERS:
            monkeypatch.setitem(cli._METHOD_RUNNERS, route, broken)
        else:
            monkeypatch.setattr(cli, route, broken)
        with pytest.raises(ValueError, match="route failed"):
            main([*argv, "--chi-c", "2", "--weights", "1/2", "--rho", "1"])
        assert capsys.readouterr() == ("", "")

    # Each input is under the limit, but the series exponent 1/(P*Q) is not.
    COPRIME = f"1/{10**2500 + 1},1/{10**2500 + 3}"

    @pytest.mark.parametrize("argv", [
        ["series"],
        ["series", "--json"],
        ["compute", "--method", "series", "--breakdown"],
        ["compute", "--method", "series", "--breakdown", "--json"],
    ])
    def test_series_exponent_refused_before_output(self, capsys, argv):
        assert run(capsys, *argv, "--chi-c", "0", "--weights", self.COPRIME,
                   "--rho", "1") == (1, "", self.LIMIT)

    @pytest.mark.parametrize("chi,refused", [(2 - 10**640, False), (1 - 10**640, True)])
    def test_limit_is_exact(self, capsys, chi, refused):
        # r = 0 and rho = 1: chi_c = chi_c(X), 640 digits either way, and
        # d_rho = 1 - chi_c has 640 digits, or 641 (10^640) and is refused.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "compute", "--chi-c", str(chi), "--rho", "1", "--json")
        finally:
            sys.set_int_max_str_digits(saved)
        if refused:
            assert (code, out) == (1, "")
            assert err.startswith("error: TooManyDigits: a result has more than 640 digits")
        else:
            assert code == 0
            assert json.loads(out)["d_rho"] == 1 - chi


class TestStrictComponents:
    """Components must be a JSON list and singular_indices a list of JSON
    integers; anything else is an InputFormatError (exit 1), not a guess."""

    BAD = [
        ('[{"chi_c":2,"singular_indices":"12"},{"chi_c":0,"singular_indices":[]}]',
         "singular_indices"),
        ('[{"chi_c":2,"singular_indices":[true,1.9]},{"chi_c":0,"singular_indices":[]}]',
         "singular_indices"),
        ('[{"chi_c":2,"singular_indices":5},{"chi_c":0,"singular_indices":[]}]',
         "singular_indices"),
        ('[{"chi_c":2,"singular_indices":[1.0,2]},{"chi_c":0,"singular_indices":[]}]',
         "singular_indices"),
        ("5", "components must be a JSON list"),
        ('{"chi_c":2}', "components must be a JSON list"),
        ('"[]"', "components must be a JSON list"),
    ]
    IDS = ["indices-string", "indices-bool-float", "indices-int", "indices-float",
           "components-int", "components-object", "components-string"]

    @pytest.mark.parametrize("components,message", BAD, ids=IDS)
    def test_flag(self, capsys, components, message):
        code, out, err = run(capsys, "compute", "--chi-c", "2", "--weights", "1/2,1/3",
                             "--rho", "2", "--components", components)
        assert code == 1
        assert out == ""
        assert err.startswith("error: InputFormatError: ")
        assert message in err

    @pytest.mark.parametrize("components,message", BAD, ids=IDS)
    def test_instance_document(self, capsys, tmp_path, components, message):
        doc = tmp_path / "instance.json"
        doc.write_text('{"chi_c": 2, "weights": ["1/2", "1/3"], "rho": "2", '
                       '"space": {"kind": "union", "components": ' + components + "}}")
        code, out, err = run(capsys, "compute", "--instance", str(doc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: InputFormatError: ")
        assert message in err


class TestKindAndComponents:
    """Components come exactly with the union kind, and the flags and an
    instance document give one answer: a non-union --space beside
    --components (or a document's non-union kind beside its components) is
    refused with the same error line, and --components alone means union."""

    COMPONENTS = [{"chi_c": 1, "is_compact": True, "singular_indices": [1]}]
    FLAGS = ["--chi-c", "1", "--weights", "1/2", "--rho", "2"]

    def document(self, tmp_path, space):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"chi_c": 1, "weights": ["1/2"], "rho": "2",
                                    "space": space}))
        return str(path)

    @pytest.mark.parametrize("command", ["compute", "series", "classify"])
    @pytest.mark.parametrize("kind", ["compact", "lc", "even-interior"])
    def test_non_union_kind_with_components(self, capsys, tmp_path, command, kind):
        want = ("error: InconsistentComponents: components are given exactly when the "
                f"space kind is 'union'; got kind '{kind}' with components\n")
        code, out, err = run(capsys, command, *self.FLAGS, "--space", kind,
                             "--components", json.dumps(self.COMPONENTS))
        assert (code, out, err) == (1, "", want)
        doc = self.document(tmp_path, {"kind": kind, "components": self.COMPONENTS})
        code, out, err = run(capsys, command, "--instance", doc)
        assert (code, out, err) == (1, "", want)

    @pytest.mark.parametrize("command", ["compute", "series", "classify"])
    @pytest.mark.parametrize("kind", [["compact"], {"a": 1}, "mystery"],
                             ids=["array", "object", "unknown-name"])
    def test_unknown_kind_in_a_document(self, capsys, tmp_path, command, kind):
        # An array or an object is refused like an unknown name, not with a
        # TypeError from looking up an unhashable value.
        doc = self.document(tmp_path, {"kind": kind})
        code, out, err = run(capsys, command, "--instance", doc)
        assert (code, out) == (1, "")
        assert err == (f"error: InputFormatError: unknown space kind {kind!r}; "
                       "expected one of ['compact', 'even-interior', 'lc', 'union']\n")

    @pytest.mark.parametrize("field,value,message", [
        ("chi_c", 1.0, "component chi_c must be an int, got 1.0"),
        ("chi_c", True, "component chi_c must be an int, got True"),
        ("is_compact", 1, "component is_compact must be a bool, got 1"),
        ("is_compact", "yes", "component is_compact must be a bool, got 'yes'"),
    ])
    def test_mistyped_component_field_in_a_document(self, capsys, tmp_path, field, value,
                                                    message):
        components = [{**self.COMPONENTS[0], field: value}]
        doc = self.document(tmp_path, {"kind": "union", "components": components})
        code, out, err = run(capsys, "compute", "--instance", doc)
        assert (code, out, err) == (1, "", f"error: InputFormatError: {message}\n")

    @pytest.mark.parametrize("chi_c", ["1", 1.0, None, [1]], ids=["str", "float", "null", "array"])
    def test_mistyped_chi_c_in_a_document(self, capsys, tmp_path, chi_c):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"chi_c": chi_c, "weights": ["1/2"], "rho": "2"}))
        code, out, err = run(capsys, "compute", "--instance", str(path))
        assert (code, out, err) == (1, "", f"error: InputFormatError: chi_c must be an int, "
                                           f"got {chi_c!r}\n")

    def test_split_flags_with_a_non_union_kind(self, capsys):
        code, out, err = run(capsys, "classify", "--chi-c", "3", "--weights", "3/10,2/5",
                             "--rho", "5/2", "--space", "lc", "--chi-a", "2", "--chi-b", "1")
        assert (code, out) == (1, "")
        assert err.endswith("got kind 'lc' with components\n")

    def test_union_document_without_components(self, capsys, tmp_path):
        code, out, err = run(capsys, "compute", "--instance",
                             self.document(tmp_path, {"kind": "union"}))
        assert (code, out) == (1, "")
        assert err == ("error: InconsistentComponents: components are given exactly when "
                       "the space kind is 'union'; got kind 'union' without components\n")

    def test_components_alone_mean_union(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", *self.FLAGS, "--method", "direct",
                           "--components", json.dumps(self.COMPONENTS))
        assert code == 0
        assert out.splitlines()[0] == "instance: chi_c=1 weights=1/2 rho=2 space=union"
        doc = self.document(tmp_path, {"kind": "union", "components": self.COMPONENTS})
        assert run(capsys, "compute", "--instance", doc, "--method", "direct")[1] == out


class TestStrictWeights:
    """An instance document's weights must be a JSON list or a comma-separated
    string; anything else is an InputFormatError (exit 1), not a traceback."""

    @pytest.mark.parametrize("weights", ["5", "2.5", "true", "null", '{"1/2": 1}'],
                             ids=["int", "float", "bool", "null", "object"])
    def test_instance_document(self, capsys, tmp_path, weights):
        doc = tmp_path / "instance.json"
        doc.write_text('{"chi_c": 2, "weights": ' + weights + ', "rho": "2"}')
        code, out, err = run(capsys, "compute", "--instance", str(doc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: InputFormatError: ")
        assert "weights must be a JSON list" in err


class TestSeries:
    def test_worked_dump(self, capsys):
        code, out, _ = run(capsys, "series", "--chi-c", "2", "--weights", "1/2", "--rho", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "chi_c=2 d_rho=-1"
        assert lines[1].startswith("1/2 -1")
        assert lines[2].startswith("1 -1")

    def test_zero_characteristic_series_is_flat(self, capsys):
        code, out, _ = run(capsys, "series", "--chi-c", "0", "--weights", "", "--rho", "3")
        assert code == 0
        # (1-x)^0 = 1: no terms beyond the constant, window sum 0, chi_c 0
        assert out.splitlines()[0] == "chi_c=0 d_rho=1"
        assert not [l for l in out.splitlines()[1:] if not l.startswith("#")]

    def test_bound_does_not_move_the_window(self, capsys):
        code, out, _ = run(capsys, "series", "--chi-c", "2", "--weights", "1/2",
                           "--rho", "1", "--bound", "3")
        assert code == 0
        assert out.splitlines()[0] == "chi_c=2 d_rho=-1"
        assert "# window end: rho=1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "--chi-c", "2", "--weights", "1/2",
                           "--rho", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == [["1/2", -1], ["1", -1]]
        assert doc["chi_c"] == 2
        assert doc["d_rho"] == -1

    @pytest.mark.parametrize("chi,weights,rho,bound", SCALE_CASES)
    def test_json_window_matches_direct(self, capsys, chi, weights, rho, bound):
        argv = ["series", "--chi-c", str(chi), "--weights", ",".join(map(str, weights)),
                "--rho", str(rho), "--json"]
        code, out, _ = run(capsys, *argv, *(["--bound", str(bound)] if bound else []))
        assert code == 0
        doc = json.loads(out)
        expected = chi_c_direct(validate(ProblemInstance(chi, weights, rho))).chi_c_value
        assert doc["chi_c"] == expected
        assert doc["window_sum"] == -expected
        assert sum(c for e, c in doc["terms"] if Fraction(e) <= rho) == -expected
        assert Fraction(doc["bound"]) == max(rho, bound or rho)


class TestOracle:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "oracle", "--vertices", "3", "--weights", "1/2,1/2",
                           "--rho", "1")
        assert code == 0
        assert "oracle: 2" in out
        assert "verdict: MATCH" in out

    def test_skeleton(self, capsys):
        code, out, _ = run(capsys, "oracle", "--vertices", "4", "--rho", "2")
        assert code == 0
        assert "oracle: -2" in out

    @pytest.mark.parametrize("vertices,message", [
        ("0", "NoVertices: need at least one vertex"),
        ("-5", "NoVertices: need at least one vertex"),
        ("23", "TooManyVertices: m = 23 vertices exceeds the face-enumeration cap 22"),
        ("1000000000",
         "TooManyVertices: m = 1000000000 vertices exceeds the face-enumeration cap 22"),
    ])
    def test_vertex_count_refused_before_any_work(self, capsys, vertices, message):
        # Refused before any vertex is built: 10^9 padded vertices would
        # take gigabytes.
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--vertices", vertices, "--rho", "1")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_cap(self, capsys):
        code, _, err = run(capsys, "oracle", "--vertices", "23", "--rho", "1")
        assert code == 1
        assert "TooManyVertices" in err

    def test_surplus_weights(self, capsys):
        code, _, _ = run(capsys, "oracle", "--vertices", "1", "--weights", "1/2,1/2",
                         "--rho", "1")
        assert code == 1


class TestClassify:
    def test_two_light_points(self, capsys):
        code, out, _ = run(capsys, "classify", "--chi-c", "3", "--weights", "3/10,2/5",
                           "--rho", "5/2")
        assert code == 0
        assert "descriptor: susp(B_2(X v S1))" in out
        assert "verdict: MATCH" in out

    def test_single_light_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--chi-c", "2", "--weights", "3/10",
                           "--rho", "5/2")
        assert code == 0
        assert "descriptor: contractible" in out
        assert "descriptor chi: 1" in out

    def test_r3_is_out_of_scope(self, capsys):
        code, _, err = run(capsys, "classify", "--chi-c", "2",
                           "--weights", "1/10,1/10,1/10", "--rho", "2")
        assert code == 1
        assert "OutOfScope" in err

    def test_no_singular_points(self, capsys):
        code, out, _ = run(capsys, "classify", "--chi-c", "0", "--weights", "", "--rho", "3")
        assert code == 0
        assert "descriptor: B_3(X)" in out

    def test_two_components(self, capsys):
        code, out, _ = run(capsys, "classify", "--chi-c", "3", "--weights", "3/10,2/5",
                           "--rho", "5/2", "--chi-a", "2", "--chi-b", "1",
                           "--placement", "both-first")
        assert code == 0
        assert "descriptor: susp(B_2(A1 v S1 | A2))" in out
        assert "verdict: MATCH" in out

    def test_component_chi_mismatch(self, capsys):
        code, _, err = run(capsys, "classify", "--chi-c", "5", "--weights", "3/10,2/5",
                           "--rho", "5/2", "--chi-a", "2", "--chi-b", "1")
        assert code == 1
        assert "InconsistentComponents" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--chi-c", "3", "--weights", "3/5,7/10",
                           "--rho", "5/2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["descriptor"] == "B_2(X v S1)"
        assert doc["descriptor_chi"] == doc["engine_chi_c"]

    # --components with the two points (weights 3/10 and 2/5) placed as
    # given, and the descriptor the placement gives.
    PLACED = [
        ([1, 2], [], "susp(B_2(A1 v S1 | A2))"),
        ([], [1, 2], "susp(B_2(A1 | A2 v S1))"),
        ([1], [2], "susp(B_2(A1 v A2))"),
        ([2], [1], "susp(B_2(A1 v A2))"),
    ]

    @staticmethod
    def components(first, second):
        return json.dumps([{"chi_c": 2, "is_compact": True, "singular_indices": first},
                           {"chi_c": 1, "is_compact": True, "singular_indices": second}])

    @pytest.mark.parametrize("first,second,descriptor", PLACED)
    def test_components_place_the_points(self, capsys, first, second, descriptor):
        argv = ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2",
                "--components", self.components(first, second)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == f"descriptor: {descriptor}"
        assert "verdict: MATCH" in out
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["descriptor"] == descriptor
        assert doc["instance"]["space"]["components"][0]["singular_indices"] == first

    @pytest.mark.parametrize("extra", [
        ["--chi-a", "2"],
        ["--chi-b", "1"],
        ["--chi-a", "2", "--chi-b", "1"],
        ["--placement", "one-each"],
        ["--placement", "both-first"],
        ["--chi-a", "2", "--chi-b", "1", "--placement", "both-first"],
    ])
    def test_components_refuse_split_flags(self, capsys, extra):
        code, out, err = run(capsys, "classify", "--chi-c", "3", "--weights", "3/10,2/5",
                             "--rho", "5/2", "--components", self.components([1], [2]),
                             *extra)
        assert code == 1
        assert out == ""
        assert err == ("error: --chi-a, --chi-b and --placement cannot be combined with "
                       "--components or --instance\n")

    def test_instance_refuses_split_flags(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"chi_c": 3, "weights": ["3/10", "2/5"], "rho": "5/2",
                                    "space": {"kind": "union", "components": [
                                        {"chi_c": 2, "singular_indices": [1]},
                                        {"chi_c": 1, "singular_indices": [2]}]}}))
        code, out, _ = run(capsys, "classify", "--instance", str(path))
        assert (code, out.splitlines()[0]) == (0, "descriptor: susp(B_2(A1 v A2))")
        code, out, err = run(capsys, "classify", "--instance", str(path),
                             "--placement", "both-first")
        assert (code, out) == (1, "")
        assert "cannot be combined" in err

    def test_other_refusals_keep_their_message(self, capsys):
        # Each of these was refused before the split flags were checked
        # against --components; the refusal and its message stay.
        base = ["classify", "--chi-c", "3", "--rho", "5/2", "--placement", "one-each"]
        code, _, err = run(capsys, *base, "--weights", "3/10",
                           "--components", self.components([1], []))
        assert (code, err) == (1, "error: --placement needs two components (--chi-a/--chi-b)\n")
        code, _, err = run(capsys, *base, "--weights", "3/10,2/5",
                           "--components", self.components([1], [1]))
        assert code == 1
        assert err.startswith("error: InconsistentComponents:")


class TestSelftest:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "selftest", "--cases", "25", "--seed", "7")
        assert code == 0
        assert "seed: 7" in out
        assert "result: PASS" in out

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_no_cases_refused(self, capsys, cases):
        assert run(capsys, "selftest", "--cases", cases, "--seed", "1") == (
            1, "", f"error: --cases must be at least 1, got {cases}\n")


class TestNoCyclicGarbage:
    """A request leaves no reference cycles of its own: with the collector
    off, main(argv) leaves exactly as much cyclic garbage as building the
    parser and parsing argv alone.  So every collector pass in a request
    collects argparse's cycles and nothing else."""

    ARGVS = [
        ["compute", "--chi-c", "2", "--weights", "3/10,2/5,3/5", "--rho", "9/2"],
        ["compute", "--chi-c", "2", "--weights", "3/10,2/5,3/5", "--rho", "9/2",
         "--breakdown", "--json"],
        ["series", "--chi-c", "2", "--weights", "1/2,2/3", "--rho", "3", "--bound", "5",
         "--json"],
        ["oracle", "--vertices", "5", "--weights", "1/2,2/3", "--rho", "3", "--json"],
        ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2"],
        ["compute", "--chi-c", "2", "--weights", "0", "--rho", "1"],  # an input error
        # selftest runs every case inside one request, so a cycle per case
        # would pile up while the collector is off.
        ["selftest", "--cases", "20", "--seed", "1"],
        ["compute", "--chi-c", "2", "--weights", "3/10,2/5,3/5", "--rho", "9/2",
         "--breakdown"],
        ["series", "--chi-c", "2", "--weights", "1/2,2/3", "--rho", "3", "--bound", "5"],
    ]

    @staticmethod
    def garbage(action):
        """The objects gc.collect() finds after ``action`` runs with the
        collector off."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                action()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("argv", ARGVS, ids=["compute", "compute-breakdown-json",
                                                 "series-bound-json", "oracle-json",
                                                 "classify", "input-error", "selftest",
                                                 "compute-breakdown", "series-bound"])
    def test_a_request_adds_none_to_parsing(self, argv):
        parsed = self.garbage(lambda: cli._build_parser().parse_args(argv))
        assert self.garbage(lambda: main(argv)) == parsed


class TestCollectorSetting:
    """main runs each request with the cyclic collector off, and every exit
    gives the caller back its own setting, on or off."""

    COMPUTE = ["compute", "--chi-c", "2", "--weights", "1/2", "--rho", "1"]

    @staticmethod
    def setting_after(caller_enabled, request):
        """gc.isenabled() after ``request`` runs under the caller's setting,
        and what ``request`` returned."""
        was = gc.isenabled()
        (gc.enable if caller_enabled else gc.disable)()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                returned = request()
            return gc.isenabled(), returned
        finally:
            (gc.enable if was else gc.disable)()

    @staticmethod
    def route(monkeypatch, body):
        """Make ``--method series`` call ``body``; the list returned records
        whether the collector was on each time it ran."""
        seen = []

        def series(instance, *, breakdown=False):
            seen.append(gc.isenabled())
            return body(instance)

        monkeypatch.setitem(cli._METHOD_RUNNERS, "series", series)
        return seen

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("argv,code", [
        (COMPUTE, 0),
        (["compute", "--chi-c", "2", "--weights", "0", "--rho", "1"], 1),  # BarychiError
        (["compute", "--rho", "1"], 1),  # _InputError
    ], ids=["exit-0", "barychi-error", "input-error"])
    def test_plain_exits(self, caller_enabled, argv, code):
        assert self.setting_after(caller_enabled, lambda: main(argv)) == (caller_enabled, code)

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_mismatch(self, caller_enabled, monkeypatch):
        seen = self.route(monkeypatch, lambda inst: ChiResult(chi_c_direct(inst).chi_c_value + 1,
                                                              METHOD_SERIES))
        assert self.setting_after(caller_enabled, lambda: main(self.COMPUTE)) == (caller_enabled, 2)
        assert seen == [False]

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_help(self, caller_enabled):
        def request():
            with pytest.raises(SystemExit) as exc:
                main(["compute", "--help"])
            return exc.value.code

        assert self.setting_after(caller_enabled, request) == (caller_enabled, 0)

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_unexpected_exception(self, caller_enabled, monkeypatch):
        def broken(inst):
            raise RuntimeError("route failed")

        seen = self.route(monkeypatch, broken)

        def request():
            with pytest.raises(RuntimeError, match="route failed"):
                main(self.COMPUTE)

        assert self.setting_after(caller_enabled, request) == (caller_enabled, None)
        assert seen == [False]
