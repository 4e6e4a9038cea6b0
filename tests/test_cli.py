import contextlib
import gc
import io
import json
import os
import sys
import time
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barychi import cli, selftest
from barychi.cli import MAX_BREAKDOWN_POINTS, main
from barychi.engine import (
    ChiResult,
    chi_c_direct,
    chi_c_strata,
    topological_chi_applicable,
)
from barychi.errors import InconsistentComponents
from barychi.model import (
    MAX_SINGULAR_POINTS,
    ComponentSpec,
    ProblemInstance,
    SpaceKind,
    instance_to_json_dict,
    validate,
)
from barychi.oracle import FiniteWeightedSpace
from barychi.series import SparseSeries, chi_c_series
import dispatch_cli
from test_engine import tie_heavy_instances
from test_import_path import fresh
from test_series import SCALE_CASES, series_command_reference


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


class TestDeeplyNestedJson:
    """JSON nested deeper than the interpreter's stack allows is an
    InputFormatError (exit 1, one error line), in the --components flag and
    in an --instance document alike, not a RecursionError traceback.  The
    depth is CPython's own test_json depth, past the limit of every
    supported Python: 3.12 and later guard the C json scanner by a C
    recursion limit of their own, thousands deep, not by
    sys.getrecursionlimit()."""

    NESTED = "[" * 100_000 + "]" * 100_000

    def test_components_flag(self, capsys):
        code, out, err = run(capsys, "compute", "--chi-c", "1", "--rho", "1",
                             "--components", self.NESTED)
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: --components is not valid JSON: ")
        assert err.count("\n") == 1

    def test_instance_document(self, capsys, tmp_path):
        doc = tmp_path / "instance.json"
        doc.write_text(self.NESTED)
        code, out, err = run(capsys, "compute", "--instance", str(doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: invalid JSON: ")
        assert err.count("\n") == 1


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


class TestLongInputsAreCut:
    """An error line shows only the start of a long input's repr, so it stays
    one short line however long the input is."""

    LONG = "x" * 100_000

    @pytest.mark.parametrize("argv", [
        ["--weights", LONG],
        ["--weights", "1/2", "--components",
         '[{"chi_c":1,"is_compact":"' + LONG + '","singular_indices":[1]}]'],
    ], ids=["weight", "is-compact"])
    def test_one_line_under_200_bytes(self, capsys, argv):
        code, out, err = run(capsys, "compute", "--chi-c", "1", "--rho", "1", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: ")
        assert err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [
        ["compute", "--chi-c", LONG, "--rho", "1"],
        ["compute", "--chi-c", "1", "--rho", "1", "--space", LONG],
        ["oracle", "--vertices", LONG, "--rho", "1"],
        ["selftest", "--cases", LONG],
        ["compute", "--instance", LONG],
    ], ids=["chi-c", "space", "vertices", "cases", "instance-path"])
    def test_argparse_and_os_messages_are_cut_to_one_line_under_300_bytes(self, capsys, argv):
        # Whole, argparse's messages and the OS's repeated all 100,000 characters.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert len(err.encode()) < 300

    NINES = "9" * 4000
    NINES_4200 = "9" * 4200

    @pytest.mark.parametrize("argv,error", [
        (["compute", "--chi-c", "1", "--rho", "1", "--weights", "-" + NINES], "NonPositiveWeight"),
        (["compute", "--chi-c", "1", "--rho", "-" + NINES], "NonPositiveRho"),
        (["oracle", "--vertices", "2", "--weights", "-" + NINES, "--rho", "1"],
         "NonPositiveWeight"),
        (["classify", "--chi-c", "1", "--weights", NINES, "--rho", "1"], "OutOfScope"),
        (["classify", "--chi-c", "1", "--weights", "1/2," + NINES, "--rho", "1"], "OutOfScope"),
    ], ids=["weight", "rho", "oracle-weight", "classify-weight", "classify-second-weight"])
    def test_echoed_weights_and_rho_are_cut_to_one_line_under_200_bytes(self, capsys, argv,
                                                                         error):
        # Whole, each line repeated all 4,000 digits.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv,prefix", [
        (["oracle", "--vertices", NINES, "--rho", "1"], "TooManyVertices: "),
        (["selftest", "--cases", "-" + NINES], "--cases must be at least 1, got "),
        (["compute", "--chi-c", NINES, "--rho", "1", "--weights", "1/2",
          "--components", '[{"chi_c":1,"singular_indices":[1]}]'], "InconsistentComponents: "),
        (["compute", "--chi-c", "1", "--rho", "1", "--weights", "1/2",
          "--components", '[{"chi_c":1,"singular_indices":[' + NINES + "]}]"],
         "InconsistentComponents: "),
        (["compute", "--chi-c", "-3", "--rho", NINES_4200], "TooManyLevels: "),
        (["compute", "--chi-c", "-3", "--rho", "1e4200"], "TooManyLevels: "),
        (["series", "--chi-c", "-1", "--weights", "1/2", "--rho", "1", "--bound", NINES_4200],
         "TooManyLevels: "),
    ], ids=["vertices", "cases", "component-chi-sum", "singular-index", "strata-walk",
            "strata-walk-exponent", "series-walk"])
    def test_echoed_values_are_cut_to_one_line_under_200_bytes(self, capsys, argv, prefix):
        # Whole, each line repeated all 4,000 or 4,200 digits.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1
        assert len(err.encode()) < 200


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
    results = {name: route(inst, breakdown=True) for name, route in
               (("direct", chi_c_direct), ("strata", chi_c_strata), ("series", chi_c_series))}
    chi = results["direct"].chi_c_value
    assert all(res.chi_c_value == chi for res in results.values())
    doc = instance_to_json_dict(inst)
    tables = {name: [[str(Fraction(*key)) if name == "series" else list(key), value]
                     for key, value in res.term_breakdown] for name, res in results.items()}
    if as_json:
        return json.dumps({
            "instance": doc,
            "methods": {name: res.chi_c_value for name, res in results.items()},
            "chi_c": chi,
            "d_rho": 1 - chi,
            "verdict": "MATCH",
            "topological_chi_applies": topological_chi_applicable(inst),
            "breakdown": tables,
        }, separators=(",", ":")) + "\n"
    lines = [f"instance: chi_c={inst.chi_c} weights={','.join(doc['weights'])} "
             f"rho={inst.rho} space=compact"]
    lines += [f"{name}: {res.chi_c_value}" for name, res in results.items()]
    lines += [f"chi_c(B_rho) = {chi}", f"d_rho = {1 - chi}",
              f"topological chi applies: {'yes' if topological_chi_applicable(inst) else 'no'}"]
    for method, rows in tables.items():
        lines.append(f"{method} terms:")
        for key, value in rows:
            label = "{" + ",".join(map(str, key)) + "}" if isinstance(key, list) else key
            lines.append(f"  {label}: {value}")
    lines.append("verdict: MATCH")
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
                0, series_command_reference(inst, cut, as_json))
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


class TestRepeatedIndexInOneComponent:
    """A singular index listed twice in one component is refused by
    ``validate``, which alone checks the indices, the same way from
    ``--components``, from an instance document and from Python."""

    COMPONENTS = [{"chi_c": 3, "singular_indices": [1, 1]}]
    ERROR = "error: InconsistentComponents: singular index 1 assigned twice\n"

    def test_components_flag(self, capsys):
        code, out, err = run(capsys, "compute", "--chi-c", "3", "--weights", "1/2", "--rho", "2",
                             "--components", json.dumps(self.COMPONENTS))
        assert (code, out, err) == (1, "", self.ERROR)

    def test_instance_document(self, capsys, tmp_path):
        doc = tmp_path / "instance.json"
        doc.write_text(json.dumps({"chi_c": 3, "weights": ["1/2"], "rho": "2",
                                   "space": {"components": self.COMPONENTS}}))
        code, out, err = run(capsys, "compute", "--instance", str(doc))
        assert (code, out, err) == (1, "", self.ERROR)

    def test_python(self):
        instance = ProblemInstance(3, (Fraction(1, 2),), Fraction(2), SpaceKind.UNION_OF_BASIC,
                                   (ComponentSpec(3, True, (1, 1)),))
        with pytest.raises(InconsistentComponents) as caught:
            validate(instance)
        assert f"error: {type(caught.value).__name__}: {caught.value}\n" == self.ERROR


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

    @pytest.mark.parametrize("command", ["compute", "series", "classify"])
    def test_components_without_kind_in_a_document(self, capsys, tmp_path, command):
        # An absent kind means union when components are given, in a
        # document as with --components alone.
        flags = run(capsys, command, *self.FLAGS, "--components", json.dumps(self.COMPONENTS))
        assert flags[0] == 0
        if command == "compute":
            assert flags[1].splitlines()[0].endswith("space=union")
        doc = self.document(tmp_path, {"components": self.COMPONENTS})
        assert run(capsys, command, "--instance", doc) == flags

    @pytest.mark.parametrize("space", [{"kind": None}, {"kind": None, "components": COMPONENTS}],
                             ids=["alone", "with-components"])
    def test_null_kind_in_a_document(self, capsys, tmp_path, space):
        code, out, err = run(capsys, "compute", "--instance", self.document(tmp_path, space))
        assert (code, out, err) == (1, "", "error: InputFormatError: unknown space kind None; "
                                           "expected one of ['compact', 'even-interior', 'lc', "
                                           "'union']\n")

    @pytest.mark.parametrize("space", [{"components": None},
                                       {"kind": "compact", "components": None}],
                             ids=["no-kind", "compact"])
    def test_null_components(self, capsys, tmp_path, space):
        # --components null spells "components": null, and both are refused.
        want = (1, "", "error: InputFormatError: components must be a JSON list\n")
        assert run(capsys, "compute", *self.FLAGS, "--components", "null") == want
        assert run(capsys, "compute", "--instance", self.document(tmp_path, space)) == want


class TestFlagFaultsComeFirst:
    """The flags are spelled into an instance document before the document
    is read, so a fault found while spelling it (--components that is not
    JSON, --chi-a without --chi-b) is reported before a malformed --weights
    or --rho, which reading the document finds."""

    MALFORMED = [("--weights", "1/0"), ("--rho", "x")]

    @pytest.mark.parametrize("flag,value", MALFORMED)
    def test_components_that_are_not_json(self, capsys, flag, value):
        given = {"--chi-c": "1", "--weights": "1/2", "--rho": "2", flag: value}
        code, out, err = run(capsys, "compute", *chain.from_iterable(given.items()),
                             "--components", "[{")
        assert (code, out) == (1, "")
        assert err.startswith("error: InputFormatError: --components is not valid JSON: ")

    @pytest.mark.parametrize("flag,value", MALFORMED)
    @pytest.mark.parametrize("split", ["--chi-a", "--chi-b"])
    def test_unpaired_split_flags(self, capsys, flag, value, split):
        given = {"--chi-c": "1", "--weights": "1/2,1/3", "--rho": "2", flag: value}
        assert run(capsys, "classify", *chain.from_iterable(given.items()), split, "1") == (
            1, "", "error: --chi-a and --chi-b must be given together\n")


def run_captured(*argv):
    """main(argv) with its exit code, stdout and stderr, outside pytest's
    capture fixtures (hypothesis runs one test body many times)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def spelled_requests(draw):
    """A compute, series or classify command line with instance flags, and
    the instance document those flags spell.  Components are drawn both
    consistent (two components split at a cut) and free-form, so that
    validate accepts some and refuses others."""
    command = draw(st.sampled_from(["compute", "series", "classify"]))
    chi_c = draw(st.integers(-3, 3))
    weights = draw(st.lists(st.sampled_from(["1/2", "3/10", "2/5", "3/2"]),
                            max_size=2 if command == "classify" else 3))
    rho = draw(st.sampled_from(["2", "5/2", "1/3"]))
    r = len(weights)
    flags = [command, "--chi-c", str(chi_c), "--rho", rho]
    if weights or draw(st.booleans()):
        flags += ["--weights", ",".join(weights)]
    space = {}
    kind = draw(st.none() | st.sampled_from(["compact", "lc", "even-interior"]))
    if kind is not None:
        flags += ["--space", kind]
        space["kind"] = kind
    source = draw(st.sampled_from(["none", "components", "split"] if command == "classify"
                                  else ["none", "components"]))
    if source == "components":
        cut, chi_1 = draw(st.integers(0, r)), draw(st.integers(-3, 3))
        consistent = [{"chi_c": chi_1, "is_compact": draw(st.booleans()),
                       "singular_indices": list(range(1, cut + 1))},
                      {"chi_c": chi_c - chi_1, "is_compact": draw(st.booleans()),
                       "singular_indices": list(range(cut + 1, r + 1))}]
        free = st.lists(st.fixed_dictionaries({
            "chi_c": st.integers(-3, 3),
            "is_compact": st.sampled_from([True, False, 1]),
            "singular_indices": st.lists(st.integers(0, 3), max_size=3)}), max_size=3)
        space["components"] = draw(st.just(consistent) | free)
        flags += ["--components", json.dumps(space["components"])]
    elif source == "split":
        chi_a = draw(st.integers(-3, 3))
        chi_b = draw(st.just(chi_c - chi_a) | st.integers(-3, 3))
        flags += ["--chi-a", str(chi_a), "--chi-b", str(chi_b)]
        # --placement needs two points; the document has no such field.
        placement = draw(st.sampled_from([None, "one-each", "both-first"])) if r == 2 else None
        if placement is not None:
            flags += ["--placement", placement]
        cut = r if placement == "both-first" else min(r, 1)
        space["components"] = [
            {"chi_c": chi_a, "is_compact": True, "singular_indices": list(range(1, cut + 1))},
            {"chi_c": chi_b, "is_compact": True, "singular_indices": list(range(cut + 1, r + 1))},
        ]
    rest = ["--method", "direct"] if command == "compute" else []
    if draw(st.booleans()):
        rest.append("--json")
    doc = {"chi_c": chi_c, "weights": weights, "rho": rho, "space": space}
    return flags + rest, [command, *rest], doc


class TestFlagsSpellTheDocument:
    """The instance flags are read as the document they spell: both give
    the same exit code, stdout and stderr."""

    @settings(max_examples=200, deadline=None)
    @given(request=spelled_requests())
    def test_same_bytes(self, tmp_path_factory, request):
        flags, command, doc = request
        path = tmp_path_factory.mktemp("spelled") / "instance.json"
        path.write_text(json.dumps(doc))
        assert run_captured(*command, "--instance", str(path)) == run_captured(*flags)


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


class TestLevelCaps:
    """strata and series walk the levels of rho (for series, of its bound)
    one at a time: floor(rho) of them when m = r - chi_c > 0, and at most
    1 - m when m <= 0.  A walk past a route's cap is refused with
    TooManyLevels (exit 1) before any route runs; direct walks no level."""

    HUGE = [
        ("compute", "--chi-c", "-3", "--rho", "1e40"),
        ("compute", "--chi-c", "1000000000000", "--rho", "1e40", "--method", "strata"),
        ("compute", "--chi-c", "3", "--weights", "1/2,1/3,1/4,1/5", "--rho", "1e40",
         "--method", "series"),
        ("series", "--chi-c", "-1", "--weights", "1/2", "--rho", "1", "--bound", "1e40"),
    ]

    @pytest.mark.parametrize("argv", HUGE, ids=["all", "strata", "series", "series-bound"])
    def test_forty_digit_walk_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: TooManyLevels: ")

    def test_direct_walks_no_level(self, capsys):
        code, out, _ = run(capsys, "compute", "--chi-c", "-3", "--rho", "1e40",
                           "--method", "direct")
        assert code == 0
        assert "verdict: MATCH" in out

    # (chi_c, rho) with r = 0 and a walk of exactly 5 levels, or of 6:
    # m = -chi_c > 0 walks floor(rho); m <= 0 walks min(floor(rho), 1 - m).
    AT_CAP = [pytest.param(-1, "5", id="m>0"), pytest.param(-1, "11/2", id="m>0-fraction"),
              pytest.param(4, "100", id="m<=0-ends"), pytest.param(100, "5", id="m<=0-rho")]
    PAST_CAP = [pytest.param(-1, "6", id="m>0"), pytest.param(5, "100", id="m<=0-ends"),
                pytest.param(100, "6", id="m<=0-rho")]

    @pytest.fixture
    def caps_of_five(self, monkeypatch):
        monkeypatch.setitem(cli.MAX_LEVELS, "strata", 5)
        monkeypatch.setitem(cli.MAX_LEVELS, "series", 5)

    @pytest.mark.parametrize("method", ["strata", "series", "all"])
    @pytest.mark.parametrize("chi_c,rho", AT_CAP)
    def test_walk_at_the_cap_runs(self, capsys, caps_of_five, method, chi_c, rho):
        code, out, err = run(capsys, "compute", "--chi-c", str(chi_c), "--rho", rho,
                             "--method", method)
        assert (code, err) == (0, "")
        assert "verdict: MATCH" in out

    @pytest.mark.parametrize("method", ["strata", "series", "all"])
    @pytest.mark.parametrize("chi_c,rho", PAST_CAP)
    def test_walk_past_the_cap_refused(self, capsys, caps_of_five, method, chi_c, rho):
        code, out, err = run(capsys, "compute", "--chi-c", str(chi_c), "--rho", rho,
                             "--method", method)
        route = "series" if method == "series" else "strata"
        assert (code, out) == (1, "")
        assert err == f"error: TooManyLevels: the {route} route walks 6 levels, past its cap 5\n"

    @pytest.mark.parametrize("chi_c,bound", AT_CAP)
    def test_series_bound_at_the_cap_runs(self, capsys, caps_of_five, chi_c, bound):
        code, out, err = run(capsys, "series", "--chi-c", str(chi_c), "--rho", "1",
                             "--bound", bound)
        assert (code, err) == (0, "")
        assert out.startswith("chi_c=")

    @pytest.mark.parametrize("chi_c,bound", PAST_CAP)
    def test_series_bound_past_the_cap_refused(self, capsys, caps_of_five, chi_c, bound):
        code, out, err = run(capsys, "series", "--chi-c", str(chi_c), "--rho", "1",
                             "--bound", bound)
        assert (code, out) == (1, "")
        assert err == "error: TooManyLevels: the series route walks 6 levels, past its cap 5\n"

    @pytest.mark.parametrize("vertices", [1, 2, 12, 22])
    @pytest.mark.parametrize("singular", [0, 1, 3])
    def test_oracle_walks_at_most_23_levels(self, monkeypatch, vertices, singular):
        # The oracle's instance has chi_c = m vertices and r <= m weights, so
        # m - r >= 0 and the walk ends by 1 + m <= 23: no rho reaches a cap.
        monkeypatch.setitem(cli.MAX_LEVELS, "strata", 23)
        monkeypatch.setitem(cli.MAX_LEVELS, "series", 23)
        weights = (Fraction(1, 2),) * min(singular, vertices)
        space = FiniteWeightedSpace.of(vertices, weights)
        instance = validate(space.matching_instance(10**40))
        for method in ("strata", "series"):
            cli._check_levels(instance, method, instance.rho)

    def test_oracle_at_a_forty_digit_rho(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--vertices", "5", "--weights", "1/2,1/3",
                             "--rho", "1e40")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        # Every face fits: the full simplex, contractible.
        assert out == "oracle: 1\ndirect: 1\nstrata: 1\nseries: 1\nverdict: MATCH\n"

    # m <= 0 and a weight of 10^30 under rho = 10^40: g is 1 - x^(10^30), two
    # terms, and the walk ends after one level however far out the cut is.
    HUGE_WEIGHT = [
        pytest.param(("oracle", "--vertices", "1", "--weights", "1e30", "--rho", "1e40"),
                     id="oracle"),
        pytest.param(("compute", "--chi-c", "1", "--weights", "1e30", "--rho", "1e40",
                      "--method", "series"), id="series"),
    ]

    @pytest.mark.parametrize("argv", HUGE_WEIGHT)
    def test_a_huge_weight_under_an_ended_power_answers_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert "series: 1\n" in out and "verdict: MATCH\n" in out


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

    def test_a_failure_exits_2(self, capsys, monkeypatch):
        # 2 is a cross-check that disagrees; 1 is kept for input errors.
        monkeypatch.setattr(selftest, "identity_failures", lambda: ["Pascal rule fails at (0, 1)"])
        code, out, err = run(capsys, "selftest", "--cases", "1", "--seed", "1")
        assert (code, err) == (2, "")
        assert out.splitlines()[-1] == "result: FAIL"


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
        parsed = self.garbage(lambda: cli._build_parser(argv).parse_args(argv))
        assert self.garbage(lambda: main(argv)) == parsed


class TestNothingAliveAtTheWrite:
    """When a command writes its output, nothing the output was made from
    is alive: no route result, no report and no series, only the text."""

    W = "3/10,2/5,3/5"
    ARGVS = [
        ["compute", "--chi-c", "2", "--weights", W, "--rho", "9/2", "--method", "all",
         "--breakdown"],
        ["compute", "--chi-c", "2", "--weights", W, "--rho", "9/2", "--method", "all",
         "--breakdown", "--json"],
        ["series", "--chi-c", "2", "--weights", "1/2,2/3", "--rho", "3", "--bound", "5"],
        ["series", "--chi-c", "2", "--weights", "1/2,2/3", "--rho", "3", "--bound", "5",
         "--json"],
    ]

    @staticmethod
    def live() -> tuple[int, int, int]:
        """How many route results, reports and series are alive."""
        objects = gc.get_objects()
        return (sum(isinstance(o, ChiResult) for o in objects),
                sum(isinstance(o, dict) and "methods" in o and "verdict" in o for o in objects),
                sum(isinstance(o, SparseSeries) for o in objects))

    @pytest.mark.parametrize("argv", ARGVS, ids=["compute-breakdown", "compute-breakdown-json",
                                                 "series-bound", "series-bound-json"])
    def test_only_the_text_is_alive(self, argv):
        live, seen = self.live, []

        class Counting(io.StringIO):
            def write(self, text):
                seen.append(live())
                return super().write(text)

        before = live()
        out = Counting()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue()
        assert seen and all(counts == before for counts in seen), (before, seen)


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
        seen = self.route(monkeypatch, lambda inst: ChiResult(chi_c_direct(inst).chi_c_value + 1))
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


class TestHelpFollowsColumns:
    """Help is laid out at the width COLUMNS gives on each call, never at one
    read at import or by an earlier call."""

    @staticmethod
    def help_lines(capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out.splitlines()

    def test_each_call_reads_columns(self, capsys, monkeypatch):
        # At 60 columns every line fits: the widest usage token,
        # "[--method {direct,strata,series,all}]", ends at column 60.
        narrow = self.help_lines(capsys, monkeypatch, 60)
        assert max(map(len, narrow)) <= 60
        assert len(self.help_lines(capsys, monkeypatch, 200)) < len(narrow)
        assert self.help_lines(capsys, monkeypatch, 60) == narrow


class TestNothingCarriesOver:
    """main keeps nothing from one call to the next: in one process, after
    any other requests, each request prints the bytes and exits with the code
    it does alone in a new process.  compute, series and classify share their
    instance flags, so a value left over from one would show in the next."""

    REQUESTS = [
        ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2",
         "--chi-a", "2", "--chi-b", "1"],
        # No --weights: r = 0 unless the weights of another request carry over.
        ["compute", "--chi-c", "2", "--rho", "3/2"],
        ["series", "--chi-c", "-1", "--weights", "1/3", "--rho", "5/2", "--bound", "4"],
        # No --rho: refused unless the rho of another request carries over.
        ["compute", "--chi-c", "1"],
        ["oracle", "--vertices", "3", "--weights", "1/2", "--rho", "2"],
        # No --chi-a/--chi-b: a connected space unless the split carries over.
        ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2"],
    ]

    def test_each_request_prints_what_it_prints_alone(self, capsys):
        alone = [(done.returncode, done.stdout, done.stderr) for done in
                 (fresh("from barychi.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
                  for argv in self.REQUESTS)]
        assert {code for code, *_ in alone} == {0, 1}
        order = [*range(len(self.REQUESTS)), *reversed(range(len(self.REQUESTS))), 3, 0, 4, 2]
        for i in order:
            assert run(capsys, *self.REQUESTS[i]) == alone[i], self.REQUESTS[i]


class TestDispatchBytes:
    """Each argv of tests/dispatch_cli.py, at each of its widths, exits with
    the code and prints the stdout and stderr recorded for this Python: help,
    a wrong or a missing command, words before the command, another
    subcommand's flags, abbreviations and bad values."""

    RECORDED = {(tuple(run["argv"]), run["columns"]): run for run in dispatch_cli.recorded()}

    @pytest.mark.parametrize("columns", dispatch_cli.COLUMNS)
    @pytest.mark.parametrize("argv", dispatch_cli.CASES,
                             ids=[" ".join(argv) or "(none)" for argv in dispatch_cli.CASES])
    def test_prints_the_recorded_bytes(self, argv, columns):
        if not self.RECORDED:
            pytest.skip(f"no dispatch bytes recorded for Python {dispatch_cli.version()}")
        assert dispatch_cli.run(argv, columns) == self.RECORDED[tuple(argv), columns]


class TestOnlyTheInvokedCommandIsBuilt:
    """A build declares -h and the flags of the subcommand its argv invokes,
    exactly those, and no action at all for every other subcommand."""

    INSTANCE = [("--chi-c",), ("--weights",), ("--rho",), ("--space",), ("--components",),
                ("--instance",)]
    FLAGS = {
        "compute": [*INSTANCE, ("--method",), ("--breakdown",), ("--json",)],
        "series": [*INSTANCE, ("--bound",), ("--json",)],
        "oracle": [("--vertices",), ("--weights",), ("--rho",), ("--json",)],
        "classify": [*INSTANCE, ("--placement",), ("--chi-a",), ("--chi-b",), ("--json",)],
        "selftest": [("--cases",), ("--seed",)],
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_flags_of_the_invoked_command_alone(self, command):
        (subparsers,) = cli._build_parser([command, "--json"])._subparsers._group_actions
        assert list(subparsers.choices) == list(self.FLAGS)
        for name, subparser in subparsers.choices.items():
            flags = [tuple(action.option_strings) for action in subparser._actions]
            assert flags == ([("-h", "--help"), *self.FLAGS[name]] if name == command else [])


def every_command_parser(argv):
    """The reference build: every subcommand declared in full, with its -h
    and all its flags, laid out by argparse's own formatter.  ``argv`` is
    not read."""
    parser = cli._Parser(prog="barychi", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, declare) in cli._COMMANDS.items():
        declare(sub.add_parser(name, help=help_line))
    return parser


class TestIdleCommandsNeverDispatch:
    """argparse dispatches only to the subcommand that a build declares in
    full, so any argv exits with the code and prints the bytes it does when
    every subcommand is declared in full."""

    FLAGS = sorted({flag for choice in every_command_parser([])._subparsers._group_actions
                    for subparser in choice.choices.values()
                    for action in subparser._actions for flag in action.option_strings})
    WORDS = [*cli._COMMANDS, *FLAGS, "--", "1", "-1", "1/2", "2", "all", "lc", "x", "bogus",
             "comp", "-5", "--we", "--chi"]

    @staticmethod
    def outcome(build, argv):
        # selftest is stubbed alike in both runs, so a bare selftest stays cheap.
        def run_selftest(cases, seed):
            print(f"selftest cases={cases} seed={seed}")
            return True

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_build_parser", build), \
                mock.patch.object(selftest, "run_selftest", run_selftest), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's help
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=8))
    def test_same_bytes_as_every_command_declared(self, argv):
        assert (self.outcome(cli._build_parser, argv)
                == self.outcome(every_command_parser, argv)), argv


class TestMainReadsSysArgv:
    """main() with no argument runs the request sys.argv names, as
    main(sys.argv[1:]) does."""

    @staticmethod
    def outcome(capsys, request):
        try:
            code = request()
        except SystemExit as exc:  # argparse's help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ["compute", "--chi-c", "2", "--weights", "1/2", "--rho", "1"],
        ["oracle", "--vertices", "3", "--weights", "1/2", "--rho", "2", "--json"],
        ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2", "--chi-a", "2",
         "--chi-b", "1"],
        ["selftest", "-h"],
        ["series", "--chi-c", "1", "--rho", "1", "--cases", "3"],
    ], ids=["compute", "oracle", "classify", "selftest-help", "series-error"])
    def test_no_argument_reads_sys_argv(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["barychi", *argv])
        alone = self.outcome(capsys, main)
        assert alone == self.outcome(capsys, lambda: main(sys.argv[1:]))
        assert alone[1] or alone[2]


class TestRouteTable:
    """A route added to cli._METHOD_RUNNERS reaches --method, the report and
    the oracle comparison from that one entry, and compute's agreement check
    counts it: a route that disagrees makes compute exit 2."""

    ARGV = ["compute", "--chi-c", "2", "--weights", "1/2", "--rho", "3/2"]

    @pytest.fixture
    def shifted(self, monkeypatch):
        def route(instance, *, breakdown=False):
            res = chi_c_direct(instance, breakdown=breakdown)
            return ChiResult(res.chi_c_value + 1, res.term_breakdown)

        monkeypatch.setitem(cli._METHOD_RUNNERS, "shifted", route)

    def test_compute_names_it_and_refuses_the_disagreement(self, capsys, shifted):
        code, out, _ = run(capsys, *self.ARGV, "--breakdown")
        assert code == 2
        assert out.splitlines()[1:6] == ["direct: 1", "strata: 1", "series: 1", "shifted: 2",
                                         "topological chi applies: yes"]
        assert out.endswith("shifted terms:\n  {}: 0\n  {1}: 0\nverdict: MISMATCH\n")
        code, out, _ = run(capsys, *self.ARGV, "--json")
        assert code == 2
        assert json.loads(out)["methods"] == {"direct": 1, "strata": 1, "series": 1, "shifted": 2}

    def test_method_runs_it_alone(self, capsys, shifted):
        code, out, _ = run(capsys, *self.ARGV, "--method", "shifted", "--json")
        assert code == 0
        assert json.loads(out)["methods"] == {"shifted": 2}

    def test_oracle_compares_it(self, capsys, shifted):
        code, out, _ = run(capsys, "oracle", "--vertices", "2", "--weights", "1/2", "--rho", "3/2")
        assert code == 2
        assert out == ("oracle: 1\ndirect: 1\nstrata: 1\nseries: 1\nshifted: 2\n"
                       "verdict: MISMATCH\n")
