import json

import pytest

from barychi.cli import main


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


class TestSelftest:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "selftest", "--cases", "25", "--seed", "7")
        assert code == 0
        assert "seed: 7" in out
        assert "result: PASS" in out
