"""Golden CLI bytes: stdout, stderr and exit code of a fixed argv list.

The fixture ``golden_cli.json`` records the exact output of every command
in ``CASES``; any change to a number, a report field, a line of text or an
exit code shows up here as a whole-output diff.  Regenerate the fixture
only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from barychi.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

# Instance documents written next to the run; argv names them by file name.
INSTANCES = {
    "three.json": {"chi_c": 2, "weights": ["3/10", "2/5", "3/5"], "rho": "9/2",
                   "space": {"kind": "compact"}},
    "union.json": {"chi_c": 3, "weights": ["7/5", "3/10", "2/5"], "rho": "5/2",
                   "space": {"kind": "union", "components": [
                       {"chi_c": 2, "is_compact": True, "singular_indices": [1, 3]},
                       {"chi_c": 1, "is_compact": False, "singular_indices": [2]}]}},
}

COMPONENTS = ('[{"chi_c":2,"is_compact":true,"singular_indices":[1,3]},'
              '{"chi_c":-1,"is_compact":false,"singular_indices":[2]}]')
FORMS = ([], ["--json"], ["--breakdown"], ["--json", "--breakdown"])
METHODS = ("direct", "strata", "series", "all")


def _cases() -> list[list[str]]:
    cases = []
    for method in METHODS:
        for form in FORMS:
            cases.append(["compute", "--instance", "three.json", "--method", method, *form])
            cases.append(["compute", "--chi-c", "1", "--weights", "1/2,3/4,5/3", "--rho", "7/2",
                          "--components", COMPONENTS, "--method", method, *form])
    cases += [
        ["compute", "--instance", "union.json"],
        ["compute", "--chi-c", "-3", "--weights", "1,1/3,9", "--rho", "4", "--space", "lc"],
        ["compute", "--chi-c", "4", "--weights", "", "--rho", "5/2", "--space", "even-interior",
         "--json"],
    ]
    for form in ([], ["--json"]):
        cases += [
            ["series", "--chi-c", "2", "--weights", "1/2", "--rho", "1", *form],
            ["series", "--chi-c", "2", "--weights", "1/2", "--rho", "1", "--bound", "3", *form],
            ["series", "--chi-c", "-1", "--weights", "2/5,4/3", "--rho", "7/2", *form],
            ["series", "--chi-c", "-1", "--weights", "2/5,4/3", "--rho", "7/2", "--bound", "2",
             *form],
            ["series", "--instance", "three.json", "--bound", "6", *form],
            ["oracle", "--vertices", "3", "--weights", "1/2,1/2", "--rho", "1", *form],
            ["oracle", "--vertices", "6", "--weights", "1/3,2/5,3/2", "--rho", "5/2", *form],
            ["oracle", "--vertices", "4", "--rho", "2", *form],
            ["classify", "--chi-c", "0", "--weights", "", "--rho", "3", *form],
            ["classify", "--chi-c", "2", "--weights", "3/10", "--rho", "5/2", *form],
            ["classify", "--chi-c", "2", "--weights", "4/5", "--rho", "5/2", *form],
            ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2", *form],
            ["classify", "--chi-c", "3", "--weights", "3/5,7/10", "--rho", "5/2", *form],
            ["classify", "--chi-c", "3", "--weights", "4/5,9/10", "--rho", "5/2", *form],
            ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2",
             "--chi-a", "2", "--chi-b", "1", "--placement", "one-each", *form],
            ["classify", "--chi-c", "3", "--weights", "3/10,2/5", "--rho", "5/2",
             "--chi-a", "2", "--chi-b", "1", "--placement", "both-first", *form],
            ["classify", "--chi-c", "1", "--weights", "3/5,7/10", "--rho", "9/4",
             "--chi-a", "-1", "--chi-b", "2", *form],
            ["classify", "--chi-c", "1", "--weights", "3/5,7/10", "--rho", "9/4",
             "--chi-a", "-1", "--chi-b", "2", "--placement", "both-first", *form],
        ]
    cases += [
        ["compute", "--chi-c", "2", "--weights", "0", "--rho", "1"],
        ["compute", "--chi-c", "2", "--weights", "1/2,-1", "--rho", "1", "--json"],
        ["compute", "--chi-c", "2", "--weights", "1/2", "--rho", "0"],
        ["compute", "--chi-c", "2", "--weights", "1/x", "--rho", "1"],
        ["compute", "--weights", "1/2"],
        ["compute", "--chi-c", "5", "--weights", "1/2,1/3", "--rho", "2", "--components",
         '[{"chi_c":2,"singular_indices":[1]},{"chi_c":1,"singular_indices":[2]}]'],
        ["series", "--chi-c", "2", "--weights", "0", "--rho", "1"],
        ["classify", "--chi-c", "2", "--weights", "1/10,1/10,1/10", "--rho", "2"],
        ["classify", "--chi-c", "2", "--weights", "3/2", "--rho", "2"],
        ["classify", "--chi-c", "2", "--weights", "1/2,3/2", "--rho", "2"],
        ["classify", "--chi-c", "2", "--weights", "1/2", "--rho", "2", "--placement", "one-each"],
        ["classify", "--chi-c", "3", "--weights", "1/2", "--rho", "2", "--chi-a", "2"],
        ["oracle", "--vertices", "23", "--rho", "1"],
        ["oracle", "--vertices", "2", "--weights", "0,1/2", "--rho", "1"],
        ["oracle", "--vertices", "1", "--weights", "1/2,1/2", "--rho", "1"],
        ["selftest", "--cases", "4", "--seed", "3"],
    ]
    return cases


CASES = _cases()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_instances(directory: Path) -> None:
    for name, doc in INSTANCES.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_argv_list(golden):
    assert golden["instances"] == INSTANCES
    assert [case["argv"] for case in golden["cases"]] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: f"{CASES[i][0]}-{i}")
def test_cli_bytes(index, golden, tmp_path, monkeypatch):
    _write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(CASES[index]) == golden["cases"][index]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write_instances(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            cases = [run(argv) for argv in CASES]
        finally:
            os.chdir(here)
    FIXTURE.write_text(json.dumps({"instances": INSTANCES, "cases": cases}, indent=1) + "\n",
                       encoding="utf-8")
    sys.exit(0)
