"""Pinned bytes of the CLI's dispatch: which subcommand an argv reaches,
and what help, usage and error lines it prints on the way.

``dispatch_cli.json`` records, for each interpreter version it was made
on, the exit code, stdout and stderr of every argv in ``CASES`` at each
width in ``COLUMNS``.  argparse's help layout and messages differ between
Python versions, so each version has a record; versions whose records are
equal share one, keyed by their names joined with spaces.  This module uses
the standard library alone, so every installed interpreter can check or
record its bytes:

    PYTHONPATH=src python3.X tests/dispatch_cli.py            # check
    PYTHONPATH=src python3.X tests/dispatch_cli.py --record   # record

Record only for an intended output change; ``tests/test_cli.py``
(``TestDispatchBytes``) checks the running interpreter's record.
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from barychi.cli import main

FIXTURE = Path(__file__).with_name("dispatch_cli.json")
COLUMNS = (40, 100, 200)
INSTANCE = ["--chi-c", "1", "--rho", "1"]

CASES = [
    # Nothing but help or an error.
    [],
    ["-h"],
    ["--help"],
    ["-h", "compute"],
    ["--help", "oracle", "--vertices", "2", "--rho", "1"],
    # A wrong command.
    ["bogus"],
    ["COMPUTE"],
    ["comp"],
    # Something before the command.
    ["--bogus", "compute", *INSTANCE],
    ["--", "compute", *INSTANCE],
    ["-5", "compute"],
    # Each subcommand's help.
    ["compute", "-h"],
    ["series", "-h"],
    ["oracle", "-h"],
    ["classify", "-h"],
    ["selftest", "-h"],
    # A flag of another subcommand.
    ["oracle", "--chi-c", "1"],
    ["selftest", "--weights", "1"],
    ["compute", "--cases", "3"],
    ["series", *INSTANCE, "--method", "all"],
    ["classify", *INSTANCE, "--bound", "2"],
    # A command name as a flag value or as a trailing word.
    ["compute", "--weights", "series", *INSTANCE],
    ["compute", *INSTANCE, "oracle"],
    ["oracle", "--vertices", "2", "--rho", "1", "compute"],
    # Abbreviated flags: unique in compute, ambiguous in classify
    # (--chi-c, --chi-a, --chi-b).
    ["compute", "--we", "1/2", *INSTANCE],
    ["compute", "--chi", "1", "--rho", "1"],
    ["classify", "--chi", "1", "--rho", "1"],
    # A bad value.
    ["compute", *INSTANCE, "--method", "nope"],
    ["compute", *INSTANCE, "--space"],
    ["selftest", "--cases", "x"],
]


def version() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def run(argv: list, columns: int) -> dict:
    """What ``main(argv)`` returns and prints, in this process, at ``columns``."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(columns)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's help
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": argv, "columns": columns, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def runs() -> list:
    return [run(argv, columns) for argv in CASES for columns in COLUMNS]


def records() -> dict:
    """Each recorded version's runs."""
    shared = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    return {name: runs for names, runs in shared.items() for name in names.split()}


def recorded() -> list:
    """The record of the running interpreter's version, or [] if none."""
    return records().get(version(), [])


def write(by_version: dict) -> None:
    groups = []  # [names, runs] for each distinct record, oldest version first
    for name in sorted(by_version, key=lambda name: tuple(map(int, name.split(".")))):
        same = [group for group in groups if group[1] == by_version[name]]
        if same:
            same[0][0].append(name)
        else:
            groups.append([[name], by_version[name]])
    shared = {" ".join(names): runs for names, runs in groups}
    FIXTURE.write_text(json.dumps(shared, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        write({**records(), version(): runs()})
        print(f"recorded {len(CASES) * len(COLUMNS)} runs for Python {version()}")
    else:
        want = recorded()
        if not want:
            sys.exit(f"no record for Python {version()}")
        differ = [f"{got['argv']} at {got['columns']}" for got, old in zip(runs(), want)
                  if got != old]
        for line in differ:
            print(f"differs: {line}")
        print(f"{len(want) - len(differ)} of {len(want)} runs match Python {version()}'s record")
        sys.exit(1 if differ or len(want) != len(CASES) * len(COLUMNS) else 0)
