"""Mutation gate: every mutant in ``MUTANTS`` must make its tests fail.

Usage, from anywhere in the repository::

    python tools/mutants.py

Each row names a module under ``src/barychi``, a function in it (a method
as ``Class.method``), the source of one expression in that function, as
``ast.unparse`` prints it, the expression that replaces it, and the test
files (or pytest node ids in them) that must kill the mutant.  The
expression is found in the module's syntax tree, never by searching its
text, so a docstring or a comment that happens to spell it is never
touched; a row whose expression is missing or occurs twice in the
function is an error, not a pass.

For each row the script copies ``src`` and ``tests`` into a temporary
directory, writes the mutated module there with ``ast.unparse`` and runs
``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0`` on the
row's tests against that copy.  Before any mutant, the same run on an
unmutated copy (each listed module round-tripped through ``ast.unparse``)
must pass every listed test file whole, so a kill is never the round
trip's doing.  The script prints one line per mutant, names every
survivor, and exits 1 when a mutant survives and 2 when the table or the
unmutated copy is at fault.  Only the standard library is used, besides
pytest and hypothesis for the tests.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
# A mutant that makes a test loop counts as killed once this many seconds pass.
TIMEOUT = 120

ENGINE = ["tests/test_engine.py"]
SERIES = ["tests/test_series.py"]
ORACLE = ["tests/test_oracle.py"]
CLASSIFIER = ["tests/test_classifier.py"]
RECORDS = ["tests/test_records.py"]
MODEL = ["tests/test_model.py"]
CLI = ["tests/test_cli.py"]
LEVEL_CAPS = ["tests/test_cli.py::TestLevelCaps"]
COLLECTOR = ["tests/test_cli.py::TestCollectorSetting"]
ROUTES_AGREE = ["tests/test_engine.py::TestRoutesAgree"]

# (module, function, expression, replacement, test files)
MUTANTS = [
    # Prune sites: a sum equal to the cap still fits.
    ("engine", "_fitting_sums", "[s + step for s in odd if s <= cap]",
     "[s + step for s in odd if s < cap]", ENGINE),
    ("engine", "_fitting_sums", "[s + step for s in even if s <= cap]",
     "[s + step for s in even if s < cap]", ENGINE),
    ("engine", "chi_c_strata", "[room - step for room in odd if room >= step]",
     "[room - step for room in odd if room > step]", ENGINE),
    ("engine", "chi_c_strata", "[room - step for room in even if room >= step]",
     "[room - step for room in even if room > step]", ENGINE),
    ("series", "chen_lin_series", "k <= cap", "k < cap", SERIES),
    ("oracle", "oracle_chi", "[s + step for s in odd if s <= cap]",
     "[s + step for s in odd if s < cap]", ORACLE),
    ("oracle", "oracle_chi", "[s + step for s in even if s <= cap]",
     "[s + step for s in even if s < cap]", ORACLE),
    # Tie sites: a pair or a subset exactly at a level boundary.
    ("engine", "_signed_level_counts", "qb > qa", "qb >= qa", ENGINE),
    ("engine", "_signed_level_counts", "qa > qb", "qa >= qb", ENGINE),
    ("engine", "_signed_level_counts", "map(bisect_right, repeat(residues), ra_even)",
     "map(__import__('bisect').bisect_left, repeat(residues), ra_even)", ENGINE),
    ("engine", "_signed_level_counts", "map(bisect_right, repeat(residues), ra_odd)",
     "map(__import__('bisect').bisect_left, repeat(residues), ra_odd)", ENGINE),
    ("engine", "chi_c_strata", "level >= 0", "level > 0", ENGINE),
    ("engine", "_family_values", "i < level", "i <= level", ENGINE),
    ("engine", "_family_values", "i < level", "i < level - 1", ENGINE),
    ("classifier", "_r1_table", "floor(instance.rho - w) < n", "floor(instance.rho - w) <= n",
     CLASSIFIER),
    ("classifier", "_r2_table", "w1 + w2 <= eps", "w1 + w2 < eps", CLASSIFIER),
    ("classifier", "_r2_table", "w1 + w2 <= 1 + eps", "w1 + w2 < 1 + eps", CLASSIFIER),
    ("classifier", "_r2_table", "w1 <= eps and w2 <= eps", "w1 < eps and w2 <= eps", CLASSIFIER),
    ("classifier", "_r2_table", "w1 <= eps and w2 <= eps", "w1 <= eps and w2 < eps", CLASSIFIER),
    # The classifier's range: a weight of exactly 1 is in it.
    ("classifier", "_r1_table", "w > 1", "w >= 1", CLASSIFIER),
    ("classifier", "_r2_table", "w2 > 1", "w2 >= 1", CLASSIFIER),
    # Each route's own arithmetic: strata's parity classes and the empty
    # set's 1, the oracle's empty-face correction, the series' geometric
    # ratio and factor shift.
    ("engine", "chi_c_strata", "Counter(map(floordiv, odd, repeat(base)))",
     "Counter(map(floordiv, even, repeat(base)))", ENGINE),
    ("engine", "chi_c_strata",
     "1 + sum((count * value[level] for level, count in odd_at.items()))",
     "sum((count * value[level] for level, count in odd_at.items()))", ENGINE),
    ("oracle", "oracle_chi", "len(odd) - (len(even) - 1)", "len(odd) - len(even)", ORACLE),
    ("series", "chen_lin_series", "coeff * (m + n - 1) // n", "coeff * (m + n) // n", SERIES),
    ("series", "chen_lin_series", "-step", "-step + 1", SERIES),
    # Subset levels: floor, not ceiling, and bit j of the mask is weight j.
    ("model", "subset_levels", "room // base", "-(-room // base)", MODEL),
    ("model", "subset_levels", "[room - step for room in rooms]",
     "[room - step for room in reversed(rooms)]", MODEL),
    # Record equality needs the same class, either way round.
    ("model", "_Record.__eq__", "other.__class__ is self.__class__", "True", RECORDS),
    ("model", "_Record.__ne__", "other.__class__ is not self.__class__", "False", RECORDS),
    # The series window: ties at rho are in it, the constant term is not,
    # and a polynomial geometric power stores no zero past its end.
    ("series", "window_columns", "bisect_right(keys, rho.numerator * scale // rho.denominator)",
     "__import__('bisect').bisect_left(keys, rho.numerator * scale // rho.denominator)", SERIES),
    ("series", "window_columns", "rho.numerator * scale // rho.denominator",
     "rho.numerator * scale // rho.denominator - 1", SERIES),
    ("series", "window_columns", "bisect_right(keys, 0)",
     "__import__('bisect').bisect_left(keys, 0)", SERIES),
    ("series", "chen_lin_series", "not coeff", "False", SERIES),
    # main gives the caller back its collector setting on every exit, and
    # turns the collector back on only when the caller had it on.
    ("cli", "main", "gc.enable()", "None", CLI),
    ("cli", "main", "gc.disable()", "None", CLI),
    ("cli", "main", "gc.isenabled()", "True", COLLECTOR),
    # An integer exponent prints as "n", any other as "n/d".
    ("cli", "_exponent_texts", "d != 1", "True", SERIES),
    ("cli", "_exponent_texts", "d != 1", "d == 1", SERIES),
    # validate alone refuses an index listed twice, and it remaps each
    # component's indices to the canonical order.
    ("model", "_check_components", "i in seen", "False", MODEL),
    ("model", "_check_components", "canon_of_label[i]", "i", ROUTES_AGREE),
    # The level caps: a walk equal to the cap runs, and when m <= 0 the walk
    # ends at 1 - m, where the polynomial (1 - x)^(-m) ends.
    ("cli", "_check_levels", "walk > MAX_LEVELS[method]", "walk >= MAX_LEVELS[method]",
     LEVEL_CAPS),
    ("cli", "_check_levels", "1 - m", "-m", LEVEL_CAPS),
]


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    node: ast.AST = tree
    for name in qualname.split("."):
        found = [child for child in ast.iter_child_nodes(node)
                 if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name]
        if len(found) != 1:
            raise LookupError(f"no single definition {qualname!r}")
        node = found[0]
    return node


class _Replace(ast.NodeTransformer):
    def __init__(self, target: ast.AST, replacement: ast.expr) -> None:
        self.target, self.replacement = target, replacement

    def generic_visit(self, node: ast.AST) -> ast.AST:
        return self.replacement if node is self.target else super().generic_visit(node)


def mutate(source: str, function: str, expression: str, replacement: str) -> str:
    """``source`` with the one ``expression`` in ``function`` replaced."""
    tree = ast.parse(source)
    matches = [node for node in ast.walk(_function(tree, function))
               if isinstance(node, ast.expr) and ast.unparse(node) == expression]
    if len(matches) != 1:
        raise LookupError(f"{expression!r} occurs {len(matches)} times in {function}, not once")
    new = ast.parse(replacement, mode="eval").body
    tree = ast.fix_missing_locations(_Replace(matches[0], new).visit(tree))
    return ast.unparse(tree)


def run_tests(modules: dict[str, str], tests: list[str]) -> tuple[bool, float]:
    """Whether ``tests`` pass against a copy of ``src`` and ``tests`` whose
    modules named in ``modules`` have the given source; and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", Path(tmp, "src"), ignore=ignore)
        shutil.copytree(ROOT / "tests", Path(tmp, "tests"), ignore=ignore)
        for module, text in modules.items():
            Path(tmp, "src", "barychi", f"{module}.py").write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *PYTEST, *tests], cwd=tmp, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start
        return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    def source(module: str) -> str:
        return (ROOT / "src" / "barychi" / f"{module}.py").read_text(encoding="utf-8")

    try:
        mutants = [(f"{module}.{function}: {expression} -> {replacement}",
                    {module: mutate(source(module), function, expression, replacement)}, tests)
                   for module, function, expression, replacement, tests in MUTANTS]
    except LookupError as exc:
        print(f"stale mutant table: {exc}")
        return 2
    round_trip = {module: ast.unparse(ast.parse(source(module))) for module, *_ in MUTANTS}
    every_test = sorted({test.partition("::")[0] for *_, tests in MUTANTS for test in tests})
    passed, seconds = run_tests(round_trip, every_test)
    if not passed:
        print(f"the unmutated copy fails {' '.join(every_test)}; no mutant was run")
        return 2
    print(f"unmutated copy passes ({seconds:.1f} s)")
    survivors = []
    for name, modules, tests in mutants:
        passed, seconds = run_tests(modules, tests)
        print(f"{'SURVIVED' if passed else 'killed  '} {name} ({seconds:.1f} s)")
        if passed:
            survivors.append(name)
    for name in survivors:
        print(f"survivor: {name}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
