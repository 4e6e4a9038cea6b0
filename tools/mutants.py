"""Mutation gate: every mutant in ``MUTANTS`` must make its tests fail.

Usage, from anywhere in the repository::

    python tools/mutants.py

Each row names a module under ``src/barychi``, a function in it (a method
as ``Class.method``), the source of one expression in that function, as
``ast.unparse`` prints it, the expression that replaces it, and the
pytest node ids of the tests that must kill the mutant.  The
expression is found in the module's syntax tree, never by searching its
text, so a docstring or a comment that happens to spell it is never
touched; a row whose expression is missing or occurs twice in the
function is an error, not a pass.

For each row the script copies ``src`` and ``tests`` into a temporary
directory, writes the mutated module there with ``ast.unparse`` and runs
``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0`` on the
row's tests against that copy.  Before any mutant, the same run on an
unmutated copy (each listed module round-tripped through ``ast.unparse``)
must pass the union of the rows' node ids, so a kill is never the round
trip's doing, nor a node id that names no test.  That run goes alone; the
rows then run on one thread per CPU this process may use, each thread
waiting on its row's pytest process in the row's own copy.  The script
prints one line per mutant, in table order, names every survivor, and
exits 1 when a mutant survives and 2 when the table or the unmutated copy
is at fault.  Only the standard library is used, besides pytest and
hypothesis for the tests.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
# A mutant that makes a test loop counts as killed once this many seconds pass.
TIMEOUT = 120

# The tests that kill the mutants, as pytest node ids.
STRATA_AGREES = ["tests/test_engine.py::TestChiCStrata::test_agrees_with_direct"]
STRATA_HALF = ["tests/test_engine.py::TestChiCStrata::test_single_half_weight_contributions"]
STRATA_ZERO_COUNT = ["tests/test_engine.py::TestChiCStrata::"
                     "test_breakdown_lists_a_level_whose_signed_count_is_zero"]
DIRECT_HALF = ["tests/test_engine.py::TestChiCDirect::test_single_half_weight"]
ONE_LEVEL = ["tests/test_engine.py::TestLevelKernels::test_all_subsets_at_one_level[3]"]
NO_LEVEL = ["tests/test_engine.py::TestLevelKernels::"
            "test_a_pair_past_rho_in_one_quotient_group_has_no_level"]
SERIES_ZEROS = ["tests/test_series.py::TestSparseSeries::test_zero_coefficients_dropped"]
SERIES_IDENTITY = ["tests/test_series.py::TestSparseSeries::test_exponent_value_identity"]
SERIES_WINDOW = ["tests/test_series.py::TestSparseSeries::"
                 "test_reduced_terms_are_terms_as_integers"]
SERIES_TEXT = ["tests/test_series.py::TestSeriesOutputPath::"
               "test_terms_print_as_the_reference_renders_them"]
SERIES_COLUMNS = ["tests/test_series.py::TestResidueColumns::"
                  "test_columns_give_the_terms_of_the_dict"]
SERIES_ENDED = ["tests/test_series.py::TestResidueColumns::test_an_ended_power_keeps_the_dict"]
ORACLE_TWO = ["tests/test_oracle.py::TestOracleChi::test_two_vertices"]
STRATA_PAIR_WITHOUT_LIGHTEST = ["tests/test_engine.py::TestChiCStrata::"
                                "test_a_pair_of_the_heavier_weights_summing_to_rho_is_counted"]
ORACLE_STORED_AT_RHO = ["tests/test_oracle.py::TestOracleChi::"
                        "test_faces_without_the_two_lightest_vertices_at_rho"]
STRATA_TALLY = ["tests/test_engine.py::TestChiCStrata::test_the_lightest_weight_is_tallied_at_rho"]
ORACLE_TALLY = ["tests/test_oracle.py::TestOracleChi::"
                "test_the_two_lightest_vertices_are_counted_at_each_cap"]
SERIES_TALLY_TERMS = ["tests/test_series.py::TestTalliedLastFactor::test_on_the_dict"]
SERIES_TALLY_COLUMNS = ["tests/test_series.py::TestTalliedLastFactor::test_on_the_columns"]
EXPANSION_NAMES = ["tests/test_selftest.py::"
                   "test_an_expanded_series_that_disagrees_with_every_route_is_named"]
R1_SWEEP = ["tests/test_classifier.py::TestClassifyR1::test_engine_consistency_sweep"]
R2_SWEEP = ["tests/test_classifier.py::TestClassifyR2Connected::test_engine_consistency_sweep"]
LEVELS = ["tests/test_model.py::TestSubsetLevels::test_far_below_zero"]
RECORDS = ["tests/test_records.py::test_equality_needs_the_same_class_and_equal_fields"]
COLLECTOR = ["tests/test_cli.py::TestCollectorSetting"]
LEVEL_CAPS = ["tests/test_cli.py::TestLevelCaps"]
INDEX_TWICE = ["tests/test_model.py::TestValidate::test_component_index_coverage"]
REMAP = ["tests/test_engine.py::TestNormalizations::test_drop_heavy_updates_components"]
COMPUTE_AGREES = ["tests/test_cli.py::TestRouteTable::"
                  "test_compute_names_it_and_refuses_the_disagreement"]
SELFTEST_AGREES = ["tests/test_selftest.py::"
                   "test_a_route_added_to_the_cli_table_is_checked_and_named"]
SWEEP_NAMES = ["tests/test_selftest.py::"
               "test_the_sweep_names_each_instance_that_classify_gets_wrong"]
NORMALIZATION_NAMES = ["tests/test_selftest.py::test_a_normalization_that_changes_chi_c_is_named"]
ORACLE_NAMES = ["tests/test_selftest.py::test_a_route_that_disagrees_with_the_oracle_is_named"]
IDENTITY_NAMES = ["tests/test_selftest.py::test_each_identity_names_the_point_where_it_fails"]
LONG_INPUTS = ["tests/test_cli.py::TestLongInputsAreCut"]
LONG_FLAGS = ["tests/test_cli.py::TestLongInputsAreCut::"
              "test_argparse_and_os_messages_are_cut_to_one_line_under_300_bytes"]
INEXACT_RHO = ["tests/test_oracle.py::TestOracleChi::test_rejects_inexact_rho"]
INEXACT_BOUND = ["tests/test_series.py::TestChenLinSeries::test_refuses_an_inexact_bound"]
SHOWN_WHOLE = ["tests/test_model.py::TestFractionParsing::"
               "test_error_shows_a_repr_of_up_to_60_characters_whole"]
ECHOED_INSTANCE = ["tests/test_model.py::TestValidate::test_echoed_weight_and_rho_are_cut"]
ECHOED_VERTEX = ["tests/test_oracle.py::TestFiniteWeightedSpace::"
                 "test_error_cuts_a_long_nonpositive_weight"]
ECHOED_CLASSIFIED = ["tests/test_classifier.py::TestLongWeightsAreCut"]
HELP_COLUMNS = ["tests/test_cli.py::TestHelpFollowsColumns"]
ECHOED = ("tests/test_cli.py::TestLongInputsAreCut::"
          "test_echoed_values_are_cut_to_one_line_under_200_bytes")
ECHOED_COUNT = [f"{ECHOED}[vertices]"]
ECHOED_CASES = [f"{ECHOED}[cases]"]
ECHOED_CHI = [f"{ECHOED}[component-chi-sum]"]
ECHOED_INDEX = [f"{ECHOED}[singular-index]"]
ECHOED_WALK = [f"{ECHOED}[strata-walk]"]
ECHOED_COMPONENT_CHI = ["tests/test_model.py::TestValidate::"
                        "test_echoed_component_ints_are_cut[component-chi]"]
FRACTION_SHOWN = ["tests/test_golden_cli.py::test_cli_bytes[compute-71]"]
WORD_BEFORE_COMMAND = ["tests/test_cli.py::TestDispatchBytes::test_prints_the_recorded_bytes"
                       f"[--bogus compute --chi-c 1 --rho 1-{columns}]"
                       for columns in (40, 100, 200)]
IDLE_SHAPE = ["tests/test_cli.py::TestOnlyTheInvokedCommandIsBuilt"]
SUBCOMMAND_HELP = ["tests/test_cli.py::TestDispatchBytes::test_prints_the_recorded_bytes"
                   f"[{command} -h-{columns}]" for command in ("compute", "selftest")
                   for columns in (40, 100, 200)]

# (module, function, expression, replacement, the node ids that kill it)
MUTANTS = [
    # Prune sites: a sum equal to the cap still fits.
    ("engine", "_fitting_sums", "s <= cap", "s < cap", STRATA_AGREES),
    ("engine", "_room_level_counts", "[room - step for room in odd if room >= step]",
     "[room - step for room in odd if room > step]", STRATA_PAIR_WITHOUT_LIGHTEST),
    ("engine", "_room_level_counts", "[room - step for room in even if room >= step]",
     "[room - step for room in even if room > step]", STRATA_AGREES),
    ("series", "_expand_terms", "k <= cap", "k < cap", SERIES_ZEROS),
    ("oracle", "oracle_chi", "[s + step for s in odd if s <= cap]",
     "[s + step for s in odd if s < cap]", ORACLE_STORED_AT_RHO),
    ("oracle", "oracle_chi", "[s + step for s in even if s <= cap]",
     "[s + step for s in even if s < cap]", ORACLE_STORED_AT_RHO),
    # Tally sites: the last step of strata, the last two of the oracle and
    # of the series are counted, not stored, and a subset or a term exactly
    # at its cap counts.
    ("engine", "_room_level_counts", "((room - step) // base for room in odd if room >= step)",
     "((room - step) // base for room in odd if room > step)", STRATA_TALLY),
    ("engine", "_room_level_counts", "((room - step) // base for room in even if room >= step)",
     "((room - step) // base for room in even if room > step)", STRATA_TALLY),
    ("oracle", "oracle_chi", "[s for s in even if s > a]", "[s for s in even if s >= a]",
     ORACLE_TALLY),
    ("oracle", "oracle_chi", "[s for s in odd if s > a]", "[s for s in odd if s >= a]",
     ORACLE_TALLY),
    ("oracle", "oracle_chi", "[s for s in even if s > b]", "[s for s in even if s >= b]",
     ORACLE_TALLY),
    ("oracle", "oracle_chi", "[s for s in odd if s > b]", "[s for s in odd if s >= b]",
     ORACLE_TALLY),
    ("oracle", "oracle_chi", "[s for s in even if s > c]", "[s for s in even if s >= c]",
     ORACLE_TALLY),
    ("oracle", "oracle_chi", "[s for s in odd if s > c]", "[s for s in odd if s >= c]",
     ORACLE_TALLY),
    ("oracle", "oracle_chi", "lightest <= top", "lightest < top", ORACLE_TALLY),
    ("series", "chi_c_series", "top - a - b", "top - a", SERIES_TALLY_TERMS),
    # Below r = 2 a missing factor must lie past the cut, not at it.
    ("series", "chi_c_series", "[top + 1, top + 1, *steps]", "[top, top, *steps]",
     SERIES_TALLY_TERMS),
    ("series", "chi_c_series", "sum(g._coefficients()) - g._sum_through(top - a)",
     "sum(g._coefficients()) + g._sum_through(top - a)", SERIES_TALLY_TERMS),
    ("series", "SparseSeries._sum_through", "k <= cap", "k < cap", SERIES_TALLY_TERMS),
    ("series", "_ColumnSeries._sum_through", "s <= cap", "s < cap", SERIES_TALLY_COLUMNS),
    ("series", "_ColumnSeries._sum_through", "(cap - s) // scale + 1", "(cap - s) // scale + 0",
     SERIES_TALLY_COLUMNS),
    ("series", "_ColumnSeries._sum_through", "(cap - s) // scale + 1", "(cap - s) // scale + 2",
     SERIES_TALLY_COLUMNS),
    # Tie sites: a pair or a subset exactly at a level boundary.
    ("engine", "_signed_level_counts", "qb > qa", "qb >= qa", DIRECT_HALF),
    ("engine", "_signed_level_counts", "qa > qb", "qa >= qb", NO_LEVEL),
    ("engine", "_signed_level_counts", "map(bisect_right, repeat(residues), at_qa)",
     "map(__import__('bisect').bisect_left, repeat(residues), at_qa)", DIRECT_HALF),
    ("engine", "chi_c_strata", "_family_values(r - chi, counts)",
     "_family_values(r - chi, [level for level in counts if counts[level]])", STRATA_ZERO_COUNT),
    ("engine", "_family_values", "i < level", "i <= level", STRATA_HALF),
    ("engine", "_family_values", "i < level", "i < level - 1", STRATA_HALF),
    ("classifier", "_r1_table", "floor(instance.rho - w) < n", "floor(instance.rho - w) <= n",
     R1_SWEEP),
    ("classifier", "_r2_table", "w1 + w2 <= eps", "w1 + w2 < eps", R2_SWEEP),
    ("classifier", "_r2_table", "w1 + w2 <= 1 + eps", "w1 + w2 < 1 + eps", R2_SWEEP),
    ("classifier", "_r2_table", "w1 <= eps and w2 <= eps", "w1 < eps and w2 <= eps", R2_SWEEP),
    ("classifier", "_r2_table", "w1 <= eps and w2 <= eps", "w1 <= eps and w2 < eps", R2_SWEEP),
    # The classifier's range: a weight of exactly 1 is in it.
    ("classifier", "_r1_table", "w > 1", "w >= 1", R1_SWEEP),
    ("classifier", "_r2_table", "w2 > 1", "w2 >= 1", R2_SWEEP),
    # Each route's own arithmetic: the sign of N(L) in direct's tables and
    # strata's tally and its lightest weight's, each first-half sum's
    # count, the empty set's 1 in strata, the oracle's empty-face
    # correction, the series' geometric ratio and factor shift.
    ("engine", "_fitting_sums", "grown.get(s + step, 0) - n", "grown.get(s + step, 0) + n",
     DIRECT_HALF),
    ("engine", "_signed_level_counts", "mul", "lambda count, running: running", DIRECT_HALF),
    ("engine", "_signed_level_counts", "sum(at_qa.values())", "len(at_qa)", ONE_LEVEL),
    ("engine", "_room_level_counts", "Counter(map(floordiv, odd, repeat(base)))",
     "Counter(map(floordiv, even, repeat(base)))", STRATA_PAIR_WITHOUT_LIGHTEST),
    ("engine", "_room_level_counts", "counts.update", "counts.subtract", STRATA_TALLY),
    ("engine", "_room_level_counts",
     "counts.subtract(Counter(((room - step) // base for room in even if room >= step)))",
     "counts.update(Counter(((room - step) // base for room in even if room >= step)))",
     STRATA_TALLY),
    ("engine", "chi_c_strata",
     "1 - sum((count * value[level] for level, count in counts.items()))",
     "-sum((count * value[level] for level, count in counts.items()))", STRATA_HALF),
    ("oracle", "oracle_chi", "1 - len([s for s in even if s > a])",
     "-len([s for s in even if s > a])", ORACLE_TWO),
    ("series", "_factors", "coeff * (m + n - 1) // n", "coeff * (m + n) // n", SERIES_ZEROS),
    ("series", "_factors", "-step", "-step + 1", SERIES_ZEROS),
    # The residue columns: a step that carries past the scale lands one
    # level on, and a column is cut at the same top as the dict's terms.
    ("series", "_expand_columns", "t >= scale", "t > scale", SERIES_COLUMNS),
    ("series", "_expand_columns", "at + 1", "at", SERIES_COLUMNS),
    ("series", "_expand_columns", "(top - t) // scale - at + 1", "(top - t) // scale - at + 2",
     SERIES_COLUMNS),
    ("series", "_expand_columns", "(top - t) // scale - at + 1", "(top - t) // scale - at",
     SERIES_COLUMNS),
    # A power that ends early keeps the dict, whatever the cut's floor.
    ("series", "_expand", "len(powers) > levels", "True", SERIES_ENDED),
    # Subset levels: floor, not ceiling, and bit j of the mask is weight j.
    ("model", "subset_levels", "room // base", "-(-room // base)", LEVELS),
    ("model", "subset_levels", "[room - step for room in rooms]",
     "[room - step for room in reversed(rooms)]", LEVELS),
    # Record equality needs the same class, either way round.
    ("model", "_Record.__eq__", "other.__class__ is self.__class__", "True", RECORDS),
    ("model", "_Record.__ne__", "other.__class__ is not self.__class__", "False", RECORDS),
    # The series window: ties at rho are in it, the constant term is not,
    # and a polynomial geometric power stores no zero past its end.
    ("series", "window_columns", "bisect_right(keys, rho.numerator * scale // rho.denominator)",
     "__import__('bisect').bisect_left(keys, rho.numerator * scale // rho.denominator)",
     SERIES_WINDOW),
    ("series", "window_columns", "rho.numerator * scale // rho.denominator",
     "rho.numerator * scale // rho.denominator - 1", SERIES_WINDOW),
    ("series", "window_columns", "bisect_right(keys, 0)",
     "__import__('bisect').bisect_left(keys, 0)", SERIES_WINDOW),
    ("series", "_factors", "not coeff", "False", SERIES_IDENTITY),
    # main gives the caller back its collector setting on every exit, and
    # turns the collector back on only when the caller had it on.
    ("cli", "main", "gc.enable()", "None", COLLECTOR),
    ("cli", "main", "gc.disable()", "None", COLLECTOR),
    ("cli", "main", "gc.isenabled()", "True", COLLECTOR),
    # An integer exponent prints as "n", any other as "n/d".
    ("cli", "_term_texts", "d != 1", "True", SERIES_TEXT),
    ("cli", "_term_texts", "d != 1", "d == 1", SERIES_TEXT),
    # The terms rendered by hand join the JSON that json.dumps renders at
    # their place, and the text form splits them at the window's end: the
    # window's lines stop with its sums, before a term past it is read.
    ("cli", "_term_texts", "zip(ends, numerators, denominators, coefficients)",
     "map(lambda n, d, c, end: (end, n, d, c), numerators, denominators, coefficients, ends)",
     SERIES_TEXT),
    ("cli", "_cmd_series.document", "','", "''", SERIES_TEXT),
    ("cli", "_report_json", "','", "''", SERIES_TEXT),
    ("cli", "_report_json", "_json(report)[:-3]", "_json(report)[:-2]", SERIES_TEXT),
    ("cli", "_cmd_series.document", "head[:-2]", "head[:-1]", SERIES_TEXT),
    ("cli", "_cmd_series.lines", "islice(coefficients, inside, None)",
     "islice(coefficients, inside + 1, None)", SERIES_TEXT),
    # A breakdown's series rows ((n, d), c) are read column by column.
    ("cli", "_row_columns", "map(itemgetter(1), rows)", "map(itemgetter(0), rows)", SERIES_TEXT),
    # validate alone refuses an index listed twice, and it remaps each
    # component's indices to the canonical order.
    ("model", "_check_components", "i in seen", "False", INDEX_TWICE),
    ("model", "_check_components", "canon_of_label[i]", "i", REMAP),
    # An error line cuts a long input's repr, and shows one of up to
    # _SHOWN characters whole; argparse's messages go through the same cut.
    ("model", "_cut", "len(text) > limit", "False", LONG_INPUTS),
    ("model", "_cut", "len(text) > limit", "len(text) >= limit", SHOWN_WHOLE),
    ("cli", "_Parser.error", "_cut(message, _MESSAGE_SHOWN)", "message", LONG_FLAGS),
    # One echo rule: a Fraction is quoted as p/q, anything else by its repr.
    ("model", "_shown", "isinstance(value, Fraction)", "False", FRACTION_SHOWN),
    # Every echoed weight, rho or outside int goes through the same cut.
    ("model", "validate", "_shown(w)", "str(w)", ECHOED_INSTANCE),
    ("model", "validate", "_shown(rho)", "str(rho)", ECHOED_INSTANCE),
    ("oracle", "FiniteWeightedSpace.__new__", "_shown(w)", "str(w)", ECHOED_VERTEX),
    ("classifier", "_conic_levels", "_shown(w)", "str(w)", ECHOED_CLASSIFIED),
    ("classifier", "_r1_table", "_shown(w)", "str(w)", ECHOED_CLASSIFIED),
    ("classifier", "_r2_table", "_shown(w2)", "str(w2)", ECHOED_CLASSIFIED),
    ("oracle", "_check_vertex_count",
     "f'm = {_shown(m)} vertices exceeds the face-enumeration cap {MAX_VERTICES}'",
     "f'm = {m} vertices exceeds the face-enumeration cap {MAX_VERTICES}'", ECHOED_COUNT),
    ("cli", "_cmd_selftest", "_shown(args.cases)", "args.cases", ECHOED_CASES),
    ("model", "_check_components", "_shown(total_chi)", "total_chi", ECHOED_COMPONENT_CHI),
    ("model", "_check_components", "_shown(chi_c)", "chi_c", ECHOED_CHI),
    ("model", "_check_components", "f'singular index {_shown(i)} outside 1..{r}'",
     "f'singular index {i} outside 1..{r}'", ECHOED_INDEX),
    ("cli", "_check_levels", "_shown(walk)", "walk", ECHOED_WALK),
    # Help is laid out at the width of the call's COLUMNS, not a fixed one.
    ("cli", "_build_parser", "shutil.get_terminal_size().columns - 2", "78", HELP_COLUMNS),
    # A build declares the flags of the subcommand argparse dispatches to:
    # the first word of argv that names one, not whatever argv starts with.
    ("cli", "_build_parser", "next((arg for arg in argv if arg in _COMMANDS), None)",
     "argv[0] if argv else None", WORD_BEFORE_COMMAND),
    # A subcommand argv does not invoke holds no action, not even -h; the
    # invoked one's usage starts "barychi <command>", one space between.
    ("cli", "_build_parser", "False", "True", IDLE_SHAPE),
    ("cli", "_build_parser", "parser.prog", "parser.prog + ' '", SUBCOMMAND_HELP),
    # One exactness check: a float is refused, and the series bound is checked.
    ("model", "_exact", "isinstance(value, Fraction)", "isinstance(value, (Fraction, float))",
     INEXACT_RHO),
    ("series", "truncation_bound", "_exact(bound, 'bound')", "bound", INEXACT_BOUND),
    # The level caps: a walk equal to the cap runs, and when m <= 0 the walk
    # ends at 1 - m, where the polynomial (1 - x)^(-m) ends.
    ("cli", "_check_levels", "walk > MAX_LEVELS[method]", "walk >= MAX_LEVELS[method]",
     LEVEL_CAPS),
    ("cli", "_check_levels", "1 - m", "-m", LEVEL_CAPS),
    # Every route of cli._METHOD_RUNNERS counts: in compute's agreement
    # check and in selftest's.
    ("cli", "_cmd_compute", "results[0].values()", "list(results[0].values())[:3]",
     COMPUTE_AGREES),
    ("selftest", "check_triple_agreement", "_METHOD_RUNNERS.items()",
     "list(_METHOD_RUNNERS.items())[:3]", SELFTEST_AGREES),
    # selftest's check also compares the whole expansion of the series,
    # which the series route no longer makes.
    ("selftest", "check_triple_agreement", "expanded not in chis", "False", EXPANSION_NAMES),
    # Every other comparison of selftest reports what it finds: the sweep
    # on each kind of group, blind to one kind at a time, and its placement
    # check; normalization, the oracle and each identity.
    ("selftest", "classifier_sweep_failures", "got != want",
     "got != want and instance.r != 1", SWEEP_NAMES),
    ("selftest", "classifier_sweep_failures", "got != want",
     "got != want and (instance.r != 2 or instance.components is not None)", SWEEP_NAMES),
    ("selftest", "classifier_sweep_failures", "got != want",
     "got != want and instance.components is None", SWEEP_NAMES),
    ("selftest", "classifier_sweep_failures", "len(set(chis)) > 1", "False", SWEEP_NAMES),
    ("selftest", "check_normalization", "reduced != base", "False", NORMALIZATION_NAMES),
    ("selftest", "check_oracle", "value != expected", "False", ORACLE_NAMES),
    ("selftest", "identity_failures",
     "ext_binomial(m, n - 1) + ext_binomial(m, n) != ext_binomial(m + 1, n)", "False",
     IDENTITY_NAMES),
    ("selftest", "identity_failures", "hockey_stick_sum(m, n) != ext_binomial(m + n, n)",
     "False", IDENTITY_NAMES),
    ("selftest", "identity_failures",
     "gould_convolution(chi_1, chi_2, k) != ext_binomial(k - chi_1 - chi_2, k)", "False",
     IDENTITY_NAMES),
    ("selftest", "identity_failures", "got != want", "False", IDENTITY_NAMES),
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
    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    passed, seconds = run_tests(round_trip, every_test)
    if not passed:
        print(f"the unmutated copy fails {' '.join(every_test)}; no mutant was run")
        return 2
    print(f"unmutated copy passes ({seconds:.1f} s)", flush=True)
    survivors = []
    # Each row's time goes to starting its pytest process, which a thread
    # only waits on, so one thread per usable CPU keeps them all busy.
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        outcomes = pool.map(lambda mutant: run_tests(*mutant[1:]), mutants)
        for (name, *_), (passed, seconds) in zip(mutants, outcomes):
            print(f"{'SURVIVED' if passed else 'killed  '} {name} ({seconds:.1f} s)", flush=True)
            if passed:
                survivors.append(name)
    for name in survivors:
        print(f"survivor: {name}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
