"""The four routes to chi_c share no code beyond their value types.

direct, strata and series are checked against each other and against the
oracle's face count; their agreement is evidence only while each computes
on its own.  This test reads the package source with ``ast``, follows every
name a route's entry point refers to (through ``from .x import y``
aliases, in annotations and class bodies too) and collects the package
functions and classes it reaches.  Two routes may reach the same one only
if it is listed below.
"""
import ast
from itertools import combinations
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "barychi"

ROUTES = {
    "direct": [("engine", "chi_c_direct")],
    "strata": [("engine", "chi_c_strata")],
    "series": [("series", "chi_c_series"), ("series", "chen_lin_series")],
    "oracle": [("oracle", "oracle_chi")],
}
# The records every route takes or returns.
SHARED = {("model", "_Record"), ("model", "ComponentSpec"), ("model", "SpaceKind"),
          ("model", "ProblemInstance"), ("model", "ValidatedInstance"), ("engine", "ChiResult")}
# The --breakdown tables: rows only, never the value a route returns.
SHARED_BY_PAIR = {("direct", "strata"): {("model", "subset_levels"), ("model", "subset_members")}}


def _read_package():
    """Each module-level definition, (module, name) -> node, and each
    relative import, (module, local name) -> (module, name)."""
    defs, aliases = {}, {}
    for path in PACKAGE.glob("*.py"):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[module, name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    aliases[module, alias.asname or alias.name] = (node.module, alias.name)
    return defs, aliases


DEFS, ALIASES = _read_package()


def _resolve(module, name):
    """The definition ``name`` means in ``module``, or None outside the package."""
    while (module, name) not in DEFS:
        if (module, name) not in ALIASES:
            return None
        module, name = ALIASES[module, name]
    return module, name


def _reachable(roots):
    """The package functions and classes reachable from ``roots``.  Module
    constants are followed but not reported; an import inside a body counts
    as a reference to what it imports."""
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        module = key[0]
        for node in ast.walk(DEFS[key]):
            if isinstance(node, ast.Name):
                refs = [_resolve(module, node.id)]
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                refs = [_resolve(node.module, alias.name) for alias in node.names]
            else:
                continue
            stack.extend(ref for ref in refs if ref is not None)
    return {key for key in seen if isinstance(DEFS[key], (ast.FunctionDef, ast.ClassDef))}


def test_every_entry_point_and_allowed_name_exists():
    # A renamed entry point would otherwise reach nothing and share nothing.
    allowed = set().union(SHARED, *SHARED_BY_PAIR.values())
    for key in [root for roots in ROUTES.values() for root in roots] + sorted(allowed):
        assert isinstance(DEFS.get(key), (ast.FunctionDef, ast.ClassDef)), ".".join(key)


@pytest.mark.parametrize("first,second", list(combinations(ROUTES, 2)))
def test_routes_share_only_records_and_breakdown_tables(first, second):
    shared = _reachable(ROUTES[first]) & _reachable(ROUTES[second])
    extra = shared - SHARED - SHARED_BY_PAIR.get((first, second), set())
    assert not extra, f"{first} and {second} share {sorted('.'.join(k) for k in extra)}"
