"""The package exports exactly the names README's "Library API" documents,
and README's library quick start runs and prints what its comments say."""
import ast
import io
import re
import tokenize
from pathlib import Path
from types import ModuleType

import barychi

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_all_matches_readme_library_api():
    section = README.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    documented = {name for name in re.findall(r"`(\w+)", section) if hasattr(barychi, name)}
    exported = {name for name, value in vars(barychi).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(barychi.__all__) == sorted(documented) == sorted(exported)


def test_library_quick_start_values():
    section = README.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {token.start[0]: token.string.lstrip("#").strip()
                for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT}
    namespace, checked = {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        # The expected value is the comment on the expression's last line,
        # or on the line below it.
        line = node.end_lineno
        expected = ast.literal_eval(comments.get(line) or comments[line + 1])
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(node)
        checked.append(expected)
    assert checked == [2, -1, 2, ["B_4(X,p1)", "B_4(X,p2)", "B_3(X,p1,p2,p3)"]]
