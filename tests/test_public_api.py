"""The package exports exactly the names README's "Library API" documents."""
import re
from pathlib import Path
from types import ModuleType

import barychi


def test_all_matches_readme_library_api():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    documented = {name for name in re.findall(r"`(\w+)", section) if hasattr(barychi, name)}
    exported = {name for name, value in vars(barychi).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(barychi.__all__) == sorted(documented) == sorted(exported)
