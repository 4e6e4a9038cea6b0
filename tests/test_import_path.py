"""Importing the command-line module must stay cheap: a one-shot
``barychi compute`` process pays for every module it loads.  ``dataclasses``
alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_modules():
    # -I -S: no site, no user paths, so only what barychi.cli itself imports.
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import barychi.cli; "
             f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []
