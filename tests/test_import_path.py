"""Importing the command-line module must stay cheap: a one-shot
``barychi compute`` process pays for every module it loads.  ``dataclasses``
alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``; ``json`` and
the classifier load only in a request that uses them.  Each case runs in a
new interpreter (``-I -S``: no site, no user paths), so only what barychi
itself imports is loaded."""
import subprocess
import sys
from pathlib import Path

import pytest

from barychi.cli import main

SRC = Path(__file__).parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
DEFERRED = ("json", "barychi.classifier")


def fresh(probe: str, *argv: str) -> subprocess.CompletedProcess:
    """``probe`` run in a new interpreter with ``src`` first on its path and
    ``argv`` as its arguments."""
    return subprocess.run([sys.executable, "-I", "-S", "-c",
                           f"import sys; sys.path.insert(0, {str(SRC)!r}); {probe}", *argv],
                          capture_output=True, text=True, timeout=60)


def loaded(names: tuple[str, ...]) -> str:
    """Source of a statement that prints which of ``names`` are loaded."""
    return f"print(*[m for m in {names!r} if m in sys.modules], file=sys.stderr)"


def test_cli_import_loads_no_heavy_modules():
    done = fresh(f"import barychi.cli; {loaded(HEAVY)}")
    assert (done.returncode, done.stderr.split()) == (0, [])


def test_cli_import_loads_neither_json_nor_the_classifier():
    done = fresh(f"import barychi.cli; {loaded(DEFERRED)}")
    assert (done.returncode, done.stderr.split()) == (0, [])


COMPONENTS = ('[{"chi_c":2,"is_compact":true,"singular_indices":[1,3]},'
              '{"chi_c":1,"is_compact":true,"singular_indices":[2]}]')
INSTANCE = '{"chi_c": 2, "weights": ["3/10", "2/5", "3/5"], "rho": "9/2"}'


# Each request, and the deferred modules it loads.
@pytest.mark.parametrize("argv,deferred", [
    (["compute", "--chi-c", "2", "--weights", "3/10,2/5,3/5", "--rho", "9/2"], []),
    (["series", "--chi-c", "-1", "--weights", "1/3,1/2", "--rho", "5/2"], []),
    (["oracle", "--vertices", "3", "--weights", "1/2", "--rho", "2"], []),
    (["classify", "--chi-c", "2", "--weights", "1/2", "--rho", "3/2"], ["barychi.classifier"]),
    (["compute", "--chi-c", "2", "--weights", "1/2,1/3", "--rho", "2", "--json"], ["json"]),
    (["compute", "--chi-c", "3", "--weights", "7/5,3/10,2/5", "--rho", "5/2",
      "--components", COMPONENTS], ["json"]),
    (["compute", "--instance", "FILE"], ["json"]),
    (["classify", "--chi-c", "2", "--weights", "1/2", "--rho", "3/2", "--json"],
     ["json", "barychi.classifier"]),
    (["oracle", "--vertices", "3", "--weights", "1/2", "--rho", "2", "--json"], ["json"]),
], ids=["compute", "series", "oracle", "classify", "compute-json", "compute-components",
        "compute-instance", "classify-json", "oracle-json"])
def test_a_request_prints_in_a_new_process_what_it_prints_in_process(
        capsys, tmp_path, argv, deferred):
    document = tmp_path / "instance.json"
    document.write_text(INSTANCE, encoding="utf-8")
    argv = [str(document) if arg == "FILE" else arg for arg in argv]
    want = main(argv), capsys.readouterr().out
    done = fresh(f"from barychi.cli import main; code = main(sys.argv[1:]); "
                 f"{loaded(DEFERRED)}; sys.exit(code)", *argv)
    assert (done.returncode, done.stdout) == want
    assert done.stderr.split() == deferred


def test_the_classifier_loads_on_the_first_read_of_classify():
    done = fresh("import barychi; "
                 "print('barychi.classifier' in sys.modules, hasattr(barychi, 'nothing'), "
                 "'classify' in dir(barychi)); "
                 "classify = barychi.classify; "
                 "print('barychi.classifier' in sys.modules, "
                 "classify is barychi.classifier.classify, 'classify' in vars(barychi)); "
                 "namespace = {}; exec('from barychi import *', namespace); "
                 "print(all(namespace[name] is getattr(barychi, name) "
                 "for name in barychi.__all__))")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split("\n") == ["False False True", "True True True", "True", ""]
