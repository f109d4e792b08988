"""The package's public names: ``__all__`` lists each bound name once, and
importing the package or the CLI loads only what is used."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import hypersplit

SRC = str(Path(hypersplit.__file__).parents[1])


def test_all_is_every_public_name_once():
    exported = hypersplit.__all__
    for name in exported:  # names are bound on first access
        getattr(hypersplit, name)
    assert len(exported) == len(set(exported))
    bound = {
        name for name, value in vars(hypersplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter and return what it printed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(run.stdout)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'hypersplit')))"


def test_importing_the_cli_loads_only_errors():
    loaded = _fresh(f"import json, sys\nimport hypersplit.cli\n{LOADED}")
    assert loaded == ["hypersplit", "hypersplit.cli", "hypersplit.errors"]


def _loaded_by(argv: list[str]) -> set[str]:
    code = (f"import contextlib, io, json, sys\nfrom hypersplit.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(sys.argv[1:])\nassert code == 0, code\n{LOADED}")
    return set(_fresh(code, *argv))


def test_conn_loads_no_reduction_splitoff_or_oracle(tmp_path):
    path = tmp_path / "tri.he"
    path.write_text("a b\nb c\na c\n")
    loaded = _loaded_by(["conn", str(path), "-u", "a", "-v", "c"])
    assert "hypersplit.flow" in loaded
    assert not loaded & {"hypersplit.reduction", "hypersplit.splitoff", "hypersplit.oracle"}


def test_split_loads_no_oracle(tmp_path):
    path = tmp_path / "star.he"
    path.write_text("s a\ns b\n")
    loaded = _loaded_by(["split", str(path), "-s", "s"])
    assert "hypersplit.splitoff" in loaded
    assert "hypersplit.oracle" not in loaded


def test_a_submodule_resolves_without_an_import():
    code = "import json, hypersplit\nprint(json.dumps(hypersplit.flow.__name__))"
    assert _fresh(code) == "hypersplit.flow"


def test_star_import_binds_every_name_from_its_home_module():
    code = (
        "import importlib, json\nfrom hypersplit import *\nimport hypersplit\n"
        "home = lambda n: importlib.import_module('hypersplit.' + hypersplit._HOME_OF[n])\n"
        "print(json.dumps({n: n in globals() and globals()[n] is getattr(home(n), n)"
        " for n in hypersplit.__all__}))"
    )
    same = _fresh(code)
    assert list(same) == hypersplit.__all__
    assert all(same.values())
    assert {"ConnTable", "flow", "cli"} <= set(dir(hypersplit))
