"""The package's lazy exports: each public name is listed once, resolves
to its home module's object, and loading one submodule loads no other
that it does not import.

The ``sys.modules`` checks run in a fresh interpreter, since the test
session has long since imported every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxgap

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(code):
    """The proxgap submodules a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('proxgap.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import proxgap", {"proxgap.catalog", "proxgap.core", "proxgap.cli"}),
        (
            "import proxgap.catalog",
            {"proxgap.analysis", "proxgap.cyclic", "proxgap.oracle", "proxgap.verify"}
            | {"proxgap.serialize", "proxgap.cli"},
        ),
        ("import proxgap.verify", {"proxgap.analysis", "proxgap.cyclic"}),
        (
            "from proxgap import cli\n"
            "cli.main(['eval', '--spec', 'burg', '--x', '1', '--xstar', '-1', '--gamma', '1'])",
            {"proxgap.analysis", "proxgap.cyclic", "proxgap.oracle", "proxgap.verify"},
        ),
    ],
    ids=["package", "catalog", "verify", "cli-eval"],
)
def test_imports_load_only_what_they_use(code, absent):
    loaded = _loaded_after(code)
    assert loaded & absent == set()


def test_one_public_name_loads_its_home_module():
    loaded = _loaded_after("import proxgap\nproxgap.make_burg")
    assert loaded == {"proxgap.catalog", "proxgap.core", "proxgap.lambertw"}


def test_all_names_resolve_once():
    names = proxgap.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(proxgap, name)]
    assert missing == []


def test_each_name_is_its_home_modules_object():
    assert proxgap.bound_report is proxgap.bounds.bound_report
    for name in proxgap.__all__:
        home = importlib.import_module(f"proxgap.{proxgap._HOME[name]}")
        assert getattr(proxgap, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from proxgap import *", namespace)
    assert set(proxgap.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(proxgap, name) for name in proxgap.__all__)


def test_dir_covers_all():
    assert set(proxgap.__all__) <= set(dir(proxgap))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        proxgap.no_such_name


def test_from_import_of_a_submodule_returns_the_module():
    from proxgap import analysis

    assert analysis is sys.modules["proxgap.analysis"]
    assert analysis.gamma_sweep is proxgap.gamma_sweep
    code = "from proxgap import analysis\nassert analysis.__name__ == 'proxgap.analysis'"
    assert "proxgap.analysis" in _loaded_after(code)
