"""Package surface: every exported name resolves, and importing the package
stays cheap."""

import importlib
import json

import pytest


def test_package_imports():
    flexwave = importlib.import_module("flexwave")
    assert flexwave.__version__


@pytest.mark.parametrize("module", ["core", "solver", "stability", "theory", "cli"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"flexwave.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_import_loads_no_scipy(fresh_python):
    # scipy.linalg (with numpy.testing and numpy.f2py, which it pulls in)
    # costs about 0.4 s per process; only the QZ fallback may load it
    loaded = fresh_python(
        "import json, sys, flexwave, flexwave.cli\n"
        "heavy = ('scipy', 'numpy.testing', 'numpy.f2py')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in heavy or m.startswith('scipy.'))))"
    )
    assert json.loads(loaded) == []
