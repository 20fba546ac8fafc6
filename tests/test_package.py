"""Package surface: importing the package stays cheap, and it sets the
BLAS thread default."""

import importlib
import json

import pytest


def test_package_imports():
    flexwave = importlib.import_module("flexwave")
    assert flexwave.__version__


def test_import_loads_no_scipy(fresh_python):
    # scipy.linalg (with numpy.testing and numpy.f2py, which it pulls in)
    # costs about 0.4 s per process; only the QZ fallback may load it
    loaded = fresh_python(
        "import json, sys, flexwave, flexwave.cli\n"
        "heavy = ('scipy', 'numpy.testing', 'numpy.f2py')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in heavy or m.startswith('scipy.'))))"
    )
    assert json.loads(loaded) == []


def test_every_command_runs_without_scipy(fresh_python, tmp_path):
    # numpy is the only runtime dependency; scipy serves the QZ reference of
    # the tests alone
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # every import of scipy now fails\n"
        "from flexwave.cli import main\n"
        "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
        "print(json.dumps({cmd: main([cmd, *argv, '--out', f'{out}/{cmd}']) for cmd, argv in runs.items()}))"
    )
    branch = ["--model", "linear", "--modes", "8", "--a1-max", "0.002"]
    runs = {
        "dispersion": [],
        "nls": [],
        "resonance": [],
        "collisions": ["--m-range", "2"],
        "branch": branch,
        "stability": [*branch, "--mu-count", "3"],
        "compare": ["--D", "0.01", *branch, "--mu-count", "3"],
    }
    assert list(runs) == list(importlib.import_module("flexwave.cli").COMMANDS)
    codes = json.loads(fresh_python(code, str(tmp_path), json.dumps(runs)))
    assert codes == dict.fromkeys(runs, 0)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env_after_import(fresh_python, module, preset):
    """The three thread variables after `import module` in a new interpreter
    whose environment holds only `preset` of them; numpy is not loaded yet,
    as when the `flexwave` command starts."""
    code = (
        "import importlib, json, os, sys\n"
        f"names = {BLAS_THREAD_VARS!r}\n"
        "for name in names:\n"
        "    os.environ.pop(name, None)\n"
        "os.environ.update(json.loads(sys.argv[1]))\n"
        "assert 'numpy' not in sys.modules\n"
        "importlib.import_module(sys.argv[2])\n"
        "print(json.dumps({name: os.environ.get(name) for name in names}))"
    )
    return json.loads(fresh_python(code, json.dumps(preset), module))


@pytest.mark.parametrize("module", ["flexwave", "flexwave.cli"])
@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": ""}], ids=["unset", "empty"])
def test_import_defaults_to_one_blas_thread(fresh_python, module, preset):
    assert blas_env_after_import(fresh_python, module, preset) == dict.fromkeys(BLAS_THREAD_VARS, "1")


@pytest.mark.parametrize("module", ["flexwave", "flexwave.cli"])
@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_caller_thread_count_is_left_as_given(fresh_python, module, name):
    expected = dict.fromkeys(BLAS_THREAD_VARS) | {name: "2"}
    assert blas_env_after_import(fresh_python, module, {name: "2"}) == expected


def test_package_import_loads_no_numpy_and_sets_the_blas_default(fresh_python):
    # the package holds the thread rule and re-exports nothing, so importing
    # it sets the default without loading numpy
    code = (
        "import json, os, sys\n"
        f"names = {BLAS_THREAD_VARS!r}\n"
        "for name in names:\n"
        "    os.environ.pop(name, None)\n"
        "import flexwave\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'env': {name: os.environ.get(name) for name in names}}))"
    )
    loaded = json.loads(fresh_python(code))
    assert loaded == {"numpy": False, "env": dict.fromkeys(BLAS_THREAD_VARS, "1")}


def test_import_neither_freezes_the_gc_nor_builds_tables(fresh_python):
    # the exit path freezes the GC only after a run, and the Newton tables
    # are built by the first solve that needs them
    code = (
        "import gc, json, flexwave.cli\n"
        "from flexwave import core, solver\n"
        "print(json.dumps([gc.get_freeze_count(), solver._trig_tables.cache_info().currsize,"
        " core._derivative_factors.cache_info().currsize]))"
    )
    assert json.loads(fresh_python(code)) == [0, 0, 0]
