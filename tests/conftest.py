"""Shared fixtures: branches are expensive, so they are computed once per
session and memoized by parameter set."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flexwave.core import INFINITE_DEPTH, IceModel, PhysicalParams
from flexwave.solver import SolverConfig, continue_branch


@pytest.fixture(scope="session")
def branch_cache():
    cache = {}

    def get(d, model, a1_max, h=INFINITE_DEPTH, n_modes=16, step=2e-3):
        key = (d, model, a1_max, h, n_modes, step)
        if key not in cache:
            params = PhysicalParams(h=h, D=d)
            config = SolverConfig(n_modes=n_modes, amplitude_step=step)
            cache[key] = continue_branch(params, model, a1_max, config)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def small_wave_d001(branch_cache):
    """Converged small-amplitude wave at D=0.01, deep water, linear model."""
    branch = branch_cache(0.01, IceModel.LINEAR_BIHARMONIC, 0.01)
    return branch.points[-1]


@pytest.fixture(scope="session")
def checkout_python():
    """Runs a new interpreter, with the given arguments, that imports
    flexwave from this checkout, and returns the completed process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)

    return run


@pytest.fixture(scope="session")
def fresh_python(checkout_python):
    """Runs a Python snippet in a new interpreter that imports flexwave from
    this checkout, and returns its stdout; a failing snippet fails the test."""

    def run(code: str, *args: str) -> str:
        proc = checkout_python("-c", code, *args)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
