"""Package surface: every exported name resolves."""

import importlib

import pytest


def test_package_imports():
    flexwave = importlib.import_module("flexwave")
    assert flexwave.__version__


@pytest.mark.parametrize("module", ["core", "solver", "stability", "theory", "cli"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"flexwave.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
