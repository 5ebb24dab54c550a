"""Package surface: every exported name exists."""

import importlib

import pytest

import odelab

MODULES = ["odelab"] + [f"odelab.{m}" for m in odelab.__all__ if m != "__version__"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
