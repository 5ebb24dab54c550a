"""Package surface: every exported name exists."""

import importlib
import pathlib
import re

import pytest

import odelab

MODULES = ["odelab"] + [f"odelab.{m}" for m in odelab.__all__ if m != "__version__"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _readme_citations() -> list:
    """Every `module.name` in README.md whose module is an odelab submodule."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    cited = re.findall(r"`(\w+)\.([\w.]+)`", text)
    return sorted({(mod, name) for mod, name in cited if mod in odelab.__all__})


def test_readme_citations_resolve():
    citations = _readme_citations()
    assert len(citations) >= 12

    def resolves(mod, name):
        obj = importlib.import_module(f"odelab.{mod}")
        for part in name.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    assert [f"{mod}.{name}" for mod, name in citations if not resolves(mod, name)] == []
