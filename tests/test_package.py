"""Package surface: every exported name exists."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

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
    # `rates.csv` names the output file of `odelab rates`, not the module
    return sorted({(mod, name) for mod, name in cited
                   if mod in odelab.__all__ and (mod, name) != ("rates", "csv")})


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


SUBMODULES = [m for m in odelab.__all__ if m != "__version__"]
# one small run of each command; the module sets below are what it must load
_RATES_ONLY = ["cli", "rates"]
_STATMODEL_ONLY = ["cli", "flow", "geometry", "statmodel"]
_NO_STATMODEL = sorted(set(SUBMODULES) - {"statmodel", "rates"} | {"cli"})
COMMANDS = [
    # the rate catalogue is the standard library alone: a scalar, a list and a grid of n
    ("rates", {"beta": 2.0, "n": 1000}, _RATES_ONLY),
    ("rates", {"beta": 2.0, "n": [100, 1000]}, _RATES_ONLY),
    ("rates", {"beta": 2.0, "n": {"start": 1e3, "stop": 1e8, "num": 400}}, _RATES_ONLY),
    ("experiment", {"kl": 0.5, "trials": 100}, _STATMODEL_ONLY),
    ("verify", {"suite": "assumptions", "K_grid": 3}, _STATMODEL_ONLY),
    ("construct", {"construction": "stubble-det", "beta": 1.5}, _NO_STATMODEL),
    ("construct", {"construction": "snake-det", "beta": 2.0, "delta": 0.3}, _NO_STATMODEL),
    ("construct", {"construction": "spiral", "K": 1}, _NO_STATMODEL),
    ("verify", {"suite": "coincidence", "beta": 1.5, "n_points": 5}, _NO_STATMODEL),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "delta": 0.3}, _NO_STATMODEL),
    ("verify", {"suite": "spiral", "K": 1}, _NO_STATMODEL),
    ("verify", {"suite": "smoothness", "beta": 2.0}, _NO_STATMODEL),
    ("verify", {"suite": "symmetry", "beta": 2.0}, _NO_STATMODEL),
    ("verify", {"suite": "gronwall", "beta": 2.0, "trials": 1}, _NO_STATMODEL),
]


def _fresh_process(code: str) -> list:
    """Run ``code`` in a new interpreter; its stdout lines, then its loaded modules."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(odelab.__file__)))
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()


def _submodules(loaded: str) -> list:
    return [m.split(".", 1)[1] for m in loaded.split() if m.startswith("odelab.")]


def test_import_loads_no_submodule_and_no_numpy():
    (loaded,) = _fresh_process("import odelab")
    assert _submodules(loaded) == [] and "numpy" not in loaded.split()


def test_kernels_loads_no_module_above_it():
    # kernels is the bottom layer: its calibration reads nothing from smoothness
    (loaded,) = _fresh_process("from odelab import kernels\nkernels.calibrate_alpha(2.0, 'bump')")
    assert _submodules(loaded) == ["flow", "kernels"]


def _command_id(command: str, payload: dict) -> str:
    words = [payload[k] for k in ("suite", "construction") if k in payload]
    if command == "rates":
        words.append({int: "scalar", list: "list", dict: "grid"}[type(payload["n"])])
    return " ".join([command, *words])


@pytest.mark.parametrize("command,payload,expected", COMMANDS,
                         ids=[_command_id(c, p) for c, p, _ in COMMANDS])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, payload, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    rc, loaded = _fresh_process(f"from odelab import cli\nprint(cli.main({argv!r}))")
    assert rc == "0"
    assert _submodules(loaded) == expected
    assert "numpy.ma" not in loaded.split()  # np.unique and np.union1d would import it
    if expected == _RATES_ONLY:
        assert "numpy" not in loaded.split()


def test_submodules_load_on_first_access():
    code = ("import sys, odelab\nprint(' '.join(dir(odelab)))\n"
            f"print(all(getattr(odelab, m) is sys.modules['odelab.' + m] for m in {SUBMODULES}))\n"
            "from odelab import flow\nprint(flow is odelab.flow)")
    names, accessed, from_import, loaded = _fresh_process(code)
    assert set(SUBMODULES) <= set(names.split()) and "ConstructionError" in names.split()
    assert accessed == from_import == "True"
    assert _submodules(loaded) == sorted(SUBMODULES)
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        odelab.nonexistent


@pytest.mark.parametrize("module,name", [
    ("hypotheses", "ClassTooTight"), ("hypotheses", "DimensionTooSmall"),
    ("hypotheses", "DeltaTooLarge"), ("hypotheses", "DeltaTooSmall"),
    ("kernels", "CalibrationFailed"), ("smoothness", "SlopeOutOfRange"),
    ("statmodel", "RadiusOutOfRange"),
])
def test_construction_guards_share_one_base(module, name):
    # cli.main catches this one class, so it needs no module loaded to name the guards
    guard = getattr(importlib.import_module(f"odelab.{module}"), name)
    assert issubclass(guard, odelab.ConstructionError)
