"""Numerical laboratory for minimax lower bounds in nonparametric ODE regression.

Submodules:

* ``kernels`` -- the standard compactly supported kernel, its exact
  derivatives, periodic/bump/pulse shapes and radius calibration;
* ``smoothness`` -- anisotropic Hölder classes, numerical membership
  certification, Faà di Bruno machinery, the chain-remainder field;
* ``flow`` -- adaptive Runge-Kutta flows with dense output and the
  semigroup check;
* ``hypotheses`` -- the adversarial pair/family constructions;
* ``geometry`` -- trajectory tubes, coverings, packings, codebooks;
* ``statmodel`` -- observation schemes, KL budgets, the master radius and
  the Le Cam two-point reduction;
* ``rates`` -- the pinned minimax rate formulas, on the standard library
  alone;
* ``cli`` -- the ``odelab`` command line tool.

``import odelab`` loads none of them, nor numpy: each is imported on first
use (``odelab.flow``, ``from odelab import flow``), so a process compiles
and runs only the modules it calls.  Every guard that refuses to build a
construction from its constants is a :class:`ConstructionError` (exit 2), and
``MAX_LATTICE`` caps the points of one lattice.
"""

__version__ = "0.1.0"

__all__ = [
    "flow",
    "geometry",
    "hypotheses",
    "kernels",
    "rates",
    "smoothness",
    "statmodel",
    "__version__",
]


class ConstructionError(Exception):
    """The constants leave no object of the requested construction to build."""


# points of one lattice: snake-det starts or bump centers (1,331 is the largest tested),
# or the CLI's assumptions K_grid, coincidence n_points or rates grid num
MAX_LATTICE = 10**5


def __getattr__(name: str):
    if name in __all__:  # a submodule: importing it also binds it here
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
