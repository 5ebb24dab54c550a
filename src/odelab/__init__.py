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
* ``statmodel`` -- observation schemes, KL budgets, testing reductions
  and the pinned minimax rate formulas;
* ``cli`` -- the ``odelab`` command line tool.
"""

from . import flow, geometry, hypotheses, kernels, smoothness, statmodel

__version__ = "0.1.0"

__all__ = [
    "flow",
    "geometry",
    "hypotheses",
    "kernels",
    "smoothness",
    "statmodel",
    "__version__",
]
