"""Compactly supported smooth reference kernels.

Everything here is built from the classical mollifier kernel

    K(w) = exp(-1 / (1 - w^2))   for |w| < 1,      0 otherwise,

which is C^infinity on all of R with support exactly [-1, 1].  Two shapes
on R^d are derived from it:

* ``bump``  -- the radial function  alpha * K(||x||),
* ``pulse`` -- the separable product  (alpha*K)(||x||) * (alpha*K)'(x_1),
  which is antisymmetric in the first coordinate and vanishes on the
  hyperplane x_1 = 0,

where ``alpha`` is a calibration constant chosen so that the shape sits
inside the unit smoothness ball of its class (:func:`calibrate_alpha`).
Calibration reads upper bounds on the class constants of the alpha = 1
shape from the closed-form derivatives below, once per (beta, kind) and
for every dim, and scales them by alpha (bump) or alpha^2 (pulse); no
finite difference is taken.

Derivatives of K of any order have the closed form

    K^(j)(w) = K(w) * P_j(w) / (1 - w^2)^(2j)

with polynomials P_j satisfying P_0 = 1 and

    P_{j+1} = -2 w P_j + (1 - w^2)^2 P_j' + 4 j w (1 - w^2) P_j,

which :func:`_kernel_core` evaluates exactly (no finite differences), up
to the order needed anywhere in this package; it is the formula's one
home.  :func:`standard_kernel_deriv` masks the points outside (-1, 1)
before calling it, and :func:`kernel_shape_eval` tests the unit ball once
per call and evaluates both factors of a shape through it.

All evaluators accept a single point ``(d,)`` or a batch ``(..., d)`` and
return a scalar / matching batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ConstructionError
from .flow import _row_sumsq

__all__ = [
    "CalibrationFailed",
    "KernelSpec",
    "standard_kernel",
    "standard_kernel_deriv",
    "periodic_kernel",
    "periodic_kernel_deriv",
    "kernel_shape_eval",
    "calibrate_alpha",
    "r_max",
    "shape_deriv_supnorm",
    "K_SUP",
    "K1_ARGMAX",
    "K1_SUP",
]

MAX_DERIV_ORDER = 8
MEMBERSHIP_SLACK = 0.05  # relative slack on the Hölder limit of smoothness.certify_membership
# K and its derivatives are taken as exactly 0 where 1 - w^2 <= _EDGE.
_EDGE = 1e-12


class CalibrationFailed(ConstructionError):
    """No alpha on the search grid fits the unit class."""


@functools.lru_cache(maxsize=None)
def _deriv_coef(order: int) -> tuple:
    """Coefficients of P_order, lowest degree first: exact integers, returned as floats."""
    p = [1]
    for j in range(order):
        # -2 w P + 4j (w - w^3) P + (1 - 2 w^2 + w^4) P' by coefficient (k = 0 adds 0 to q[-1])
        q = [0] * (len(p) + 3)
        for k, c in enumerate(p):
            for shift, s in ((1, 4 * j - 2), (3, -4 * j), (-1, k), (1, -2 * k), (3, k)):
                q[k + shift] += s * c
        p = q[:max(k for k, c in enumerate(q) if c) + 1]  # drop zero top coefficients
    return tuple(float(c) for c in p)


def standard_kernel(w):
    """K(w) = exp(-1/(1-w^2)) on (-1, 1), exactly 0 elsewhere.

    Total on R; works on scalars and arrays.
    """
    return standard_kernel_deriv(w, 0)


def _kernel_core(t, w, order: int):
    """K^(order)(w) = K(w) P_order(w) / t^(2 order) at points with t = 1 - w^2 > 1e-12.

    The package's one copy of the formula, for arrays t and w of one shape
    (w is not read at order 0); it tests no point, so its callers mask.
    exp(-1/t) underflows to an exact 0 long before the rational factor can
    blow up, but the factor goes through the log to avoid 0*inf near the edge.
    """
    if order == 0:
        return np.exp(-1.0 / t)
    vals = np.exp(-1.0 / t - (2 * order) * np.log(t))
    # Horner in numpy's polyval order: bitwise equal to Polynomial(P_j)(w)
    coef = _deriv_coef(order)
    poly = coef[-1]
    for c in coef[-2::-1]:
        poly = poly * w + c
    return vals * poly


def standard_kernel_deriv(w, order: int):
    """Exact order-th derivative of the standard kernel (order <= 8).

    :func:`_kernel_core` where 1 - w^2 > 1e-12, an exact 0 elsewhere.
    """
    if not 0 <= order <= MAX_DERIV_ORDER:
        raise ValueError(f"derivative order {order} outside 0..{MAX_DERIV_ORDER}")
    scalar = np.ndim(w) == 0
    w = np.atleast_1d(np.asarray(w, dtype=float))
    t = 1.0 - w * w
    inside = t > _EDGE
    n_inside = np.count_nonzero(inside)
    if not n_inside:  # no point inside: nothing to evaluate
        return 0.0 if scalar else np.zeros_like(w)
    if n_inside == inside.size:
        out = _kernel_core(t, w, order)
    else:
        out = np.zeros_like(w)
        out[inside] = _kernel_core(t[inside], w[inside], order)
    return float(out[0]) if scalar else out


def periodic_kernel(x):
    """1-periodic bump: K restricted to (0, 1) via w = 2u - 1, then tiled."""
    return periodic_kernel_deriv(x, 0)


def periodic_kernel_deriv(x, order: int):
    """Exact order-th derivative of the periodicized kernel."""
    x = np.asarray(x, dtype=float)
    u = x - np.floor(x)
    vals = standard_kernel_deriv(2.0 * u - 1.0, order)
    return (2.0**order) * vals if order else vals


# sup K = K(0) = e^-1.  K'' = K P_2 / (1 - w^2)^4 with P_2 = 6 w^4 - 2, so |K'| peaks
# where 3 w^4 = 1, and sup |K_per'| = 2 K1_SUP at (1 + K1_ARGMAX)/2, bit for bit.
K_SUP = math.exp(-1.0)
K1_ARGMAX = 3.0**-0.25
K1_SUP = abs(standard_kernel_deriv(K1_ARGMAX, 1))


@dataclass(frozen=True)
class KernelSpec:
    """A calibrated kernel shape on R^dim.

    beta is the smoothness order the calibration targeted; alpha the
    calibration scale; kind one of {"bump", "pulse"}.
    """

    beta: float
    alpha: float
    kind: str
    dim: int

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must be > 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.kind not in ("bump", "pulse"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def kernel_shape_eval(spec: KernelSpec, w):
    """The unit shape h of ``spec`` at w: a point (dim,) gives a float, a batch (..., dim) values.

    * bump: alpha K(||w||), radial and C^infinity, support the closed unit ball;
    * pulse: (alpha K)(||w||) (alpha K)'(w_1), odd in w_1 and zero at w_1 = 0.
      The ball is tested once, on t = 1 - ||w||^2, and both factors are
      :func:`_kernel_core` on the points inside; elsewhere h is an unsigned 0.
      Bitwise the product of :func:`standard_kernel` and
      :func:`standard_kernel_deriv` on those points: fl(w_1^2) <= fl(||w||^2)
      in floating point too (the row sum adds squares >= 0 and sqrt(fl(x^2))
      = |x| in binary), so 1 - w_1^2 >= t passes the edge test wherever t does.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    nrm = np.sqrt(_row_sumsq(w)).reshape(-1)
    t = 1.0 - nrm * nrm
    val = np.zeros(nrm.shape)
    live = (t > _EDGE).nonzero()[0]
    if len(live):
        h = spec.alpha * _kernel_core(t[live], None, 0)
        if spec.kind == "pulse":
            w1 = w[..., 0].reshape(-1)[live]
            h = h * (spec.alpha * _kernel_core(1.0 - w1 * w1, w1, 1))
        val[live] = h
    return float(val[0]) if w.ndim == 1 else val.reshape(w.shape[:-1])


def _grid_sup_bounds(maxima, above, D: float) -> list:
    """[B_0, ..., B_{n+2}]: bounds on sup |f^(k)| from maxima[k] = max |f^(k)|, k = 0..n.

    The grid has spacing <= D and holds the ends of the domain or of one period; above
    bounds sup |f^(n+1)| and sup |f^(n+2)|.  |f^(k)| peaks at an end or where f^(k+1) = 0,
    within D/2 of a grid point, so B_k = max_k + (D^2/8) B_{k+2}, read down from the top.
    """
    B = [float(v) for v in (*maxima, *above)]
    for k in range(len(maxima) - 1, -1, -1):
        B[k] += D * D / 8.0 * B[k + 2]
    return B


@functools.lru_cache(maxsize=None)
def _periodic_grid(order: int) -> np.ndarray:
    """K_per^(order) on the 40,001-point grid of one period (cached, read-only)."""
    vals = periodic_kernel_deriv(np.linspace(0.0, 1.0, 40001), order)
    vals.setflags(write=False)
    return vals


@functools.lru_cache(maxsize=None)
def _kernel_sup_bounds(top: int) -> tuple:
    """Upper bounds on sup |K^(j)|, j = 0..top + 2: K_SUP, K1_SUP, then :func:`_grid_sup_bounds`.

    Orders 2..top read the grids of :func:`_periodic_grid` (D = 5e-5 in w); top + 1 and
    top + 2 are |K^(j)| <= (2j/e)^(2j) max |P_j| (e^(-1/t) t^(-2j) peaks at t = 1/(2j)),
    max |P_j| by the same rule on 8,001 points from sup |P_j''| <= sum_i i (i - 1) |c_i|.
    Orders <= 6 read at depth top <= 4, or two below top, are within 1e-3 of the grid's.
    """
    closed = []
    for j in (top + 1, top + 2):
        c = _deriv_coef(j)
        P = _grid_sup_bounds([np.abs(np.polyval(c[::-1], np.linspace(-1.0, 1.0, 8001))).max()],
                             [math.inf, sum(i * (i - 1) * abs(v) for i, v in enumerate(c))], 2.5e-4)
        closed.append((2 * j / math.e) ** (2 * j) * P[0])
    grid = [float(np.abs(_periodic_grid(j)).max()) / 2.0**j for j in range(2, top + 1)]
    return (K_SUP, K1_SUP, *_grid_sup_bounds(grid, closed, 5e-5))


@functools.lru_cache(maxsize=None)
def _unit_bounds(beta: float, kind: str) -> tuple:
    """((M_0, ..., M_ell), H): upper bounds on the class constants of the alpha = 1 shape.

    D_v^k K(|x|) peaks on the line through 0 (a test certifies it on a grid of
    |x| and x.v), so the bump's M_k is sup |K^(k)| at every dim; the pulse's is
    the Leibniz sum_i C(k, i) M_{k-i} sup |K^(1+i)|.  H = (2 M_ell)^(1-gamma)
    M_{ell+1}^gamma, gamma = beta - ell, bounds the Hölder seminorm of D^ell.
    """
    if kind not in ("bump", "pulse"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    ell = math.ceil(beta) - 1  # smoothness.strict_floor
    n = ell + 1 if kind == "bump" else ell + 2  # the highest order of K read
    K = _kernel_sup_bounds(n if n <= 4 else n + 2)
    M = K if kind == "bump" else [
        sum(math.comb(k, i) * K[k - i] * K[1 + i] for i in range(k + 1)) for k in range(ell + 2)]
    gamma = beta - ell
    return tuple(M[:ell + 1]), (2.0 * M[ell]) ** (1.0 - gamma) * M[ell + 1] ** gamma


def calibrate_alpha(beta: float, kind: str) -> float:
    """Largest alpha in {2^-k} whose shape's bounds (:func:`_unit_bounds` times alpha, or
    alpha^2 for the pulse; the same at every dim) meet the certifier's unit class limits."""
    if beta <= 1:
        raise ValueError("beta must be > 1")
    sups, holder = _unit_bounds(beta, kind)
    power = 2 if kind == "pulse" else 1
    for k in range(0, 40):
        scale = 2.0 ** (-k * power)
        if scale * max(sups) <= 1.0 and scale * holder <= 1.0 + MEMBERSHIP_SLACK:
            return 2.0**-k
    raise CalibrationFailed(f"no alpha in 2^-0..2^-39 fits ({beta=}, {kind=})")


def shape_deriv_supnorm(spec: KernelSpec, order: int) -> float:
    """Upper bound on sup |D^order h|, order <= strict_floor(beta): alpha or alpha^2 times
    the alpha = 1 bound of :func:`_unit_bounds`."""
    scale = spec.alpha**2 if spec.kind == "pulse" else spec.alpha
    return scale * _unit_bounds(spec.beta, spec.kind)[0][order]


def r_max(beta: float, L, L_beta: float, kernel: KernelSpec) -> float:
    """Largest admissible scaling radius for the perturbation x -> L_beta r^beta h((x-z)/r).

    min over k = 0..ell of (L_k / (L_beta ||D^k h||_inf))^(1/(beta-k)), with
    the sup-norms the (positive) upper bounds of :func:`shape_deriv_supnorm`.
    """
    return min((float(head) / (L_beta * shape_deriv_supnorm(kernel, k))) ** (1.0 / (beta - k))
               for k, head in enumerate(L))
