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

Derivatives of K of any order have the closed form

    K^(j)(w) = K(w) * P_j(w) / (1 - w^2)^(2j)

with polynomials P_j satisfying P_0 = 1 and

    P_{j+1} = -2 w P_j + (1 - w^2)^2 P_j' + 4 j w (1 - w^2) P_j,

which :func:`standard_kernel_deriv` evaluates exactly (no finite
differences), up to the order needed anywhere in this package.

All evaluators accept a single point ``(d,)`` or a batch ``(..., d)`` and
return a scalar / matching batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "CalibrationFailed",
    "InvalidOffset",
    "KernelSpec",
    "ScaledField",
    "standard_kernel",
    "standard_kernel_deriv",
    "periodic_kernel",
    "periodic_kernel_deriv",
    "bump_eval",
    "pulse_eval",
    "kernel_shape_eval",
    "calibrate_alpha",
    "r_max",
    "shape_deriv_supnorm",
    "sup_abs_kernel_deriv",
]

MAX_DERIV_ORDER = 6


class CalibrationFailed(Exception):
    """No alpha on the search grid passed smoothness certification."""


class InvalidOffset(Exception):
    """|b| >= L_0 leaves no sup-norm headroom for the perturbation."""


@functools.lru_cache(maxsize=None)
def _deriv_coef(order: int) -> tuple:
    """Coefficients of P_order, lowest degree first."""
    w = Polynomial([0.0, 1.0])
    one_minus_w2 = Polynomial([1.0, 0.0, -1.0])
    p = Polynomial([1.0])
    for j in range(order):
        p = -2 * w * p + p.deriv() * one_minus_w2**2 + (4 * j) * w * one_minus_w2 * p
    return tuple(p.coef.tolist())


def standard_kernel(w):
    """K(w) = exp(-1/(1-w^2)) on (-1, 1), exactly 0 elsewhere.

    Total on R; works on scalars and arrays.
    """
    return standard_kernel_deriv(w, 0)


def standard_kernel_deriv(w, order: int):
    """Exact order-th derivative of the standard kernel (order <= 6)."""
    if not 0 <= order <= MAX_DERIV_ORDER:
        raise ValueError(f"derivative order {order} outside 0..{MAX_DERIV_ORDER}")
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    t = 1.0 - w * w
    # exp(-1/t) underflows to an exact 0 long before the rational factor
    # can blow up, but evaluate through the log to avoid 0*inf at the edge.
    inside = t > 1e-12
    everywhere = bool(inside.all())
    ti, wi = (t, w) if everywhere else (t[inside], w[inside])
    if order == 0:
        vals = np.exp(-1.0 / ti)
    else:
        vals = np.exp(-1.0 / ti - (2 * order) * np.log(ti))
        # Horner in numpy's polyval order: bitwise equal to Polynomial(P_j)(w)
        coef = _deriv_coef(order)
        poly = coef[-1]
        for c in coef[-2::-1]:
            poly = poly * wi + c
        vals = vals * poly
    out = vals if everywhere else np.zeros_like(w)
    if not everywhere:
        out[inside] = vals
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


@functools.lru_cache(maxsize=None)
def sup_abs_kernel_deriv(order: int) -> float:
    """max |K^(order)| on [-1, 1], by grid search with one refinement."""
    w = np.linspace(-1.0, 1.0, 40001)
    vals = np.abs(standard_kernel_deriv(w, order))
    i = int(np.argmax(vals))
    lo, hi = w[max(i - 1, 0)], w[min(i + 1, len(w) - 1)]
    w2 = np.linspace(lo, hi, 20001)
    return float(max(vals[i], np.abs(standard_kernel_deriv(w2, order)).max()))


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


def bump_eval(spec: KernelSpec, x):
    """alpha * K(||x||): radial, C^infinity, support the closed unit ball."""
    if spec.kind != "bump":
        raise ValueError("bump_eval needs a bump KernelSpec")
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(np.atleast_1d(x), axis=-1) if x.ndim else np.abs(x)
    return spec.alpha * standard_kernel(nrm)


def pulse_eval(spec: KernelSpec, x):
    """(alpha K)(||x||) * (alpha K)'(x_1): odd in x_1, zero at x_1 = 0."""
    if spec.kind != "pulse":
        raise ValueError("pulse_eval needs a pulse KernelSpec")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nrm = np.linalg.norm(x, axis=-1)
    first = x[..., 0]
    val = np.asarray(
        (spec.alpha * standard_kernel(nrm))
        * (spec.alpha * standard_kernel_deriv(first, 1))
    )
    return float(val) if val.ndim == 0 else val


def kernel_shape_eval(spec: KernelSpec, x):
    """Dispatch on spec.kind."""
    return bump_eval(spec, x) if spec.kind == "bump" else pulse_eval(spec, x)


@dataclass(frozen=True)
class ScaledField:
    """Scalar perturbation x -> L r^beta h((x - z)/r) + b.

    Vanishes (equals b) outside the closed ball B(z, r).  Which output
    coordinate of a vector field it perturbs is the caller's choice.
    """

    kernel: KernelSpec
    center: tuple
    radius: float
    amplitude: float
    offset: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be > 0")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        z = np.asarray(self.center, dtype=float)
        w = (x - z) / self.radius
        scale = self.amplitude * self.radius**self.kernel.beta
        return scale * kernel_shape_eval(self.kernel, w) + self.offset

    __call__ = evaluate


@functools.lru_cache(maxsize=None)
def calibrate_alpha(beta: float, dim: int, kind: str) -> float:
    """Largest alpha in {2^-k} whose shape certifies into the unit class.

    The certification is the finite-difference membership check of
    :func:`odelab.smoothness.certify_membership` against
    Sigma^{dim->1}(beta, 1, ..., 1); deterministic for fixed arguments.
    """
    from . import smoothness  # deferred: smoothness imports this module

    if beta <= 1:
        raise ValueError("beta must be > 1")
    ell = smoothness.strict_floor(beta)
    cls = smoothness.SmoothnessClass(
        beta=beta, L=(1.0,) * (ell + 1), L_beta=1.0, dim_in=dim, dim_out=1
    )
    region = [(-1.0, 1.0)] * dim
    for k in range(0, 40):
        spec = KernelSpec(beta=beta, alpha=2.0**-k, kind=kind, dim=dim)
        report = smoothness.certify_membership(
            lambda pts: kernel_shape_eval(spec, pts), cls, region
        )
        if report.passed:
            return spec.alpha
    raise CalibrationFailed(f"no alpha in 2^-0..2^-39 certifies ({beta=}, {dim=}, {kind=})")


@functools.lru_cache(maxsize=None)
def shape_deriv_supnorm(spec: KernelSpec, order: int) -> float:
    """Measured sup of |D^order h| for the unit shape (batch FD machinery)."""
    from . import smoothness

    region = [(-1.0, 1.0)] * spec.dim
    return smoothness.derivative_supnorm(
        lambda pts: kernel_shape_eval(spec, pts), order, region
    )


def r_max(beta: float, L, L_beta: float, kernel: KernelSpec, b: float = 0.0) -> float:
    """Largest admissible scaling radius for the perturbation x -> L_beta r^beta h((x-z)/r) + b.

    min over k = 0..ell of ((L_k - |b|*[k==0]) / (L_beta ||D^k h||_inf))^(1/(beta-k)),
    with the derivative sup-norms measured by finite differences.
    """
    L = tuple(float(v) for v in L)
    if abs(b) >= L[0]:
        raise InvalidOffset(f"|b| = {abs(b)} >= L_0 = {L[0]}")
    terms = []
    for k in range(len(L)):
        head = L[k] - (abs(b) if k == 0 else 0.0)
        sup = shape_deriv_supnorm(kernel, k)
        if sup <= 0:
            continue  # derivative vanishes identically: no constraint
        terms.append((head / (L_beta * sup)) ** (1.0 / (beta - k)))
    return min(terms)
