"""Hölder-type smoothness classes and numerical membership certification.

A class Sigma^{d_in -> d_out}(beta; L_0..L_ell, L_beta) collects fields whose
derivative sup-norms up to order ell stay below the L_k and whose order-ell
derivative is (beta - ell)-Hölder with constant L_beta.  Here ell is the
largest integer *strictly* below beta (so ell = beta - 1 at integer beta);
use :func:`strict_floor`, never ``math.floor``.

Certification is finite-difference based and therefore a numerical check,
not a proof: central difference stencils of order k are convex averages of
the true k-th derivative, so measured sup-norms never overshoot the truth
(up to O(h^2) Taylor error), and the Hölder quotient check carries an
explicit 5% slack.

Also here: set partitions and the Faà di Bruno composition-derivative
formula (used to differentiate the chain-remainder construction), and the
chain-remainder field itself, s(x) = (2/3) L0 g'(g^{-1}(x)) for a
periodically perturbed identity g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import flow, kernels
from .geometry import _as_region, halton

__all__ = [
    "TooLarge",
    "SlopeOutOfRange",
    "strict_floor",
    "SmoothnessClass",
    "Partition",
    "enumerate_partitions",
    "faa_di_bruno",
    "derivative_supnorm",
    "holder_quotient",
    "certify_membership",
    "CertificationReport",
    "chain_remainder_field",
    "chain_remainder_jet",
    "periodic_sup",
]

MAX_PARTITION_ORDER = 8
MAX_SUPNORM_ORDER = 4
MEMBERSHIP_SLACK = 0.05


class TooLarge(Exception):
    """Partition order beyond the combinatorial guard (k > 8)."""


class SlopeOutOfRange(Exception):
    """Periodic perturbation too steep: g' is not pinned inside [1/2, 3/2]."""


def strict_floor(beta: float) -> int:
    """Largest integer strictly less than beta (beta = 2.0 -> 1)."""
    return math.ceil(beta) - 1


@dataclass(frozen=True)
class SmoothnessClass:
    beta: float
    L: tuple
    L_beta: float
    dim_in: int
    dim_out: int

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must be > 1")
        object.__setattr__(self, "L", tuple(float(v) for v in self.L))
        if len(self.L) != strict_floor(self.beta) + 1:
            raise ValueError(
                f"need L_0..L_{strict_floor(self.beta)} for beta={self.beta}, "
                f"got {len(self.L)} constants"
            )
        if any(v <= 0 for v in self.L) or self.L_beta <= 0:
            raise ValueError("all smoothness constants must be positive")
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("dimensions must be >= 1")

    @property
    def ell(self) -> int:
        return len(self.L) - 1


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..k}: disjoint nonempty blocks covering the set."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        all_items = [i for b in self.blocks for i in b]
        if len(all_items) != len(set(all_items)):
            raise ValueError("blocks overlap")
        if any(len(b) == 0 for b in self.blocks):
            raise ValueError("empty block")
        k = len(all_items)
        if set(all_items) != set(range(1, k + 1)):
            raise ValueError("blocks must cover {1..k}")

    @property
    def order(self) -> int:
        return sum(len(b) for b in self.blocks)


def enumerate_partitions(k: int):
    """All set partitions of {1..k}; the count is the k-th Bell number."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_PARTITION_ORDER:
        raise TooLarge(f"k = {k} > {MAX_PARTITION_ORDER}")
    parts = [[[1]]]  # partitions of {1}, as lists of lists
    for item in range(2, k + 1):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append([b + [item] if j == i else list(b) for j, b in enumerate(p)])
            grown.append([list(b) for b in p] + [[item]])
        parts = grown
    return [Partition(tuple(frozenset(b) for b in p)) for p in parts]


def faa_di_bruno(f_derivs, g_derivs, k: int, x: float) -> float:
    """k-th derivative of f o g at x via the partition sum.

    ``f_derivs[j]`` / ``g_derivs[j]`` must evaluate the j-th derivative,
    j = 0..k (index 0 is the function itself).
    """
    if k > MAX_PARTITION_ORDER:
        raise TooLarge(f"k = {k} > {MAX_PARTITION_ORDER}")
    if len(f_derivs) < k + 1 or len(g_derivs) < k + 1:
        raise ValueError("need derivative callables up to order k")
    gx = g_derivs[0](x)
    total = 0.0
    for part in enumerate_partitions(k):
        term = f_derivs[len(part.blocks)](gx)
        for block in part.blocks:
            term *= g_derivs[len(block)](x)
        total += term
    return total


def _scalar_batch(f):
    """Adapt f to map (N, d) -> (N,) float."""

    def call(pts):
        out = np.asarray(f(pts), dtype=float)
        return out.reshape(pts.shape[0])

    return call


def _sample_box(reg: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic mesh (or Halton for d > 3) plus per-axis spacing."""
    d = reg.shape[0]
    widths = reg[:, 1] - reg[:, 0]
    if d <= 3:
        per_axis = max(2, int(round(budget ** (1.0 / d))))
        axes = [np.linspace(reg[i, 0], reg[i, 1], per_axis) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        spacing = widths / (per_axis - 1)
    else:
        pts = reg[:, 0] + halton(budget, d) * widths
        spacing = widths / budget ** (1.0 / d)
    return pts, spacing


def _direction_set(d: int, seed: int, extra: int = 8) -> np.ndarray:
    if d == 1:
        return np.ones((1, 1))
    dirs = [np.eye(d)[i] for i in range(d)]
    dirs.append(np.ones(d) / math.sqrt(d))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(extra, d))
    dirs.extend(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return np.asarray(dirs)


def _directional_fd(fb, pts, v, order: int, h: float) -> np.ndarray:
    """Central stencil for the order-th derivative along v at each point.

    ``v`` is one direction (d,) or one direction per point (N, d).
    """
    if order == 0:
        return fb(pts)
    acc = np.zeros(pts.shape[0])
    for i in range(order + 1):
        coeff = (-1.0) ** i * math.comb(order, i)
        offset = (order / 2.0 - i) * h
        acc += coeff * fb(pts + offset * v)
    return acc / h**order


def derivative_supnorm(f, order: int, region, *, budget: int = 4096, seed: int = 0) -> float:
    """Estimated sup over the region of the order-th derivative's norm.

    Directional finite differences (central stencils, step 10^{-3/order}
    times the region diameter) maximized over a deterministic point mesh,
    a fixed direction set, and one refinement pass around the argmax.
    """
    if order > MAX_SUPNORM_ORDER:
        raise ValueError(f"derivative_supnorm supports orders 0..{MAX_SUPNORM_ORDER}")
    reg = _as_region(region)
    fb = _scalar_batch(f)
    diam = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    h = 10.0 ** (-3.0 / order) * diam if order else 0.0
    dirs = _direction_set(reg.shape[0], seed)

    def scan(pts):
        if order == 0:
            return np.abs(fb(pts))
        best = np.zeros(pts.shape[0])
        for v in dirs:
            best = np.maximum(best, np.abs(_directional_fd(fb, pts, v, order, h)))
        return best

    pts, spacing = _sample_box(reg, budget)
    vals = scan(pts)
    i = int(np.argmax(vals))
    local = np.stack(
        [np.clip(pts[i] - spacing, reg[:, 0], reg[:, 1]),
         np.clip(pts[i] + spacing, reg[:, 0], reg[:, 1])],
        axis=-1,
    )
    pts2, _ = _sample_box(local, min(budget, 729))
    return float(max(vals[i], scan(pts2).max()))


def holder_quotient(f, ell: int, beta: float, region, *, pairs: int = 10**5, seed: int = 0) -> float:
    """sup |D^ell f(x) - D^ell f(y)| / ||x-y||^(beta-ell) over sampled pairs.

    Half the pairs are global, half are short-range perturbations (the sup
    frequently sits at moderate separations; both regimes are covered).
    """
    reg = _as_region(region)
    d = reg.shape[0]
    fb = _scalar_batch(f)
    diam = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    h = 10.0 ** (-3.0 / ell) * diam if ell else 0.0
    rng = np.random.default_rng(seed)
    widths = reg[:, 1] - reg[:, 0]

    half = pairs // 2
    xs = reg[:, 0] + rng.random((pairs, d)) * widths
    ys = np.empty_like(xs)
    ys[:half] = reg[:, 0] + rng.random((half, d)) * widths
    scales = 10.0 ** rng.uniform(-4, -0.3, size=(pairs - half, 1)) * diam
    steps = rng.normal(size=(pairs - half, d))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    ys[half:] = np.clip(xs[half:] + scales * steps, reg[:, 0], reg[:, 1])

    if d == 1:
        dirs = np.ones((pairs, 1))
    else:
        dirs = rng.normal(size=(pairs, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    dx = _directional_fd(fb, xs, dirs, ell, h)
    dy = _directional_fd(fb, ys, dirs, ell, h)
    sep = np.linalg.norm(xs - ys, axis=1)
    keep = sep > 1e-10 * diam
    quot = np.abs(dx[keep] - dy[keep]) / sep[keep] ** (beta - ell)
    return float(quot.max()) if quot.size else 0.0


@dataclass
class ComponentReport:
    sup_measured: list
    sup_limits: list
    holder_measured: float
    holder_limit: float

    @property
    def passed(self) -> bool:
        sups_ok = all(m <= lim for m, lim in zip(self.sup_measured, self.sup_limits))
        return sups_ok and self.holder_measured <= self.holder_limit


@dataclass
class CertificationReport:
    cls: SmoothnessClass
    slack: float
    components: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)


def certify_membership(f, cls: SmoothnessClass, region, *, budget: int = 4096,
                       pairs: int = 10**5) -> CertificationReport:
    """Numerical membership check of a field against its declared class.

    Per output component: measured ||D^k f_j||_inf <= L_k for k = 0..ell and
    Hölder quotient of D^ell f_j <= L_beta (1 + slack).  Report-carrying;
    never raises on failure.
    """
    reg = _as_region(region)

    def component(j):
        def fj(pts):
            out = np.asarray(f(pts), dtype=float)
            if out.ndim == 1:
                out = out[:, None]
            return out[:, j]

        return fj

    report = CertificationReport(cls=cls, slack=MEMBERSHIP_SLACK)
    for j in range(cls.dim_out):
        fj = component(j)
        sups = [derivative_supnorm(fj, k, reg, budget=budget) for k in range(cls.ell + 1)]
        holder = holder_quotient(fj, cls.ell, cls.beta, reg, pairs=pairs)
        report.components.append(
            ComponentReport(
                sup_measured=sups,
                sup_limits=list(cls.L),
                holder_measured=holder,
                holder_limit=cls.L_beta * (1.0 + MEMBERSHIP_SLACK),
            )
        )
    return report


# ---------------------------------------------------------------------------
# chain-remainder construction


def periodic_sup(order: int) -> float:
    x = np.linspace(0.0, 1.0, 40001)
    return float(np.abs(kernels.periodic_kernel_deriv(x, order)).max())


def chain_remainder_field(amplitude: float, radius: float, phase: float, L0: float,
                          beta: float) -> flow.ModelFunction:
    """The 1-d model function s(x) = (2/3) L0 g'(g^{-1}(x)).

    g(x) = x + amplitude * radius^(beta+1) * K_per((x - phase)/radius) is a
    smooth periodic perturbation of the identity; the slope condition
    amplitude * radius^beta * ||K_per'||_inf <= 1/2 pins g' into [1/2, 3/2]
    so g is invertible and s well defined.  g^{-1}(y) takes three fixed-point
    steps x <- y - bump*K_per((x - phase)/radius) from x = y, which contract
    at rate <= slope <= 1/2 and so cut the error from <= bump/e <= 0.12 radius
    to <= 0.015 radius; there g' >= 1/2 and |g''| <= 9.7/radius put Newton in
    its quadratic basin, and three Newton steps end at rounding level.
    """
    slope = amplitude * radius**beta * periodic_sup(1)
    if slope > 0.5:
        raise SlopeOutOfRange(
            f"amplitude*radius^beta*||K_per'|| = {slope:.6g} > 1/2"
        )
    bump = amplitude * radius ** (beta + 1)

    def g(x):
        x = np.asarray(x, dtype=float)
        return x + bump * kernels.periodic_kernel((x - phase) / radius)

    def g_prime(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + amplitude * radius**beta * kernels.periodic_kernel_deriv(
            (x - phase) / radius, 1
        )

    def g_inv(y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        x = y
        # x = y - bump*K_per((x-phase)/r) contracts at rate <= slope <= 1/2
        for _ in range(3):
            x = y - bump * kernels.periodic_kernel((x - phase) / radius)
        for _ in range(3):  # Newton from inside its basin; g' >= 1/2
            x = x - (g(x) - y) / g_prime(x)
        return float(x[0]) if scalar else x

    speed = 2.0 / 3.0 * L0

    def eval_field(x):
        x = np.asarray(x, dtype=float)
        val = speed * g_prime(g_inv(x[..., 0]))
        return np.stack([val], axis=-1) if np.ndim(val) else np.array([val])

    def closed_flow(x, t):
        x = np.asarray(x, dtype=float)
        val = g(g_inv(x[..., 0]) + speed * t)
        return np.stack([val], axis=-1) if np.ndim(val) else np.array([val])

    return flow.ModelFunction(
        dim=1,
        eval=eval_field,
        closed_form_flow=closed_flow,
        metadata={
            "construction": "chain-remainder",
            "amplitude": amplitude,
            "radius": radius,
            "phase": phase,
            "L0": L0,
            "beta": beta,
            "g": g,
            "g_prime": g_prime,
            "g_inv": g_inv,
        },
    )


def chain_remainder_jet(amplitude: float, radius: float, phase: float, L0: float,
                        beta: float, max_order: int = 4):
    """Derivative callables (outer, inner) for Faà di Bruno on s = F o g^{-1}.

    outer[j] is the j-th derivative of F(u) = (2/3) L0 g'(u); inner[j] the
    j-th derivative of g^{-1} (closed-form inverse-function derivatives,
    supported to order 4).
    """
    if max_order > 4:
        raise ValueError("inverse-derivative formulas supplied up to order 4")
    fld = chain_remainder_field(amplitude, radius, phase, L0, beta)
    g_inv = fld.metadata["g_inv"]
    speed = 2.0 / 3.0 * L0

    def g_deriv(order):
        def d(x):
            x = np.asarray(x, dtype=float)
            val = amplitude * radius ** (beta + 1 - order) * kernels.periodic_kernel_deriv(
                (x - phase) / radius, order
            )
            return val + 1.0 if order == 1 else val

        return d

    gd = [None] + [g_deriv(j) for j in range(1, max_order + 2)]

    def outer(j):
        return lambda u: speed * gd[j + 1](u)

    outer_derivs = [outer(j) for j in range(0, max_order + 1)]

    def inner(j):
        def d(y):
            u = g_inv(y)
            g1 = gd[1](u)
            if j == 0:
                return u
            if j == 1:
                return 1.0 / g1
            g2 = gd[2](u)
            if j == 2:
                return -g2 / g1**3
            g3 = gd[3](u)
            if j == 3:
                return (3.0 * g2**2 - g1 * g3) / g1**5
            g4 = gd[4](u)
            return (-15.0 * g2**3 + 10.0 * g1 * g2 * g3 - g1**2 * g4) / g1**7

        return d

    inner_derivs = [inner(j) for j in range(0, max_order + 1)]
    return outer_derivs, inner_derivs
