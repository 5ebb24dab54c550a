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
formula, one loop over block-size classes on value jets, and the
chain-remainder field s(x) = (2/3) L0 g'(g^{-1}(x)) for a periodically
perturbed identity g, with its closed-form jet taken at y = g(u) (the
derivatives of g^{-1} come from the same loop).
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import flow, kernels
from .flow import _row_sumsq
from .geometry import _as_region, halton, product_grid

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
    "chain_remainder_u_jet",
    "chain_remainder_bounds",
]

MAX_PARTITION_ORDER = 8
MAX_SUPNORM_ORDER = 4
MEMBERSHIP_SLACK = 0.05
# pairs per block of holder_quotient, grid points per block of chain_remainder_bounds:
# a block's temporaries stay cache-sized
BLOCK = 8192


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


@functools.lru_cache(maxsize=None)
def _block_classes(k: int) -> tuple:
    """(count, block sizes) of each block-size class of the partitions of {1..k}.

    Partitions with the same block sizes give equal Faà di Bruno terms.  The
    classes come in order of first appearance; sorting the sizes changes no
    one-partition class (one block, or all singletons).
    """
    sizes = (tuple(sorted(map(len, p.blocks), reverse=True)) for p in enumerate_partitions(k))
    return tuple((count, s) for s, count in collections.Counter(sizes).items())


def _compose(f, g, k: int):
    """k-th derivative of f o g from the value jets f[j] = f^(j)(g(x)), g[j] = g^(j)(x).

    One term per block-size class times its count; j = 1..k, and the values
    (floats or arrays) are not modified.
    """
    total = 0.0
    for count, sizes in _block_classes(k):
        term = f[len(sizes)]
        for size in sizes:
            term = term * g[size]
        total += term if count == 1 else count * term
    return total


def faa_di_bruno(f_derivs, g_derivs, k: int, x: float) -> float:
    """k-th derivative of f o g at x by the Faà di Bruno formula.

    ``f_derivs[j]`` / ``g_derivs[j]`` must evaluate the j-th derivative,
    j = 0..k (index 0 is the function itself).  Each is evaluated at most
    once (f_derivs[0] never) and :func:`_compose` sums the set partitions of
    {1..k} by block-size class.  Arrays they return are not modified.
    """
    if k > MAX_PARTITION_ORDER:
        raise TooLarge(f"k = {k} > {MAX_PARTITION_ORDER}")
    if len(f_derivs) < k + 1 or len(g_derivs) < k + 1:
        raise ValueError("need derivative callables up to order k")
    gx = g_derivs[0](x)
    return _compose([None] + [fj(gx) for fj in f_derivs[1:k + 1]],
                    [None] + [gj(x) for gj in g_derivs[1:k + 1]], k)


def _inverse_derivs(g, n: int) -> list:
    """[., (g^{-1})', ..., (g^{-1})^(n)] at y = g(u), from g[j] = g^(j)(u), j = 1..n.

    (g^{-1})' = 1/g'; for k >= 2, d^k/dy^k g(g^{-1}(y)) = 0 is g' (g^{-1})^(k)
    plus the partitions of two or more blocks, which need only lower orders.
    """
    h = [None, 1.0 / g[1]]
    for k in range(2, n + 1):  # a 0 in place of (g^{-1})^(k) drops the one-block term
        h.append(-_compose(g, h + [0.0], k) / g[1])
    return h


def _columns(f, pts: np.ndarray) -> np.ndarray:
    """f at the points (N, d) as an (N, k) float array: column j is output component j."""
    return np.asarray(f(pts), dtype=float).reshape(pts.shape[0], -1)


def _sample_box(reg: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic mesh (or Halton for d > 3) plus per-axis spacing."""
    d = reg.shape[0]
    widths = reg[:, 1] - reg[:, 0]
    if d <= 3:
        per_axis = max(2, int(round(budget ** (1.0 / d))))
        pts = product_grid([np.linspace(reg[i, 0], reg[i, 1], per_axis) for i in range(d)])
        spacing = widths / (per_axis - 1)
    else:
        pts = reg[:, 0] + halton(budget, d) * widths
        spacing = widths / budget ** (1.0 / d)
    return pts, spacing


def _direction_set(d: int) -> np.ndarray:
    """The axes, the diagonal and 8 random unit directions (seed 0)."""
    if d == 1:
        return np.ones((1, 1))
    dirs = [np.eye(d)[i] for i in range(d)]
    dirs.append(np.ones(d) / math.sqrt(d))
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(8, d))
    dirs.extend(raw / np.sqrt(_row_sumsq(raw))[:, None])
    return np.asarray(dirs)


def _directional_fd(f, pts, v, order: int, h: float) -> np.ndarray:
    """Central stencil for the order-th derivative along v: (N, k) for k outputs.

    ``v`` is one direction (d,) or one direction per point (N, d).  Each
    stencil offset evaluates f once, for every output component.
    """
    if order == 0:
        return _columns(f, pts)
    acc = 0.0
    for i in range(order + 1):
        coeff = (-1.0) ** i * math.comb(order, i)
        offset = (order / 2.0 - i) * h
        acc = acc + coeff * _columns(f, pts + offset * v)
    return acc / h**order


def derivative_supnorm(f, order: int, region, *, budget: int = 4096) -> list:
    """Estimated sup over the region of the order-th derivative's norm, per output.

    f maps (N, d) points to (N,) or (N, k) values; the result lists one sup
    per output component (one for an (N,) field).  Directional finite
    differences (central stencils, step 10^{-3/order} times the region
    diameter) maximized over a deterministic point mesh, a fixed direction
    set, and one refinement pass around each component's argmax.  Each
    point set is evaluated once for all components; the refinement boxes of
    all components are stacked into one.
    """
    if order > MAX_SUPNORM_ORDER:
        raise ValueError(f"derivative_supnorm supports orders 0..{MAX_SUPNORM_ORDER}")
    reg = _as_region(region)
    diam = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    h = 10.0 ** (-3.0 / order) * diam if order else 0.0
    dirs = _direction_set(reg.shape[0])

    def scan(pts):
        if order == 0:
            return np.abs(_columns(f, pts))
        best = 0.0
        for v in dirs:
            best = np.maximum(best, np.abs(_directional_fd(f, pts, v, order, h)))
        return best

    pts, spacing = _sample_box(reg, budget)
    vals = scan(pts)
    peaks = np.argmax(vals, axis=0)
    boxes = [
        _sample_box(np.stack([np.clip(pts[i] - spacing, reg[:, 0], reg[:, 1]),
                              np.clip(pts[i] + spacing, reg[:, 0], reg[:, 1])], axis=-1),
                    min(budget, 729))[0]
        for i in peaks
    ]
    refined = scan(np.concatenate(boxes)).reshape(len(boxes), -1, vals.shape[1])
    return [float(max(vals[i, j], refined[j, :, j].max())) for j, i in enumerate(peaks)]


def holder_quotient(f, ell: int, beta: float, region, *, pairs: int = 10**5) -> list:
    """sup |D^ell f(x) - D^ell f(y)| / ||x-y||^(beta-ell) over sampled pairs, per output.

    f maps (N, d) points to (N,) or (N, k) values; the result lists one
    quotient per output component, from one evaluation of each point set.
    Half the pairs are global, half are short-range perturbations (the sup
    frequently sits at moderate separations; both regimes are covered).
    The pairs and directions are drawn with seed 0, all at once; f then
    sees them in blocks of BLOCK = 8,192 pairs, whose quotients
    update a running per-component maximum.  A maximum is exact, so the
    result does not depend on the block size.
    """
    reg = _as_region(region)
    d = reg.shape[0]
    diam = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    h = 10.0 ** (-3.0 / ell) * diam if ell else 0.0
    rng = np.random.default_rng(0)
    widths = reg[:, 1] - reg[:, 0]

    half = pairs // 2
    xs = reg[:, 0] + rng.random((pairs, d)) * widths
    ys = np.empty_like(xs)
    ys[:half] = reg[:, 0] + rng.random((half, d)) * widths
    scales = 10.0 ** rng.uniform(-4, -0.3, size=(pairs - half, 1)) * diam
    steps = rng.normal(size=(pairs - half, d))
    steps /= np.sqrt(_row_sumsq(steps))[:, None]
    ys[half:] = np.clip(xs[half:] + scales * steps, reg[:, 0], reg[:, 1])

    if d == 1:
        dirs = np.ones((pairs, 1))
    else:
        dirs = rng.normal(size=(pairs, d))
        dirs /= np.sqrt(_row_sumsq(dirs))[:, None]

    best = 0.0
    for lo in range(0, pairs, BLOCK):
        blk = slice(lo, lo + BLOCK)
        dx = _directional_fd(f, xs[blk], dirs[blk], ell, h)
        dy = _directional_fd(f, ys[blk], dirs[blk], ell, h)
        sep = np.sqrt(_row_sumsq(xs[blk] - ys[blk]))
        keep = sep > 1e-10 * diam
        quot = np.abs(dx[keep] - dy[keep]) / (sep[keep] ** (beta - ell))[:, None]
        best = np.maximum(best, quot.max(axis=0, initial=0.0))
    return best.tolist()


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
    components: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)


def certify_membership(f, cls: SmoothnessClass, region, *, budget: int = 4096,
                       pairs: int = 10**5) -> CertificationReport:
    """Numerical membership check of a field against its declared class.

    Per output component f_j, j < dim_out: measured ||D^k f_j||_inf <= L_k
    for k = 0..ell and Hölder quotient of D^ell f_j <= L_beta (1 + slack).
    Every point set is evaluated once for all components; f_j is column j
    of the values.  Report-carrying; never raises on failure.
    """
    reg = _as_region(region)
    sups = [derivative_supnorm(f, k, reg, budget=budget) for k in range(cls.ell + 1)]
    holder = holder_quotient(f, cls.ell, cls.beta, reg, pairs=pairs)
    return CertificationReport(cls=cls, components=[
        ComponentReport(
            sup_measured=[s[j] for s in sups],
            sup_limits=list(cls.L),
            holder_measured=holder[j],
            holder_limit=cls.L_beta * (1.0 + MEMBERSHIP_SLACK),
        )
        for j in range(cls.dim_out)
    ])


# ---------------------------------------------------------------------------
# chain-remainder construction


@functools.lru_cache(maxsize=None)
def _periodic_grid(order: int) -> np.ndarray:
    """K_per^(order) on the 40,001-point grid of one period (cached, read-only)."""
    vals = kernels.periodic_kernel_deriv(np.linspace(0.0, 1.0, 40001), order)
    vals.setflags(write=False)
    return vals


def chain_remainder_field(amplitude: float, radius: float, phase: float, L0: float,
                          beta: float, d: int = 1) -> flow.ModelFunction:
    """The field R^d -> R^d moving coordinate 0 at s(x_0) = (2/3) L0 g'(g^{-1}(x_0)).

    Coordinates 1..d-1 have velocity 0 and do not move.  ``eval`` and the
    closed-form flow g(g^{-1}(x_0) + (2/3) L0 t) act on coordinate 0 of any
    (..., d) batch, the flow broadcasting starts against times.

    g(x) = x + amplitude * radius^(beta+1) * K_per((x - phase)/radius) is a
    smooth periodic perturbation of the identity; the slope condition
    amplitude * radius^beta * ||K_per'||_inf <= 1/2 pins g' into [1/2, 3/2]
    so g is invertible and s well defined.  g^{-1}(y) takes three fixed-point
    steps x <- y - bump*K_per((x - phase)/radius) from x = y, which contract
    at rate <= slope <= 1/2 and so cut the error from <= bump/e <= 0.12 radius
    to <= 0.015 radius; there g' >= 1/2 and |g''| <= 9.7/radius put Newton in
    its quadratic basin, and three Newton steps end at rounding level.
    """
    slope = amplitude * radius**beta * (2.0 * kernels.K1_SUP)  # ||K_per'|| = 2 sup |K'|
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
        out = np.zeros_like(x)
        out[..., 0] = speed * g_prime(g_inv(x[..., 0]))
        return out

    def closed_flow(x, t):
        x = np.asarray(x, dtype=float)
        u = g_inv(x[..., 0]) + speed * np.asarray(t, dtype=float)
        out = np.broadcast_to(x, np.shape(u) + x.shape[-1:]).copy()
        out[..., 0] = g(u)
        return out

    return flow.ModelFunction(
        dim=d,
        eval=eval_field,
        closed_form_flow=closed_flow,
        metadata={"g": g, "g_inv": g_inv},
    )


def chain_remainder_u_jet(kper, a: float, radius: float, L0: float) -> list:
    """[s, s', ..., s^(n)] of s = (2/3) L0 g' o g^{-1} at the points y = g(u).

    kper[j - 1] = K_per^(j)(w) at w = (u - phase)/radius, j = 1..n+1, and
    a = amplitude radius^beta give g' = 1 + a K_per'(w) and g^(j) =
    a radius^(1-j) K_per^(j)(w), so g^{-1} is never evaluated.
    """
    speed = 2.0 / 3.0 * L0
    n = len(kper) - 1
    g = [None, 1.0 + a * kper[0]] + [a * radius ** (1 - j) * kper[j - 1] for j in range(2, n + 2)]
    outer = [None] + [speed * gj for gj in g[2:]]
    h = _inverse_derivs(g, n)
    return [speed * g[1]] + [_compose(outer, h, k) for k in range(1, n + 1)]


def chain_remainder_bounds(amplitude: float, radius: float, L0: float, beta: float) -> list:
    """[M_0, ..., M_ell, H]: the class constants the chain-remainder field s needs.

    M_k = max |s^(k)| on the 40,001-point grid of one period (within 3e-6
    relative of a ten times finer grid).  The jet is evaluated in blocks of
    BLOCK = 8,192 grid points under a running maximum per order; a maximum
    is exact, so M_k does not depend on the block size.  H = (2 M_ell)^(1-gamma)
    M_{ell+1}^gamma, gamma = beta - ell, bounds the Hölder seminorm of
    s^(ell), as |s^(ell)(x) - s^(ell)(y)| <= min(2 M_ell, M_{ell+1} |x - y|).
    """
    ell = strict_floor(beta)
    gamma = beta - ell
    kper = [_periodic_grid(j) for j in range(1, ell + 3)]
    a = amplitude * radius**beta
    M = np.zeros(ell + 2)
    for lo in range(0, kper[0].size, BLOCK):
        jet = chain_remainder_u_jet([k[lo:lo + BLOCK] for k in kper], a, radius, L0)
        M = np.maximum(M, [np.abs(v).max() for v in jet])
    M = M.tolist()
    return M[: ell + 1] + [(2.0 * M[ell]) ** (1.0 - gamma) * M[ell + 1] ** gamma]
