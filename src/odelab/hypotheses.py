"""Adversarial model-function pairs and families for ODE regression.

Three construction groups:

* "stubble" -- compactly supported bumps planted against a trivial drift;
  a probabilistic family (many centers, any radius up to a certified cap)
  and a deterministic pair whose two flows coincide on a whole time grid.
* "snake" -- a drift along the first coordinate decorated with either a
  transverse pulse (probabilistic) or a lattice of speed bumps threaded
  exactly between a grid of initial conditions (deterministic).
* "spiral" -- a fixed planar field whose single trajectory winds through
  K+1 horizontal passes on an explicit schedule, demonstrating that one
  long trajectory can be forced through any prescribed tour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import geometry, kernels, smoothness
from .flow import ModelFunction

__all__ = [
    "ClassTooTight",
    "DimensionTooSmall",
    "DeltaTooLarge",
    "HypothesisPair",
    "HypothesisFamily",
    "SpiralConstruction",
    "SpiralReport",
    "stubble_prob_family",
    "stubble_det_pair",
    "irrational_timestep_falsifier",
    "snake_prob_family",
    "snake_det_pair",
    "spiral_build",
    "spiral_verify",
]


class ClassTooTight(Exception):
    """The smoothness constants leave no usable perturbation radius."""


class DimensionTooSmall(Exception):
    """The construction needs at least one transverse coordinate."""


class DeltaTooLarge(Exception):
    """Requested tube radius exceeds what the class constants support."""


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class HypothesisPair:
    """Two fields plus the evidence that telling them apart is hard."""

    f0: ModelFunction
    f1: ModelFunction
    x0: np.ndarray
    claimed_separation: float
    coincidence_spec: str
    smoothness_class: smoothness.SmoothnessClass
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HypothesisFamily:
    """A null field plus a recipe for planting perturbations.

    ``make_alternative(z, r)`` returns the single-perturbation alternative;
    ``combine(centers, r)`` sums perturbations at pairwise-separated centers.
    ``rho_minus``/``rho_plus`` bracket the admissible radii; ``zeta`` is the
    separation exponent (claimed separation scales like r^zeta).
    """

    kind: str
    f0: ModelFunction
    make_alternative: Callable[[np.ndarray, float], ModelFunction]
    combine: Callable[[np.ndarray, float], ModelFunction]
    rho_minus: Optional[float]
    rho_plus: float
    zeta: float
    kernel: kernels.KernelSpec
    smoothness_class: smoothness.SmoothnessClass
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpiralConstruction:
    K: int
    delta: float
    field: ModelFunction
    schedule: np.ndarray  # pass-start times s_0..s_K
    T: float


@dataclass
class SpiralReport:
    schedule_errors: list
    max_schedule_error: float
    tol_geo: float
    supnorm_measured: float
    supnorm_expected: float
    lipschitz_measured: float
    lipschitz_limit: float

    @property
    def passed(self) -> bool:
        return (
            self.max_schedule_error <= self.tol_geo
            and abs(self.supnorm_measured - self.supnorm_expected) <= 1e-9
            and self.lipschitz_measured <= self.lipschitz_limit + 1e-9
        )


# ---------------------------------------------------------------------------
# shared helpers


def _constant_field(dim: int, velocity: np.ndarray, tag: str) -> ModelFunction:
    v = np.asarray(velocity, dtype=float)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(v, x.shape).copy()

    def closed_flow(x, t):
        return np.asarray(x, dtype=float) + v * t

    return ModelFunction(
        dim=dim,
        eval=evaluate,
        lipschitz_hint=0.0,
        closed_form_flow=closed_flow,
        metadata={"construction": tag, "velocity": v},
    )


def _check_radius(r: float, rho_plus: float):
    if not (0.0 < r <= rho_plus):
        raise ValueError(f"radius {r} outside (0, {rho_plus}]")


def _calibrated(beta: float, d: int, L, L_beta: float, shape: str):
    """The d -> d class, the calibrated ``shape`` kernel and its certified radius cap."""
    cls = smoothness.SmoothnessClass(beta, tuple(L), L_beta, d, d)
    spec = kernels.KernelSpec(
        beta=beta, alpha=kernels.calibrate_alpha(beta, d, shape), kind=shape, dim=d
    )
    return cls, spec, kernels.r_max(beta, tuple(L), L_beta, spec)


def _perturbed_field(spec: kernels.KernelSpec, drift: np.ndarray, centers, r: float,
                     amplitude: float, axis: int, coef: float,
                     metadata: dict) -> ModelFunction:
    """drift + coef * sum_i ScaledField(z_i, r, amplitude) on output coordinate ``axis``."""
    perts = [
        kernels.ScaledField(kernel=spec, center=zi, radius=r, amplitude=amplitude)
        for zi in centers
    ]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(drift, x.shape).copy()
        for p in perts:
            out[..., axis] += coef * p(x)
        return out

    return ModelFunction(dim=spec.dim, eval=evaluate, metadata=metadata)


def _prob_family(kind: str, cls: smoothness.SmoothnessClass, spec: kernels.KernelSpec,
                 L, cap: float, rho_minus: Optional[float], drift: np.ndarray,
                 axis: int, zeta: float, metadata: dict) -> HypothesisFamily:
    """Null drift with L_beta r^beta-scaled kernel perturbations on one axis.

    Radii are capped at min(1/2, cap); ``metadata`` is copied into the
    family and into every field it builds.
    """
    if cap < 1e-3:
        raise ClassTooTight(
            f"certified {spec.kind} radius {cap:.3g} < 1e-3 for constants L={tuple(L)}, "
            f"L_beta={cls.L_beta}"
        )
    rho_plus = min(0.5, cap)
    beta, L_beta = cls.beta, cls.L_beta

    def make_alternative(z, r):
        _check_radius(r, rho_plus)
        z = np.asarray(z, dtype=float)
        return _perturbed_field(spec, drift, [z], r, L_beta, axis, 1.0, {
            "construction": f"{kind}-{spec.kind}", "center": z, "radius": r,
            "amplitude": L_beta, "beta": beta, "axis": axis, **metadata,
        })

    def combine(centers, r):
        _check_radius(r, rho_plus)
        c = np.atleast_2d(np.asarray(centers, dtype=float))
        sep = geometry.min_distance(c)
        if sep < 2.0 * r:
            raise ValueError(f"centers only {sep:.3g} apart; need >= 2r = {2*r:.3g}")
        return _perturbed_field(spec, drift, c, r, L_beta, axis, 1.0, {
            "construction": f"{kind}-{spec.kind}s", "centers": c, "radius": r,
            "amplitude": L_beta, "beta": beta, **metadata,
        })

    return HypothesisFamily(
        kind=kind,
        f0=_constant_field(cls.dim_in, drift, f"{kind}-null"),
        make_alternative=make_alternative,
        combine=combine,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        zeta=zeta,
        kernel=spec,
        smoothness_class=cls,
        metadata={**metadata, "r_cap": cap},
    )


# ---------------------------------------------------------------------------
# stubble


def stubble_prob_family(beta: float, d: int, L: Sequence[float], L_beta: float,
                        rho_minus: Optional[float] = None) -> HypothesisFamily:
    """Null f0 = 0 with bump alternatives f_z,r = L_beta r^beta h((x-z)/r) e_1.

    h is the calibrated radial bump, so each alternative (and any
    2r-separated sum) lies in the d -> d class with constants (L, L_beta).
    """
    cls, spec, cap = _calibrated(beta, d, L, L_beta, "bump")
    h_sup = spec.alpha * math.exp(-1.0)  # bump peak: alpha*K(0)
    return _prob_family("stubble", cls, spec, L, cap, rho_minus, np.zeros(d), 0, beta,
                        {"h_sup": h_sup})


def stubble_det_pair(beta: float, d: int, L: Sequence[float], L_beta: float,
                     delta_t: float, x0) -> HypothesisPair:
    """Two fields whose flows agree at every multiple of delta_t from every x.

    f0 drifts at speed (2/3) L_0 along e_1; f1 reparametrizes the same
    orbit through a periodic perturbation g of the identity with period
    r = (2/3) L_0 delta_t, so one step of the time grid advances the
    conjugating map by exactly one period.  The perturbation amplitude is
    pushed to the largest value that still certifies into the declared
    class; the phase is chosen so the pointwise gap at x0 is the grid
    maximum of the attainable separation.
    """
    L = tuple(float(v) for v in L)
    cls = smoothness.SmoothnessClass(beta, L, L_beta, d, d)
    L0 = L[0]
    x0 = np.asarray(x0, dtype=float)
    r = (2.0 / 3.0) * L0 * delta_t
    per_prime = smoothness.periodic_sup(1)
    if r * per_prime >= 2.0:  # even amplitude -> 0 cannot satisfy the slope bound
        raise smoothness.SlopeOutOfRange(
            f"time step {delta_t} gives period {r:.3g}; no admissible amplitude"
        )
    amp_slope_cap = 0.5 / (r**beta * per_prime) * (1.0 - 1e-12)

    def certifies(amp: float, *, fast: bool = True) -> bool:
        if amp <= 0.0:
            return True
        fld = smoothness.chain_remainder_field(amp, r, 0.0, L0, beta)
        scal = smoothness.SmoothnessClass(beta, L, L_beta, 1, 1)
        kwargs = {"budget": 1024, "pairs": 20000} if fast else {}
        rep = smoothness.certify_membership(fld, scal, [(0.0, 2.0 * r)], **kwargs)
        return rep.passed

    if certifies(amp_slope_cap, fast=False):
        amp = amp_slope_cap
    else:
        lo, hi = 0.0, amp_slope_cap
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            if certifies(mid):
                lo = mid
            else:
                hi = mid
        amp = lo
        while amp > 0.0 and not certifies(amp, fast=False):
            amp *= 0.9
    if amp <= 0.0:
        raise ClassTooTight(
            f"no perturbation amplitude certifies into L={L}, L_beta={L_beta}"
        )

    # place the phase so g^{-1}(x0_1) lands exactly on the argmax of |K_per'|
    w_star = _periodic_slope_argmax()
    z = float(x0[0]) - r * w_star - amp * r ** (beta + 1) * float(
        kernels.periodic_kernel(w_star)
    )
    core = smoothness.chain_remainder_field(amp, r, z, L0, beta)
    speed = (2.0 / 3.0) * L0

    f0 = _constant_field(d, speed * np.eye(d)[0], "stubble-det-null")
    f1 = _embed_first_coordinate(core, d)

    attained = speed * amp * r**beta * per_prime
    sep_constant = (2.0 / 3.0) ** (beta + 1.0) * per_prime  # times L L0^{beta+1} dt^beta
    return HypothesisPair(
        f0=f0,
        f1=f1,
        x0=x0,
        claimed_separation=attained * (1.0 - 1e-12),
        coincidence_spec=f"flows agree for all x at every t in {delta_t}*Z",
        smoothness_class=cls,
        metadata={
            "kind": "stubble-det",
            "delta_t": delta_t,
            "amplitude": amp,
            "radius": r,
            "phase": z,
            "L0": L0,
            "beta": beta,
            "separation_constant": sep_constant,
            "periodic_slope_sup": per_prime,
        },
    )


def _periodic_slope_argmax() -> float:
    """argmax over one period of |K_per'|, via grid scan plus refinement."""
    w = np.linspace(0.0, 1.0, 40001)
    vals = np.abs(kernels.periodic_kernel_deriv(w, 1))
    i = int(vals.argmax())
    lo, hi = w[max(i - 1, 0)], w[min(i + 1, len(w) - 1)]
    fine = np.linspace(lo, hi, 2001)
    j = int(np.abs(kernels.periodic_kernel_deriv(fine, 1)).argmax())
    return float(fine[j])


def _embed_first_coordinate(core: ModelFunction, d: int) -> ModelFunction:
    """Lift a 1-d field with closed flow to d dims (other coordinates frozen)."""
    if d == 1:
        return core

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = np.asarray(core(x[..., :1]))[..., 0]
        return out

    def closed_flow(x, t):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        out[..., 0] = np.asarray(core.closed_form_flow(x[..., :1], t))[..., 0]
        return out

    return ModelFunction(
        dim=d, eval=evaluate, closed_form_flow=closed_flow,
        metadata=dict(core.metadata),
    )


def irrational_timestep_falsifier(pair: HypothesisPair, t2: float,
                                  samples: int = 100) -> float:
    """Max flow mismatch of the pair at time t2 over a window of starts.

    On the coincidence grid (t2 a multiple of the pair's delta_t) this is
    zero to solver precision; generic t2 (an irrational multiple) exposes
    the difference between the fields.
    """
    r = pair.metadata["radius"]
    x1 = np.linspace(pair.x0[0] - r, pair.x0[0] + r, samples)
    xs = np.tile(pair.x0, (samples, 1))
    xs[:, 0] = x1
    u0 = pair.f0.closed_form_flow(xs, t2)
    u1 = pair.f1.closed_form_flow(xs, t2)
    return float(np.linalg.norm(u0 - u1, axis=-1).max())


# ---------------------------------------------------------------------------
# snake


def snake_prob_family(beta: float, d: int, L: Sequence[float], L_beta: float,
                      rho_minus: Optional[float] = None) -> HypothesisFamily:
    """Drift L_0 e_1 with transverse pulse alternatives in coordinate 2.

    The pulse integrates to zero along any straight pass through its
    support, so the alternative flow re-merges with the null flow after
    crossing -- net transverse displacement is confined to the support.
    """
    if d < 2:
        raise DimensionTooSmall("snake constructions need d >= 2")
    cls, spec, cap = _calibrated(beta, d, L, L_beta, "pulse")
    L0 = float(L[0])
    metadata = {
        "drift": L0,
        "L_beta": L_beta,
        "pulse_sup": kernels.shape_deriv_supnorm(spec, 0),
        "pulse_grad_sup": kernels.shape_deriv_supnorm(spec, 1),
    }
    return _prob_family("snake", cls, spec, L, cap, rho_minus, L0 * np.eye(d)[0], 1,
                        beta + 1.0, metadata)


def snake_det_pair(beta: float, d: int, L: Sequence[float], L_beta: float,
                   delta: float, x0):
    """Speed-bump lattice threaded exactly between a grid of trajectories.

    Returns ``(pair, initials, times)``.  All initial conditions start on
    the hyperplane x_1 = 0 and drift at speed L_0 for time 1/L_0; the bump
    centers sit on a transverse lattice of pitch 2r, the initial
    conditions on its half-pitch dual, so every trajectory keeps distance
    exactly r from every bump and the two flows are identical on the grid.
    The r-tubes around the trajectories cover the unit cube whenever the
    transverse pitch resolves delta = r sqrt(d).
    """
    if d < 2:
        raise DimensionTooSmall("snake constructions need d >= 2")
    L = tuple(float(v) for v in L)
    cls, spec, cap = _calibrated(beta, d, L, L_beta, "bump")
    delta_max = min(math.sqrt(d) * cap, math.sqrt(d) / 2.0)
    if delta > delta_max:
        raise DeltaTooLarge(f"delta {delta} > certified maximum {delta_max:.6g}")
    r = delta / math.sqrt(d)
    L0 = L[0]
    x0 = np.asarray(x0, dtype=float)

    m0 = math.ceil(math.sqrt(d) / (2.0 * delta))
    per_axis = m0 + 1
    m = per_axis ** (d - 1)

    # transverse lattice of initial conditions: pitch 2r, offset exactly r
    # from the bump lattice through x0, shifted into [0, 1] coverage position
    axes = []
    for c in range(1, d):
        base = (x0[c] + r) % (2.0 * r)
        first = base - 2.0 * r if base >= r else base
        axes.append(first + 2.0 * r * np.arange(per_axis))
    trans = np.meshgrid(*axes, indexing="ij") if axes else []
    initials = np.zeros((m, d))
    for c, g in enumerate(trans):
        initials[:, c + 1] = g.reshape(-1)
    times = np.full(m, 1.0 / L0)

    # bump centers: transverse lattice of pitch 2r through the apex x0,
    # wide enough to flank the cube by one pitch on each side
    center_axes = []
    for c in range(1, d):
        lo = math.floor((-2.0 * r - x0[c]) / (2.0 * r))
        hi = math.ceil((1.0 + 2.0 * r - x0[c]) / (2.0 * r))
        ks = np.arange(lo, hi + 1)
        center_axes.append(x0[c] + 2.0 * r * ks)
    cgrids = np.meshgrid(*center_axes, indexing="ij") if center_axes else []
    n_centers = cgrids[0].size if cgrids else 1
    centers = np.zeros((n_centers, d))
    centers[:, 0] = x0[0]
    for c, g in enumerate(cgrids):
        centers[:, c + 1] = g.reshape(-1)

    # transverse distance between the trajectory lines and the bump centers
    clearance = geometry.min_distance(initials[:, 1:], centers[:, 1:])
    if clearance < r * (1.0 - 1e-9):
        # fallback: shift the whole IC lattice half a pitch transversally
        initials[:, 1:] += r / 2.0
        clearance = geometry.min_distance(initials[:, 1:], centers[:, 1:])
        if clearance < r * (1.0 - 1e-9):
            raise RuntimeError("initial-condition lattice clashes with bump lattice")

    drift = L0 * np.eye(d)[0]
    f0 = _constant_field(d, drift, "snake-det-null")
    amp = L_beta * r**beta
    # bumps subtract so the first-coordinate speed stays within L_0
    f1 = _perturbed_field(spec, drift, centers, r, L_beta, 0, -1.0, {
        "construction": "snake-det",
        "centers": centers,
        "radius": r,
        "amplitude": -amp,
        "beta": beta,
        "drift": L0,
    })

    h_sup = spec.alpha * math.exp(-1.0)
    pair = HypothesisPair(
        f0=f0,
        f1=f1,
        x0=x0,
        claimed_separation=amp * h_sup * (1.0 - 1e-12),
        coincidence_spec=(
            f"flows from the {m} grid initial conditions are identical for "
            f"t in [0, {1.0 / L0:g}]"
        ),
        smoothness_class=cls,
        metadata={
            "kind": "snake-det",
            "delta": delta,
            "radius": r,
            "m0": m0,
            "m": m,
            "clearance": clearance,
            "h_sup": h_sup,
            "L0": L0,
        },
    )
    return pair, initials, times


# ---------------------------------------------------------------------------
# spiral


def spiral_build(K: int) -> SpiralConstruction:
    """Planar field whose orbit from the origin makes K+1 passes over [0,1].

    Four regions: two semicircular turns around (0,-1) and (1,-1), a top
    band carrying passes left-to-right at unit speed, and a bottom band
    returning right-to-left with a small vertical ramp h(x_1) that drops
    the trajectory one level per return.  The speed factor min(1, |x_2+1|)
    keeps the pieces continuous across the band boundaries.
    """
    if K < 1:
        raise ValueError("need K >= 1 passes")
    delta = 1.0 / K
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    z_left = np.array([0.0, -1.0])
    z_right = np.array([1.0, -1.0])

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        x1, x2 = X[:, 0], X[:, 1]
        out = np.zeros_like(X)

        left = x1 <= 0.0
        right = (~left) & (x1 >= 1.0)
        mid = ~(left | right)
        top = mid & (x2 >= -1.0)
        bottom = mid & ~top

        for mask, z in ((left, z_left), (right, z_right)):
            if mask.any():
                v = (X[mask] - z) @ rot.T
                n = np.linalg.norm(v, axis=1)
                scale = np.where(n > 1.0, 1.0 / np.maximum(n, 1e-300), 1.0)
                out[mask] = v * scale[:, None]

        speed = np.minimum(1.0, np.abs(x2 + 1.0))
        if top.any():
            out[top, 0] = speed[top]
        if bottom.any():
            ramp = -4.0 * delta * (0.5 - np.abs(x1[bottom] - 0.5))
            out[bottom, 0] = -speed[bottom]
            out[bottom, 1] = speed[bottom] * ramp

        return out[0] if single else out

    fld = ModelFunction(
        dim=2,
        eval=evaluate,
        lipschitz_hint=math.sqrt(1.0 + 20.0 * delta**2),
        metadata={
            "construction": "spiral",
            "K": K,
            "delta": delta,
            "supnorm": math.sqrt(1.0 + 4.0 * delta**2),
        },
    )

    ks = np.arange(K + 1)
    schedule = np.array(
        [sum(2.0 + math.pi * (2.0 + j / K + (j + 1) / K) for j in range(k)) for k in ks]
    )
    T = float(schedule[-1] + 1.0)
    assert abs(T - (1.0 + (2.0 + 3.0 * math.pi) * K)) < 1e-9
    return SpiralConstruction(K=K, delta=delta, field=fld, schedule=schedule, T=T)


def spiral_max_step(state: np.ndarray) -> float:
    """Step cap for spiral integration: fine near the ramp band floor."""
    return 1e-3 if state[1] <= -0.99 else 0.02


def spiral_verify(spec: SpiralConstruction, tol: float = 1e-10,
                  seed: int = 0) -> SpiralReport:
    """Integrate the spiral orbit and check schedule, sup-norm and Lipschitz.

    Pass k should start at (0, k/K) at time s_k and end at (1, k/K) at
    s_k + 1; the geometric tolerance scales with the total horizon.
    """
    from . import flow as flow_mod

    traj = flow_mod.integrate(
        spec.field, np.zeros(2), spec.T, tol, max_step=spiral_max_step
    )
    tol_geo = 1e-6 * spec.T
    starts = flow_mod.flow_at(traj, spec.schedule)
    ends = flow_mod.flow_at(traj, spec.schedule + 1.0)
    errors = [
        {
            "pass": k,
            "start_error": float(np.linalg.norm(starts[k] - np.array([0.0, k / spec.K]))),
            "end_error": float(np.linalg.norm(ends[k] - np.array([1.0, k / spec.K]))),
        }
        for k in range(len(spec.schedule))
    ]
    max_err = max(max(e["start_error"], e["end_error"]) for e in errors)

    rng = np.random.default_rng(seed)
    box_lo = np.array([-2.0, -3.5])
    box_hi = np.array([3.0, 1.5])
    pts = box_lo + (box_hi - box_lo) * rng.random((100000, 2))
    # the sup-norm is attained on the mid-ramp line below the turning band
    pts[0] = (0.5, -2.5)
    vals = spec.field(pts)
    supnorm = float(np.linalg.norm(vals, axis=1).max())

    a = box_lo + (box_hi - box_lo) * rng.random((100000, 2))
    b = a + rng.normal(scale=0.05, size=a.shape)
    b = np.clip(b, box_lo, box_hi)
    num = np.linalg.norm(spec.field(a) - spec.field(b), axis=1)
    den = np.linalg.norm(a - b, axis=1)
    keep = den > 1e-12
    lip = float((num[keep] / den[keep]).max())

    return SpiralReport(
        schedule_errors=errors,
        max_schedule_error=max_err,
        tol_geo=tol_geo,
        supnorm_measured=supnorm,
        supnorm_expected=math.sqrt(1.0 + 4.0 * spec.delta**2),
        lipschitz_measured=lip,
        lipschitz_limit=math.sqrt(1.0 + 20.0 * spec.delta**2),
    )
