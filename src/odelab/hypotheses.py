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
from typing import Callable, Sequence

import numpy as np

from . import flow as flow_mod
from . import geometry, kernels, smoothness
from .flow import ModelFunction

__all__ = [
    "ClassTooTight",
    "DimensionTooSmall",
    "DeltaTooLarge",
    "DeltaTooSmall",
    "HypothesisPair",
    "HypothesisFamily",
    "SpiralConstruction",
    "SpiralReport",
    "stubble_prob_family",
    "stubble_det_pair",
    "stubble_det_checks",
    "irrational_timestep_falsifier",
    "snake_prob_family",
    "snake_transverse_envelope",
    "snake_det_pair",
    "snake_det_checks",
    "spiral_build",
    "spiral_verify",
]


class ClassTooTight(Exception):
    """The smoothness constants leave no usable perturbation radius."""


class DimensionTooSmall(Exception):
    """The construction needs at least one transverse coordinate."""


class DeltaTooLarge(Exception):
    """Requested tube radius exceeds what the class constants support."""


class DeltaTooSmall(Exception):
    """Requested tube radius needs more lattice points than MAX_LATTICE."""


# starts or bump centers of one snake-det lattice; 1,331 is the largest tested
MAX_LATTICE = 10**5


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
    z may also be (m, d), one center per row of an (m, d) state, so that m
    alternatives are integrated as one batch.
    ``combine(centers, r)`` sums perturbations at pairwise-separated centers.
    ``rho_plus`` caps the admissible radii.
    """

    kind: str
    f0: ModelFunction
    make_alternative: Callable[[np.ndarray, float], ModelFunction]
    combine: Callable[[np.ndarray, float], ModelFunction]
    rho_plus: float
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
    def checks(self) -> list:
        """(name, ok, measured, limit) of the schedule, sup-norm and Lipschitz tests."""
        return [
            ("schedule", self.max_schedule_error <= self.tol_geo,
             self.max_schedule_error, self.tol_geo),
            ("supnorm", abs(self.supnorm_measured - self.supnorm_expected) <= 1e-9,
             self.supnorm_measured, self.supnorm_expected),
            ("lipschitz", self.lipschitz_measured <= self.lipschitz_limit + 1e-9,
             self.lipschitz_measured, self.lipschitz_limit),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _, _ in self.checks)


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
    """drift + coef * sum_i amplitude r^beta h((x - z_i)/r) on output coordinate ``axis``.

    h is the unit shape of ``spec`` (:func:`kernels.kernel_shape_eval`), so
    the term of center z_i vanishes outside the closed ball B(z_i, r).  A
    center may be an (m, d) array: x - z_i broadcasts, so row j of an (m, d)
    state is perturbed at row j of z_i only.
    """
    scale = amplitude * r**spec.beta
    zs = [np.asarray(z, dtype=float) for z in centers]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[...] = drift
        for z in zs:
            out[..., axis] += coef * (scale * kernels.kernel_shape_eval(spec, (x - z) / r))
        return out

    return ModelFunction(dim=spec.dim, eval=evaluate, metadata=metadata)


def _prob_family(kind: str, cls: smoothness.SmoothnessClass, spec: kernels.KernelSpec,
                 L, cap: float, drift: np.ndarray, axis: int,
                 metadata: dict) -> HypothesisFamily:
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
        rho_plus=rho_plus,
        kernel=spec,
        smoothness_class=cls,
        metadata={**metadata, "r_cap": cap},
    )


# ---------------------------------------------------------------------------
# stubble


def stubble_prob_family(beta: float, d: int, L: Sequence[float],
                        L_beta: float) -> HypothesisFamily:
    """Null f0 = 0 with bump alternatives f_z,r = L_beta r^beta h((x-z)/r) e_1.

    h is the calibrated radial bump, so each alternative (and any
    2r-separated sum) lies in the d -> d class with constants (L, L_beta).
    """
    cls, spec, cap = _calibrated(beta, d, L, L_beta, "bump")
    h_sup = spec.alpha * math.exp(-1.0)  # bump peak: alpha*K(0)
    return _prob_family("stubble", cls, spec, L, cap, np.zeros(d), 0, {"h_sup": h_sup})


def stubble_det_pair(beta: float, d: int, L: Sequence[float], L_beta: float,
                     delta_t: float, x0) -> HypothesisPair:
    """Two fields whose flows agree at every multiple of delta_t from every x.

    f0 drifts at speed (2/3) L_0 along e_1; f1 reparametrizes the same
    orbit through a periodic perturbation g of the identity with period
    r = (2/3) L_0 delta_t, so one step of the time grid advances the
    conjugating map by exactly one period.  The amplitude is bisected in
    (0, slope cap] against the closed-form jet of the chain-remainder field
    (:func:`odelab.smoothness.chain_remainder_bounds`): M_k = max |s^(k)|
    <= L_k on a 40,001-point grid of one period, and the Hölder bound
    (2 M_ell)^(1-gamma) M_{ell+1}^gamma <= L_beta, gamma = beta - ell.  The
    lower end always meets every bound, so the result meets them even where
    they are not monotone.  The phase puts g^{-1}(x0_1) on the argmax
    (1 + 3^(-1/4))/2 of |K_per'|, where the gap at x0 is the largest.  A
    period below 2^26 ulp(|x0_1| + 1), too short to resolve there, raises
    :class:`ClassTooTight`.
    """
    L = tuple(float(v) for v in L)
    cls = smoothness.SmoothnessClass(beta, L, L_beta, d, d)
    L0 = L[0]
    x0 = np.asarray(x0, dtype=float)
    r = (2.0 / 3.0) * L0 * delta_t
    w_star = 0.5 * (1.0 + 3.0**-0.25)  # argmax of |K_per'|, where 1 - 3 (2w - 1)^4 = 0
    per_prime = abs(float(kernels.periodic_kernel_deriv(w_star, 1)))
    # the phase (x - z)/r of points within 1 of x0 keeps 26 bits, which the separation
    # claimed at x0 needs (|K_per'| is flat at its maximum); r >= 1.5e-8 also keeps
    # r^beta and the jet's scale r^-(ell+1) finite
    resolution = 2.0**26 * math.ulp(abs(float(x0[0])) + 1.0)
    if r < resolution:
        raise ClassTooTight(f"time step {delta_t} gives period {r:.3g}, below the "
                            f"{resolution:.3g} that x0 = {float(x0[0])} resolves")
    limits = L + (L_beta,)

    def fits(amp: float) -> bool:
        bounds = smoothness.chain_remainder_bounds(amp, r, L0, beta)
        return all(b <= lim for b, lim in zip(bounds, limits))

    amp, hi = 0.0, 0.5 / (r**beta * per_prime) * (1.0 - 1e-12)  # hi: the exact slope cap
    if fits(hi):
        amp = hi
    while hi - amp > 1e-12 * hi:  # amp meets every bound (or is 0), hi misses one
        mid = 0.5 * (amp + hi)
        if fits(mid):
            amp = mid
        else:
            hi = mid
    if amp <= 0.0:
        raise ClassTooTight(f"no perturbation amplitude fits into L={L}, L_beta={L_beta}")

    # place the phase so g^{-1}(x0_1) lands exactly on the argmax of |K_per'|
    z = float(x0[0]) - r * w_star - amp * r ** (beta + 1) * float(
        kernels.periodic_kernel(w_star)
    )
    core = smoothness.chain_remainder_field(amp, r, z, L0, beta)
    speed = (2.0 / 3.0) * L0

    f0 = _constant_field(d, speed * np.eye(d)[0], "stubble-det-null")
    f1 = _embed_first_coordinate(core, d)

    attained = speed * amp * r**beta * per_prime
    # the amplitude-free floor is sep_constant L0^(beta+1) dt^beta: the claim at amp = 1
    sep_constant = (2.0 / 3.0) ** (beta + 1.0) * per_prime
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
        },
    )


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


def irrational_timestep_falsifier(pair: HypothesisPair, t2: float) -> float:
    """Max flow mismatch of the pair at time t2 over 100 starts across one period.

    On the coincidence grid (t2 a multiple of the pair's delta_t) this is
    zero to solver precision; generic t2 (an irrational multiple) exposes
    the difference between the fields.
    """
    r = pair.metadata["radius"]
    xs = np.tile(pair.x0, (100, 1))
    xs[:, 0] = np.linspace(pair.x0[0] - r, pair.x0[0] + r, 100)
    return _flow_gap(pair, xs, t2)


def _flow_gap(pair: HypothesisPair, xs: np.ndarray, t: float) -> float:
    """Largest norm of the f0 - f1 closed-form flow difference over the starts xs (n, d)."""
    u0 = pair.f0.closed_form_flow(xs, t)
    u1 = pair.f1.closed_form_flow(xs, t)
    return float(np.linalg.norm(u0 - u1, axis=-1).max())


def stubble_det_checks(pair: HypothesisPair, xs: np.ndarray, tol: float = 1e-9) -> list:
    """(name, ok, measured, limit) records of the stubble-det pair's claims.

    * ``grid-coincidence``: the flows from the starts xs (n, d) agree to
      ``tol`` at t = i delta_t, |i| <= 5;
    * ``separation-floor``: the claimed separation reaches the amplitude-free
      floor ``separation_constant`` * L_0^(beta+1) delta_t^beta, that is
      (2/3)^(beta+1) sup|K_per'| L_0^(beta+1) delta_t^beta, which a pair
      whose amplitude is below 1 misses;
    * ``separation-attained``: |f1(x0) - f0(x0)| reaches the claimed separation;
    * ``membership``: f1 passes the finite-difference certification
      (:func:`odelab.smoothness.certify_membership`, default budget) into
      the pair's class on [0, 2r]^d, two periods of the perturbation.
    """
    md = pair.metadata
    beta, delta_t = md["beta"], md["delta_t"]
    worst = max(_flow_gap(pair, xs, i * delta_t) for i in range(-5, 6))
    floor = md["separation_constant"] * md["L0"] ** (beta + 1.0) * delta_t**beta
    claimed = pair.claimed_separation
    attained = float(np.linalg.norm(pair.f1(pair.x0) - pair.f0(pair.x0)))
    region = [(0.0, 2.0 * md["radius"])] * pair.f1.dim
    member = smoothness.certify_membership(pair.f1, pair.smoothness_class, region)
    return [
        ("grid-coincidence", worst <= tol, worst, tol),
        ("separation-floor", claimed >= floor, claimed, floor),
        ("separation-attained", attained >= claimed, attained, claimed),
        ("membership", member.passed, None, None),
    ]


# ---------------------------------------------------------------------------
# snake


def snake_prob_family(beta: float, d: int, L: Sequence[float],
                      L_beta: float) -> HypothesisFamily:
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
    return _prob_family("snake", cls, spec, L, cap, L0 * np.eye(d)[0], 1, metadata)


def snake_transverse_envelope(family: HypothesisFamily, r: float) -> float:
    """psi(r) = 2 ||Kt|| ||Kt'|| L_beta r^(beta+1) / L_0 for a snake pulse family.

    It bounds the transverse deviation of one pass through a radius-r pulse:
    crossing time 2r/L_0 at transverse speed <= L_beta r^beta ||Kt|| ||Kt'||.
    """
    alpha, cls = family.kernel.alpha, family.smoothness_class
    kt_sup, kt_grad = alpha * math.exp(-1.0), alpha * kernels.sup_abs_kernel_deriv(1)
    return 2.0 * kt_sup * kt_grad * cls.L_beta * r ** (cls.beta + 1.0) / family.metadata["drift"]


def snake_det_pair(beta: float, d: int, L: Sequence[float], L_beta: float,
                   delta: float, x0):
    """Speed-bump lattice threaded exactly between a grid of trajectories.

    Returns ``(pair, initials, times)``.  All initial conditions start on
    the hyperplane x_1 = 0 and drift at speed L_0 for time 1/L_0; the bump
    centers sit on a transverse lattice of pitch 2r, the initial
    conditions on its half-pitch dual, so every trajectory keeps distance
    at least r from every bump and the two flows are identical on the grid.
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

    # size both lattices in integers before allocating either
    m0 = math.ceil(math.sqrt(d) / (2.0 * delta))
    per_axis = m0 + 1
    m = per_axis ** (d - 1)
    # bump centers: transverse lattice of pitch 2r through the apex x0,
    # wide enough to flank the cube by one pitch on each side
    spans = [(math.floor((-2.0 * r - x0[c]) / (2.0 * r)),
              math.ceil((1.0 + 2.0 * r - x0[c]) / (2.0 * r))) for c in range(1, d)]
    n_centers = math.prod(hi - lo + 1 for lo, hi in spans)
    if max(m, n_centers) > MAX_LATTICE:
        raise DeltaTooSmall(f"delta {delta} needs {max(m, n_centers)} lattice points "
                            f"(starts or bump centers), above the limit {MAX_LATTICE}")

    # transverse lattice of initial conditions: pitch 2r, offset exactly r
    # from the bump lattice through x0, shifted into [0, 1] coverage position
    axes = []
    for c in range(1, d):
        base = (x0[c] + r) % (2.0 * r)
        first = base - 2.0 * r if base >= r else base
        axes.append(first + 2.0 * r * np.arange(per_axis))
    initials = np.zeros((m, d))
    for c, g in enumerate(np.meshgrid(*axes, indexing="ij")):
        initials[:, c + 1] = g.reshape(-1)
    times = np.full(m, 1.0 / L0)

    center_axes = [x0[c] + 2.0 * r * np.arange(lo, hi + 1)
                   for c, (lo, hi) in enumerate(spans, 1)]
    cgrids = np.meshgrid(*center_axes, indexing="ij")
    centers = np.zeros((n_centers, d))
    centers[:, 0] = x0[0]
    for c, g in enumerate(cgrids):
        centers[:, c + 1] = g.reshape(-1)

    # transverse distance between the trajectory lines and the bump centers.
    # Both lattices are products of axes, so the closest pair is closest on
    # every axis: the per-axis minimum squared gaps sum to its squared
    # distance, and as rounding is monotone this is geometry.min_distance.
    gaps = [((a[:, None] - b[None, :]) ** 2).min() for a, b in zip(axes, center_axes)]
    clearance = float(np.sqrt(np.sum(gaps)))
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


def snake_det_checks(pair: HypothesisPair, initials: np.ndarray, horizons: np.ndarray,
                     tol_agree: float = 1e-8) -> list:
    """(name, ok, measured, limit) records of the snake-det pair's claims.

    * ``identical-trajectories``: from every initial condition the f0 and
      f1 flows (tol 1e-10) agree to ``tol_agree`` at 33 times in [0, T];
    * ``cover-at-delta``: the delta-tubes around the f1 trajectories cover
      the unit cube, delta from the pair's metadata;
    * ``no-cover-at-half-delta``: the delta/2-tubes do not.
    """
    delta = pair.metadata["delta"]
    tubes, worst = [], 0.0
    for x, T in zip(initials, horizons):
        t0, t1 = (flow_mod.integrate(f, x, float(T), 1e-10) for f in (pair.f0, pair.f1))
        s = np.linspace(0.0, float(T), 33)
        gap = np.linalg.norm(flow_mod.flow_at(t1, s) - flow_mod.flow_at(t0, s), axis=1)
        worst = max(worst, float(gap.max()))
        tubes.append(geometry.TubeSpec(trajectory=t1, radius=delta))
    region = [(0.0, 1.0)] * pair.f0.dim
    cover = geometry.tube_cover_check(tubes, region)
    half = geometry.tube_cover_check(tubes, region, radius=delta / 2.0)
    return [
        ("identical-trajectories", worst <= tol_agree, worst, tol_agree),
        ("cover-at-delta", cover.passed, cover.worst_distance, cover.threshold),
        ("no-cover-at-half-delta", not half.passed, half.worst_distance, half.threshold),
    ]


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


def spiral_verify(spec: SpiralConstruction, seed: int = 0) -> SpiralReport:
    """Integrate the spiral orbit and check schedule, sup-norm and Lipschitz.

    Pass k should start at (0, k/K) at time s_k and end at (1, k/K) at
    s_k + 1; the geometric tolerance scales with the total horizon.  No
    step cap is needed at the region boundaries, where the field is only
    Lipschitz: steps across them fail the local error test and shrink.
    The orbit is integrated at tol 1e-10; over K = 1..8 the schedule error
    stays at least 19x inside ``tol_geo`` (1.8e-6 against 3.5e-5 at K = 3)
    after 171..1,141 accepted steps.
    """
    traj = flow_mod.integrate(spec.field, np.zeros(2), spec.T, 1e-10)
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
