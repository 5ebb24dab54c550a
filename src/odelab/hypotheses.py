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

from . import ConstructionError, geometry, kernels, smoothness
from . import flow as flow_mod
from .flow import ModelFunction, _row_sumsq

__all__ = [
    "ClassTooTight",
    "DimensionTooSmall",
    "DeltaTooLarge",
    "DeltaTooSmall",
    "HypothesisPair",
    "HypothesisFamily",
    "SpiralConstruction",
    "stubble_prob_family",
    "stubble_prob_checks",
    "stubble_det_pair",
    "stubble_det_checks",
    "irrational_timestep_falsifier",
    "snake_prob_family",
    "snake_transverse_envelope",
    "snake_symmetry_checks",
    "snake_gronwall_checks",
    "snake_det_pair",
    "snake_det_checks",
    "spiral_build",
    "spiral_verify",
]


class ClassTooTight(ConstructionError):
    """The smoothness constants leave no usable perturbation radius."""


class DimensionTooSmall(ConstructionError):
    """The construction needs at least one transverse coordinate."""


class DeltaTooLarge(ConstructionError):
    """Requested tube radius exceeds what the class constants support."""


class DeltaTooSmall(ConstructionError):
    """Requested tube radius needs more lattice points than geometry.MAX_LATTICE."""


# pairs of one Gronwall suite: its 2 * trials trajectories are integrated as one batch
MAX_TRIALS = 10**3
# passes of one spiral: its orbit, integrated in full, grows with their number
MAX_PASSES = 64


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


# ---------------------------------------------------------------------------
# shared helpers


def _constant_field(dim: int, velocity: np.ndarray) -> ModelFunction:
    v = np.asarray(velocity, dtype=float)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(v, x.shape).copy()

    def closed_flow(x, t):
        return np.asarray(x, dtype=float) + v * np.asarray(t, dtype=float)[..., None]

    return ModelFunction(
        dim=dim,
        eval=evaluate,
        closed_form_flow=closed_flow,
        metadata={"velocity": v},
    )


def _check_radius(r: float, rho_plus: float):
    if not (0.0 < r <= rho_plus):
        raise ValueError(f"radius {r} outside (0, {rho_plus}]")


def _check_resolved(length: float, x0: np.ndarray, what: str):
    """Raise :class:`ClassTooTight` if ``length`` is below 2^26 ulp(|x0_c| + 1) at any c.

    Then the phase (x - z)/length of points within 1 of x0 keeps 26 bits.
    """
    c = int(np.abs(x0).argmax())  # ulp grows with |x0_c|: the largest coordinate binds
    resolution = 2.0**26 * math.ulp(abs(float(x0[c])) + 1.0)
    if length < resolution:
        raise ClassTooTight(f"{what} {length:.3g}, below the {resolution:.3g} that "
                            f"x0 = {float(x0[c])} resolves")


def _calibrated(beta: float, d: int, L, L_beta: float, shape: str):
    """The d -> d class, the calibrated ``shape`` kernel and its certified radius cap."""
    cls = smoothness.SmoothnessClass(beta, tuple(L), L_beta, d, d)
    spec = kernels.KernelSpec(
        beta=beta, alpha=kernels.calibrate_alpha(beta, shape), kind=shape, dim=d
    )
    return cls, spec, kernels.r_max(beta, tuple(L), L_beta, spec)


def _perturbed_field(spec: kernels.KernelSpec, drift: np.ndarray, centers, r: float,
                     amplitude: float, axis: int, coef: float) -> ModelFunction:
    """drift + coef * sum_i amplitude r^beta h((x - z_i)/r) on output coordinate ``axis``.

    h is the unit shape of ``spec`` (:func:`kernels.kernel_shape_eval`), so
    the term of center z_i vanishes outside the closed ball B(z_i, r).  A
    lone center may be an (m, d) array: x - z broadcasts, so row j of an
    (m, d) state is perturbed at row j of z only.  Several centers must be
    pairwise >= 2r apart (``combine`` checks it, the snake-det lattice has
    pitch 2r): as h is an exact 0 where 1 - |w|^2 <= 1e-12, only the nearest
    center's term t can be non-zero, and drift + t is the sum bit for bit.
    The field's metadata records its ``centers`` and ``radius``.
    """
    scale = amplitude * r**spec.beta
    zs = np.asarray(centers, dtype=float)
    rows = geometry._MIN_DISTANCE_ROWS

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[...] = drift
        z = zs[0]
        if len(zs) > 1:  # each point's nearest center, a block of rows at a time
            pts = x.reshape(-1, x.shape[-1])
            near = [_row_sumsq(pts[lo:lo + rows, None] - zs).argmin(axis=1)
                    for lo in range(0, len(pts), rows)]
            z = zs[np.concatenate(near)].reshape(x.shape)
        out[..., axis] += coef * (scale * kernels.kernel_shape_eval(spec, (x - z) / r))
        return out

    return ModelFunction(dim=spec.dim, eval=evaluate, metadata={"centers": zs, "radius": r})


def _prob_family(kind: str, cls: smoothness.SmoothnessClass, spec: kernels.KernelSpec,
                 cap: float, drift: np.ndarray, axis: int, metadata: dict) -> HypothesisFamily:
    """Null drift with L_beta r^beta-scaled kernel perturbations on one axis.

    Radii are capped at min(1/2, cap); ``metadata`` becomes the family's.
    """
    if cap < 1e-3:
        raise ClassTooTight(
            f"certified {spec.kind} radius {cap:.3g} < 1e-3 for constants L={tuple(cls.L)}, "
            f"L_beta={cls.L_beta}"
        )
    rho_plus = min(0.5, cap)
    L_beta = cls.L_beta

    def make_alternative(z, r):
        _check_radius(r, rho_plus)
        return _perturbed_field(spec, drift, [np.asarray(z, dtype=float)], r, L_beta, axis, 1.0)

    def combine(centers, r):
        _check_radius(r, rho_plus)
        c = np.atleast_2d(np.asarray(centers, dtype=float))
        sep = geometry.min_distance(c)
        if sep < 2.0 * r:
            raise ValueError(f"centers only {sep:.3g} apart; need >= 2r = {2*r:.3g}")
        return _perturbed_field(spec, drift, c, r, L_beta, axis, 1.0)

    return HypothesisFamily(
        kind=kind,
        f0=_constant_field(cls.dim_in, drift),
        make_alternative=make_alternative,
        combine=combine,
        rho_plus=rho_plus,
        kernel=spec,
        smoothness_class=cls,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# stubble


def stubble_prob_family(beta: float, d: int, L: Sequence[float],
                        L_beta: float) -> HypothesisFamily:
    """Null f0 = 0 with bump alternatives f_z,r = L_beta r^beta h((x-z)/r) e_1.

    h is the calibrated radial bump, so each alternative (and any
    2r-separated sum) lies in the d -> d class with constants (L, L_beta).
    """
    return _prob_family("stubble", *_calibrated(beta, d, L, L_beta, "bump"), np.zeros(d), 0, {})


def stubble_prob_checks(family: HypothesisFamily, r: float) -> list:
    """(name, ok, measured, limit) records of a stubble bump family at radius r.

    ``bump-membership``: the alternative at z = (0.5, ...) passes
    :func:`odelab.smoothness.certify_membership` on prod [z_i - r, z_i + r] (the
    perturbed coordinate's measured sup-norms against L), and fails where no
    mesh point sees the bump (sup |f| reads 0, as at d = 12);
    ``oversized-radius-rejected``: ``make_alternative`` refuses 4 rho_plus.
    """
    z = np.full(family.f0.dim, 0.5)
    alt = family.make_alternative(z, r)
    rep = smoothness.certify_membership(alt, family.smoothness_class, [(c - r, c + r) for c in z])
    sups = rep.components[0].sup_measured
    try:
        family.make_alternative(z, 4.0 * family.rho_plus)
        rejected = False
    except ValueError:
        rejected = True
    return [("bump-membership", rep.passed and sups[0] > 0.0, sups,
             list(family.smoothness_class.L)),
            ("oversized-radius-rejected", rejected, None, None)]


def _largest_fitting(bounds: Callable[[float], list], limits: Sequence[float], cap: float,
                     margin0: float) -> float:
    """The largest amplitude in [0, cap] whose ``bounds(amp)`` meet ``limits``, to 1e-12.

    Brent's bracketing method on the worst margin max_k b_k / L_k - 1, whose
    value at amplitude 0 (taken to fit) is ``margin0`` and is not evaluated.
    Each trial is an inverse-quadratic or secant step, or a bisection where
    that step would leave the bracket or not halve the step before last.  It
    is placed on the fitting or failing side by the exact test b_k <= L_k,
    never by the margin, as b / L can round to 1 where b > L.  Where the root
    lies decades below the failing end hi (its margin is inf, hi subnormal, or
    nothing fitted and the trial is within 1e-12 hi of 0), the trial is the
    geometric mean of the ends (0 read as 5e-324), halving their exponent
    range.  The cap is returned if it fits; else the search stops once the
    fitting end lo and the failing end hi meet hi - lo <= 1e-12 hi, or no
    float lies between them, and returns lo (0 if no trial fitted).
    """
    limits = [float(v) for v in limits]

    def probe(amp: float) -> tuple:
        b = [float(v) for v in bounds(amp)]
        ratios = [v / lim for v, lim in zip(b, limits)]  # float division: inf, not a warning
        return amp, max(ratios) - 1.0, all(v <= lim for v, lim in zip(b, limits))

    cur = probe(cap)
    if cur[2]:
        return cap
    # (amplitude, margin, fits) of the latest trial, the one before and the bracket's
    # other end; spre, scur are the steps before last and last (Brent's names)
    pre = (0.0, margin0, True)
    while True:
        if pre[2] != cur[2]:
            blk, spre, scur = pre, cur[0] - pre[0], cur[0] - pre[0]
        if abs(blk[1]) < abs(cur[1]):  # cur: the end with the smaller margin
            pre, cur, blk = cur, blk, cur
        lo, hi = (cur, blk) if cur[2] else (blk, cur)
        if hi[0] - lo[0] <= 1e-12 * hi[0]:
            break
        delta = 0.5e-12 * hi[0]  # the least step: past the root it closes the bracket
        sbis = 0.5 * (blk[0] - cur[0])
        (xc, fc, _), (xp, fp, _), (xb, fb, _) = cur, pre, blk
        if abs(spre) > delta and abs(fc) < abs(fp) and math.isfinite(fp) and math.isfinite(fb):
            try:
                if xp == xb:  # secant
                    stry = -fc * (xc - xp) / (fc - fp)
                else:  # inverse quadratic
                    dp, db = (fp - fc) / (xp - xc), (fb - fc) / (xb - xc)
                    stry = -fc * (fb * db - fp * dp) / (db * dp * (fb - fp))
            except ZeroDivisionError:
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        x = xc + (scur if abs(scur) > delta else math.copysign(delta, sbis))
        if math.isinf(hi[1]) or hi[0] < 2.2250738585072014e-308 or (lo[0] == 0.0 and x <= delta):
            x = math.sqrt(max(lo[0], 5e-324)) * math.sqrt(hi[0])  # bisect the exponent
        if not lo[0] < x < hi[0]:  # rounded onto an end: bisect, or stop if that does too
            x = xc + sbis
            if not lo[0] < x < hi[0]:
                break
        pre, cur = cur, probe(x)
    return lo[0]


def stubble_det_pair(beta: float, d: int, L: Sequence[float], L_beta: float,
                     delta_t: float, x0) -> HypothesisPair:
    """Two fields whose flows agree at every multiple of delta_t from every x.

    f0 drifts at speed (2/3) L_0 along e_1; f1 is the chain-remainder field
    (:func:`odelab.smoothness.chain_remainder_field`, built in d dimensions),
    which reparametrizes the same orbit through a periodic perturbation g of
    the identity with period r = (2/3) L_0 delta_t, so one step of the time
    grid advances the conjugating map by exactly one period; coordinates
    2..d do not move under either field.  Both closed-form flows broadcast
    starts against times.  The amplitude is the slope cap if that fits, else
    the largest fitting one below it to 1e-12 relative, found by Brent's
    bracketing method on the worst bound margin (about ten evaluations) of
    the closed-form jet of the chain-remainder field
    (:func:`odelab.smoothness.chain_remainder_bounds`): M_k <= L_k, M_k a grid
    maximum of |s^(k)| plus its gap term (D^2/8) M_{k+2} (M_0 = sup |s| exactly),
    and the Hölder bound (2 M_ell)^(1-gamma) M_{ell+1}^gamma <= L_beta.  The
    fitting end of the bracket always meets every bound exactly, so the
    result meets them even where they are not monotone.  The phase puts
    g^{-1}(x0_1) on the argmax (1 + 3^(-1/4))/2 of |K_per'|, where the gap
    at x0 is the largest.  A period below 2^26 ulp(|x0_1| + 1), too short to
    resolve there, or whose r^(beta+1) nears overflow, raises :class:`ClassTooTight`,
    as does an amplitude so small that 1 + amp r^beta sup|K_per'| rounds to 1.
    """
    L = tuple(float(v) for v in L)
    cls = smoothness.SmoothnessClass(beta, L, L_beta, d, d)
    L0 = L[0]
    x0 = np.asarray(x0, dtype=float)
    r = (2.0 / 3.0) * L0 * delta_t
    w_star = 0.5 * (1.0 + kernels.K1_ARGMAX)  # argmax of |K_per'|
    per_prime = 2.0 * kernels.K1_SUP  # |K_per'(w_star)|, bit for bit
    # the separation claimed at x0 needs 26 bits of phase (|K_per'| is flat at its
    # maximum); r >= 1.5e-8 also keeps r^beta and the jet's scale r^-(ell+1) finite
    _check_resolved(r, x0[:1], f"time step {delta_t} gives period")
    if (beta + 1.0) * math.log2(r) >= 1023.0:  # r^(beta+1), the scale of g's bump, overflows
        raise ClassTooTight(f"time step {delta_t} gives period {r:.3g}: r^(beta+1) overflows")
    limits = L + (L_beta,)

    # at amplitude 0, M_0 = (2/3) L_0 and every other bound is 0
    amp = _largest_fitting(lambda a: smoothness.chain_remainder_bounds(a, r, L0, beta),
                           limits, 0.5 / (r**beta * per_prime) * (1.0 - 1e-12), -1.0 / 3.0)
    if 1.0 + amp * r**beta * per_prime == 1.0:  # g' rounds to 1 everywhere: f1 is f0
        raise ClassTooTight(f"no perturbation amplitude fits into L={L}, L_beta={L_beta} "
                            f"(the largest, {amp!r}, vanishes in floating point)")

    # place the phase so g^{-1}(x0_1) lands exactly on the argmax of |K_per'|
    z = float(x0[0]) - r * w_star - amp * r ** (beta + 1) * float(
        kernels.periodic_kernel(w_star)
    )
    speed = (2.0 / 3.0) * L0
    f0 = _constant_field(d, speed * np.eye(d)[0])
    f1 = smoothness.chain_remainder_field(amp, r, z, L0, beta, d)

    attained = speed * amp * r**beta * per_prime
    return HypothesisPair(
        f0=f0,
        f1=f1,
        x0=x0,
        claimed_separation=attained * (1.0 - 1e-12),
        coincidence_spec=f"flows agree for all x at every t in {delta_t}*Z",
        smoothness_class=cls,
        metadata={"delta_t": delta_t, "amplitude": amp, "radius": r, "phase": z},
    )


def irrational_timestep_falsifier(pair: HypothesisPair, t2: float) -> float:
    """Max flow mismatch of the pair at time t2 over 100 starts across two periods.

    The starts are x0 with its first coordinate moved across [x0_1 - r, x0_1 + r],
    r the period of the perturbation.

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
    return float(np.sqrt(_row_sumsq(u0 - u1)).max())


def stubble_det_checks(pair: HypothesisPair, xs: np.ndarray, tol: float = 1e-9) -> list:
    """(name, ok, measured, limit) records of the stubble-det pair's claims.

    * ``grid-coincidence``: the flows from the starts xs (n, d) agree to
      ``tol`` at t = i delta_t, |i| <= 5;
    * ``separation-floor``: the claimed separation reaches the amplitude-free
      floor (2/3) L_0 sup|K_per'| r^beta, the claim at amplitude 1, that is
      (2/3)^(beta+1) sup|K_per'| L_0^(beta+1) delta_t^beta with r = (2/3) L_0
      delta_t, which a pair whose amplitude is below 1 misses; it is finite
      wherever the pair was built, as r^(beta+1) is;
    * ``separation-attained``: |f1(x0) - f0(x0)|, the largest entry's magnitude as
      the fields differ in coordinate 0 only, reaches the claimed separation;
    * ``membership``: f1 passes the finite-difference certification
      (:func:`odelab.smoothness.certify_membership`, default budget) into
      the pair's class on [0, 2r]^d, two periods of the perturbation.
    """
    md, cls = pair.metadata, pair.smoothness_class
    delta_t = md["delta_t"]
    worst = max(_flow_gap(pair, xs, i * delta_t) for i in range(-5, 6))
    floor = (2.0 / 3.0) * cls.L[0] * md["radius"] ** cls.beta * (2.0 * kernels.K1_SUP)
    claimed = pair.claimed_separation
    # the fields differ in coordinate 0 only: its |.| is the norm, with no square to overflow
    attained = float(np.abs(pair.f1(pair.x0) - pair.f0(pair.x0)).max())
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
    return _prob_family("snake", cls, spec, cap, L0 * np.eye(d)[0], 1, {"drift": L0})


def snake_transverse_envelope(family: HypothesisFamily, r: float) -> float:
    """psi(r) = 2 ||Kt|| ||Kt'|| L_beta r^(beta+1) / L_0 for a snake pulse family.

    It bounds the transverse deviation of one pass through a radius-r pulse:
    crossing time 2r/L_0 at transverse speed <= L_beta r^beta ||Kt|| ||Kt'||.
    """
    alpha, cls = family.kernel.alpha, family.smoothness_class
    kt_sup, kt_grad = alpha * kernels.K_SUP, alpha * kernels.K1_SUP
    return 2.0 * kt_sup * kt_grad * cls.L_beta * r ** (cls.beta + 1.0) / family.metadata["drift"]


def _pulse_crossing(family: HypothesisFamily, r: float):
    """The pulse at z = (0.5, ...), a start 2r before z along e_1 and the time 4r/L_0."""
    z = np.full(family.f0.dim, 0.5)
    x = z.copy()
    x[0] = z[0] - 2.0 * r
    return family.make_alternative(z, r), x, 4.0 * r / family.metadata["drift"]


def snake_symmetry_checks(family: HypothesisFamily, r: float,
                          tol_net: float | None = None) -> list:
    """(name, ok, measured, limit) records of one pass through a snake pulse.

    The pass starts 2r before z = (0.5, ...) along e_1 and runs for T = 4r/L_0
    at tol 1e-11.  Its transverse displacement ends within ``tol_net`` (default
    max(1e-9, 1e-4 psi(r))) and stays within psi(r) (1 + 1e-6) at every node;
    the semigroup residual (:func:`odelab.flow.semigroup_residual`) at (T/3, T/2)
    is at most 1e-8.  The pass and the residual's legs to T/3 and 5T/6 are one
    row-wise batch.
    """
    alt, x, T = _pulse_crossing(family, r)
    psi = snake_transverse_envelope(family, r)
    tol_net = max(1e-9, 1e-4 * psi) if tol_net is None else tol_net
    traj, mid, direct = flow_mod.integrate_rows(alt, [x] * 3, [T, T / 3.0, T / 3.0 + T / 2.0],
                                                1e-11)
    net = float(abs(flow_mod.final_state(traj)[1] - x[1]))
    during = float(np.abs(traj.states[:, 1] - x[1]).max())
    sg = flow_mod.semigroup_residual(alt, mid, direct, T / 2.0, 1e-11)
    return [
        ("zero-net-transverse", net <= tol_net, net, tol_net),
        ("transverse-within-envelope", during <= psi * (1.0 + 1e-6), during, psi),
        ("semigroup", sg <= 1e-8, sg, 1e-8),
    ]


def snake_gronwall_checks(family: HypothesisFamily, r: float, trials: int,
                          seed: int = 0) -> list:
    """(name, ok, measured, limit) records ``pair-0`` .. of pulse-crossing pairs.

    Pair i runs for T = 4r/L_0 from x1, the start 2r before z = (0.5, ...) along
    e_1 moved by U(-r/2, r/2) in coordinate 2, and x2 = x1 + U(-r/4, r/4)^d, drawn
    from ``default_rng(seed)``; all 2 * trials flows are integrated at tol 1e-10
    as one row-wise batch (:func:`odelab.flow.integrate_rows`).  Their
    end separation passes within both bounds (+1e-12), of which it reports the smaller:

        additive  ||x1 - x2|| + 4 ||h|| L_beta r^(beta+1) / L_0,
        Grönwall  ||x1 - x2|| exp(2 ||Dh|| L_beta r^beta / L_0),

    with ||h||, ||Dh|| upper bounds on the pulse's sup-norms (:func:`kernels.shape_deriv_supnorm`).
    """
    alt, x, T = _pulse_crossing(family, r)
    cls, L0 = family.smoothness_class, family.metadata["drift"]
    h_sup, dh_sup = (kernels.shape_deriv_supnorm(family.kernel, k) for k in (0, 1))
    spread = 4.0 * h_sup * cls.L_beta * r ** (cls.beta + 1) / L0
    rate = 2.0 * dh_sup * cls.L_beta * r**cls.beta / L0
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(trials):
        x1 = x.copy()
        x1[1] += rng.uniform(-r / 2, r / 2)
        starts += [x1, x1 + rng.uniform(-r / 4, r / 4, size=len(x1))]
    ends = [flow_mod.final_state(traj)
            for traj in flow_mod.integrate_rows(alt, starts, T, 1e-10)]
    checks = []
    for trial in range(trials):
        x1, x2 = starts[2 * trial:2 * trial + 2]
        u1, u2 = ends[2 * trial:2 * trial + 2]
        measured = float(np.linalg.norm(u1 - u2))
        base = float(np.linalg.norm(x1 - x2))
        bound_a, bound_b = base + spread, base * np.exp(rate)
        ok = measured <= bound_a + 1e-12 and measured <= bound_b + 1e-12
        checks.append((f"pair-{trial}", ok, measured, min(bound_a, bound_b)))
    return checks


def snake_det_pair(beta: float, d: int, L: Sequence[float], L_beta: float,
                   delta: float, x0):
    """Speed-bump lattice threaded exactly between a grid of trajectories.

    Returns ``(pair, initials, times)``.  All initial conditions start on
    the hyperplane x_1 = 0 and drift at speed L_0 for time 1/L_0; the bump
    centers sit on a transverse lattice of pitch 2r, the initial
    conditions on its half-pitch dual, so every trajectory keeps distance
    at least r from every bump and the two flows are identical on the grid.
    The r-tubes around the trajectories cover the unit cube whenever the
    transverse pitch resolves delta = r sqrt(d).  A pitch below
    2^26 ulp(|x0_c| + 1) at any coordinate c, too short to resolve there,
    raises :class:`ClassTooTight`.
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
    per_axis = math.ceil(math.sqrt(d) / (2.0 * delta)) + 1
    m = per_axis ** (d - 1)
    # bump centers: transverse lattice of pitch 2r through the apex x0,
    # wide enough to flank the cube by one pitch on each side
    spans = [(math.floor((-2.0 * r - x0[c]) / (2.0 * r)),
              math.ceil((1.0 + 2.0 * r - x0[c]) / (2.0 * r))) for c in range(1, d)]
    n_centers = math.prod(hi - lo + 1 for lo, hi in spans)
    if max(m, n_centers) > geometry.MAX_LATTICE:
        raise DeltaTooSmall(f"delta {delta} needs {max(m, n_centers)} lattice points "
                            f"(starts or bump centers), above the limit {geometry.MAX_LATTICE}")
    # both lattices are laid out from x0 at pitch 2r (the centers at x0_1 itself)
    _check_resolved(2.0 * r, x0, f"delta {delta} gives pitch")

    # transverse lattice of initial conditions: pitch 2r, offset exactly r
    # from the bump lattice through x0, shifted into [0, 1] coverage position
    axes = []
    for c in range(1, d):
        base = (x0[c] + r) % (2.0 * r)
        first = base - 2.0 * r if base >= r else base
        axes.append(first + 2.0 * r * np.arange(per_axis))
    initials = geometry.product_grid([np.zeros(1)] + axes)
    times = np.full(m, 1.0 / L0)

    center_axes = [x0[c] + 2.0 * r * np.arange(lo, hi + 1)
                   for c, (lo, hi) in enumerate(spans, 1)]
    centers = geometry.product_grid([x0[:1]] + center_axes)

    # transverse distance between the trajectory lines and the bump centers.
    # Both lattices are products of axes, so the closest pair is closest on
    # every axis: the per-axis minimum squared gaps sum to its squared
    # distance, and as rounding is monotone this is geometry.min_distance.
    gaps = [((a[:, None] - b[None, :]) ** 2).min() for a, b in zip(axes, center_axes)]
    clearance = float(np.sqrt(np.sum(gaps)))
    if clearance < r * (1.0 - 1e-9):
        raise RuntimeError("initial-condition lattice clashes with bump lattice")

    drift = L0 * np.eye(d)[0]
    f0 = _constant_field(d, drift)
    amp = L_beta * r**beta
    # bumps subtract so the first-coordinate speed stays within L_0
    f1 = _perturbed_field(spec, drift, centers, r, L_beta, 0, -1.0)

    pair = HypothesisPair(
        f0=f0,
        f1=f1,
        x0=x0,
        claimed_separation=amp * kernels.shape_deriv_supnorm(spec, 0) * (1.0 - 1e-12),
        coincidence_spec=(
            f"flows from the {m} grid initial conditions are identical for "
            f"t in [0, {1.0 / L0:g}]"
        ),
        smoothness_class=cls,
        metadata={"delta": delta, "radius": r, "m": m, "clearance": clearance},
    )
    return pair, initials, times


def snake_det_checks(pair: HypothesisPair, initials: np.ndarray, horizons: np.ndarray,
                     tol_agree: float = 1e-8) -> list:
    """(name, ok, measured, limit) records of the snake-det pair's claims.

    * ``identical-trajectories``: from every initial condition the f0 and
      f1 flows (tol 1e-10, each field's rows as one row-wise batch) agree to
      ``tol_agree`` at 33 times in [0, T];
    * ``cover-at-delta``: the delta-tubes around the f1 trajectories cover
      the unit cube, delta from the pair's metadata;
    * ``no-cover-at-half-delta``: the delta/2-tubes do not.
    """
    delta = pair.metadata["delta"]
    tubes, worst = [], 0.0
    flows = (flow_mod.integrate_rows(f, initials, horizons, 1e-10) for f in (pair.f0, pair.f1))
    for T, t0, t1 in zip(horizons, *flows):
        s = np.linspace(0.0, float(T), 33)
        gap = np.sqrt(_row_sumsq(flow_mod.flow_at(t1, s) - flow_mod.flow_at(t0, s)))
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


def _spiral_region(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Index of :func:`spiral_build`'s region (left turn, right turn, top, bottom) of each
    point (x1, x2)."""
    return np.where(x1 <= 0.0, 0, np.where(x1 >= 1.0, 1, np.where(x2 >= -1.0, 2, 3)))


def _spiral_region_of(x1: float, x2: float) -> int:
    """:func:`_spiral_region` of one point, by the same tests on floats."""
    return 0 if x1 <= 0.0 else 1 if x1 >= 1.0 else 2 if x2 >= -1.0 else 3


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

    # each region's field on rows (k, 2) of that region
    def turn(z):
        def around(X):
            v = (X - z) @ rot.T
            n = np.sqrt(_row_sumsq(v))
            return v * np.where(n > 1.0, 1.0 / np.maximum(n, 1e-300), 1.0)[:, None]
        return around

    def top(X):
        out = np.zeros_like(X)
        out[:, 0] = np.minimum(1.0, np.abs(X[:, 1] + 1.0))
        return out

    def bottom(X):
        out = np.empty_like(X)
        speed = np.minimum(1.0, np.abs(X[:, 1] + 1.0))
        out[:, 0] = -speed
        out[:, 1] = speed * (-4.0 * delta * (0.5 - np.abs(X[:, 0] - 0.5)))
        return out

    regions = (turn(z_left), turn(z_right), top, bottom)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        if len(X) == 1:  # the integrator's one-row state: no masks
            out = regions[_spiral_region_of(*X[0].tolist())](X)
        else:
            which = _spiral_region(X[:, 0], X[:, 1])
            out = np.empty_like(X)
            for k, piece in enumerate(regions):
                rows = which == k
                if rows.any():
                    out[rows] = piece(X[rows])
        return out[0] if x.ndim == 1 else out

    fld = ModelFunction(
        dim=2,
        eval=evaluate,
        metadata={"supnorm": math.sqrt(1.0 + 4.0 * delta**2)},
    )

    j = np.arange(K)
    schedule = np.concatenate([[0.0], np.cumsum(2.0 + math.pi * (2.0 + j / K + (j + 1) / K))])
    T = float(schedule[-1] + 1.0)
    return SpiralConstruction(K=K, delta=delta, field=fld, schedule=schedule, T=T)


def spiral_verify(spec: SpiralConstruction, seed: int = 0) -> list:
    """(name, ok, measured, limit) records of the spiral orbit and field.

    ``schedule``: pass k starts at (0, k/K) at time s_k and ends at (1, k/K)
    at s_k + 1, within ``tol_geo`` = 1e-6 T; ``horizon``: T is 1 + (2 + 3 pi) K
    to 1e-12; ``supnorm``: max |f| on the box [-2, 3] x [-3.5, 1.5] is
    sqrt(1 + 4 delta^2) to 1e-9; ``lipschitz``: no difference quotient there
    exceeds sqrt(1 + 20 delta^2) + 1e-9 (100,000 points each, ``default_rng(seed)``).
    No step cap is needed at the region boundaries, where the field is only
    Lipschitz: steps across them fail the local error test and shrink.
    The orbit is integrated at tol 1e-10; over K = 1..8 the schedule error
    stays at least 19x inside ``tol_geo`` (1.8e-6 against 3.5e-5 at K = 3)
    after 171..1,141 accepted steps.
    """
    traj = flow_mod.integrate(spec.field, np.zeros(2), spec.T, 1e-10)
    tol_geo = 1e-6 * spec.T
    starts = flow_mod.flow_at(traj, spec.schedule)
    ends = flow_mod.flow_at(traj, spec.schedule + 1.0)
    max_err = max(float(np.linalg.norm(p - (x, k / spec.K)))
                  for k in range(spec.K + 1) for p, x in ((starts[k], 0.0), (ends[k], 1.0)))
    t_exact = 1.0 + (2.0 + 3.0 * math.pi) * spec.K

    rng = np.random.default_rng(seed)
    box_lo, box_hi = np.array([-2.0, -3.5]), np.array([3.0, 1.5])
    pts = box_lo + (box_hi - box_lo) * rng.random((100000, 2))
    # the sup-norm is attained on the mid-ramp line below the turning band
    pts[0] = (0.5, -2.5)
    supnorm = float(np.sqrt(_row_sumsq(spec.field(pts))).max())
    sup_exact = spec.field.metadata["supnorm"]

    a = box_lo + (box_hi - box_lo) * rng.random((100000, 2))
    b = np.clip(a + rng.normal(scale=0.05, size=a.shape), box_lo, box_hi)
    num = np.sqrt(_row_sumsq(spec.field(a) - spec.field(b)))
    den = np.sqrt(_row_sumsq(a - b))
    keep = den > 1e-12
    lip = float((num[keep] / den[keep]).max())
    lip_limit = math.sqrt(1.0 + 20.0 * spec.delta**2)

    return [
        ("schedule", max_err <= tol_geo, max_err, tol_geo),
        ("horizon", abs(spec.T - t_exact) <= 1e-12, spec.T, t_exact),
        ("supnorm", abs(supnorm - sup_exact) <= 1e-9, supnorm, sup_exact),
        ("lipschitz", lip <= lip_limit + 1e-9, lip, lip_limit),
    ]
