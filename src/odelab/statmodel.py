"""Observation schemes, information-theoretic reductions and rate formulas.

The estimation problem observes noisy snapshots of flows: trajectory j
starts at x_j and is recorded at times t_{j,1} < ... < t_{j,n_j} with
additive Gaussian noise.  This module builds the two pinned designs
("stubble": a grid of short stationary trajectories; "snake": few long
sweeps), measures their regularity constants, converts perturbation
geometry into KL budgets, and evaluates the resulting minimax rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import flow as flow_mod
from . import geometry
from .hypotheses import HypothesisFamily, snake_transverse_envelope

__all__ = [
    "SingularCovariance",
    "RadiusOutOfRange",
    "MissingField",
    "NoiseLaw",
    "ObservationScheme",
    "build_stubble_scheme",
    "build_snake_scheme",
    "CoverCheck",
    "check_cover",
    "check_cover_time",
    "gaussian_kl",
    "scheme_kl",
    "PsiChi",
    "psi_chi_measure",
    "MasterInstance",
    "master_instance_stubble",
    "master_instance_snake",
    "master_radius_formula",
    "MasterRadius",
    "choose_master_radius",
    "lecam_two_point",
    "gaussian_lrt_error",
    "FanoBound",
    "fano_many_point",
    "MonteCarlo",
    "monte_carlo_two_point",
    "expectation_reduction",
    "RateSpec",
    "rate_eval",
    "RATE_IDS",
]


class SingularCovariance(Exception):
    """Noise covariance is not positive definite."""


class RadiusOutOfRange(Exception):
    """Chosen master radius leaves the admissible [rho_minus, rho_plus]."""


class MissingField(Exception):
    """A rate formula was asked for without one of its inputs."""


# ---------------------------------------------------------------------------
# noise and schemes


@dataclass(frozen=True, eq=False)
class NoiseLaw:
    """Centered Gaussian observation noise in R^dim.

    ``covariance`` accepts a scalar (sigma^2 I), a diagonal vector, or a
    full matrix.  ``C_noise`` = 1/(2 lambda_min) converts squared mean
    shifts into KL divergences: KL <= C_noise * ||shift||^2.
    """

    dim: int
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(self.dim)
        elif cov.ndim == 1:
            cov = np.diag(cov)
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"covariance shape {cov.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "covariance", cov)
        lam = float(np.linalg.eigvalsh(cov).min())
        if lam <= 0.0:
            raise SingularCovariance(f"smallest eigenvalue {lam:.3g} <= 0")
        object.__setattr__(self, "lambda_min", lam)

    @property
    def C_noise(self) -> float:
        return 1.0 / (2.0 * self.lambda_min)


@dataclass(frozen=True, eq=False)
class ObservationScheme:
    """Initial conditions (m, d) and per-trajectory observation times (m, n).

    Times must be finite, positive and strictly increasing along each row.
    """

    kind: str
    initials: np.ndarray
    times: np.ndarray
    noise: NoiseLaw

    def __post_init__(self):
        object.__setattr__(self, "initials", np.atleast_2d(np.asarray(self.initials, float)))
        object.__setattr__(self, "times", np.atleast_2d(np.asarray(self.times, float)))
        if len(self.times) != len(self.initials):
            raise ValueError("one row of times per initial condition")
        if not np.isfinite(self.times).all():
            raise ValueError("times must be finite")
        if np.any(self.times <= 0) or np.any(np.diff(self.times, axis=1) <= 0):
            raise ValueError("times must be positive and strictly increasing")

    @property
    def m(self) -> int:
        return self.initials.shape[0]

    @property
    def dim(self) -> int:
        return self.initials.shape[1]

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def n_max(self) -> int:
        return int(self.times.shape[1])

    @property
    def T_max(self) -> float:
        return float(self.times.max())

    @property
    def T_sum(self) -> float:
        return float(self.times.max(axis=1).sum())


def build_stubble_scheme(K_grid: int, n_per: int, delta_t: float,
                         noise: NoiseLaw) -> ObservationScheme:
    """Cell-centered K^d grid of starts, each observed at delta_t, 2 delta_t, ...."""
    d = noise.dim
    axes = [(np.arange(K_grid) + 0.5) / K_grid] * d
    grids = np.meshgrid(*axes, indexing="ij")
    initials = np.stack([g.reshape(-1) for g in grids], axis=-1)
    row = delta_t * np.arange(1, n_per + 1)
    times = np.tile(row, (len(initials), 1))
    return ObservationScheme("stubble", initials, times, noise)


def build_snake_scheme(initials, horizons, n_per: int,
                       noise: NoiseLaw) -> ObservationScheme:
    """Long-trajectory scheme: n_per equispaced observations up to each horizon."""
    initials = np.atleast_2d(np.asarray(initials, float))
    horizons = np.broadcast_to(np.asarray(horizons, float), (len(initials),))
    times = np.stack([T * np.arange(1, n_per + 1) / n_per for T in horizons])
    return ObservationScheme("snake", initials, times, noise)


# ---------------------------------------------------------------------------
# design regularity


@dataclass
class CoverCheck:
    passed: bool
    C_hat: float
    declared: float
    detail: dict = field(default_factory=dict)


def check_cover(scheme: ObservationScheme, declared: Optional[float] = None,
                *, extra_centers: int = 256) -> CoverCheck:
    """Ball-counting regularity of the initial conditions.

    C_hat is the max over candidate centers z and radii r in [r_floor, 1]
    of #{j : ||x_j - z|| <= r} / (m r^d); the floor r_floor =
    (declared * m)^(-1/d) is where a single point saturates the budget.
    Candidate radii are the inclusion radii at each center (where the
    count jumps), which is where the ratio is locally maximal.
    """
    x = scheme.initials
    m, d = x.shape
    if declared is None:
        declared = 4.0**d
    r_floor = (declared * m) ** (-1.0 / d)
    net = geometry.halton(extra_centers, d)
    centers = np.vstack([x, net, np.full((1, d), 0.5)])
    C_hat = 0.0
    where = {}
    for z in centers:
        dist = np.sort(np.linalg.norm(x - z, axis=1))
        radii = np.concatenate([[r_floor], dist[(dist > r_floor) & (dist <= 1.0)]])
        counts = np.searchsorted(dist, radii * (1.0 + 1e-12), side="right")
        # scalar r**d: numpy's array power can round differently in the last bit
        ratios = counts / (m * np.array([r**d for r in radii.tolist()]))
        i = int(np.argmax(ratios))  # first maximum, as a strict > scan keeps
        if ratios[i] > C_hat:
            C_hat = ratios[i]
            where = {"center": z.copy(), "radius": float(radii[i]), "count": int(counts[i])}
    return CoverCheck(
        passed=bool(C_hat <= declared * (1.0 + 1e-12)),
        C_hat=float(C_hat),
        declared=float(declared),
        detail=where,
    )


def check_cover_time(scheme: ObservationScheme, declared: float = 3.0) -> CoverCheck:
    """Window-counting regularity of the observation times.

    C_hat is the max over trajectories and time windows [t_i, t_j] of
    (#observations in window) * T_sum / (n * window length).
    """
    n, T_sum, times = scheme.n, scheme.T_sum, scheme.times
    a, b = np.triu_indices(times.shape[1], 1)  # windows in (a, b) loop order
    c = (b - a + 1) * T_sum / (n * (times[:, b] - times[:, a]))
    C_hat, where = 0.0, {}
    if c.size:  # one time per trajectory: no window
        # first maximum in (j, a, b) order, as a strict > scan keeps; every
        # ratio is positive, as the times are finite and increasing
        j, i = np.unravel_index(int(np.argmax(c)), c.shape)
        C_hat = float(c[j, i])
        where = {"trajectory": int(j), "window": (float(times[j, a[i]]), float(times[j, b[i]]))}
    return CoverCheck(
        passed=bool(C_hat <= declared * (1.0 + 1e-12)),
        C_hat=float(C_hat),
        declared=float(declared),
        detail=where,
    )


# ---------------------------------------------------------------------------
# KL machinery


def gaussian_kl(shift, cov) -> float:
    """KL(N(mu, cov) || N(mu + shift, cov)) = shift' cov^{-1} shift / 2."""
    if isinstance(cov, NoiseLaw):
        cov = cov.covariance
    shift = np.asarray(shift, dtype=float)
    sol = np.linalg.solve(np.asarray(cov, dtype=float), shift)
    return 0.5 * float(shift @ sol)


def flow_states(f: flow_mod.ModelFunction, initials: np.ndarray, times: np.ndarray,
                *, tol: float = 1e-10) -> np.ndarray:
    """States of every trajectory at its observation times, shape (m, n, d).

    ``times`` needs one row per initial state.  Closed-form flows are
    evaluated directly; otherwise all trajectories are integrated in step,
    each under its own error test, up to the largest finite time and read
    out at the union of the requested times.  A NaN time gives a NaN state
    on both paths.
    """
    initials = np.atleast_2d(np.asarray(initials, float))
    times = np.atleast_2d(np.asarray(times, float))
    m, d = initials.shape
    if times.shape[0] != m:
        raise ValueError(f"{times.shape[0]} rows of times for {m} initial states")
    if f.closed_form_flow is not None:
        out = np.empty((m,) + times.shape[1:] + (d,))
        shared = (times == times[0]).all(axis=0)
        for i in range(times.shape[1]):
            col = times[:, i]
            if shared[i]:
                out[:, i, :] = f.closed_form_flow(initials, float(col[0]))
            else:
                for j in range(m):
                    out[j, i, :] = f.closed_form_flow(initials[j], float(col[j]))
        return out
    finite = times[np.isfinite(times)]
    T = float(finite.max()) if finite.size else 0.0
    traj = flow_mod.integrate(f, initials, T, tol)
    unique, inverse = np.unique(times, return_inverse=True)
    states = flow_mod.flow_at(traj, unique)
    out = states[inverse.reshape(times.shape), np.arange(m)[:, None]]
    out[np.isnan(times)] = np.nan
    return out


def scheme_kl(scheme: ObservationScheme, f0: flow_mod.ModelFunction,
              f1: flow_mod.ModelFunction, *, tol: float = 1e-10) -> float:
    """Total KL between the observation laws of f0 and f1 under the scheme."""
    s0 = flow_states(f0, scheme.initials, scheme.times, tol=tol)
    s1 = flow_states(f1, scheme.initials, scheme.times, tol=tol)
    shift = (s1 - s0).reshape(-1, scheme.dim)
    sol = np.linalg.solve(scheme.noise.covariance, shift.T)
    return 0.5 * float((shift.T * sol).sum())


# ---------------------------------------------------------------------------
# perturbation geometry: psi/chi and master instances


@dataclass
class PsiChi:
    psi_hat: float
    chi_hat: int
    n_candidates: int
    detail: dict = field(default_factory=dict)


def _default_centers(scheme: ObservationScheme, r: float) -> np.ndarray:
    d = scheme.dim
    mid = np.full(d, 0.5)
    x = scheme.initials
    nearest = x[np.linalg.norm(x - mid, axis=1).argmin()]
    cands = [mid, mid + r / 2.0 * np.eye(d)[0], nearest,
             nearest + r / 2.0 * np.ones(d) / math.sqrt(d)]
    net = geometry.halton(3, d)
    return np.vstack([cands, 0.25 + 0.5 * net])


def _entry_times(offsets: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    """First t >= 0 with ||p + v t|| <= r for each offset p in (..., d); NaN where none."""
    a = float(v @ v)
    b = offsets @ v
    c = (offsets * offsets).sum(axis=-1) - r * r
    t_in = np.where(c <= 0.0, 0.0, np.nan)
    if a > 0.0:
        disc = b * b - a * c
        meets = (c > 0.0) & (b < 0.0) & (disc >= 0.0)
        # the smaller root c / (-b + sqrt(disc)), without the cancellation of -b - sqrt(disc)
        t_in[meets] = c[meets] / (np.sqrt(disc[meets]) - b[meets])
    return t_in


def psi_chi_measure(family: HypothesisFamily, scheme: ObservationScheme, r: float,
                    *, tol: float = 1e-8) -> PsiChi:
    """Measured per-observation discrepancy and hit count at radius r.

    psi_hat: max over candidate centers and observations of the flow
    deviation between the one-perturbation alternative and the null.
    chi_hat: max over candidates of the number of observations whose
    reference point lands in B(z, r) -- initial conditions for the
    stubble design, observed states for the snake design.
    The candidate centers are the cube's midpoint, the start nearest to
    it, a shift of each by r/2, and three Halton points in [1/4, 3/4]^d.

    The alternative equals the constant-drift null outside B(z, r), so a
    trajectory follows the null's closed-form flow x + v t until it first
    meets the closed ball, at t_in.  Each (center, start) pair whose path
    meets its ball before the last observation becomes one row, started
    at x + v t_in and local time 0; its observations before t_in take the
    null state.  Every other pair deviates by exactly zero and is never
    integrated.  All rows, over all centers, are integrated as one batch
    (one ``integrate`` call, none when no path meets a ball), each row
    perturbed at its own center and under its own error test.  Starting
    at the entry matters: a row started far from a narrow ball takes
    steps longer than the ball and can step over the perturbation
    unseen.  The accuracy is limited by ``tol``, which bounds the absolute
    local error: at tol 1e-8 a snake psi_hat below about 1e-6 can be off
    by most of its value (up to 73% on the snake instances of
    perfbench/master_pipeline.py, against each row integrated alone at
    tol 1e-13 in pieces of 1/64 of its crossing).
    """
    centers = _default_centers(scheme, r)
    x, times = scheme.initials, scheme.times
    offsets = x - centers[:, None, :]
    t_in = _entry_times(offsets, family.f0.metadata["velocity"], r)
    # NaN (never meets) compares False; entering at or after the last observation deviates by 0
    c_idx, j_idx = np.nonzero(t_in < times[:, -1])
    psi = np.zeros(len(centers))
    chi = np.zeros(len(centers), dtype=int)
    if family.kind == "stubble":
        hits = np.linalg.norm(offsets, axis=-1) <= r * (1.0 + 1e-9)
        chi = hits.sum(axis=1) * scheme.n_max
    if c_idx.size:
        t0 = t_in[c_idx, j_idx][:, None]
        local = times[j_idx] - t0
        before = local < 0.0
        local[before] = np.nan
        alt = family.make_alternative(centers[c_idx], r)
        s_alt = flow_states(alt, family.f0.closed_form_flow(x[j_idx], t0), local, tol=tol)
        s_null = flow_states(family.f0, x[j_idx], times[j_idx])
        s_alt[before] = s_null[before]
        dev = np.linalg.norm(s_alt - s_null, axis=-1).max(axis=1)
        np.maximum.at(psi, c_idx, dev)
        if family.kind != "stubble":
            inside = np.linalg.norm(s_alt - centers[c_idx, None], axis=-1) <= r * (1.0 + 1e-12)
            np.add.at(chi, c_idx, inside.sum(axis=1))
    # the first maximal center, as a strict > scan over the centers keeps
    detail = {}
    for key, values in (("psi_center", psi), ("chi_center", chi)):
        i = int(np.argmax(values))
        if values[i] > 0:
            detail[key] = centers[i].copy()
    return PsiChi(psi_hat=float(psi.max()), chi_hat=int(chi.max()),
                  n_candidates=len(centers), detail=detail)


@dataclass(frozen=True, eq=False)
class MasterInstance:
    """Everything the master lower bound needs about one design."""

    kind: str
    family: HypothesisFamily
    scheme: ObservationScheme
    gamma: float
    a_n: float
    C_noise: float
    d_q: int
    rho_minus: float
    rho_plus: float
    metadata: dict = field(default_factory=dict)


def master_instance_stubble(family: HypothesisFamily, scheme: ObservationScheme,
                            *, C_cvr: Optional[float] = None) -> MasterInstance:
    """KL budget a_n = (||h|| L_beta T_max)^2 C_cvr m n_max, exponent 2 beta + d.

    Valid for r >= rho_minus = (C_cvr m)^{-1/d}: each of the <= C_cvr m r^d
    in-ball trajectories drifts at most ||h|| L_beta r^beta per unit time,
    and contributes n_max observations.
    """
    d = scheme.dim
    beta = family.smoothness_class.beta
    if C_cvr is None:
        C_cvr = 4.0**d
    h_sup = family.metadata["h_sup"]
    L_beta = family.smoothness_class.L_beta
    a_n = (h_sup * L_beta * scheme.T_max) ** 2 * C_cvr * scheme.m * scheme.n_max
    return MasterInstance(
        kind="stubble",
        family=family,
        scheme=scheme,
        gamma=2.0 * beta + d,
        a_n=a_n,
        C_noise=scheme.noise.C_noise,
        d_q=d,
        rho_minus=(C_cvr * scheme.m) ** (-1.0 / d),
        rho_plus=family.rho_plus,
        metadata={"C_cvr": C_cvr, "psi_coeff": h_sup * L_beta * scheme.T_max},
    )


def master_instance_snake(family: HypothesisFamily, scheme: ObservationScheme,
                          *, C_cvrtm: float = 3.0) -> MasterInstance:
    """KL budget from closed-form psi/chi envelopes, exponent 2(beta+1) + d.

    psi(r) = 2 ||Kt|| ||Kt'|| L_beta r^(beta+1) / L_0 bounds the transverse
    deviation (crossing time 2r/L_0 at transverse speed <= L_beta r^beta
    ||Kt|| ||Kt'||); chi(r) counts the <= (2r/pitch + 1)^(d-1) affected
    sweeps times the observations each can place inside one crossing
    window.  a_n is the max of psi^2 chi / r^gamma over admissible radii.
    """
    d = scheme.dim
    beta = family.smoothness_class.beta
    L0 = family.metadata["drift"]
    pitch = geometry.min_distance(scheme.initials[:, 1:])
    gamma = 2.0 * (beta + 1.0) + d
    n, T_sum = scheme.n, scheme.T_sum
    rho_minus = 0.5 * L0 * T_sum / (C_cvrtm * n)
    rho_plus = family.rho_plus

    def psi_cl(r):
        return snake_transverse_envelope(family, r)

    def chi_cl(r):
        lines = (2.0 * r / pitch + 1.0) ** (d - 1)
        per_line = max(1.0, C_cvrtm * n * (2.0 * r / L0) / T_sum)
        return lines * per_line

    grid = np.geomspace(max(rho_minus, 1e-12), rho_plus, 1000)
    a_n = float(max(psi_cl(r) ** 2 * chi_cl(r) / r**gamma for r in grid))
    return MasterInstance(
        kind="snake",
        family=family,
        scheme=scheme,
        gamma=gamma,
        a_n=a_n,
        C_noise=scheme.noise.C_noise,
        d_q=d,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        metadata={
            "C_cvrtm": C_cvrtm,
            "pitch": pitch,
            "psi_cl": psi_cl,
            "chi_cl": chi_cl,
        },
    )


# ---------------------------------------------------------------------------
# master radius and testing certificates


def master_radius_formula(variant: str, gamma: float, a_n: float, C_noise: float,
                          d_q: int = 1) -> float:
    """Raw radius formulas, before any admissibility check.

    pointwise: (2 C a_n)^{-1/gamma} caps the two-point KL at 1/2;
    sup: (d_q log(a_n) / (12 gamma C a_n))^{1/gamma} feeds a Fano bundle
    whose codebook grows like a_n^{d_q/gamma} (needs a_n > 1);
    lp: (36 C a_n)^{-1/gamma} leaves room for the many-point reduction.
    """
    if variant == "pointwise":
        return (2.0 * C_noise * a_n) ** (-1.0 / gamma)
    if variant == "sup":
        if a_n <= 1.0:
            raise RadiusOutOfRange(f"sup variant needs a_n > 1, got {a_n:.3g}")
        return (d_q * math.log(a_n) / (12.0 * gamma * C_noise * a_n)) ** (1.0 / gamma)
    if variant == "lp":
        return (36.0 * C_noise * a_n) ** (-1.0 / gamma)
    raise ValueError(f"unknown variant {variant!r}; use pointwise|sup|lp")


@dataclass
class MasterRadius:
    variant: str
    r_n: float
    rho_minus: float
    rho_plus: float
    a_n: float
    side_conditions: dict = field(default_factory=dict)


def choose_master_radius(instance: MasterInstance, variant: str = "pointwise") -> MasterRadius:
    """Radius formula plus admissibility against [rho_minus, rho_plus]."""
    raw = master_radius_formula(variant, instance.gamma, instance.a_n,
                                instance.C_noise, instance.d_q)
    side = {
        "raw": raw,
        "above_floor": raw >= instance.rho_minus,
        "below_cap": raw <= instance.rho_plus,
        "kl_budget": 0.5 if variant == "pointwise" else None,
    }
    if not (side["above_floor"] and side["below_cap"]):
        raise RadiusOutOfRange(
            f"{variant} radius {raw:.6g} outside "
            f"[{instance.rho_minus:.6g}, {instance.rho_plus:.6g}]"
        )
    return MasterRadius(
        variant=variant,
        r_n=raw,
        rho_minus=instance.rho_minus,
        rho_plus=instance.rho_plus,
        a_n=instance.a_n,
        side_conditions=side,
    )


def lecam_two_point(kl: float) -> float:
    """Certified minimax testing error: 1/4 when the KL fits in 1/2."""
    return 0.25 if kl <= 0.5 else 0.0


def gaussian_lrt_error(kl: float) -> float:
    """Exact balanced error of the LRT between shifted Gaussians at this KL."""
    return 0.5 * math.erfc(math.sqrt(kl / 2.0) / math.sqrt(2.0))


@dataclass
class FanoBound:
    passed: bool
    bound: float
    mean_kl: float
    threshold: float
    M: int


def fano_many_point(kl_values, M: int) -> FanoBound:
    """Fano certificate over an M-point bundle (inclusive at the boundary)."""
    if M < 2:
        raise ValueError("need M >= 2 hypotheses")
    mean_kl = float(np.mean(np.asarray(kl_values, dtype=float)))
    threshold = math.log(M) / 3.0
    bound = max(0.0, 1.0 - (mean_kl + math.log(2.0)) / math.log(M))
    return FanoBound(
        passed=bool(mean_kl <= threshold),
        bound=bound,
        mean_kl=mean_kl,
        threshold=threshold,
        M=M,
    )


@dataclass
class MonteCarlo:
    error_hat: float
    std_error: float
    n_trials: int


def monte_carlo_two_point(kl: float, n_trials: int, seed: int = 0) -> MonteCarlo:
    """Empirical balanced error of the exact LRT at a prescribed KL.

    One-dimensional reduction: observe Y = theta + N(0,1) with theta in
    {0, mu}, mu = sqrt(2 kl); the LRT thresholds at mu/2.  Trials are
    generated in fixed-size chunks with per-chunk seeds, so the result
    depends only on (kl, n_trials, seed), not on scheduling.
    """
    mu = math.sqrt(2.0 * kl)
    chunk = 4096
    errors = 0
    done = 0
    k = 0
    while done < n_trials:
        take = min(chunk, n_trials - done)
        rng = np.random.default_rng([seed, k])
        labels = rng.integers(0, 2, size=take)
        y = labels * mu + rng.standard_normal(take)
        decide = (y > mu / 2.0).astype(int)
        errors += int((decide != labels).sum())
        done += take
        k += 1
    p = errors / n_trials
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_trials)
    return MonteCarlo(error_hat=p, std_error=se, n_trials=n_trials)


def expectation_reduction(prob_bound: float, separation: float,
                          exponent: float = 2.0) -> float:
    """Testing-to-estimation: risk >= prob_bound * separation^exponent."""
    return prob_bound * separation**exponent


# ---------------------------------------------------------------------------
# rate formulas


@dataclass(frozen=True)
class RateSpec:
    beta: float
    d: int
    n: Optional[int] = None
    m: Optional[int] = None
    n_max: Optional[int] = None
    T_max: Optional[float] = None
    T_sum: Optional[float] = None
    step: Optional[float] = None
    delta: Optional[float] = None
    s: float = 0.0


def _onlyn_exponent(beta: float, d: float) -> float:
    # shared by every n-only rate so equal-by-construction claims are bitwise
    return -(2.0 * beta) / (2.0 * (beta + 1.0) + d)


def _need(spec: RateSpec, which: str, *names):
    for name in names:
        if getattr(spec, name) is None:
            raise MissingField(f"rate '{which}' needs field '{name}'")


def rate_eval(spec: RateSpec, which: str) -> float:
    """Evaluate one pinned rate formula; see RATE_IDS for the catalogue."""
    beta, d = spec.beta, float(spec.d)
    if which == "stubble-prob":
        _need(spec, which, "m", "n_max", "T_max")
        return (spec.m * spec.n_max * spec.T_max**2) ** (-beta / (2.0 * beta + d))
    if which == "stubble-nice-prob-term":
        _need(spec, which, "n", "step")
        return (spec.n * spec.step**2) ** (-(2.0 * beta) / (2.0 * beta + d))
    if which == "stubble-nice-det-term":
        _need(spec, which, "step")
        return spec.step ** (2.0 * beta)
    if which == "stubble-nice":
        return rate_eval(spec, "stubble-nice-prob-term") + rate_eval(
            spec, "stubble-nice-det-term"
        )
    if which == "stubble-nice-sup":
        _need(spec, which, "n", "step")
        eff = spec.n / math.log(spec.n)
        return (eff * spec.step**2) ** (
            -(2.0 * beta) / (2.0 * beta + d)
        ) + spec.step ** (2.0 * beta)
    if which == "stubble-onlyn":
        _need(spec, which, "n")
        return spec.n ** _onlyn_exponent(beta, d)
    if which == "stubble-onlyn-sup":
        _need(spec, which, "n")
        return (spec.n / math.log(spec.n)) ** _onlyn_exponent(beta, d)
    if which == "stubble-balancing-step":
        _need(spec, which, "n")
        return spec.n ** (-1.0 / (2.0 * (beta + 1.0) + d))
    if which == "snake-prob":
        _need(spec, which, "delta", "n", "T_sum")
        inner = spec.delta ** (-(d - 1.0)) * spec.n / spec.T_sum
        return inner ** (-beta / (2.0 * (beta + 1.0) + d))
    if which == "snake-combined":
        _need(spec, which, "delta", "n", "T_sum")
        inner = spec.delta ** (-(d - 1.0)) * spec.n / spec.T_sum
        return spec.delta ** (2.0 * beta) + inner ** _onlyn_exponent(beta, d)
    if which == "snake-combined-nice":
        _need(spec, which, "n")
        delta_star = spec.n ** (-1.0 / (2.0 * (beta + 1.0) + d))
        T_star = delta_star ** (-(d - 1.0))
        inner = delta_star ** (-(d - 1.0)) / T_star * spec.n  # exactly n
        return inner ** _onlyn_exponent(beta, d)
    if which == "regression":
        _need(spec, which, "n")
        return spec.n ** (-(beta - spec.s) / (2.0 * beta + d))
    if which == "regression-sup":
        _need(spec, which, "n")
        return (spec.n / math.log(spec.n)) ** (-(beta - spec.s) / (2.0 * beta + d))
    raise ValueError(f"unknown rate id {which!r}; known: {sorted(RATE_IDS)}")


RATE_IDS = (
    "stubble-prob",
    "stubble-nice",
    "stubble-nice-sup",
    "stubble-nice-prob-term",
    "stubble-nice-det-term",
    "stubble-onlyn",
    "stubble-onlyn-sup",
    "stubble-balancing-step",
    "snake-prob",
    "snake-combined",
    "snake-combined-nice",
    "regression",
    "regression-sup",
)
