"""Observation schemes and information-theoretic reductions.

The estimation problem observes noisy snapshots of flows: trajectory j
starts at x_j and is recorded at times t_{j,1} < ... < t_{j,n_j} with
additive Gaussian noise.  This module builds the two pinned designs
("stubble": a grid of short stationary trajectories; "snake": few long
sweeps), measures their regularity constants and converts perturbation
geometry into KL budgets.  The rate formulas are in ``odelab.rates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import ConstructionError, geometry
from . import flow as flow_mod
from .flow import _row_sumsq

if TYPE_CHECKING:
    from .hypotheses import HypothesisFamily

__all__ = [
    "SingularCovariance",
    "RadiusOutOfRange",
    "NoiseLaw",
    "ObservationScheme",
    "build_stubble_scheme",
    "build_snake_scheme",
    "CoverCheck",
    "C_CVRTM",
    "default_C_cvr",
    "cover_floor",
    "check_cover",
    "check_cover_time",
    "scheme_checks",
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
]


class SingularCovariance(Exception):
    """Noise covariance is not positive definite."""


class RadiusOutOfRange(ConstructionError):
    """Chosen master radius leaves the admissible [rho_minus, rho_plus]."""


# ---------------------------------------------------------------------------
# noise and schemes


@dataclass(frozen=True, eq=False)
class NoiseLaw:
    """Centered Gaussian observation noise in R^dim.

    ``covariance`` accepts a finite scalar (sigma^2 I), diagonal vector or
    full matrix.  ``C_noise`` = 1/(2 lambda_min) converts squared mean
    shifts into KL divergences: KL <= C_noise * ||shift||^2.
    """

    dim: int
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if not np.isfinite(cov).all():
            raise ValueError("covariance must be finite")
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
    """Initial conditions (m, d) and per-trajectory observation times (m, n), neither empty.

    Initial conditions must be finite; times finite, positive and strictly
    increasing along each row.
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
        if self.initials.size == 0 or self.times.size == 0:
            raise ValueError(f"initials have shape {self.initials.shape} and times "
                             f"{self.times.shape}; need a start and an observation time")
        if not np.isfinite(self.initials).all():
            raise ValueError("initial conditions must be finite")
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
    initials = geometry.product_grid([(np.arange(K_grid) + 0.5) / K_grid] * noise.dim)
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


# the default cover-time constant, which equidistant observation times admit
C_CVRTM = 3.0
# cover-time windows of one scheme, m n_per (n_per - 1) / 2: check_cover_time holds them at once
MAX_WINDOWS = 10**6
# starts m of one scheme the CLI admits: check_cover is quadratic in m, and the largest
# grid admitted (64^2, 16^3, 8^4 ...) checks in about 1.2 s on a 2-core Xeon (10^4, 7 s)
MAX_COVER_STARTS = 4096


def default_C_cvr(d: int) -> float:
    """The default cover constant C_cvr = 4^d, which a regular grid of starts admits."""
    return 4.0**d


def _cover_check(C_hat: float, declared: float, detail: dict) -> CoverCheck:
    """The one pass rule of both cover constants: C_hat <= declared (1 + 1e-12)."""
    return CoverCheck(passed=bool(C_hat <= declared * (1.0 + 1e-12)), C_hat=float(C_hat),
                      declared=float(declared), detail=detail)


def cover_floor(declared: float, m: int, d: int) -> float:
    """(declared m)^(-1/d), the radius where one of m starts fills :func:`check_cover`'s budget.

    ValueError for a declared constant <= 0, subnormal (1 / (m r^d) would
    overflow) or so large that declared * m overflows (r would be 0).
    """
    if declared <= 0:
        raise ValueError(f"declared cover constant {declared} <= 0")
    if not (declared >= np.finfo(float).tiny and math.isfinite(declared * m)):
        raise ValueError(f"declared cover constant {declared} with {m} starts puts the floor "
                         f"radius (C m)^(-1/d) out of float range")
    return (declared * m) ** (-1.0 / d)


def check_cover(scheme: ObservationScheme, declared: Optional[float] = None) -> CoverCheck:
    """Ball-counting regularity of the initial conditions.

    C_hat is the max over candidate centers z (the starts x_j, a 256-point
    Halton net and the cube center) and radii r in [r_floor, 1]
    of #{j : ||x_j - z|| <= r} / (m r^d); the floor r_floor =
    (declared * m)^(-1/d) is where a single point saturates the budget.
    Candidate radii are the inclusion radii at each center (where the
    count jumps), which is where the ratio is locally maximal.  A declared
    constant that :func:`cover_floor` rejects raises ValueError.
    """
    x = scheme.initials
    m, d = x.shape
    if declared is None:
        declared = default_C_cvr(d)
    r_floor = cover_floor(declared, m, d)
    net = geometry.halton(256, d)
    centers = np.vstack([x, net, np.full((1, d), 0.5)])

    # C_hat uses the scalar r**d, as numpy's array power can round differently
    # in the last bit.  While every power is a normal float (r_floor^d >= 1e-280)
    # the array power only screens: it is within a few ulp of r**d, so a ratio
    # it puts more than 1e-9 below the largest cannot be C_hat.  The others are
    # kept as the scan goes (its running maximum only grows) and raised with r**d.
    screened = r_floor**d >= 1e-280
    top, kept = 0.0, []
    for c, z in enumerate(centers):
        dist = np.sort(np.sqrt(_row_sumsq(x - z)))
        radii = np.concatenate([[r_floor], dist[(dist > r_floor) & (dist <= 1.0)]])
        counts = np.searchsorted(dist, radii * (1.0 + 1e-12), side="right")
        power = np.power(radii, d) if screened else np.array([r**d for r in radii.tolist()])
        ratios = counts / (m * power)
        top = max(top, ratios.max())
        near = ratios >= top * (1.0 - 1e-9)
        kept += zip([c] * int(near.sum()), radii[near], counts[near], ratios[near])
    # every start is a center that counts itself at r_floor, so top > 0
    kept = [k for k in kept if k[3] >= top * (1.0 - 1e-9)]
    c, radii, counts, _ = (np.array(v) for v in zip(*kept))
    ratios = counts / (m * np.array([r**d for r in radii.tolist()]))
    i = int(np.argmax(ratios))  # the first maximum, as a strict > scan keeps
    where = {"center": centers[c[i]].copy(), "radius": float(radii[i]), "count": int(counts[i])}
    return _cover_check(ratios[i], declared, where)


def check_cover_time(scheme: ObservationScheme, declared: float = C_CVRTM) -> CoverCheck:
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
    return _cover_check(C_hat, declared, where)


def scheme_checks(scheme: ObservationScheme, C_cvr: Optional[float] = None,
                  C_cvrtm: float = C_CVRTM) -> list:
    """Records ``cover-constant`` (:func:`check_cover`), ``cover-time-constant``
    (:func:`check_cover_time`) and ``noise-positive`` (C_noise > 0) of a scheme."""
    cover, cover_time = check_cover(scheme, C_cvr), check_cover_time(scheme, C_cvrtm)
    C_noise = scheme.noise.C_noise
    return [
        ("cover-constant", cover.passed, cover.C_hat, cover.declared),
        ("cover-time-constant", cover_time.passed, cover_time.C_hat, cover_time.declared),
        ("noise-positive", C_noise > 0, C_noise, 0.0),
    ]


# ---------------------------------------------------------------------------
# KL machinery


def gaussian_kl(shift, cov) -> float:
    """KL(N(mu, cov) || N(mu + shift, cov)) = shift' cov^{-1} shift / 2, summed over
    shifts (..., d)."""
    if isinstance(cov, NoiseLaw):
        cov = cov.covariance
    cov = np.asarray(cov, dtype=float)
    shift = np.asarray(shift, dtype=float).reshape(-1, cov.shape[0])
    sol = np.linalg.solve(cov, shift.T)
    return 0.5 * float((shift.T * sol).sum())


def flow_states(f: flow_mod.ModelFunction, initials: np.ndarray, times: np.ndarray,
                *, tol: float = 1e-10, cap=None) -> np.ndarray:
    """States of every trajectory at its observation times, shape (m, n, d).

    ``times`` needs one row per initial state, all finite.  A closed-form
    flow is evaluated in one call, the starts (m, 1, d) broadcast against the
    times (m, n); otherwise all trajectories are integrated in step, each
    under its own error test and the step ``cap`` of
    :func:`odelab.flow.integrate`, up to the largest time, and each is read
    out at its own times only (:func:`odelab.flow.flow_rows`).
    """
    initials = np.atleast_2d(np.asarray(initials, float))
    times = np.atleast_2d(np.asarray(times, float))
    m = initials.shape[0]
    if times.shape[0] != m:
        raise ValueError(f"{times.shape[0]} rows of times for {m} initial states")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if f.closed_form_flow is not None:
        return f.closed_form_flow(initials[:, None, :], times)
    T = float(times.max()) if times.size else 0.0
    return flow_mod.flow_rows(flow_mod.integrate(f, initials, T, tol, cap=cap), times)


def scheme_kl(scheme: ObservationScheme, f0: flow_mod.ModelFunction,
              f1: flow_mod.ModelFunction) -> float:
    """Total KL between the observation laws of f0 and f1 under the scheme (flows at tol 1e-10).

    Where f1 perturbs f0's constant drift at one center, as its metadata records, only the
    rows that meet the ball are integrated, from the entry in 1/32ths of the crossing
    (:func:`_entry_rows`): within 4e-6 relative of each row integrated alone at tol 1e-13 in
    1/64ths, at r_n of both perfbench/master_pipeline.py snakes and at r 0.05, d 2.
    """
    md = f1.metadata  # _perturbed_field records its drift with its centers
    if np.shape(md.get("centers")) == (1, scheme.dim) and \
            np.array_equal(md["drift"], f0.metadata.get("velocity")):
        _, s1, s0 = _entry_rows(f0, lambda z: f1, md["centers"], md["radius"],
                                scheme.initials, scheme.times, 1e-10, 32)
    else:
        s0 = flow_states(f0, scheme.initials, scheme.times)
        s1 = flow_states(f1, scheme.initials, scheme.times)
    return gaussian_kl(s1 - s0, scheme.noise)


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
    nearest = x[np.sqrt(_row_sumsq(x - mid)).argmin()]
    cands = [mid, mid + r / 2.0 * np.eye(d)[0], nearest,
             nearest + r / 2.0 * np.ones(d) / math.sqrt(d)]
    net = geometry.halton(3, d)
    return np.vstack([cands, 0.25 + 0.5 * net])


def _entry_times(offsets: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    """First t >= 0 with ||p + v t|| <= r for each offset p in (..., d); NaN where none."""
    a = float(v @ v)
    b = offsets @ v
    c = _row_sumsq(offsets) - r * r
    t_in = np.where(c <= 0.0, 0.0, np.nan)
    if a > 0.0:
        disc = b * b - a * c
        meets = (c > 0.0) & (b < 0.0) & (disc >= 0.0)
        # the smaller root c / (-b + sqrt(disc)), without the cancellation of -b - sqrt(disc)
        t_in[meets] = c[meets] / (np.sqrt(disc[meets]) - b[meets])
    return t_in


def _entry_rows(f0: flow_mod.ModelFunction, make_alt, centers: np.ndarray, r: float,
                x: np.ndarray, times: np.ndarray, tol: float, steps: int) -> tuple:
    """(c_idx, s_alt, s_null): states (k, n, d) of the k (center, start) rows that meet B(z, r).

    f0 is a constant drift v, which the alternative ``make_alt(z)`` at the row centers z (k, d)
    equals outside each row's closed ball: a path follows x + v t until it meets its ball, at
    t_in.  Each pair that meets it before the last observation is one row, started at x + v t_in,
    its earlier observations given the null state; every other pair deviates by exactly 0.  All
    rows are one ``integrate`` call at ``tol`` (none without rows), capped at 1/``steps`` of the
    crossing 2r/|v| (v != 0): uncapped, or started far from a narrow ball, a row misses the pulse.
    """
    v = f0.metadata["velocity"]
    t_in = _entry_times(x - centers[:, None, :], v, r)
    # NaN (never meets) compares False; entering at or after the last observation deviates by 0
    c_idx, j_idx = np.nonzero(t_in < times[:, -1])
    if not c_idx.size:
        return (c_idx,) + (np.empty((0,) + times.shape[1:] + x.shape[1:]),) * 2
    t0 = t_in[c_idx, j_idx]
    local = times[j_idx] - t0[:, None]
    before = local < 0.0
    local[before] = 0.0  # read in the span, then given the null state below
    speed = float(np.linalg.norm(v))
    cap = (2.0 * r / speed / steps, 2.0 * r / speed) if speed else None
    s_alt = flow_states(make_alt(centers[c_idx]), f0.closed_form_flow(x[j_idx], t0), local,
                        tol=tol, cap=cap)
    s_null = flow_states(f0, x[j_idx], times[j_idx])
    s_alt[before] = s_null[before]
    return c_idx, s_alt, s_null


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

    Rows run from their entry in 1/16ths of the crossing (:func:`_entry_rows`).  Against each
    row integrated alone at tol 1e-13 in 1/64ths, psi_hat (tol 1e-8) is within 7.4e-4 relative
    at the 20 radii of each perfbench/master_pipeline.py snake (0.73 uncapped), 6.1e-5 at rho_minus.
    """
    centers = _default_centers(scheme, r)
    c_idx, s_alt, s_null = _entry_rows(family.f0, lambda z: family.make_alternative(z, r),
                                       centers, r, scheme.initials, scheme.times, tol, 16)
    psi = np.zeros(len(centers))
    np.maximum.at(psi, c_idx, np.sqrt(_row_sumsq(s_alt - s_null)).max(axis=1))
    if family.kind == "stubble":
        hits = np.sqrt(_row_sumsq(scheme.initials - centers[:, None, :])) <= r * (1.0 + 1e-9)
        chi = hits.sum(axis=1) * scheme.n_max
    else:
        chi = np.zeros(len(centers), dtype=int)
        inside = np.sqrt(_row_sumsq(s_alt - centers[c_idx, None])) <= r * (1.0 + 1e-12)
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
    """Everything the master lower bound needs about one design.

    ``kind``, ``rho_plus``, ``C_noise`` and ``d_q`` read through to the
    family and the scheme.
    """

    family: HypothesisFamily
    scheme: ObservationScheme
    gamma: float
    a_n: float
    rho_minus: float

    kind = property(lambda self: self.family.kind)
    rho_plus = property(lambda self: self.family.rho_plus)
    C_noise = property(lambda self: self.scheme.noise.C_noise)
    d_q = property(lambda self: self.scheme.dim)


def master_instance_stubble(family: HypothesisFamily,
                            scheme: ObservationScheme) -> MasterInstance:
    """KL budget a_n = (||h|| L_beta T_max)^2 C_cvr m n_max, exponent 2 beta + d, C_cvr = 4^d.

    Valid for r >= rho_minus = (C_cvr m)^{-1/d}: each of the <= C_cvr m r^d
    in-ball trajectories drifts at most ||h|| L_beta r^beta per unit time,
    and contributes n_max observations.
    """
    from . import kernels
    d = scheme.dim
    beta = family.smoothness_class.beta
    C_cvr = default_C_cvr(d)
    h_sup = kernels.shape_deriv_supnorm(family.kernel, 0)
    L_beta = family.smoothness_class.L_beta
    a_n = (h_sup * L_beta * scheme.T_max) ** 2 * C_cvr * scheme.m * scheme.n_max
    return MasterInstance(family=family, scheme=scheme, gamma=2.0 * beta + d, a_n=a_n,
                          rho_minus=(C_cvr * scheme.m) ** (-1.0 / d))


def master_instance_snake(family: HypothesisFamily,
                          scheme: ObservationScheme) -> MasterInstance:
    """KL budget from closed-form psi/chi envelopes, exponent 2(beta+1) + d.

    psi(r) = 2 ||Kt|| ||Kt'|| L_beta r^(beta+1) / L_0 bounds the transverse
    deviation (crossing time 2r/L_0 at transverse speed <= L_beta r^beta
    ||Kt|| ||Kt'||); chi(r) counts the <= (2r/pitch + 1)^(d-1) affected
    sweeps times the observations each can place inside one crossing
    window.  a_n is the max of psi^2 chi / r^gamma over the admissible radii
    [max(rho_minus, 1e-12), rho_plus], taken at the smallest: with a = 2 C_cvrtm n / (L_0 T_sum)
    the ratio is c (2r/pitch + 1)^(d-1) max(1, a r) r^(-d), whose log-derivative
    (d-1)/(r + pitch/2) + [a r > 1]/r - d/r is negative on both sides of a r = 1.
    """
    from .hypotheses import snake_transverse_envelope
    d = scheme.dim
    beta = family.smoothness_class.beta
    L0 = family.metadata["drift"]
    pitch = geometry.min_distance(scheme.initials[:, 1:])
    gamma = 2.0 * (beta + 1.0) + d
    n, T_sum = scheme.n, scheme.T_sum
    rho_minus = 0.5 * L0 * T_sum / (C_CVRTM * n)
    rho_plus = family.rho_plus

    r = min(max(rho_minus, 1e-12), rho_plus)
    chi = (2.0 * r / pitch + 1.0) ** (d - 1) * max(1.0, C_CVRTM * n * (2.0 * r / L0) / T_sum)
    a_n = float(snake_transverse_envelope(family, r) ** 2 * chi / r**gamma)
    return MasterInstance(family=family, scheme=scheme, gamma=gamma, a_n=a_n,
                          rho_minus=rho_minus)


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


# trials of one Monte-Carlo run: its time grows with their number
MAX_MC_TRIALS = 10**8


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
    for k, done in enumerate(range(0, n_trials, chunk)):
        take = min(chunk, n_trials - done)
        rng = np.random.default_rng([seed, k])
        labels = rng.integers(0, 2, size=take)
        y = labels * mu + rng.standard_normal(take)
        decide = (y > mu / 2.0).astype(int)
        errors += int((decide != labels).sum())
    p = errors / n_trials
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_trials)
    return MonteCarlo(error_hat=p, std_error=se, n_trials=n_trials)


def expectation_reduction(prob_bound: float, separation: float,
                          exponent: float = 2.0) -> float:
    """Testing-to-estimation: risk >= prob_bound * separation^exponent."""
    return prob_bound * separation**exponent
