"""Command line front end: build constructions, verify invariants, tabulate rates.

Usage::

    odelab construct  --config cfg.json [--out DIR] [--seed N]
    odelab verify     --config cfg.json [--out DIR] [--seed N]
    odelab rates      --config cfg.json [--out DIR]
    odelab experiment --config cfg.json [--out DIR] [--seed N]

Outputs are deterministic for a fixed seed: JSON is written with sorted
keys and canonical float reprs, CSV with LF line endings.  Exit codes:
0 success, 1 a verification check failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import flow as flow_mod
from . import geometry, hypotheses, kernels, smoothness, statmodel

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_CONFIG = 2


class ConfigError(Exception):
    pass


# sensible demo smoothness constants per beta; the slope-capped
# chain-remainder amplitude does not certify into either class, so
# stubble_det_pair runs its full amplitude bisection for both
_DEMO_CLASSES = {
    1.5: {"L": (2.0, 300.0), "L_beta": 6500.0},
    2.5: {"L": (2.0, 300.0, 60000.0), "L_beta": 1.6e6},
}


def _demo_class(beta: float):
    if beta in _DEMO_CLASSES:
        c = _DEMO_CLASSES[beta]
        return tuple(c["L"]), float(c["L_beta"])
    ell = smoothness.strict_floor(beta)
    L = tuple(2.0 * 130.0**k for k in range(ell + 1))
    return L, 2.0 * 130.0 ** (ell + 1)


def _bump_class(beta: float):
    """Moderate ladder for bump/pulse perturbations (keeps r_max usable)."""
    ell = smoothness.strict_floor(beta)
    return tuple(2.0 * 10.0**k for k in range(ell + 1)), 10.0 ** (ell + 1)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing field '{key}'")
        return default
    return cfg[key]


def _numbers(cfg: dict, key: str, default=None, required: bool = False) -> np.ndarray:
    """A config number or list of numbers as a float array; all must be finite."""
    value = _get(cfg, key, default, required)
    try:
        numbers = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        numbers = np.array(math.nan)
    if not np.isfinite(numbers).all():
        raise ConfigError(f"field '{key}' must be numeric and finite, got {value!r}")
    return numbers


def _number(cfg: dict, key: str, default=None, required: bool = False) -> float:
    number = _numbers(cfg, key, default, required)
    if number.ndim:
        raise ConfigError(f"field '{key}' must be a number, got {_get(cfg, key)!r}")
    return float(number)


def _count(cfg: dict, key: str, default: int) -> int:
    """A config count: a whole number >= 1."""
    value = _number(cfg, key, default)
    if not (value >= 1 and value.is_integer()):
        raise ConfigError(f"field '{key}' must be a whole number >= 1, got {value}")
    return int(value)


def _require_beta(cfg: dict, certified: bool = True) -> float:
    """beta > 1; certifying needs strict_floor(beta) <= smoothness.MAX_SUPNORM_ORDER."""
    beta = _number(cfg, "beta", required=True)
    if not beta > 1.0:
        raise ConfigError(f"field 'beta' must be > 1, got {beta}")
    top = smoothness.MAX_SUPNORM_ORDER + 1.0
    if certified and beta > top:
        raise ConfigError(f"field 'beta' must be <= {top} to be certified, got {beta}")
    return beta


def _radius(cfg: dict, family: hypotheses.HypothesisFamily) -> float:
    """Perturbation radius from the config: default rho_plus/2, at most rho_plus."""
    r = _number(cfg, "r", family.rho_plus / 2.0)
    if not 0.0 < r <= family.rho_plus:
        raise ConfigError(f"field 'r' must be in (0, {family.rho_plus}], got {r}")
    return r


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(cfg: dict, out: str, seed: int) -> int:
    which = _get(cfg, "construction", "stubble-det")
    if which == "spiral":
        K = _count(cfg, "K", 4)
        spec = hypotheses.spiral_build(K)
        desc = {
            "construction": "spiral",
            "K": K,
            "delta": spec.delta,
            "T": spec.T,
            "schedule": spec.schedule,
            "supnorm": spec.field.metadata["supnorm"],
        }
        _write_json(os.path.join(out, "construction.json"), desc)
        grid = np.linspace(-2.0, 3.0, 41)
        rows = []
        for a in grid:
            for b in np.linspace(-3.5, 1.5, 41):
                v = spec.field(np.array([a, b]))
                rows.append([float(a), float(b), float(v[0]), float(v[1])])
        _write_csv(os.path.join(out, "field_grid.csv"),
                   ["x1", "x2", "f1", "f2"], rows, comment=f"spiral K={K}")
        return _EXIT_OK

    beta = _require_beta(cfg)
    default = _demo_class(beta) if which == "stubble-det" else _bump_class(beta)
    L = tuple(_numbers(cfg, "L", default[0]).tolist())
    L_beta = _number(cfg, "L_beta", default[1])
    if which == "stubble-det":
        d = _count(cfg, "d", 1)
        delta_t = _number(cfg, "delta_t", 0.05)
        x0 = _numbers(cfg, "x0", [0.5] * d)
        pair = hypotheses.stubble_det_pair(beta, d, L, L_beta, delta_t, x0)
        md = pair.metadata
        desc = {
            "construction": "stubble-det",
            "beta": beta,
            "d": d,
            "L": L,
            "L_beta": L_beta,
            "delta_t": delta_t,
            "x0": pair.x0,
            "amplitude": md["amplitude"],
            "radius": md["radius"],
            "phase": md["phase"],
            "claimed_separation": pair.claimed_separation,
            "coincidence": pair.coincidence_spec,
        }
        _write_json(os.path.join(out, "construction.json"), desc)
        r = md["radius"]
        xs = np.linspace(pair.x0[0] - 2 * r, pair.x0[0] + 2 * r, 401)
        pts = np.tile(pair.x0, (len(xs), 1))
        pts[:, 0] = xs
        v0 = pair.f0(pts)
        v1 = pair.f1(pts)
        rows = [[float(xs[i]), float(v0[i, 0]), float(v1[i, 0])] for i in range(len(xs))]
        _write_csv(os.path.join(out, "field_grid.csv"), ["x", "f0", "f1"], rows,
                   comment=f"stubble-det beta={beta} delta_t={delta_t}")
        return _EXIT_OK
    if which == "snake-det":
        d = _count(cfg, "d", 2)
        delta = _number(cfg, "delta", 0.1)
        x0 = _numbers(cfg, "x0", [0.5] * d)
        pair, initials, times = hypotheses.snake_det_pair(beta, d, L, L_beta, delta, x0)
        desc = {
            "construction": "snake-det",
            "beta": beta,
            "d": d,
            "L": L,
            "L_beta": L_beta,
            "delta": delta,
            "x0": pair.x0,
            "radius": pair.metadata["radius"],
            "m": pair.metadata["m"],
            "clearance": pair.metadata["clearance"],
            "claimed_separation": pair.claimed_separation,
            "initials": initials,
            "horizons": times,
        }
        _write_json(os.path.join(out, "construction.json"), desc)
        grid = np.linspace(0.0, 1.0, 41)
        rows = []
        for a in grid:
            for b in grid:
                p = np.zeros(d)
                p[0], p[1] = a, b
                v0 = pair.f0(p)
                v1 = pair.f1(p)
                rows.append([float(a), float(b), float(v0[0]), float(v1[0])])
        _write_csv(os.path.join(out, "field_grid.csv"),
                   ["x1", "x2", "f0_1", "f1_1"], rows,
                   comment=f"snake-det beta={beta} delta={delta}")
        return _EXIT_OK
    raise ConfigError(
        f"unknown construction '{which}' (use stubble-det|snake-det|spiral)"
    )


# ---------------------------------------------------------------------------
# verify


def _check(name: str, passed: bool, **extra) -> dict:
    return {"name": name, "passed": bool(passed), **extra}


def _suite_coincidence(cfg: dict, seed: int) -> list:
    beta = _require_beta(cfg)
    d = _count(cfg, "d", 1)
    delta_t = _number(cfg, "delta_t", 0.05)
    tol = _number(cfg, "tol", 1e-9)
    n_points = _count(cfg, "n_points", 50)
    L, L_beta = _demo_class(beta)
    x0 = _numbers(cfg, "x0", [0.5] * d)
    pair = hypotheses.stubble_det_pair(beta, d, L, L_beta, delta_t, x0)
    rng = np.random.default_rng(seed)
    xs = np.tile(x0, (n_points, 1))
    xs[:, 0] = x0[0] + rng.uniform(-1.0, 1.0, size=n_points)
    worst = 0.0
    for i in range(-5, 6):
        t = i * delta_t
        gap = np.linalg.norm(
            pair.f0.closed_form_flow(xs, t) - pair.f1.closed_form_flow(xs, t), axis=-1
        ).max()
        worst = max(worst, float(gap))
    checks = [_check("grid-coincidence", worst <= tol, measured=worst, limit=tol)]
    c_beta = (2.0 / 3.0) ** (beta + 1.0) * kernels.sup_abs_kernel_deriv(1)
    floor = c_beta * pair.metadata["amplitude"] * L[0] ** (beta + 1.0) * delta_t**beta
    checks.append(
        _check("separation-floor", pair.claimed_separation >= floor,
               measured=pair.claimed_separation, limit=floor)
    )
    v0 = pair.f0(pair.x0)
    v1 = pair.f1(pair.x0)
    att = float(np.linalg.norm(v1 - v0))
    checks.append(
        _check("separation-attained", att >= pair.claimed_separation,
               measured=att, limit=pair.claimed_separation)
    )
    return checks


def _suite_tube_cover(cfg: dict, seed: int) -> list:
    beta = _require_beta(cfg)
    d = _count(cfg, "d", 2)
    delta = _number(cfg, "delta", 0.1)
    L, L_beta = _bump_class(beta)
    L = tuple(_numbers(cfg, "L", L).tolist())
    L_beta = _number(cfg, "L_beta", L_beta)
    x0 = _numbers(cfg, "x0", [0.5] * d)
    pair, initials, horizons = hypotheses.snake_det_pair(beta, d, L, L_beta, delta, x0)
    tol_agree = _number(cfg, "tol_agree", 1e-8)
    tubes = []
    worst_gap = 0.0
    for x, T in zip(initials, horizons):
        t0 = flow_mod.integrate(pair.f0, x, float(T), 1e-10)
        t1 = flow_mod.integrate(pair.f1, x, float(T), 1e-10)
        s = np.linspace(0.0, float(T), 33)
        gap = float(np.linalg.norm(flow_mod.flow_at(t1, s) - flow_mod.flow_at(t0, s),
                                   axis=1).max())
        worst_gap = max(worst_gap, gap)
        tubes.append(geometry.TubeSpec(trajectory=t1, radius=delta))
    checks = [_check("identical-trajectories", worst_gap <= tol_agree,
                     measured=worst_gap, limit=tol_agree)]
    region = [(0.0, 1.0)] * d
    rep = geometry.tube_cover_check(tubes, region)
    checks.append(_check("cover-at-delta", rep.passed,
                         measured=rep.worst_distance, limit=rep.threshold))
    rep_half = geometry.tube_cover_check(tubes, region, radius=delta / 2.0)
    checks.append(_check("no-cover-at-half-delta", not rep_half.passed,
                         measured=rep_half.worst_distance, limit=rep_half.threshold))
    return checks


def _suite_spiral(cfg: dict, seed: int) -> list:
    K = _count(cfg, "K", 4)
    spec = hypotheses.spiral_build(K)
    rep = hypotheses.spiral_verify(spec, seed=seed)
    t_exact = 1.0 + (2.0 + 3.0 * math.pi) * K
    return [
        _check("schedule", rep.max_schedule_error <= rep.tol_geo,
               measured=rep.max_schedule_error, limit=rep.tol_geo),
        _check("horizon", abs(spec.T - t_exact) <= 1e-12,
               measured=spec.T, limit=t_exact),
        _check("supnorm", abs(rep.supnorm_measured - rep.supnorm_expected) <= 1e-9,
               measured=rep.supnorm_measured, limit=rep.supnorm_expected),
        _check("lipschitz", rep.lipschitz_measured <= rep.lipschitz_limit + 1e-9,
               measured=rep.lipschitz_measured, limit=rep.lipschitz_limit),
    ]


def _suite_smoothness(cfg: dict, seed: int) -> list:
    beta = _require_beta(cfg)
    d = _count(cfg, "d", 2)
    L, L_beta = _bump_class(beta)
    L = tuple(_numbers(cfg, "L", L).tolist())
    L_beta = _number(cfg, "L_beta", L_beta)
    family = hypotheses.stubble_prob_family(beta, d, L, L_beta)
    r = _radius(cfg, family)
    z = np.full(d, 0.5)
    alt = family.make_alternative(z, r)
    region = [(z[i] - r, z[i] + r) for i in range(d)]
    rep = smoothness.certify_membership(alt, family.smoothness_class, region)
    checks = [_check("bump-membership", rep.passed)]
    try:
        family.make_alternative(z, 4.0 * family.rho_plus)
        checks.append(_check("oversized-radius-rejected", False))
    except ValueError:
        checks.append(_check("oversized-radius-rejected", True))
    return checks


def _suite_symmetry(cfg: dict, seed: int) -> list:
    beta = _require_beta(cfg)
    d = _count(cfg, "d", 2)
    L, L_beta = _bump_class(beta)
    family = hypotheses.snake_prob_family(beta, d, L, L_beta)
    r = _radius(cfg, family)
    z = np.full(d, 0.5)
    alt = family.make_alternative(z, r)
    x = np.full(d, 0.5)
    x[0] = z[0] - 2.0 * r
    L0 = family.metadata["drift"]
    T = 4.0 * r / L0
    traj = flow_mod.integrate(alt, x, T, 1e-11)
    net = float(abs(flow_mod.final_state(traj)[1] - x[1]))
    during = float(np.abs(traj.states[:, 1] - x[1]).max())
    psi = 2.0 * family.kernel.alpha**2 * math.exp(-1.0) * kernels.sup_abs_kernel_deriv(1) \
        * L_beta * r ** (beta + 1.0) / L0
    tol_net = _number(cfg, "tol_net", max(1e-9, 1e-4 * psi))
    checks = [
        _check("zero-net-transverse", net <= tol_net, measured=net, limit=tol_net),
        _check("transverse-within-envelope", during <= psi * (1.0 + 1e-6),
               measured=during, limit=psi),
    ]
    sg = flow_mod.flow_semigroup_check(alt, x, T / 3.0, T / 2.0, 1e-11)
    checks.append(_check("semigroup", sg <= 1e-8, measured=float(sg), limit=1e-8))
    return checks


def _suite_gronwall(cfg: dict, seed: int) -> list:
    beta = _require_beta(cfg)
    d = _count(cfg, "d", 2)
    L, L_beta = _bump_class(beta)
    family = hypotheses.snake_prob_family(beta, d, L, L_beta)
    r = _radius(cfg, family)
    z = np.full(d, 0.5)
    alt = family.make_alternative(z, r)
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(_count(cfg, "trials", 4)):
        x1 = np.full(d, 0.5)
        x1[0] = z[0] - 2.0 * r
        x1[1] += rng.uniform(-r / 2, r / 2)
        x2 = x1 + rng.uniform(-r / 4, r / 4, size=d)
        T = 4.0 * r / family.metadata["drift"]
        measured, bound_a, bound_b = flow_mod.gronwall_pair_bound(alt, x1, x2, T)
        ok = measured <= bound_a + 1e-12 and measured <= bound_b + 1e-12
        checks.append(_check(f"pair-{trial}", ok, measured=measured,
                             limit=min(bound_a, bound_b)))
    return checks


def _suite_assumptions(cfg: dict, seed: int) -> list:
    d = _count(cfg, "d", 2)
    noise = statmodel.NoiseLaw(dim=d, covariance=_number(cfg, "sigma2", 1.0))
    scheme = statmodel.build_stubble_scheme(
        _count(cfg, "K_grid", 6), _count(cfg, "n_per", 3),
        _number(cfg, "delta_t", 0.1), noise
    )
    declared = _get(cfg, "C_cvr")
    cover = statmodel.check_cover(scheme, None if declared is None else _number(cfg, "C_cvr"))
    cover_time = statmodel.check_cover_time(scheme, _number(cfg, "C_cvrtm", 3.0))
    checks = [
        _check("cover-constant", cover.passed, measured=cover.C_hat,
               limit=cover.declared),
        _check("cover-time-constant", cover_time.passed, measured=cover_time.C_hat,
               limit=cover_time.declared),
        _check("noise-positive", noise.C_noise > 0, measured=noise.C_noise, limit=0.0),
    ]
    return checks


_SUITES = {
    "coincidence": _suite_coincidence,
    "tube-cover": _suite_tube_cover,
    "spiral": _suite_spiral,
    "smoothness": _suite_smoothness,
    "symmetry": _suite_symmetry,
    "gronwall": _suite_gronwall,
    "assumptions": _suite_assumptions,
}


def _cmd_verify(cfg: dict, out: str, seed: int) -> int:
    suite = _get(cfg, "suite", required=True)
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite '{suite}' (use {'|'.join(sorted(_SUITES))})")
    checks = _SUITES[suite](cfg, seed)
    passed = all(c["passed"] for c in checks)
    report = {
        "suite": suite,
        "passed": passed,
        "seed": seed,
        "config": cfg,
        "checks": checks,
    }
    _write_json(os.path.join(out, "report.json"), report)
    return _EXIT_OK if passed else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# rates


def _cmd_rates(cfg: dict, out: str) -> int:
    beta = _require_beta(cfg, certified=False)
    d = _count(cfg, "d", 2)
    s = _number(cfg, "s", 0.0)
    grid_cfg = _get(cfg, "n", {"start": 1e3, "stop": 1e6, "num": 13})
    if isinstance(grid_cfg, dict):
        ns = np.geomspace(_number(grid_cfg, "start", 1e3), _number(grid_cfg, "stop", 1e6),
                          _count(grid_cfg, "num", 13))
    else:
        ns = _numbers(cfg, "n").reshape(-1)
    header = [
        "n",
        "stubble-onlyn",
        "stubble-onlyn-sup",
        "stubble-balancing-step",
        "stubble-nice-prob-term",
        "stubble-nice-det-term",
        "balance-gap",
        "snake-combined-nice",
        "snake-vs-onlyn-gap",
        "regression",
        "regression-sup",
    ]
    rows = []
    for n_float in ns:
        n = int(round(n_float))
        if n < 2:
            raise ConfigError(f"field 'n' values must be >= 2, got {n}")
        spec = statmodel.RateSpec(beta=beta, d=d, n=n, s=s)
        step = statmodel.rate_eval(spec, "stubble-balancing-step")
        spec_b = statmodel.RateSpec(beta=beta, d=d, n=n, step=step, s=s)
        prob_t = statmodel.rate_eval(spec_b, "stubble-nice-prob-term")
        det_t = statmodel.rate_eval(spec_b, "stubble-nice-det-term")
        onlyn = statmodel.rate_eval(spec, "stubble-onlyn")
        nice = statmodel.rate_eval(spec, "snake-combined-nice")
        rows.append([
            n,
            onlyn,
            statmodel.rate_eval(spec, "stubble-onlyn-sup"),
            step,
            prob_t,
            det_t,
            abs(prob_t - det_t),
            nice,
            abs(nice - onlyn),
            statmodel.rate_eval(spec, "regression"),
            statmodel.rate_eval(spec, "regression-sup"),
        ])
    _write_csv(os.path.join(out, "rates.csv"), header, rows,
               comment=f"rates beta={beta} d={d} s={s}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(cfg: dict, out: str, seed: int) -> int:
    kl = _number(cfg, "kl", 0.5)
    if kl < 0:
        raise ConfigError(f"field 'kl' must be >= 0, got {kl}")
    trials = _count(cfg, "trials", 100000)
    mc = statmodel.monte_carlo_two_point(kl, trials, seed=seed)
    exact = statmodel.gaussian_lrt_error(kl)
    summary = {
        "kl": kl,
        "trials": trials,
        "seed": seed,
        "error_hat": mc.error_hat,
        "std_error": mc.std_error,
        "exact_error": exact,
        "lecam_bound": statmodel.lecam_two_point(kl),
        "within_3_se": bool(abs(mc.error_hat - exact) <= 3.0 * mc.std_error),
    }
    _write_json(os.path.join(out, "experiment.json"), summary)
    _write_csv(
        os.path.join(out, "experiment.csv"),
        ["kl", "trials", "error_hat", "std_error", "exact_error", "lecam_bound"],
        [[kl, trials, mc.error_hat, mc.std_error, exact, summary["lecam_bound"]]],
        comment="two-point testing experiment",
    )
    return _EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="odelab",
        description="Constructions and certificates for ODE regression lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("construct", "verify", "rates", "experiment"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "construct":
            return _cmd_construct(cfg, args.out, args.seed)
        if args.command == "verify":
            return _cmd_verify(cfg, args.out, args.seed)
        if args.command == "rates":
            return _cmd_rates(cfg, args.out)
        return _cmd_experiment(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"odelab: config error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CONFIG
    except (
        hypotheses.ClassTooTight,
        hypotheses.DimensionTooSmall,
        hypotheses.DeltaTooLarge,
        smoothness.SlopeOutOfRange,
        statmodel.RadiusOutOfRange,
        kernels.InvalidOffset,
    ) as exc:
        print(f"odelab: construction error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
