"""Command line front end: build constructions, verify invariants, tabulate rates.

Usage::

    odelab construct  --config cfg.json [--out DIR] [--seed N]
    odelab verify     --config cfg.json [--out DIR] [--seed N]
    odelab rates      --config cfg.json [--out DIR]
    odelab experiment --config cfg.json [--out DIR] [--seed N]

Outputs are deterministic for a fixed seed: JSON is written with sorted
keys and canonical float reprs, CSV with LF line endings.  Exit codes:
0 success, 1 a verification check failed, 2 bad configuration or flags,
or an :class:`odelab.ConstructionError`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

# each command imports the modules it runs, numpy included, so a process loads no others
from . import MAX_LATTICE, ConstructionError

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_CONFIG = 2

# the largest dimension d: the Hölder quotient draws its 10^5 point pairs in R^d at once
MAX_DIM = 40


class ConfigError(Exception):
    pass


# sensible demo smoothness constants per beta; at the slope cap the
# chain-remainder jet breaks both classes' bounds, so stubble_det_pair
# finds its amplitude below the cap (Brent's method, 1e-12 relative) for both
_DEMO_CLASSES = {
    1.5: {"L": (2.0, 300.0), "L_beta": 6500.0},
    2.5: {"L": (2.0, 300.0, 60000.0), "L_beta": 1.6e6},
}


def _demo_class(beta: float):
    from . import smoothness
    if beta in _DEMO_CLASSES:
        c = _DEMO_CLASSES[beta]
        return tuple(c["L"]), float(c["L_beta"])
    ell = smoothness.strict_floor(beta)
    L = tuple(2.0 * 130.0**k for k in range(ell + 1))
    return L, 2.0 * 130.0 ** (ell + 1)


def _bump_class(beta: float):
    """Moderate ladder for bump/pulse perturbations (keeps r_max usable)."""
    from . import smoothness
    ell = smoothness.strict_floor(beta)
    return tuple(2.0 * 10.0**k for k in range(ell + 1)), 10.0 ** (ell + 1)


def _write_json(path: str, obj) -> None:
    """``obj`` as sorted, indented JSON; numpy arrays and scalars go as their ``tolist()``."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())
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


# numpy's array rank limit: a list nested deeper is no numeric array
_MAX_RANK = 64


def _shape(value):
    """The shape numpy gives a JSON number (``()``) or a rectangular nested list of them,
    all finite; None for anything else (a boolean, a string, a ragged list, a number that
    is not finite or exceeds the float range)."""
    if isinstance(value, (list, tuple)):
        shapes = {_shape(v) for v in value}
        if None in shapes or len(shapes) > 1:
            return None
        shape = (len(value), *(shapes.pop() if shapes else ()))
        return shape if len(shape) <= _MAX_RANK else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return () if math.isfinite(value) else None
    except OverflowError:  # an integer past the float range
        return None


def _read(cfg: dict, key: str, default=None, required: bool = False) -> tuple:
    """(value, shape) of a config number or list of numbers, nested or not; all finite."""
    value = _get(cfg, key, default, required)
    shape = _shape(value)
    if shape is None:
        raise ConfigError(f"field '{key}' must be numeric and finite, got {value!r}")
    return value, shape


def _numbers(cfg: dict, key: str, default=None, required: bool = False):
    """A config number or list of numbers as a float array; all must be finite."""
    import numpy as np
    return np.asarray(_read(cfg, key, default, required)[0], dtype=float)


def _number(cfg: dict, key: str, default=None, required: bool = False) -> float:
    value, shape = _read(cfg, key, default, required)
    if shape:
        raise ConfigError(f"field '{key}' must be a number, got {_get(cfg, key)!r}")
    return float(value)


def _count(cfg: dict, key: str, default: int, cap: int) -> int:
    """A config count: a whole number in [1, cap], refused before it sizes any work."""
    value = _number(cfg, key, default)
    if not (value >= 1 and value.is_integer()):
        raise ConfigError(f"field '{key}' must be a whole number >= 1, got {value}")
    if value > cap:
        raise ConfigError(f"field '{key}' = {value:.15g} is above {cap}")
    return int(value)


def _require_beta(cfg: dict, certified: bool = True) -> float:
    """beta > 1; certifying needs strict_floor(beta) <= smoothness.MAX_SUPNORM_ORDER."""
    beta = _number(cfg, "beta", required=True)
    if not beta > 1.0:
        raise ConfigError(f"field 'beta' must be > 1, got {beta}")
    if certified:
        from . import smoothness
        top = smoothness.MAX_SUPNORM_ORDER + 1.0
        if beta > top:
            raise ConfigError(f"field 'beta' must be <= {top} to be certified, got {beta}")
    return beta


def _positive(cfg: dict, key: str, default: float) -> float:
    value = _number(cfg, key, default)
    if not value > 0.0:
        raise ConfigError(f"field '{key}' must be > 0, got {value}")
    return value


def _start(cfg: dict, d: int):
    x0 = _numbers(cfg, "x0", [0.5] * d)
    if x0.shape != (d,):
        raise ConfigError(f"field 'x0' must list {d} numbers, got {_get(cfg, 'x0')!r}")
    return x0


def _class_constants(cfg: dict, beta: float, default: tuple) -> tuple:
    """(L, L_beta) from the config: L_0..L_ell with ell = strict_floor(beta), all > 0."""
    from . import smoothness
    L, L_beta = _numbers(cfg, "L", default[0]), _number(cfg, "L_beta", default[1])
    ell = smoothness.strict_floor(beta)
    if L.shape != (ell + 1,) or not ((L > 0.0).all() and L_beta > 0.0):
        raise ConfigError(f"fields 'L', 'L_beta' must be L_0..L_{ell} and L_beta for "
                          f"beta={beta}, all > 0; got {L.tolist()}, {L_beta}")
    return tuple(L.tolist()), L_beta


# ---------------------------------------------------------------------------
# constructions: each reads its keys and defaults once, for construct and verify alike


def _stubble_det(cfg: dict):
    """The stubble-det pair of ``beta``, ``L``/``L_beta`` (demo class), ``d`` (1),
    ``delta_t`` (0.05) and ``x0``."""
    from . import hypotheses
    beta = _require_beta(cfg)
    L, L_beta = _class_constants(cfg, beta, _demo_class(beta))
    d = _count(cfg, "d", 1, MAX_DIM)
    return hypotheses.stubble_det_pair(beta, d, L, L_beta, _positive(cfg, "delta_t", 0.05),
                                       _start(cfg, d))


def _snake_det(cfg: dict) -> tuple:
    """(pair, initials, horizons) of the snake-det lattice of ``beta``, ``L``/``L_beta``
    (bump class), ``d`` (2), ``delta`` (0.1) and ``x0``."""
    from . import hypotheses
    beta = _require_beta(cfg)
    L, L_beta = _class_constants(cfg, beta, _bump_class(beta))
    d = _count(cfg, "d", 2, MAX_DIM)
    return hypotheses.snake_det_pair(beta, d, L, L_beta, _positive(cfg, "delta", 0.1),
                                     _start(cfg, d))


def _spiral(cfg: dict):
    """The spiral of ``K`` (4) passes."""
    from . import hypotheses
    return hypotheses.spiral_build(_count(cfg, "K", 4, hypotheses.MAX_PASSES))


def _pair_fields(pair, keys: tuple) -> dict:
    """A pair's class and claim, and its metadata ``keys``, as construction.json records them."""
    cls = pair.smoothness_class
    return {"beta": cls.beta, "d": cls.dim_in, "L": cls.L, "L_beta": cls.L_beta,
            "x0": pair.x0, "claimed_separation": pair.claimed_separation,
            **{k: pair.metadata[k] for k in keys}}


# each dump returns (construction.json fields, field_grid.csv header, rows, comment)
def _dump_stubble_det(pair) -> tuple:
    import numpy as np
    desc = _pair_fields(pair, ("delta_t", "amplitude", "radius", "phase"))
    desc["coincidence"] = pair.coincidence_spec
    r = desc["radius"]
    xs = np.linspace(pair.x0[0] - 2 * r, pair.x0[0] + 2 * r, 401)
    pts = np.tile(pair.x0, (len(xs), 1))
    pts[:, 0] = xs
    rows = np.column_stack([xs, pair.f0(pts)[:, 0], pair.f1(pts)[:, 0]]).tolist()
    return (desc, ["x", "f0", "f1"], rows,
            f"stubble-det beta={desc['beta']} delta_t={desc['delta_t']}")


def _dump_snake_det(built: tuple) -> tuple:
    import numpy as np

    from . import geometry
    pair, initials, horizons = built
    desc = _pair_fields(pair, ("delta", "radius", "m", "clearance"))
    desc.update(initials=initials, horizons=horizons)
    grid = np.linspace(0.0, 1.0, 41)
    pts = geometry.product_grid([grid, grid] + [np.zeros(1)] * (desc["d"] - 2))
    rows = np.column_stack([pts[:, :2], pair.f0(pts)[:, 0], pair.f1(pts)[:, 0]]).tolist()
    return (desc, ["x1", "x2", "f0_1", "f1_1"], rows,
            f"snake-det beta={desc['beta']} delta={desc['delta']}")


def _dump_spiral(spec) -> tuple:
    import numpy as np

    from . import geometry
    desc = {"K": spec.K, "delta": spec.delta, "T": spec.T, "schedule": spec.schedule,
            "supnorm": spec.field.metadata["supnorm"]}
    pts = geometry.product_grid([np.linspace(-2.0, 3.0, 41), np.linspace(-3.5, 1.5, 41)])
    rows = np.hstack([pts, spec.field(pts)]).tolist()
    return desc, ["x1", "x2", "f1", "f2"], rows, f"spiral K={spec.K}"


_CONSTRUCTIONS = {
    "stubble-det": (_stubble_det, _dump_stubble_det),
    "snake-det": (_snake_det, _dump_snake_det),
    "spiral": (_spiral, _dump_spiral),
}


def _cmd_construct(cfg: dict, out: str, seed: int) -> int:
    which = _get(cfg, "construction", "stubble-det")
    if not isinstance(which, str) or which not in _CONSTRUCTIONS:
        raise ConfigError(f"unknown construction '{which}' (use {'|'.join(_CONSTRUCTIONS)})")
    build, dump = _CONSTRUCTIONS[which]
    desc, header, rows, comment = dump(build(cfg))
    _write_json(os.path.join(out, "construction.json"), {"construction": which, **desc})
    _write_csv(os.path.join(out, "field_grid.csv"), header, rows, comment=comment)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _suite_coincidence(cfg: dict, seed: int) -> list:
    import numpy as np

    from . import hypotheses
    tol = _positive(cfg, "tol", 1e-9)
    n_points = _count(cfg, "n_points", 50, MAX_LATTICE)  # every start is held at once
    pair = _stubble_det(cfg)
    # a tol below 1/32 ulp of the compared positions, up to |x0| + 1 + 5 r, measures rounding
    reach = float(np.abs(pair.x0).max()) + 1.0 + 5.0 * pair.metadata["radius"]
    if tol < math.ulp(reach) / 32.0:
        raise ConfigError(f"field 'tol' = {tol} is below 1/32 ulp of the positions up to "
                          f"{reach:.3g} that the flows are compared at")
    rng = np.random.default_rng(seed)
    xs = np.tile(pair.x0, (n_points, 1))
    xs[:, 0] = pair.x0[0] + rng.uniform(-1.0, 1.0, size=n_points)
    return hypotheses.stubble_det_checks(pair, xs, tol)


def _suite_tube_cover(cfg: dict, seed: int) -> list:
    from . import hypotheses
    tol_agree = _positive(cfg, "tol_agree", 1e-8)
    return hypotheses.snake_det_checks(*_snake_det(cfg), tol_agree)


def _suite_spiral(cfg: dict, seed: int) -> list:
    from . import hypotheses
    return hypotheses.spiral_verify(_spiral(cfg), seed=seed)


def _prob_family(cfg: dict, build) -> tuple:
    """The family ``build(beta, d, L, L_beta)`` (d = 2, bump-class constants) and radius r."""
    beta = _require_beta(cfg)
    family = build(beta, _count(cfg, "d", 2, MAX_DIM),
                   *_class_constants(cfg, beta, _bump_class(beta)))
    r = _number(cfg, "r", family.rho_plus / 2.0)
    if not 0.0 < r <= family.rho_plus:
        raise ConfigError(f"field 'r' must be in (0, {family.rho_plus}], got {r}")
    return family, r


def _suite_smoothness(cfg: dict, seed: int) -> list:
    from . import hypotheses
    family, r = _prob_family(cfg, hypotheses.stubble_prob_family)
    if not 0.5 - r < 0.5 + r:  # the certification box would hold one point
        raise ConfigError(f"field 'r' = {r} is so small that the box [0.5 - r, 0.5 + r] "
                          f"collapses to 0.5")
    return hypotheses.stubble_prob_checks(family, r)


def _suite_symmetry(cfg: dict, seed: int) -> list:
    from . import hypotheses
    family, r = _prob_family(cfg, hypotheses.snake_prob_family)
    if hypotheses.snake_transverse_envelope(family, r) == 0.0:  # checks would pass as 0 <= 0
        raise ConfigError(f"field 'r' = {r} is so small that the envelope psi(r) is 0")
    tol_net = _positive(cfg, "tol_net", None) if "tol_net" in cfg else None
    return hypotheses.snake_symmetry_checks(family, r, tol_net)


def _suite_gronwall(cfg: dict, seed: int) -> list:
    from . import hypotheses
    # every trial's trajectories are held at once
    trials = _count(cfg, "trials", 4, hypotheses.MAX_TRIALS)
    family, r = _prob_family(cfg, hypotheses.snake_prob_family)
    if 0.5 + r / 4 == 0.5:  # the start offsets would vanish and every pair pass as 0 <= 0
        raise ConfigError(f"field 'r' = {r} is so small that offsets up to r/4 vanish at 0.5")
    return hypotheses.snake_gronwall_checks(family, r, trials, seed)


def _suite_assumptions(cfg: dict, seed: int) -> list:
    from . import statmodel
    d = _count(cfg, "d", 2, MAX_DIM)
    K_grid = _count(cfg, "K_grid", 6, MAX_LATTICE)
    m = K_grid**d  # sized in integers before the grid is built
    if m > statmodel.MAX_COVER_STARTS:
        raise ConfigError(f"K_grid^d = {K_grid}^{d} starts, above {statmodel.MAX_COVER_STARTS} "
                          f"(the cover constant's count is quadratic in the starts)")
    n_per = _count(cfg, "n_per", 3, MAX_LATTICE)
    windows = m * (n_per * (n_per - 1) // 2)  # check_cover_time holds every window at once
    if windows > statmodel.MAX_WINDOWS:
        raise ConfigError(f"{m} starts observed n_per = {n_per} times give {windows} "
                          f"cover-time windows, above {statmodel.MAX_WINDOWS}")
    sigma2 = _positive(cfg, "sigma2", 1.0)
    noise = statmodel.NoiseLaw(dim=d, covariance=sigma2)
    if not math.isfinite(noise.C_noise):
        raise ConfigError(f"field 'sigma2' = {sigma2} is so small that the noise constant "
                          f"1/(2 sigma2) overflows")
    C_cvr = _positive(cfg, "C_cvr", statmodel.default_C_cvr(d))
    try:
        statmodel.cover_floor(C_cvr, m, d)
    except ValueError as exc:
        raise ConfigError(f"field 'C_cvr': {exc}")
    scheme = statmodel.build_stubble_scheme(K_grid, n_per, _positive(cfg, "delta_t", 0.1), noise)
    return statmodel.scheme_checks(scheme, C_cvr, _positive(cfg, "C_cvrtm", statmodel.C_CVRTM))


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
    if not isinstance(suite, str) or suite not in _SUITES:
        raise ConfigError(f"unknown suite '{suite}' (use {'|'.join(sorted(_SUITES))})")
    checks = []  # a record's None measured value or limit is left out of the report
    for name, ok, measured, limit in _SUITES[suite](cfg, seed):
        check = {"name": name, "passed": bool(ok), "measured": measured, "limit": limit}
        checks.append({k: v for k, v in check.items() if v is not None})
    passed = all(c["passed"] for c in checks)
    report = {"suite": suite, "passed": passed, "seed": seed, "config": cfg, "checks": checks}
    _write_json(os.path.join(out, "report.json"), report)
    return _EXIT_OK if passed else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# rates

# the columns of rates.csv after n: catalogue rates at the balancing step, and two gaps
# that vanish identically
_RATE_COLUMNS = ("stubble-onlyn", "stubble-onlyn-sup", "stubble-balancing-step",
                 "stubble-nice-prob-term", "stubble-nice-det-term", "balance-gap",
                 "snake-combined-nice", "snake-vs-onlyn-gap", "regression", "regression-sup")


# a grid value this close to a half-integer could round either way between libm and numpy:
# _GRID_GUARD units, where one unit is the relative move that one ulp of the exponent,
# or of the power, makes (measured at most 1.9 units over 2e4 grids up to 1e15)
_GRID_GUARD = 8.0


def _geomspace(start: float, stop: float, num: int) -> list:
    """``np.geomspace(start, stop, num)`` as floats that round to numpy's integers.

    The values are numpy's: log10 of the ends, the linspace ``i * step + log10(start)``
    and its powers of 10, with the ends put back.  libm's log10 and pow differ from
    numpy's vectorised ones in the last bit, so where a value lies within ``_GRID_GUARD``
    units of a half-integer, or an end reaches 2**53 (where every float is an integer),
    the grid is numpy's own and no integer depends on the last bits.
    """
    if num == 1:
        return [start]
    if max(start, stop) < 2.0**53:
        lo, hi = math.log10(start), math.log10(stop)
        step = (hi - lo) / (num - 1)
        inner = [math.pow(10.0, i * step + lo) for i in range(1, num - 1)]
        unit = math.log(10.0) * math.ulp(max(abs(lo), abs(hi))) + sys.float_info.epsilon
        if all(abs(v - math.floor(v) - 0.5) > _GRID_GUARD * unit * v for v in inner):
            return [start, *inner, stop]
    import numpy as np
    return np.geomspace(start, stop, num).tolist()


def _cmd_rates(cfg: dict, out: str, seed: int) -> int:
    from . import rates
    beta = _require_beta(cfg, certified=False)
    d = _count(cfg, "d", 2, MAX_DIM)
    s = _number(cfg, "s", 0.0)
    if not 0.0 <= s < beta:
        raise ConfigError(f"field 's' must satisfy 0 <= s < beta = {beta}, got {s}")
    grid_cfg = _get(cfg, "n", {"start": 1e3, "stop": 1e6, "num": 13})
    if isinstance(grid_cfg, dict):
        start, stop = _positive(grid_cfg, "start", 1e3), _positive(grid_cfg, "stop", 1e6)
        ns = _geomspace(start, stop, _count(grid_cfg, "num", 13, MAX_LATTICE))
    else:
        value, shape = _read(cfg, "n")
        if len(shape) > 1 or shape == (0,):
            raise ConfigError(f"field 'n' must be a number, a flat non-empty list or "
                              f"{{start, stop, num}}, got {grid_cfg!r}")
        ns = [float(v) for v in value] if shape else [float(value)]
    rows = []
    for n_float in ns:
        n = int(round(n_float))
        if n < 2:
            raise ConfigError(f"field 'n' values must be >= 2, got {n}")
        spec = rates.RateSpec(beta=beta, d=d, n=n, s=s)
        spec = dataclasses.replace(spec, step=rates.rate_eval(spec, "stubble-balancing-step"))
        row = {c: rates.rate_eval(spec, c) for c in _RATE_COLUMNS if c in rates.RATE_IDS}
        row["balance-gap"] = abs(row["stubble-nice-prob-term"] - row["stubble-nice-det-term"])
        row["snake-vs-onlyn-gap"] = abs(row["snake-combined-nice"] - row["stubble-onlyn"])
        rows.append([n] + [row[c] for c in _RATE_COLUMNS])
    _write_csv(os.path.join(out, "rates.csv"), ["n", *_RATE_COLUMNS], rows,
               comment=f"rates beta={beta} d={d} s={s}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(cfg: dict, out: str, seed: int) -> int:
    from . import statmodel
    kl = _number(cfg, "kl", 0.5)
    if kl < 0:
        raise ConfigError(f"field 'kl' must be >= 0, got {kl}")
    if not math.isfinite(math.sqrt(2.0 * kl)):
        raise ConfigError(f"field 'kl' = {kl} is too large: its mean shift sqrt(2 kl) overflows")
    trials = _count(cfg, "trials", 100000, statmodel.MAX_MC_TRIALS)
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

_COMMANDS = {"construct": _cmd_construct, "verify": _cmd_verify, "rates": _cmd_rates,
             "experiment": _cmd_experiment}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="odelab",
        description="Constructions and certificates for ODE regression lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.seed < 0:  # numpy's generators take seeds >= 0
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # an existing file, a parent that is a file
            raise ConfigError(f"cannot create output directory: {exc}")
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"odelab: config error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CONFIG
    except ConstructionError as exc:
        print(f"odelab: construction error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
