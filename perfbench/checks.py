"""Checks of each operation's outputs, computed apart from odelab.

Every check returns a list of problems; an empty list accepts the output.
Nothing here imports odelab: the kernel, the inverse of the conjugating
map, the cover count, the rate exponent and the Gaussian error are
re-derived from their definitions, and the remaining checks are
properties the method must have (the master envelope, the KL budget,
tube distance bounds).  A missing or unreadable file is reported as a
problem, not raised.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# max |K'| for K(w) = exp(-1/(1-w^2)) sits where 1 - 3 w^4 = 0
_W_STAR = 3.0 ** -0.25


def kernel(w):
    w = np.asarray(w, dtype=float)
    t = 1.0 - w * w
    inside = t > 1e-3  # below this K < exp(-1000), an exact 0 in doubles
    out = np.zeros_like(w)
    out[inside] = np.exp(-1.0 / t[inside])
    return out


def kernel_prime(w):
    w = np.asarray(w, dtype=float)
    t = 1.0 - w * w
    inside = t > 1e-3
    out = np.zeros_like(w)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / ti) * (-2.0 * w[inside]) / ti**2
    return out


def periodic(x):
    u = x - np.floor(x)
    return kernel(2.0 * u - 1.0)


def periodic_prime(x):
    u = x - np.floor(x)
    return 2.0 * kernel_prime(2.0 * u - 1.0)


def periodic_prime_sup() -> float:
    return 2.0 * abs(float(kernel_prime(_W_STAR)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _load_json(path: str, problems: list):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None


def _load_csv(path: str, problems: list):
    """(header, rows of floats) of a '#'-commented CSV, or None."""
    try:
        with open(path, newline="") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None


# ---------------------------------------------------------------------------
# verify reports


def report(out: str, cfg: dict, seed: int) -> list:
    """Every suite: a passing report of the suite asked for, plus its own checks."""
    problems: list = []
    rep = _load_json(os.path.join(out, "report.json"), problems)
    if rep is None:
        return problems
    if rep.get("suite") != cfg["suite"] or rep.get("config") != cfg or rep.get("seed") != seed:
        problems.append("report does not echo the suite, config and seed it was run with")
    checks = {c.get("name"): c for c in rep.get("checks", [])}
    failed = [name for name, c in checks.items() if c.get("passed") is not True]
    if rep.get("passed") is not True or failed or not checks:
        problems.append(f"report checks failed: {failed or 'none recorded'}")
    extra = _SUITE_CHECKS.get(cfg["suite"])
    if extra is not None:
        problems += extra(checks, cfg)
    return problems


def _spiral(checks: dict, cfg: dict) -> list:
    K = int(cfg["K"])
    horizon = 1.0 + (2.0 + 3.0 * math.pi) * K
    sup = math.sqrt(1.0 + 4.0 / K**2)
    problems = []
    if "horizon" not in checks or checks["horizon"].get("measured") != horizon:
        problems.append(f"spiral horizon is not 1+(2+3pi)K = {horizon!r}")
    if "supnorm" not in checks or not _close(checks["supnorm"].get("measured", 0.0), sup, 1e-12):
        problems.append(f"spiral sup-norm is not sqrt(1+4/K^2) = {sup!r}")
    return problems


def _tube_cover(checks: dict, cfg: dict) -> list:
    want = {"identical-trajectories", "cover-at-delta", "no-cover-at-half-delta"}
    return [] if set(checks) == want else [f"tube-cover checks {sorted(checks)} != {sorted(want)}"]


def _gronwall(checks: dict, cfg: dict) -> list:
    want = {f"pair-{i}" for i in range(int(cfg["trials"]))}
    return [] if set(checks) == want else [f"gronwall ran {len(checks)} pairs, not {len(want)}"]


def brute_cover_constant(K_grid: int, d: int) -> float:
    """max over grid points z and inclusion radii r of #{||x - z|| <= r} / (m r^d)."""
    axis = (np.arange(K_grid) + 0.5) / K_grid
    x = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1)
    m = len(x)
    r_floor = (4.0**d * m) ** (-1.0 / d)
    dist = np.sort(np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)), axis=1)
    best = 0.0
    for row in dist:
        radii = np.concatenate([[r_floor], row[(row > r_floor) & (row <= 1.0)]])
        counts = np.searchsorted(row, radii * (1.0 + 1e-12), side="right")
        best = max(best, float((counts / (m * radii**d)).max()))
    return best


def _assumptions(checks: dict, cfg: dict) -> list:
    d = int(cfg["d"])
    if "cover-constant" not in checks:
        return ["no cover-constant check in the report"]
    c_hat = float(checks["cover-constant"]["measured"])
    brute = brute_cover_constant(int(cfg["K_grid"]), d)
    problems = []
    if brute > c_hat * (1.0 + 1e-9):
        problems.append(f"grid-center count gives C = {brute!r} > reported C_hat = {c_hat!r}")
    if c_hat > 4.0**d * (1.0 + 1e-12):
        problems.append(f"C_hat = {c_hat!r} > 4^d")
    return problems


_SUITE_CHECKS = {
    "spiral": _spiral,
    "tube-cover": _tube_cover,
    "gronwall": _gronwall,
    "assumptions": _assumptions,
}


# ---------------------------------------------------------------------------
# construct stubble-det


def g_inverse(y, amp: float, r: float, beta: float, phase: float):
    """Bisection for g(u) = u + amp r^(beta+1) K_per((u - phase)/r) = y (g is increasing)."""
    y = np.asarray(y, dtype=float)
    bump = amp * r ** (beta + 1.0)
    lo = y - bump * math.exp(-1.0) - 1e-12  # 0 <= K_per <= e^-1
    hi = y + 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mid + bump * periodic((mid - phase) / r) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 4e-16 * np.maximum(1.0, np.abs(y))):
            break
    return 0.5 * (lo + hi)


def stubble_det(out: str, cfg: dict, seed: int) -> list:
    problems: list = []
    desc = _load_json(os.path.join(out, "construction.json"), problems)
    grid = _load_csv(os.path.join(out, "field_grid.csv"), problems)
    if desc is None or grid is None:
        return problems
    beta, amp, r, phase = desc["beta"], desc["amplitude"], desc["radius"], desc["phase"]
    L0, dt = desc["L"][0], desc["delta_t"]
    if beta != cfg["beta"] or desc["x0"] != cfg["x0"]:
        problems.append("construction does not echo beta and x0")
    if not _close(r, 2.0 / 3.0 * L0 * dt, 1e-15):
        problems.append(f"period r = {r!r} is not (2/3) L0 dt")
    slope = amp * r**beta * periodic_prime_sup()
    if not 0.0 < slope <= 0.5:
        problems.append(f"slope amp r^beta max|K_per'| = {slope!r} outside (0, 1/2]")
    header, rows = grid
    if header != ["x", "f0", "f1"] or rows.shape != (401, 3):
        return problems + [f"field_grid.csv has header {header} and shape {rows.shape}"]
    x0 = cfg["x0"][0]
    if np.abs(rows[:, 0] - np.linspace(x0 - 2 * r, x0 + 2 * r, 401)).max() > 1e-12:
        problems.append("field_grid.csv x column is not the 401-point window around x0")
    speed = 2.0 / 3.0 * L0
    u = g_inverse(rows[:, 0], amp, r, beta, phase)
    f1 = speed * (1.0 + amp * r**beta * periodic_prime((u - phase) / r))
    err = float(np.abs(f1 - rows[:, 2]).max())
    if err > 1e-9:
        problems.append(f"f1 differs from (2/3) L0 g'(g^-1(x)) by {err:.3g}")
    if np.abs(rows[:, 1] - speed).max() > 1e-15 * speed:
        problems.append("f0 is not the constant drift (2/3) L0")
    u0 = g_inverse(np.array([x0]), amp, r, beta, phase)
    gap = abs(speed * amp * r**beta * float(periodic_prime((u0 - phase) / r)[0]))
    if gap < desc["claimed_separation"] * (1.0 - 1e-9):
        problems.append(f"|f1(x0) - f0(x0)| = {gap!r} < claimed separation")
    return problems


# ---------------------------------------------------------------------------
# rates and experiment


def rates(out: str, cfg: dict, seed: int) -> list:
    problems: list = []
    table = _load_csv(os.path.join(out, "rates.csv"), problems)
    if table is None:
        return problems
    header, rows = table
    col = {name: rows[:, i] for i, name in enumerate(header)}
    grid = cfg["n"]
    n = np.round(np.geomspace(grid["start"], grid["stop"], grid["num"]))
    if rows.shape[0] != grid["num"] or not np.array_equal(col["n"], n):
        return problems + ["rates.csv n column is not the requested grid"]
    beta, d = cfg["beta"], cfg["d"]
    onlyn = n ** (-2.0 * beta / (2.0 * (beta + 1.0) + d))
    if np.abs(col["stubble-onlyn"] / onlyn - 1.0).max() > 1e-12:
        problems.append("stubble-onlyn != n^(-2beta/(2(beta+1)+d)) to 1e-12")
    step = n ** (-1.0 / (2.0 * (beta + 1.0) + d))
    # at the balancing step both terms of the nice rate and the snake rate
    # all equal the n-only rate
    expected = {
        "stubble-balancing-step": step,
        "stubble-nice-prob-term": (n * step**2) ** (-2.0 * beta / (2.0 * beta + d)),
        "stubble-nice-det-term": step ** (2.0 * beta),
        "snake-combined-nice": onlyn,
    }
    for name, value in expected.items():
        if np.abs(col[name] / value - 1.0).max() > 1e-12:
            problems.append(f"{name} differs from its formula by more than 1e-12")
    if np.abs(expected["stubble-nice-prob-term"] / expected["stubble-nice-det-term"]
              - 1.0).max() > 1e-12:
        problems.append("the recomputed prob and det terms do not balance")
    if np.any(col["balance-gap"] > 1e-12 * onlyn):
        problems.append("balance-gap does not vanish")
    if np.any(col["snake-vs-onlyn-gap"] > 1e-12 * onlyn):
        problems.append("snake-vs-onlyn-gap does not vanish")
    return problems


def experiment(out: str, cfg: dict, seed: int) -> list:
    problems: list = []
    res = _load_json(os.path.join(out, "experiment.json"), problems)
    table = _load_csv(os.path.join(out, "experiment.csv"), problems)
    if res is None or table is None:
        return problems
    kl, trials = cfg["kl"], cfg["trials"]
    if res["kl"] != kl or res["trials"] != trials or res["seed"] != seed:
        problems.append("experiment does not echo kl, trials and seed")
    exact = 0.5 * math.erfc(math.sqrt(kl / 2.0) / math.sqrt(2.0))
    if not _close(res["exact_error"], exact, 1e-12):
        problems.append(f"exact_error {res['exact_error']!r} != erfc form {exact!r}")
    # six standard errors: a false alarm about once in 5e8 runs
    if abs(res["error_hat"] - exact) > 6.0 * res["std_error"]:
        problems.append("Monte Carlo error is more than 6 standard errors from exact")
    if res["lecam_bound"] != (0.25 if kl <= 0.5 else 0.0):
        problems.append("Le Cam certificate is not 1/4 at KL <= 1/2")
    if table[1].shape != (1, 6):
        problems.append("experiment.csv does not hold one summary row")
    return problems


# ---------------------------------------------------------------------------
# master pipeline


def _min_transverse_distance(initials: np.ndarray) -> float:
    t = initials[:, 1:]
    dist = np.sqrt(((t[:, None, :] - t[None, :, :]) ** 2).sum(-1))
    dist[np.diag_indices(len(t))] = np.inf
    return float(dist.min())


def _instance(inst: dict) -> list:
    kind, d = inst["kind"], inst["d"]
    problems = []
    for row in inst["radii"]:
        lhs = row["psi_hat"] ** 2 * row["chi_hat"]
        rhs = inst["a_n"] * row["r"] ** inst["gamma"]
        if lhs > rhs * (1.0 + 1e-12):
            problems.append(f"{kind} d={d}: psi^2 chi = {lhs:.6g} > a_n r^gamma = {rhs:.6g}"
                            f" at r = {row['r']:.6g}")
    if len(inst["radii"]) != 20:
        problems.append(f"{kind} d={d}: {len(inst['radii'])} radii, not 20")
    if not inst["rho_minus"] <= inst["r_n"] <= inst["rho_plus"]:
        problems.append(f"{kind} d={d}: r_n outside [rho_minus, rho_plus]")
    if not 0.0 <= inst["kl_at_r_n"] <= 0.5 + 1e-3:
        problems.append(f"{kind} d={d}: KL at r_n = {inst['kl_at_r_n']!r} > 1/2 + 1e-3")
    if kind == "stubble" and inst["m"] != inst["K_grid"] ** d:
        problems.append("stubble grid does not have K_grid^d starts")
    if kind == "snake":
        delta = inst["delta"]
        sweeps = (math.ceil(math.sqrt(d) / (2.0 * delta)) + 1) ** (d - 1)
        initials = np.array(inst["initials"])
        if inst["m"] != sweeps or initials.shape != (sweeps, d):
            problems.append(f"snake d={d}: {inst['m']} sweeps, not {sweeps}")
        elif not _close(_min_transverse_distance(initials), 2.0 * delta / math.sqrt(d), 1e-9):
            problems.append(f"snake d={d}: transverse pitch is not 2 delta / sqrt(d)")
        elif np.any(initials[:, 0] != 0.0):
            problems.append(f"snake d={d}: sweeps do not start on x_1 = 0")
    return problems


def tube_bounds(tube: dict):
    """(lower, upper) bounds on each query's distance to the tube.

    Upper: the nearest slice through a node, which the program's slice set
    contains.  Lower: a step of duration h whose end speeds are at most v
    has arc length A <= 1.5 h v (allowing for speed-up inside the step),
    and such an arc lies in the ball of radius A/2 about its chord's
    midpoint; the distance to the nearest such ball, less the tube radius.
    """
    ts, states, derivs = (np.array(tube[k]) for k in ("ts", "states", "derivs"))
    pts, rad = np.array(tube["points"]), tube["radius"]
    speed = np.linalg.norm(derivs, axis=1)
    keep = speed > 1e-10 * speed.max()
    units = derivs[keep] / speed[keep, None]
    w = pts[:, None, :] - states[None, keep, :]
    par = (w * units[None]).sum(-1)
    perp = np.sqrt(np.maximum((w**2).sum(-1) - par**2, 0.0))
    upper = np.sqrt(par**2 + np.maximum(perp - rad, 0.0) ** 2).min(axis=1)
    mid = 0.5 * (states[1:] + states[:-1])
    half_arc = 0.75 * np.diff(ts) * np.maximum(speed[1:], speed[:-1])
    to_mid = np.sqrt(((pts[:, None, :] - mid[None]) ** 2).sum(-1))
    lower = np.maximum((to_mid - half_arc[None]).min(axis=1) - rad, 0.0)
    return lower, upper


def master(out: str, cfg: dict, seed: int) -> list:
    problems: list = []
    res = _load_json(os.path.join(out, "master.json"), problems)
    if res is None:
        return problems
    kinds = [(i["kind"], i["d"]) for i in res["instances"]]
    if kinds != [("stubble", 2), ("snake", 2), ("snake", 3)]:
        problems.append(f"instances {kinds} are not stubble d=2, snake d=2, snake d=3")
    for inst in res["instances"]:
        problems += _instance(inst)
    lower, upper = tube_bounds(res["tube"])
    dist = np.array(res["tube"]["distances"])
    bad = np.nonzero((dist < lower - 1e-12) | (dist > upper + 1e-12))[0]
    if bad.size:
        problems.append(f"tube distances of queries {bad.tolist()} outside their bounds")
    return problems
