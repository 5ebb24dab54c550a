"""The master-theorem pipeline of the ``master`` workload, as one library user runs it.

Usage::

    python3 perfbench/master_pipeline.py --out DIR --seed N

Builds the stubble instance (K_grid = 20, d = 2) and two snake instances
(delta = 0.05 with d = 2, delta = 0.2 with d = 3).  For each it measures
psi/chi at 20 radii, chooses the pointwise master radius and computes the
worst scheme KL at that radius.  It then asks for point-to-tube
distances against a drift + pulse trajectory, whose RK steps shrink
inside the pulse.  Everything the independent checks need goes to
DIR/master.json; nothing is checked here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from odelab import flow, geometry, hypotheses, statmodel

BETA = 2.0
L = (2.0, 20.0)
L_BETA = 100.0
N_RADII = 20
N_PER_SNAKE = 40
SNAKES = ((2, 0.05), (3, 0.2))
N_QUERIES = 24


def _kl_centers(kind: str, d: int, r: float):
    """Centers for the KL at r_n: well inside the cube, on or off the sweeps."""
    lo, hi = r, 1.0 - r
    if kind == "snake":
        base = [(x, y) for x in (0.25, 0.6) for y in (max(lo, 0.3), 0.5)]
    else:
        base = [(x, y) for x in (max(lo, 0.2), 0.5) for y in (0.5, min(hi, 0.8))]
    return [np.array(b + (0.5,) * (d - 2)) for b in base]


def _instance_record(inst, extra: dict) -> dict:
    rows = []
    for r in np.geomspace(inst.rho_minus, inst.rho_plus, N_RADII):
        pc = statmodel.psi_chi_measure(inst.family, inst.scheme, float(r))
        rows.append({"r": float(r), "psi_hat": pc.psi_hat, "chi_hat": pc.chi_hat})
    mr = statmodel.choose_master_radius(inst)
    kls = [
        statmodel.scheme_kl(inst.scheme, inst.family.f0,
                            inst.family.make_alternative(z, mr.r_n))
        for z in _kl_centers(inst.kind, inst.scheme.dim, mr.r_n)
    ]
    return {
        "kind": inst.kind,
        "d": inst.scheme.dim,
        "m": inst.scheme.m,
        "gamma": inst.gamma,
        "a_n": inst.a_n,
        "rho_minus": inst.rho_minus,
        "rho_plus": inst.rho_plus,
        "radii": rows,
        "r_n": mr.r_n,
        "kl_at_r_n": max(kls),
        **extra,
    }


def _tube_queries(seed: int) -> dict:
    fam = hypotheses.snake_prob_family(BETA, 2, L, L_BETA)
    r = fam.rho_plus / 4.0
    alt = fam.combine(np.array([[0.3, 0.5], [0.7, 0.5 + r / 2.0]]), r)
    traj = flow.integrate(alt, np.array([0.0, 0.5]), 1.0 / fam.metadata["drift"], 1e-10)
    tube = geometry.TubeSpec(trajectory=traj, radius=0.05)
    rng = np.random.default_rng([seed, 1])
    points = rng.uniform([-0.1, 0.3], [1.1, 0.7], size=(N_QUERIES, 2))
    dist = [geometry.point_tube_distance(p, tube) for p in points]
    return {
        "radius": tube.radius,
        "ts": traj.ts.tolist(),
        "states": traj.states.tolist(),
        "derivs": traj.derivs.tolist(),
        "points": points.tolist(),
        "distances": dist,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    noise = statmodel.NoiseLaw(dim=2, covariance=1.0)
    sfam = hypotheses.stubble_prob_family(BETA, 2, L, L_BETA)
    ssch = statmodel.build_stubble_scheme(20, 3, 0.1, noise)
    instances = [_instance_record(statmodel.master_instance_stubble(sfam, ssch),
                                  {"K_grid": 20})]
    for d, delta in SNAKES:
        noise = statmodel.NoiseLaw(dim=d, covariance=1.0)
        fam = hypotheses.snake_prob_family(BETA, d, L, L_BETA)
        _, initials, horizons = hypotheses.snake_det_pair(BETA, d, L, L_BETA, delta,
                                                          np.full(d, 0.5))
        sch = statmodel.build_snake_scheme(initials, horizons, N_PER_SNAKE, noise)
        instances.append(_instance_record(statmodel.master_instance_snake(fam, sch),
                                          {"delta": delta, "initials": initials.tolist()}))
    result = {"instances": instances, "tube": _tube_queries(args.seed)}
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "master.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
