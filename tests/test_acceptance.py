"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each timed criterion asserts its own runtime budget, so a
regression in the numerics or the integrator shows up here first.
"""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import odelab
from odelab import (flow, geometry, hypotheses, kernels, smoothness, statmodel)

PHI_MINUS_HALF = 0.3085375387259869  # Phi(-1/2), mpmath 22 digits
BELL = [1, 2, 5, 15, 52, 203]

DET_CLASSES = {
    1.5: dict(L=(2.0, 300.0), L_beta=6500.0),
    2.5: dict(L=(2.0, 300.0, 60000.0), L_beta=1.6e6),
}
BUMP_CLASS = dict(L=(2.0, 20.0), L_beta=100.0)


def test_criterion_01_periodic_coincidence():
    """Grid coincidence of the 1-d periodic pair; separation floor attained."""
    start = time.perf_counter()
    delta_t = 0.05
    rng = np.random.default_rng(2026)
    for beta, cls in DET_CLASSES.items():
        pair = hypotheses.stubble_det_pair(beta, 1, cls["L"], cls["L_beta"],
                                           delta_t, np.array([0.5]))
        xs = (0.5 + rng.uniform(-1.0, 1.0, size=50))[:, None]
        worst = 0.0
        for i in range(-5, 6):
            t = i * delta_t
            gap = np.abs(pair.f0.closed_form_flow(xs, t)
                         - pair.f1.closed_form_flow(xs, t)).max()
            worst = max(worst, float(gap))
        assert worst <= 1e-9, f"beta={beta}: grid coincidence off by {worst}"

        c_beta = (2.0 / 3.0) ** (beta + 1.0) * kernels.sup_abs_kernel_deriv(1)
        floor = (c_beta * pair.metadata["amplitude"]
                 * cls["L"][0] ** (beta + 1.0) * delta_t**beta)
        att = float(np.abs(pair.f1(pair.x0) - pair.f0(pair.x0))[0])
        assert pair.claimed_separation >= floor
        assert att >= pair.claimed_separation
    assert time.perf_counter() - start < 5.0


def test_criterion_02_snake_identical_trajectories():
    """All m=9 snake trajectories coincide; tube cover at delta, not delta/2."""
    start = time.perf_counter()
    delta = 0.1
    pair, initials, horizons = hypotheses.snake_det_pair(
        2.0, 2, BUMP_CLASS["L"], BUMP_CLASS["L_beta"], delta, np.array([0.5, 0.5])
    )
    assert initials.shape[0] == 9
    tubes = []
    worst = 0.0
    for x, T in zip(initials, horizons):
        t0 = flow.integrate(pair.f0, x, float(T), 1e-10)
        t1 = flow.integrate(pair.f1, x, float(T), 1e-10)
        for s in np.linspace(0.0, float(T), 33):
            worst = max(worst, float(np.linalg.norm(
                flow.flow_at(t1, s) - flow.flow_at(t0, s))))
        tubes.append(geometry.TubeSpec(trajectory=t1, radius=delta))
    assert worst <= 1e-8, f"trajectory gap {worst}"

    region = ((0.0, 1.0), (0.0, 1.0))
    assert geometry.tube_cover_check(tubes, region).passed
    assert not geometry.tube_cover_check(tubes, region, radius=delta / 2.0).passed
    assert time.perf_counter() - start < 30.0


def test_criterion_03_spiral_schedule():
    """Spiral with K=4 revisits (0, k/4) on schedule; norms match the plan."""
    start = time.perf_counter()
    spec = hypotheses.spiral_build(4)
    assert spec.T == 1.0 + (2.0 + 3.0 * math.pi) * 4.0  # exact equality
    rep = hypotheses.spiral_verify(spec)
    assert rep.max_schedule_error <= 1e-6 * spec.T
    assert rep.supnorm_measured == pytest.approx(math.sqrt(1.0 + 4.0 * 0.25**2),
                                                 abs=1e-9)
    assert rep.lipschitz_measured <= math.sqrt(1.0 + 20.0 * 0.25**2) + 1e-9
    assert rep.passed
    assert time.perf_counter() - start < 20.0


def test_criterion_04_master_theorem_envelope():
    """psi^2 chi <= a_n r^gamma at 20 radii; KL at r_n stays below 1/2."""
    start = time.perf_counter()
    noise = statmodel.NoiseLaw(dim=2, covariance=1.0)

    sfam = hypotheses.stubble_prob_family(2.0, 2, BUMP_CLASS["L"], BUMP_CLASS["L_beta"])
    ssch = statmodel.build_stubble_scheme(20, 3, 0.1, noise)
    assert ssch.m == 400 and ssch.n_max == 3
    assert ssch.T_max == pytest.approx(0.3)
    stubble = statmodel.master_instance_stubble(sfam, ssch)

    nfam = hypotheses.snake_prob_family(2.0, 2, BUMP_CLASS["L"], BUMP_CLASS["L_beta"])
    _, initials, horizons = hypotheses.snake_det_pair(
        2.0, 2, BUMP_CLASS["L"], BUMP_CLASS["L_beta"], 0.1, np.array([0.5, 0.5])
    )
    nsch = statmodel.build_snake_scheme(initials, horizons, 40, noise)
    snake = statmodel.master_instance_snake(nfam, nsch)

    for inst in (stubble, snake):
        radii = np.geomspace(inst.rho_minus, inst.rho_plus, 20)
        for r in radii:
            out = statmodel.psi_chi_measure(inst.family, inst.scheme, float(r))
            envelope = inst.a_n * float(r) ** inst.gamma
            assert out.psi_hat**2 * out.chi_hat <= envelope, (
                f"{inst.kind}: envelope broken at r={r}"
            )
        mr = statmodel.choose_master_radius(inst)
        assert inst.rho_minus <= mr.r_n <= inst.rho_plus
        # KL of null vs a bump/pulse at the master radius, worst over centers
        worst_kl = 0.0
        for z in _kl_centers(inst, mr.r_n):
            f1 = inst.family.make_alternative(z, mr.r_n)
            worst_kl = max(worst_kl, statmodel.scheme_kl(inst.scheme,
                                                         inst.family.f0, f1))
        assert worst_kl <= 0.5 + 1e-3, f"{inst.kind}: KL {worst_kl}"
    assert time.perf_counter() - start < 60.0


def _kl_centers(inst, r):
    lo, hi = r, 1.0 - r
    if inst.kind == "snake":
        # pulses ride on the transverse coordinate; keep them inside the cube
        return [np.array([x, y]) for x in (0.25, 0.6) for y in (max(lo, 0.3), 0.5)]
    return [np.array([x, y]) for x in (max(lo, 0.2), 0.5) for y in (0.5, min(hi, 0.8))]


def test_criterion_05_le_cam_teeth():
    """Exact LRT error at KL=1/2, Monte Carlo agreement, 1/4 certificate."""
    start = time.perf_counter()
    exact = statmodel.gaussian_lrt_error(0.5)
    assert exact == pytest.approx(PHI_MINUS_HALF, abs=1e-5)
    mc = statmodel.monte_carlo_two_point(0.5, 100000, seed=17)
    assert abs(mc.error_hat - exact) <= 3.0 * mc.std_error
    assert statmodel.lecam_two_point(0.5) == 0.25
    assert exact >= 0.25  # the certificate really is a lower bound here
    assert time.perf_counter() - start < 30.0


def test_criterion_06_noise_constant():
    """KL <= C_noise ||shift||^2 with equality along the lambda_min direction."""
    law = statmodel.NoiseLaw(dim=2, covariance=np.array([1.0, 4.0]))
    assert law.C_noise == pytest.approx(0.5, rel=1e-14)
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = rng.normal(size=2)
        kl = statmodel.gaussian_kl(s, law)
        assert kl <= law.C_noise * float(s @ s) + 1e-12
    along = np.array([0.37, 0.0])  # lambda_min eigenvector
    gap = abs(statmodel.gaussian_kl(along, law) - law.C_noise * float(along @ along))
    assert gap <= 1e-12


def test_criterion_07_cover_constants():
    """Regular grids admit C_cvr <= 4^d; equidistant times admit C_cvrtm <= 3."""
    for d in (1, 2):
        noise = statmodel.NoiseLaw(dim=d, covariance=1.0)
        sch = statmodel.build_stubble_scheme(20, 3, 0.1, noise)
        rep = statmodel.check_cover(sch)  # declared defaults to 4^d
        assert rep.passed
        assert rep.declared == 4.0**d
        assert rep.C_hat <= 4.0**d * (1.0 + 1e-9)
        rep_t = statmodel.check_cover_time(sch)
        assert rep_t.passed and rep_t.C_hat <= 3.0


def test_criterion_08_rate_algebra():
    """Balancing identity and the stubble/snake rate coincidence, 1e-12 rel."""
    combos = list(itertools.product((10**3, 10**4, 31623, 10**6),
                                    (1.5, 2.0, 2.5)))[:12]
    for (n, beta), d in zip(combos, itertools.cycle((1, 2, 3))):
        spec = statmodel.RateSpec(beta=beta, d=d, n=n)
        star = statmodel.rate_eval(spec, "stubble-balancing-step")
        bal = dataclasses.replace(spec, step=star)
        p = statmodel.rate_eval(bal, "stubble-nice-prob-term")
        q = statmodel.rate_eval(bal, "stubble-nice-det-term")
        assert abs(p - q) <= 1e-12 * max(p, q), f"balance off at n={n} b={beta} d={d}"
        a = statmodel.rate_eval(spec, "stubble-onlyn")
        b = statmodel.rate_eval(spec, "snake-combined-nice")
        assert abs(a - b) <= 1e-12 * max(a, b), f"rates differ at n={n} b={beta} d={d}"


def test_criterion_09_faa_di_bruno():
    """Composition derivatives vs finite differences; partition counts."""
    for k in range(1, 7):
        assert len(smoothness.enumerate_partitions(k)) == BELL[k - 1]

    # exp(sin x) at x = 0.7
    f_der = [lambda u: math.exp(u)] * 5
    g_der = [lambda x: math.sin(x), lambda x: math.cos(x), lambda x: -math.sin(x),
             lambda x: -math.cos(x), lambda x: math.sin(x)]

    def fd(fun, x, k, h):
        # Richardson-extrapolated central differences, O(h^4)
        def central(hh):
            c = {
                1: (fun(x + hh) - fun(x - hh)) / (2 * hh),
                2: (fun(x + hh) - 2 * fun(x) + fun(x - hh)) / hh**2,
                3: (fun(x + 2 * hh) - 2 * fun(x + hh) + 2 * fun(x - hh)
                    - fun(x - 2 * hh)) / (2 * hh**3),
                4: (fun(x + 2 * hh) - 4 * fun(x + hh) + 6 * fun(x)
                    - 4 * fun(x - hh) + fun(x - 2 * hh)) / hh**4,
            }
            return c[k]

        return (4.0 * central(h / 2) - central(h)) / 3.0

    for k in range(1, 5):
        got = smoothness.faa_di_bruno(f_der, g_der, k, 0.7)
        want = fd(lambda u: math.exp(math.sin(u)), 0.7, k, 1e-2)
        assert got == pytest.approx(want, rel=1e-5)

    # chain-remainder field: tame parameters keep the FD noise in range
    tame = dict(amplitude=0.5, radius=0.5, phase=0.13, L0=2.0, beta=2.5)
    fld = smoothness.chain_remainder_field(**tame)
    outer, inner = smoothness.chain_remainder_jet(**tame)
    s_scalar = lambda y: float(fld.eval(np.array([y]))[0])
    for k in range(1, 5):
        got = smoothness.faa_di_bruno(outer, inner, k, 0.4)
        want = fd(s_scalar, 0.4, k, 4e-3 if k >= 3 else 1e-3)
        assert got == pytest.approx(want, rel=1e-5), f"order {k}"


def test_criterion_10_smoothness_certification():
    """Shipped constructions certify; a 4x-oversized radius is rejected."""
    start = time.perf_counter()

    # 1-d periodic pair, both betas
    for beta, cls in DET_CLASSES.items():
        pair = hypotheses.stubble_det_pair(beta, 1, cls["L"], cls["L_beta"],
                                           0.05, np.array([0.5]))
        sc = pair.smoothness_class
        rep = smoothness.certify_membership(pair.f1, sc, ((0.0, 1.0),),
                                            budget=2048, pairs=40000)
        assert rep.passed, f"det pair beta={beta} failed certification"

    # planar bump alternative at the certified maximal radius
    fam = hypotheses.stubble_prob_family(2.0, 2, BUMP_CLASS["L"], BUMP_CLASS["L_beta"])
    f1 = fam.make_alternative(np.array([0.5, 0.5]), fam.rho_plus)
    region = ((0.0, 1.0), (0.0, 1.0))
    rep = smoothness.certify_membership(f1, fam.smoothness_class, region,
                                        budget=2048, pairs=40000)
    assert rep.passed, "bump alternative at r_max failed certification"

    # planar pulse alternative
    nfam = hypotheses.snake_prob_family(2.0, 2, BUMP_CLASS["L"], BUMP_CLASS["L_beta"])
    g1 = nfam.make_alternative(np.array([0.5, 0.5]), nfam.rho_plus / 2.0)
    rep = smoothness.certify_membership(g1, nfam.smoothness_class, region,
                                        budget=2048, pairs=40000)
    assert rep.passed, "pulse alternative failed certification"

    # counterexample: radius 4x past the certified maximum
    bad_r = 4.0 * fam.rho_plus
    with pytest.raises(ValueError):
        fam.make_alternative(np.array([0.5, 0.5]), bad_r)
    bump = kernels.ScaledField(kernel=fam.kernel, center=(0.5, 0.5), radius=bad_r,
                               amplitude=BUMP_CLASS["L_beta"])

    def cheat(x):  # build the alternative by hand, bypassing the radius guard
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = bump(x)
        return out

    wide = ((0.5 - bad_r, 0.5 + bad_r), (0.5 - bad_r, 0.5 + bad_r))
    rep_bad = smoothness.certify_membership(cheat, fam.smoothness_class, wide,
                                            budget=2048, pairs=40000)
    assert not rep_bad.passed, "oversized bump should not certify"
    assert time.perf_counter() - start < 60.0


def test_criterion_11_cli_determinism(tmp_path):
    """Every CLI suite, run twice with one seed, emits identical bytes."""
    # the CLI processes import the same odelab as this test
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(odelab.__file__)))
    suites = ["coincidence", "tube-cover", "spiral", "smoothness", "symmetry",
              "gronwall", "assumptions"]
    for suite in suites:
        cfg = tmp_path / f"{suite}.json"
        cfg.write_text(json.dumps({"suite": suite, "beta": 2.0}))
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{suite}-{tag}"
            rc = subprocess.run(
                [sys.executable, "-m", "odelab.cli", "verify",
                 "--config", str(cfg), "--out", str(out), "--seed", "12"],
                env=env, capture_output=True,
            ).returncode
            assert rc == 0, f"suite {suite} exited {rc}"
            outputs.append((out / "report.json").read_bytes())
        assert outputs[0] == outputs[1], f"suite {suite} not deterministic"

    # rates and experiment tables as well
    for cmd, payload, files in (
        ("rates", {"beta": 2.0, "n": {"start": 1e3, "stop": 1e5, "num": 6}},
         ["rates.csv"]),
        ("experiment", {"kl": 0.5, "trials": 30000}, ["experiment.json",
                                                      "experiment.csv"]),
    ):
        cfg = tmp_path / f"{cmd}.json"
        cfg.write_text(json.dumps(payload))
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}-{tag}"
            rc = subprocess.run(
                [sys.executable, "-m", "odelab.cli", cmd, "--config", str(cfg),
                 "--out", str(out), "--seed", "9"],
                env=env, capture_output=True,
            ).returncode
            assert rc == 0
            blobs.append(b"".join((out / f).read_bytes() for f in files))
        assert blobs[0] == blobs[1], f"{cmd} output not deterministic"
