"""Adversarial pair/family constructions: coincidence, separation, spacing."""

import numpy as np
import pytest

from odelab import cli, flow, geometry, hypotheses, kernels, smoothness

STUBBLE_CLASS = dict(beta=1.5, L=(2.0, 300.0), L_beta=6500.0)
SNAKE_CLASS = dict(beta=2.0, L=(2.0, 20.0), L_beta=100.0)
W_STAR = 0.5 * (1.0 + 3.0**-0.25)  # argmax of |K_per'| over one period


@pytest.fixture(scope="module")
def det_pair():
    return hypotheses.stubble_det_pair(
        STUBBLE_CLASS["beta"], 1, STUBBLE_CLASS["L"], STUBBLE_CLASS["L_beta"],
        0.05, np.array([0.5]),
    )


def test_stubble_det_metadata_frozen(det_pair):
    md = det_pair.metadata
    assert md["radius"] == pytest.approx(0.05 * 2.0 * 2.0 / 3.0, rel=1e-14)
    assert md["amplitude"] == pytest.approx(14.114030413129996, rel=1e-9)
    assert det_pair.claimed_separation == pytest.approx(0.5172727547168167, rel=1e-9)
    assert "0.05" in det_pair.coincidence_spec  # names the arithmetic grid


def test_stubble_det_coincidence_on_grid(det_pair):
    # both flows agree exactly at multiples of delta_t from any start
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.2, 0.8, size=8)[:, None]
    checks = hypotheses.stubble_det_checks(det_pair, xs, tol=1e-12)
    assert [(name, ok) for name, ok, _, _ in checks] == [
        ("grid-coincidence", True), ("separation-floor", True), ("separation-attained", True),
        ("membership", True)]


def test_stubble_det_separation_attained(det_pair):
    x0 = det_pair.x0
    diff = abs(float(det_pair.f1.eval(x0)[0] - det_pair.f0.eval(x0)[0]))
    assert diff >= det_pair.claimed_separation
    # ... and the floor is the advertised constant * L0^(beta+1) * dt^beta
    md = det_pair.metadata
    floor = md["separation_constant"] * md["L0"] ** (STUBBLE_CLASS["beta"] + 1.0) * 0.05 ** STUBBLE_CLASS["beta"]
    assert det_pair.claimed_separation >= floor * (1.0 - 1e-9)


def test_separation_floor_fails_below_unit_amplitude():
    # at L_beta = 200 the largest fitting amplitude is about 0.49, so the claim
    # falls short of the amplitude-free floor (the claim at amplitude 1)
    beta, dt = STUBBLE_CLASS["beta"], 0.05
    pair = hypotheses.stubble_det_pair(beta, 1, STUBBLE_CLASS["L"], 200.0, dt, np.array([0.5]))
    md = pair.metadata
    assert md["amplitude"] < 1.0
    checks = {name: rec for name, *rec in hypotheses.stubble_det_checks(pair, np.array([[0.4]]))}
    floor = md["separation_constant"] * md["L0"] ** (beta + 1.0) * dt**beta
    assert checks["separation-floor"] == [False, pair.claimed_separation, floor]
    assert checks["grid-coincidence"][0] and checks["separation-attained"][0]


def _slope_cap(r, beta):
    return 0.5 / (r**beta * abs(kernels.periodic_kernel_deriv(W_STAR, 1))) * (1.0 - 1e-12)


@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.5, 4.5])
def test_stubble_det_amplitude_is_the_largest_fitting(beta):
    L, L_beta = cli._demo_class(beta)
    pair = hypotheses.stubble_det_pair(beta, 1, L, L_beta, 0.05, np.array([0.5]))
    amp, r = pair.metadata["amplitude"], pair.metadata["radius"]
    limits = L + (L_beta,)

    def fits(a):
        bounds = smoothness.chain_remainder_bounds(a, r, L[0], beta)
        return all(b <= lim for b, lim in zip(bounds, limits))

    assert fits(amp)
    assert amp == _slope_cap(r, beta) or not fits(amp * (1.0 + 1e-9))
    assert amp >= 1.0
    rep = smoothness.certify_membership(pair.f1, pair.smoothness_class, [(0.0, 2.0 * r)])
    assert rep.passed


def test_slope_capped_amplitude_keeps_the_slope_within_half():
    # constants this loose leave the slope condition as the only limit; the cap
    # must hold for the exact max |K_per'|, which the 40,001-point grid reads low
    pair = hypotheses.stubble_det_pair(2.5, 1, (2.0, 1e9, 1e12), 1e15, 0.05, np.array([0.5]))
    amp, r = pair.metadata["amplitude"], pair.metadata["radius"]
    assert amp == _slope_cap(r, 2.5)
    assert amp * r**2.5 * abs(kernels.periodic_kernel_deriv(W_STAR, 1)) <= 0.5


def test_stubble_det_builds_at_unit_time_step():
    # r sup|K_per'| > 2 here, yet the slope cap 0.5 / (r^beta sup|K_per'|) stays positive
    cls = STUBBLE_CLASS
    pair = hypotheses.stubble_det_pair(cls["beta"], 1, cls["L"], cls["L_beta"], 1.0,
                                       np.array([0.5]))
    amp, r = pair.metadata["amplitude"], pair.metadata["radius"]
    assert r * abs(kernels.periodic_kernel_deriv(W_STAR, 1)) >= 2.0
    assert 0.0 < amp <= _slope_cap(r, cls["beta"])
    bounds = smoothness.chain_remainder_bounds(amp, r, cls["L"][0], cls["beta"])
    assert all(b <= lim for b, lim in zip(bounds, cls["L"] + (cls["L_beta"],)))
    checks = {name: ok for name, ok, _, _ in
              hypotheses.stubble_det_checks(pair, np.array([[0.4], [0.9]]))}
    assert checks["grid-coincidence"] and checks["separation-attained"]
    assert checks["membership"]


def test_stubble_det_certifies_only_in_its_checks(monkeypatch):
    calls = []
    certify = smoothness.certify_membership
    monkeypatch.setattr(smoothness, "certify_membership",
                        lambda *args, **kwargs: calls.append(1) or certify(*args, **kwargs))
    cls = STUBBLE_CLASS
    pair = hypotheses.stubble_det_pair(cls["beta"], 1, cls["L"], cls["L_beta"], 0.05,
                                       np.array([0.5]))
    assert len(calls) == 0
    hypotheses.stubble_det_checks(pair, np.array([[0.4]]))
    assert len(calls) == 1


def test_snake_det_rejects_lattice_above_limit():
    # delta 1e-9 would need about 7e8 starts at d = 2: refused before any allocation
    with pytest.raises(hypotheses.DeltaTooSmall, match="707106785 lattice points"):
        hypotheses.snake_det_pair(2.0, 2, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"], 1e-9,
                                  np.array([0.5, 0.5]))


def test_irrational_timestep_breaks_coincidence(det_pair):
    # off the arithmetic grid the two flows must visibly differ
    gap = hypotheses.irrational_timestep_falsifier(det_pair, 0.05 * np.e)
    assert gap > 1e-4


def test_stubble_family_radius_guardrails():
    fam = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    assert fam.rho_plus > 0
    with pytest.raises(ValueError):
        fam.make_alternative(np.array([0.5, 0.5]), 2.0 * fam.rho_plus)
    with pytest.raises(ValueError):
        # centers closer than 2r cannot be combined disjointly
        r = fam.rho_plus / 2.0
        fam.combine(np.array([[0.3, 0.3], [0.3, 0.3 + 0.5 * r]]), r)


def test_stubble_family_alternative_is_local():
    fam = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    r = fam.rho_plus / 2.0
    z = np.array([0.5, 0.5])
    f1 = fam.make_alternative(z, r)
    # outside B(z, r) the alternative equals the null drift
    far = np.array([0.5 + 1.5 * r, 0.5])
    assert np.allclose(f1.eval(far), fam.f0.eval(far), rtol=0, atol=0)
    # at the center it deviates by the full perturbation height
    dev = np.abs(f1.eval(z) - fam.f0.eval(z))
    assert dev.max() == pytest.approx(100.0 * r**2 * fam.metadata["h_sup"], rel=1e-12)


@pytest.mark.parametrize("make_family", [hypotheses.stubble_prob_family,
                                         hypotheses.snake_prob_family])
def test_alternative_with_one_center_per_row_is_the_lone_alternative(make_family):
    fam = make_family(2.0, 2, (2.0, 20.0), 100.0)
    r = fam.rho_plus / 2.0
    rng = np.random.default_rng(13)
    Z = rng.uniform(0.2, 0.8, size=(9, 2))
    X = Z + rng.uniform(-1.2 * r, 1.2 * r, size=Z.shape)
    rows = fam.make_alternative(Z, r).eval(X)
    assert rows.shape == X.shape
    for i in range(len(Z)):
        lone = fam.make_alternative(Z[i], r).eval(X[i])
        assert rows[i].tobytes() == lone.tobytes()
    assert (rows != fam.f0.eval(X)).any()  # some rows sit inside their ball


def test_class_too_tight_raises():
    with pytest.raises(hypotheses.ClassTooTight):
        # L_0 budget smaller than the drift it must carry
        hypotheses.stubble_prob_family(2.0, 2, (1e-9, 20.0), 100.0)


def test_snake_family_needs_two_dimensions():
    with pytest.raises(hypotheses.DimensionTooSmall):
        hypotheses.snake_prob_family(2.0, 1, (2.0, 20.0), 100.0)


def test_snake_det_lattice_shapes():
    pair, initials, times = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], 2, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"],
        0.1, np.array([0.5, 0.5]),
    )
    # m = (m0+1)^(d-1) with m0 = ceil(sqrt(d)/(2 delta))
    assert initials.shape == (9, 2)
    assert times.shape == (9,)
    assert np.all(times > 0)
    assert pair.metadata["radius"] == pytest.approx(0.1 / np.sqrt(2.0), rel=1e-14)


def test_snake_det_fields_agree_on_lattice_lines():
    pair, initials, _ = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], 2, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"],
        0.1, np.array([0.5, 0.5]),
    )
    # along the drift direction from each initial, the bump lattice is
    # exactly one radius away: the perturbation vanishes identically there
    for x0 in initials:
        for t in np.linspace(0.0, 0.5, 7):
            x = x0 + t * np.array([1.0, 0.0]) * pair.f0.eval(x0)[0]
            assert np.array_equal(pair.f0.eval(x), pair.f1.eval(x))


def test_snake_det_fields_differ_off_lattice():
    pair, initials, _ = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], 2, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"],
        0.1, np.array([0.5, 0.5]),
    )
    # scan the unit square: the pulse rows must show up somewhere
    g = np.linspace(0.05, 0.95, 41)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    dev = np.abs(pair.f1.eval(pts) - pair.f0.eval(pts)).max()
    # bump height L_beta r^beta h(.) ~ 2e-2 at this delta
    assert dev > 5e-5
    assert pair.claimed_separation > 0
    assert pair.metadata["clearance"] >= pair.metadata["radius"] * (1.0 - 1e-9)


@pytest.mark.parametrize("d,delta", [(2, 0.1), (3, 0.2), (2, 0.05)])
def test_snake_det_attains_claimed_separation(d, delta):
    pair, _, _ = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], d, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"],
        delta, np.full(d, 0.5),
    )
    gap = np.linalg.norm(pair.f1.eval(pair.x0) - pair.f0.eval(pair.x0))
    assert gap >= pair.claimed_separation


@pytest.mark.parametrize("d,delta,x0", [
    (2, 0.1, [0.5, 0.5]), (3, 0.2, [0.5] * 3), (2, 0.05, [0.5, 0.5]), (3, 0.1, [0.5] * 3),
    (2, 0.1, [0.31, 0.77]), (3, 0.15, [0.2, 0.64, 0.45]), (4, 0.3, [0.5, 0.13, 0.58, 0.91]),
])
def test_snake_det_clearance_is_min_distance(d, delta, x0):
    # the per-axis clearance against the full pairwise minimum it replaced
    pair, initials, _ = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], d, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"], delta, np.array(x0))
    centers = pair.f1.metadata["centers"]
    clearance = pair.metadata["clearance"]
    assert clearance == geometry.min_distance(initials[:, 1:], centers[:, 1:])
    # every transverse offset is an odd multiple of r
    assert clearance == pytest.approx(pair.metadata["radius"] * np.sqrt(d - 1), rel=1e-12)


def test_snake_det_delta_guard():
    with pytest.raises(hypotheses.DeltaTooLarge):
        hypotheses.snake_det_pair(2.0, 2, (2.0, 20.0), 100.0, 5.0, np.array([0.5, 0.5]))


def test_spiral_build_frozen_schedule():
    spec = hypotheses.spiral_build(4)
    assert spec.T == 1.0 + (2.0 + 3.0 * np.pi) * 4.0  # exact float identity
    assert spec.delta == 0.25
    assert len(spec.schedule) == 5
    assert spec.schedule[0] == 0.0
    assert np.all(np.diff(spec.schedule) > 0)
    assert spec.schedule[-1] < spec.T


def test_spiral_field_regional_values():
    spec = hypotheses.spiral_build(4)
    # top band: unit drift to the right
    v = spec.field.eval(np.array([0.5, 0.0]))
    assert v == pytest.approx([1.0, 0.0], abs=1e-12)
    # supremum of |field| over the bottom band: sqrt(1 + 4 delta^2) at mid-band
    v2 = spec.field.eval(np.array([0.5, -2.5]))
    assert np.linalg.norm(v2) == pytest.approx(np.sqrt(1.0 + 4.0 * 0.25**2), rel=1e-12)


@pytest.mark.parametrize("K", range(1, 9))
def test_spiral_schedule_tight_with_few_steps(K, monkeypatch):
    # the uncapped orbit stays a tenth of tol_geo inside the schedule, and
    # the accepted-step count (deterministic) catches a step cap creeping back
    trajs = []
    integrate = flow.integrate

    def recording(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(flow, "integrate", recording)
    rep = hypotheses.spiral_verify(hypotheses.spiral_build(K))
    assert rep.max_schedule_error <= rep.tol_geo / 10.0
    assert len(trajs) == 1
    assert len(trajs[0].ts) - 1 <= 250 * K


def test_spiral_build_rejects_nonpositive():
    with pytest.raises(ValueError):
        hypotheses.spiral_build(0)
