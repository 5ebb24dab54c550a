"""Adversarial pair/family constructions: coincidence, separation, spacing."""

import numpy as np
import pytest

from odelab import flow, hypotheses

STUBBLE_CLASS = dict(beta=1.5, L=(2.0, 300.0), L_beta=6500.0)
SNAKE_CLASS = dict(beta=2.0, L=(2.0, 20.0), L_beta=100.0)


@pytest.fixture(scope="module")
def det_pair():
    return hypotheses.stubble_det_pair(
        STUBBLE_CLASS["beta"], 1, STUBBLE_CLASS["L"], STUBBLE_CLASS["L_beta"],
        0.05, np.array([0.5]),
    )


def test_stubble_det_metadata_frozen(det_pair):
    md = det_pair.metadata
    assert md["radius"] == pytest.approx(0.05 * 2.0 * 2.0 / 3.0, rel=1e-14)
    assert md["amplitude"] == pytest.approx(18.189203392137294, rel=1e-9)
    assert det_pair.claimed_separation == pytest.approx(0.666625976561167, rel=1e-9)
    assert "0.05" in det_pair.coincidence_spec  # names the arithmetic grid


def test_stubble_det_coincidence_on_grid(det_pair):
    # both flows agree exactly at multiples of delta_t from any start
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.2, 0.8, size=8)
    worst = 0.0
    for x in xs:
        for i in range(-4, 5):
            u0 = det_pair.f0.closed_form_flow(np.array([x]), i * 0.05)
            u1 = det_pair.f1.closed_form_flow(np.array([x]), i * 0.05)
            worst = max(worst, abs(float(u0[0] - u1[0])))
    assert worst < 1e-12


def test_stubble_det_separation_attained(det_pair):
    x0 = det_pair.x0
    diff = abs(float(det_pair.f1.eval(x0)[0] - det_pair.f0.eval(x0)[0]))
    assert diff >= det_pair.claimed_separation
    # ... and the floor is the advertised constant * L0^(beta+1) * dt^beta
    md = det_pair.metadata
    floor = md["separation_constant"] * md["L0"] ** (STUBBLE_CLASS["beta"] + 1.0) * 0.05 ** STUBBLE_CLASS["beta"]
    assert det_pair.claimed_separation >= floor * (1.0 - 1e-9)


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
    assert dev.max() > 0
    assert dev.max() == pytest.approx(fam.zeta * 100.0 * r**2.0 * fam.metadata["h_center"], rel=1e-12) \
        if "h_center" in fam.metadata else dev.max() > 0


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


def test_spiral_build_rejects_nonpositive():
    with pytest.raises(ValueError):
        hypotheses.spiral_build(0)
