"""Adversarial pair/family constructions: coincidence, separation, spacing."""

import dataclasses
import math

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
    assert md["amplitude"] == pytest.approx(14.110755455761643, rel=1e-9)
    assert det_pair.claimed_separation == pytest.approx(0.5171527290281989, rel=1e-9)
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
    # ... and the floor is the claim at amplitude 1, (2/3)^(beta+1) sup|K_per'| L0^(beta+1) dt^beta
    beta, L0 = STUBBLE_CLASS["beta"], det_pair.smoothness_class.L[0]
    floor = (2.0 / 3.0) ** (beta + 1.0) * 2.0 * kernels.K1_SUP * L0 ** (beta + 1.0) * 0.05**beta
    assert det_pair.claimed_separation >= floor * (1.0 - 1e-9)


@pytest.mark.parametrize("beta,d", [(2.0, 1), (2.0, 2), (1.5, 3), (3.5, 2)])
def test_separation_attained_is_bitwise_the_norm(beta, d):
    # the fields differ in coordinate 0 only, so its magnitude is the Euclidean norm the
    # check measured before, bit for bit where the square neither overflows nor underflows
    pair = cli._stubble_det({"beta": beta, "d": d})
    diff = pair.f1(pair.x0) - pair.f0(pair.x0)
    assert not diff[1:].any()
    checks = {name: rec for name, *rec in hypotheses.stubble_det_checks(pair, pair.x0[None])}
    assert checks["separation-attained"][1] == float(np.linalg.norm(diff))


def test_separation_floor_fails_below_unit_amplitude():
    # at L_beta = 200 the largest fitting amplitude is about 0.49, so the claim
    # falls short of the amplitude-free floor (the claim at amplitude 1)
    beta, dt = STUBBLE_CLASS["beta"], 0.05
    pair = hypotheses.stubble_det_pair(beta, 1, STUBBLE_CLASS["L"], 200.0, dt, np.array([0.5]))
    md, L0 = pair.metadata, pair.smoothness_class.L[0]
    assert md["amplitude"] < 1.0
    checks = {name: rec for name, *rec in hypotheses.stubble_det_checks(pair, np.array([[0.4]]))}
    # the floor (2/3) L0 sup|K_per'| r^beta, r = (2/3) L0 dt, which stays finite where
    # L0^(beta+1) overflows
    floor = (2.0 / 3.0) * L0 * md["radius"] ** beta * (2.0 * kernels.K1_SUP)
    assert floor == pytest.approx((2.0 / 3.0) ** (beta + 1.0) * 2.0 * kernels.K1_SUP
                                  * L0 ** (beta + 1.0) * dt**beta, rel=1e-14)
    assert checks["separation-floor"] == [False, pair.claimed_separation, floor]
    assert checks["grid-coincidence"][0] and checks["separation-attained"][0]


def _slope_cap(r, beta):
    return 0.5 / (r**beta * abs(kernels.periodic_kernel_deriv(W_STAR, 1))) * (1.0 - 1e-12)


def _fits(amp, r, beta, L, L_beta):
    bounds = smoothness.chain_remainder_bounds(amp, r, L[0], beta)
    return all(b <= lim for b, lim in zip(bounds, tuple(L) + (L_beta,)))


def _bisected_amplitude(beta, L, L_beta, r):
    """Reference: the largest fitting amplitude below the slope cap, bisected to 1e-12."""
    amp, hi = 0.0, _slope_cap(r, beta)
    if _fits(hi, r, beta, L, L_beta):
        amp = hi
    while hi - amp > 1e-12 * hi:
        mid = 0.5 * (amp + hi)
        if _fits(mid, r, beta, L, L_beta):
            amp = mid
        else:
            hi = mid
    return amp


def _limit_bounds_calls(monkeypatch, limit):
    """Fail (rather than spin) past ``limit`` chain_remainder_bounds calls."""
    calls = []
    bounds = smoothness.chain_remainder_bounds

    def counted(*args):
        calls.append(1)
        assert len(calls) <= limit, f"amplitude search took more than {limit} evaluations"
        return bounds(*args)

    monkeypatch.setattr(smoothness, "chain_remainder_bounds", counted)


@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.5, 4.5])
def test_stubble_det_amplitude_is_the_largest_fitting(beta):
    L, L_beta = cli._demo_class(beta)
    pair = hypotheses.stubble_det_pair(beta, 1, L, L_beta, 0.05, np.array([0.5]))
    amp, r = pair.metadata["amplitude"], pair.metadata["radius"]
    assert _fits(amp, r, beta, L, L_beta)
    assert amp == _slope_cap(r, beta) or not _fits(amp * (1.0 + 1e-9), r, beta, L, L_beta)
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


@pytest.mark.parametrize("dt", [0.003, 0.01, 0.05, 0.2])
@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.5, 4.5])
def test_stubble_det_amplitude_in_few_bound_evaluations(monkeypatch, beta, dt):
    # Brent's method on the worst bound margin lands within a reference bisection's
    # 1e-12 in at most 14 jet evaluations; the bisection takes 42-69
    L, L_beta = cli._demo_class(beta)
    _limit_bounds_calls(monkeypatch, 14)
    pair = hypotheses.stubble_det_pair(beta, 1, L, L_beta, dt, np.array([0.5]))
    monkeypatch.undo()
    amp, r = pair.metadata["amplitude"], pair.metadata["radius"]
    assert amp == pytest.approx(_bisected_amplitude(beta, L, L_beta, r), rel=1e-12)
    assert _fits(amp, r, beta, L, L_beta)
    assert amp == _slope_cap(r, beta) or not _fits(amp * (1.0 + 1e-9), r, beta, L, L_beta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L_beta", [1e-300, 1e-320])
@pytest.mark.parametrize("beta", [1.5, 2.5])
def test_stubble_det_tiny_holder_constant_ends(monkeypatch, beta, L_beta):
    # the root lies hundreds of decades below the slope cap, and at 1e-320 in the
    # subnormals, where 1e-12 hi is 0 and a midpoint rounds onto an end; bisecting the
    # exponent there ends the search within 30 evaluations (11-20; 33-126 by arithmetic
    # steps), on an amplitude that meets every bound, and the margin's b / L_beta
    # overflows to inf without a warning
    L, _ = cli._demo_class(beta)
    r = (2.0 / 3.0) * L[0] * 0.05
    _limit_bounds_calls(monkeypatch, 30)
    amp = hypotheses._largest_fitting(
        lambda a: smoothness.chain_remainder_bounds(a, r, L[0], beta), L + (L_beta,),
        _slope_cap(r, beta), -1.0 / 3.0)
    monkeypatch.undo()
    assert 0.0 < amp and _fits(amp, r, beta, L, L_beta)
    above = max(amp * (1.0 + 1e-9), math.nextafter(amp, math.inf))  # subnormal: next float
    assert not _fits(above, r, beta, L, L_beta)
    # that amplitude leaves g' = 1 + a K_per' at 1 in floating point, so f1 would be f0
    assert 1.0 + amp * r**beta * 2.0 * kernels.K1_SUP == 1.0
    with pytest.raises(hypotheses.ClassTooTight, match="vanishes in floating point"):
        hypotheses.stubble_det_pair(beta, 1, L, L_beta, 0.05, np.array([0.5]))


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
    # off the arithmetic grid the two flows must visibly differ: 100 starts across
    # two periods [x0_1 - r, x0_1 + r] at the irrational multiple t2 = 0.05 e
    r = det_pair.metadata["radius"]
    xs = np.tile(det_pair.x0, (100, 1))
    xs[:, 0] = np.linspace(det_pair.x0[0] - r, det_pair.x0[0] + r, 100)
    assert hypotheses._flow_gap(det_pair, xs, 0.05 * np.e) > 1e-4


def _stubble_det(d):
    return hypotheses.stubble_det_pair(STUBBLE_CLASS["beta"], d, STUBBLE_CLASS["L"],
                                       STUBBLE_CLASS["L_beta"], 0.05, np.full(d, 0.5))


def _prob_null(make_family, d):
    return make_family(SNAKE_CLASS["beta"], d, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"]).f0


# every closed-form flow the package builds
CLOSED_FORMS = {
    "stubble-det-null-d1": lambda: _stubble_det(1).f0,
    "stubble-det-f1-d1": lambda: _stubble_det(1).f1,
    "stubble-det-null-d2": lambda: _stubble_det(2).f0,
    "stubble-det-f1-d2": lambda: _stubble_det(2).f1,
    "stubble-prob-null-d2": lambda: _prob_null(hypotheses.stubble_prob_family, 2),
    "snake-prob-null-d3": lambda: _prob_null(hypotheses.snake_prob_family, 3),
    "chain-remainder-d1": lambda: smoothness.chain_remainder_field(0.5, 0.5, 0.13, 2.0, 2.5),
    "chain-remainder-d3": lambda: smoothness.chain_remainder_field(0.5, 0.5, 0.13, 2.0, 2.5, 3),
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_flow_broadcasts_starts_against_times(name, k):
    # starts (k, d) take times (k,) row by row and starts (k, 1, d) take times (k, n)
    # element by element, bit for bit; at k = d the times are not read along the
    # coordinate axis
    f = CLOSED_FORMS[name]()
    rng = np.random.default_rng(k)
    x = rng.uniform(0.0, 1.0, size=(k, f.dim))
    t = rng.uniform(-1.0, 2.0, size=k)
    got = f.closed_form_flow(x, t)
    want = np.array([f.closed_form_flow(xi, ti) for xi, ti in zip(x, t)])
    assert got.shape == (k, f.dim) and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, x)
    times = rng.uniform(-1.0, 2.0, size=(k, 4))
    got = f.closed_form_flow(x[:, None, :], times)
    want = np.array([[f.closed_form_flow(xi, tj) for tj in row] for xi, row in zip(x, times)])
    assert got.shape == (k, 4, f.dim) and got.tobytes() == want.tobytes()


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
    h_sup = kernels.shape_deriv_supnorm(fam.kernel, 0)
    assert dev.max() == pytest.approx(100.0 * r**2 * h_sup, rel=1e-12)


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


def _per_center_sum(spec, drift, centers, r, amplitude, axis, coef, x):
    """The multi-center field as a loop adding every center's term."""
    scale = amplitude * r**spec.beta
    out = np.empty_like(x)
    out[...] = drift
    for z in centers:
        out[..., axis] += coef * (scale * kernels.kernel_shape_eval(spec, (x - z) / r))
    return out


def _multi_center_cases():
    """(field, spec, drift, centers, r, amplitude, axis, coef) for the fields with many centers."""
    cases = []
    for d, delta in ((2, 0.05), (3, 0.2)):
        pair, _, _ = hypotheses.snake_det_pair(
            SNAKE_CLASS["beta"], d, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"], delta,
            np.full(d, 0.5))
        _, spec, _ = hypotheses._calibrated(SNAKE_CLASS["beta"], d, SNAKE_CLASS["L"],
                                            SNAKE_CLASS["L_beta"], "bump")
        meta = pair.f1.metadata
        cases.append((pair.f1, spec, pair.f0.eval(np.zeros(d)), meta["centers"],
                      meta["radius"], SNAKE_CLASS["L_beta"], 0, -1.0))
    for make_family, axis in ((hypotheses.stubble_prob_family, 0),
                              (hypotheses.snake_prob_family, 1)):
        fam = make_family(2.0, 2, (2.0, 20.0), 100.0)
        r = 2.0 ** np.floor(np.log2(fam.rho_plus / 2.0))  # dyadic: the 2r gaps are exact
        centers = 0.25 + 2.0 * r * np.array([[0, 0], [1, 0], [0, 1], [1, 1], [3, 0]])
        combined = fam.combine(centers, r)
        assert geometry.min_distance(centers) == 2.0 * r  # the balls touch
        cases.append((combined, fam.kernel, fam.f0.eval(np.zeros(2)), centers, r,
                      fam.smoothness_class.L_beta, axis, 1.0))
    return cases


@pytest.mark.parametrize("case", range(4))
def test_multi_center_field_is_bitwise_the_per_center_sum(case):
    field, spec, drift, centers, r, amplitude, axis, coef = _multi_center_cases()[case]
    d = centers.shape[1]
    rng = np.random.default_rng(case)
    touching = [(a + b) / 2.0 for i, a in enumerate(centers) for b in centers[i + 1:]
                if abs(np.linalg.norm(a - b) - 2.0 * r) < 1e-9 * r]
    u = rng.standard_normal((len(centers), d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    edge = [centers + r * (1.0 + eps) * u for eps in (-6e-13, -5e-13, -4e-13, -1e-13, 0.0, 1e-13)]
    t = 1.0 - np.linalg.norm((np.concatenate(edge) - np.tile(centers, (6, 1))) / r, axis=1) ** 2
    assert ((t > 1e-12) & (t < 2e-12)).any() and ((t <= 1e-12) & (t > -2e-12)).any()
    lo, hi = centers.min(axis=0) - r, centers.max(axis=0) + r
    x = np.concatenate([rng.uniform(lo, hi, size=(500, d)), centers, np.array(touching)]
                       + edge)
    assert len(touching) >= 3
    ref = _per_center_sum(spec, drift, centers, r, amplitude, axis, coef, x)
    assert field.eval(x).tobytes() == ref.tobytes()
    assert field.eval(x[:130].reshape(2, 65, d)).tobytes() == ref[:130].tobytes()
    for row in x[::37]:
        assert field.eval(row).tobytes() == _per_center_sum(
            spec, drift, centers, r, amplitude, axis, coef, row).tobytes()
    assert (ref[:, axis] != drift[axis]).sum() > 50  # many points sit inside a ball


def test_snake_det_field_makes_one_kernel_call_per_evaluation(monkeypatch):
    pair, initials, _ = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], 2, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"], 0.05,
        np.array([0.5, 0.5]))
    assert len(pair.f1.metadata["centers"]) == 19
    calls = []
    shape_eval = kernels.kernel_shape_eval
    monkeypatch.setattr(kernels, "kernel_shape_eval",
                        lambda spec, w: calls.append(1) or shape_eval(spec, w))
    for x in (initials[:1], initials[0], np.full((300, 2), 0.5)):
        calls.clear()
        pair.f1.eval(x)
        assert len(calls) == 1


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
    # the orbit's pieces end at every pass start and end, T included
    assert len(spec.switches) == 5 * 4 + 2
    assert np.all(np.diff(spec.switches) > 0)
    assert set(spec.schedule.tolist()) <= set(spec.switches.tolist())
    assert set((spec.schedule + 1.0).tolist()) <= set(spec.switches.tolist())
    assert spec.switches[-1] == spec.T


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
    # one uncapped integrate call per planned piece stays 1/500 of tol_geo inside
    # the schedule (measured at least 1,400x inside), and the step counts
    # (deterministic: 120..814 accepted, 0..6 rejected over K = 1..8) catch a
    # step cap creeping back or a piece straddling a kink
    trajs = []
    integrate = flow.integrate

    def recording(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(flow, "integrate", recording)
    checks = hypotheses.spiral_verify(hypotheses.spiral_build(K))
    _, _, schedule_error, tol_geo = next(c for c in checks if c[0] == "schedule")
    assert schedule_error <= tol_geo / 500.0
    assert len(trajs) == 5 * K + 1
    assert sum(len(t.ts) - 1 for t in trajs) <= 125 * K
    assert sum(t.n_rejected for t in trajs) <= 10


def _spiral_path_gap(K: int, x: np.ndarray) -> np.ndarray:
    """Distance of each point of x (n, 2) from the planned path of the K-pass spiral.

    The path: tops x2 = k/K over [0, 1] (k = 0..K), arcs about (1, -1) of radius
    1 + k/K (k = 0..K, the last one where the final node may run on), arcs about
    (0, -1) of radius 1 + (k+1)/K and bottom ramps x2 = -2 - k/K - (4/K)(1/4 - G(x1)),
    G(s) = int_0^s (1/2 - |t - 1/2|) dt (k = 0..K-1).  A point is measured against
    the tops and the curved piece of its region; its ramp gap is vertical, at least
    its distance.
    """
    x1, x2 = x[:, 0], x[:, 1]
    k, levels = np.arange(K)[:, None], np.arange(K + 1)[:, None]
    G = np.where(x1 <= 0.5, x1**2 / 2.0, x1 - x1**2 / 2.0 - 0.25)
    top = np.hypot(x1 - np.clip(x1, 0.0, 1.0), x2 - levels / K).min(axis=0)
    left = np.abs(np.hypot(x1, x2 + 1.0) - (1.0 + (k + 1) / K)).min(axis=0)
    right = np.abs(np.hypot(x1 - 1.0, x2 + 1.0) - (1.0 + levels / K)).min(axis=0)
    ramp = np.abs(x2 + 2.0 + k / K + 4.0 / K * (0.25 - G)).min(axis=0)
    return np.minimum(top, np.select([x1 < 0.0, x1 > 1.0, x2 < -1.0], [left, right, ramp],
                                     np.inf))


def _one_call_nodes(spec) -> np.ndarray:
    return flow.integrate(spec.field, np.zeros(2), spec.T, 1e-10).states


def _piecewise_nodes(spec) -> np.ndarray:
    return np.concatenate([p.states for p in hypotheses.spiral_orbit(spec)])


@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize("nodes, bound", [(_one_call_nodes, 1e-6), (_piecewise_nodes, 1e-8)],
                         ids=["one-call", "piecewise"])
def test_spiral_orbit_follows_its_planned_path_node_by_node(K, nodes, bound):
    # one call over [0, T]: the worst node lies 5.7e-9 from the path at K = 1 and
    # 5.9e-8 at K = 6, so 1e-6 is held with a 17x margin; the orbit verify runs,
    # cut at the switching times, stays within 4.7e-10 (21x inside 1e-8); a ramp
    # 1% steeper puts nodes 1e-2 off the path
    spec = hypotheses.spiral_build(K)
    assert _spiral_path_gap(K, nodes(spec)).max() <= bound


def _spiral_off_plan(spec, region: int, axis: int, factor: float):
    """``spec`` with its field's ``axis`` component scaled by ``factor`` in ``region``."""
    field = spec.field

    def evaluate(x):
        out = np.array(field.eval(x))
        X, V = np.atleast_2d(x), np.atleast_2d(out)
        V[hypotheses._spiral_region(X[:, 0], X[:, 1]) == region, axis] *= factor
        return out

    return dataclasses.replace(spec, field=flow.ModelFunction(dim=2, eval=evaluate,
                                                              metadata=field.metadata))


@pytest.mark.parametrize("region, axis, factor", [(2, 0, 1.0 - 1e-3), (3, 1, 1.01)],
                         ids=["top-band-slow", "ramp-steeper"])
def test_spiral_verify_fails_a_field_that_misses_its_plan(region, axis, factor):
    # the pieces still end at the planned times, so a field off its plan leaves
    # the pass states off theirs: cutting at the switches cannot hide it
    spec = _spiral_off_plan(hypotheses.spiral_build(3), region, axis, factor)
    _, ok, measured, limit = hypotheses.spiral_verify(spec)[0]
    assert not ok and measured > 10.0 * limit


_X1_EDGES = [-0.0, 0.0, 1.0, -5e-324, 5e-324, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
             0.5, math.nan]
_X2_EDGES = [-1.0, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0), 0.0, math.nan]


@pytest.mark.parametrize("x1", _X1_EDGES)
@pytest.mark.parametrize("x2", _X2_EDGES)
def test_spiral_one_row_region_and_field_match_the_array_path(x1, x2):
    assert hypotheses._spiral_region_of(x1, x2) == \
        int(hypotheses._spiral_region(np.array(x1), np.array(x2)))
    field = hypotheses.spiral_build(3).field
    rows = field.eval(np.array([[x1, x2], [0.5, 0.5]]))
    for one_row in (field.eval(np.array([x1, x2])), field.eval(np.array([[x1, x2]]))[0]):
        assert one_row.tobytes() == rows[0].tobytes()


def test_spiral_orbit_work_counts_are_frozen():
    # one integrate call over [0, T] at K = 3, steps across every kink: it guards
    # the one-row region pick of the field, which must choose the array path's pieces
    spec = hypotheses.spiral_build(3)
    traj = flow.integrate(spec.field, np.zeros(2), spec.T, 1e-10)
    assert (traj.n_accepted, traj.n_rejected, traj.nfev) == (453, 260, 4279)


def test_spiral_piecewise_work_counts_are_frozen():
    # the K = 3 orbit as verify (and the benchmark) runs it, summed over its 16 pieces
    pieces = hypotheses.spiral_orbit(hypotheses.spiral_build(3))
    assert len(pieces) == 16
    assert tuple(sum(getattr(p, n) for p in pieces)
                 for n in ("n_accepted", "n_rejected", "nfev")) == (321, 1, 1948)


def test_spiral_build_rejects_nonpositive():
    with pytest.raises(ValueError):
        hypotheses.spiral_build(0)


def _counting(monkeypatch, name):
    """Record the number of starts of every flow.<name> call."""
    calls, run = [], getattr(flow, name)

    def counted(f, x0, *args, **kwargs):
        calls.append(len(np.atleast_2d(x0)))
        return run(f, x0, *args, **kwargs)

    monkeypatch.setattr(flow, name, counted)
    return calls


def test_snake_suites_integrate_their_starts_as_one_batch(monkeypatch):
    rows, lone = _counting(monkeypatch, "integrate_rows"), _counting(monkeypatch, "integrate")
    fam = hypotheses.snake_prob_family(**SNAKE_CLASS, d=2)
    checks = hypotheses.snake_gronwall_checks(fam, fam.rho_plus / 2.0, trials=5)
    assert len(checks) == 5 and (rows, lone) == ([10], [])
    rows.clear()
    checks = hypotheses.snake_symmetry_checks(fam, fam.rho_plus / 2.0)
    assert all(ok for _, ok, _, _ in checks)
    # the pass and the semigroup's two legs from x; the leg from the midpoint alone
    assert (rows, lone) == ([3], [1])
    rows.clear(), lone.clear()
    pair, initials, times = hypotheses.snake_det_pair(
        SNAKE_CLASS["beta"], 2, SNAKE_CLASS["L"], SNAKE_CLASS["L_beta"], 0.1, np.array([0.5, 0.5]))
    hypotheses.snake_det_checks(pair, initials, times)
    assert (rows, lone) == ([9, 9], [])
