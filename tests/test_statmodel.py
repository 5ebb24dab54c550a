"""Observation schemes, KL/testing reductions and master-instance assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odelab import ConstructionError, flow, geometry, hypotheses, statmodel


def _noise2(cov=1.0):
    return statmodel.NoiseLaw(dim=2, covariance=cov)


# --- noise laws -----------------------------------------------------------

def test_noise_law_scalar_diag_full_agree():
    a = statmodel.NoiseLaw(dim=2, covariance=1.0)
    b = statmodel.NoiseLaw(dim=2, covariance=np.array([1.0, 1.0]))
    c = statmodel.NoiseLaw(dim=2, covariance=np.eye(2))
    for law in (a, b, c):
        assert law.covariance.shape == (2, 2)
        assert law.C_noise == pytest.approx(0.5, rel=1e-14)


def test_noise_law_lambda_min_rules():
    law = statmodel.NoiseLaw(dim=2, covariance=np.array([1.0, 4.0]))
    assert law.C_noise == pytest.approx(0.5, rel=1e-14)  # 1/(2*lambda_min)
    with pytest.raises(statmodel.SingularCovariance):
        statmodel.NoiseLaw(dim=2, covariance=np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("cov", [np.nan, np.inf, [1.0, np.nan], [np.inf, 1.0],
                                 [[1.0, 0.0], [0.0, np.nan]], [[1.0, np.inf], [np.inf, 1.0]]],
                         ids=["nan", "inf", "diag-nan", "diag-inf", "full-nan", "full-inf"])
def test_noise_law_rejects_non_finite_covariance(cov):
    # a NaN or inf covariance gave C_noise = nan, or, on a NaN diagonal entry,
    # SingularCovariance with the message "smallest eigenvalue -0 <= 0"
    with pytest.raises(ValueError, match="covariance must be finite"):
        statmodel.NoiseLaw(dim=2, covariance=np.array(cov))


def test_gaussian_kl_closed_form():
    law = statmodel.NoiseLaw(dim=2, covariance=np.array([1.0, 4.0]))
    s = 0.37
    assert statmodel.gaussian_kl(np.array([s, 0.0]), law) == pytest.approx(
        s * s / 2.0, rel=1e-13
    )
    assert statmodel.gaussian_kl(np.array([0.0, s]), law) == pytest.approx(
        s * s / 8.0, rel=1e-13
    )
    # C_noise bound, with equality exactly along the lambda_min eigenvector
    kl = statmodel.gaussian_kl(np.array([s, 0.0]), law)
    assert kl == pytest.approx(law.C_noise * s * s, rel=1e-13)


# --- schemes --------------------------------------------------------------

def test_stubble_scheme_frozen_shape():
    sch = statmodel.build_stubble_scheme(20, 3, 0.1, _noise2())
    assert sch.m == 400 and sch.n == 1200
    assert sch.n_max == 3
    assert sch.T_max == pytest.approx(0.3, rel=1e-12)
    assert sch.T_sum == pytest.approx(120.0, rel=1e-12)
    # cell-centered grid stays off the boundary
    assert sch.initials.min() > 0.0 and sch.initials.max() < 1.0


def test_snake_scheme_shape():
    initials = np.array([[0.0, 0.2], [0.0, 0.5], [0.0, 0.8]])
    sch = statmodel.build_snake_scheme(initials, [0.5, 0.5, 0.5], 10, _noise2())
    assert sch.n == 30
    assert sch.T_sum == pytest.approx(1.5, rel=1e-12)
    assert sch.m == 3


def test_scheme_rejects_unsorted_times():
    with pytest.raises(ValueError):
        statmodel.ObservationScheme(
            kind="stubble", initials=np.zeros((2, 1)),
            times=np.array([[0.2, 0.1], [0.1, 0.2]]),
            noise=statmodel.NoiseLaw(dim=1, covariance=1.0),
        )


def test_check_cover_regular_grid_hits_4d():
    sch = statmodel.build_stubble_scheme(20, 3, 0.1, _noise2())
    rep = statmodel.check_cover(sch)
    assert rep.passed
    assert rep.declared == 16.0  # 4^d
    assert rep.C_hat == pytest.approx(16.0, rel=1e-9)
    # the checked radius range starts at (C m)^(-1/d), so a mildly smaller
    # declaration can still be admissible; a strongly optimistic one is not
    assert not statmodel.check_cover(sch, declared=2.0).passed


def _check_cover_loop(scheme, declared=None, extra_centers=256):
    """Reference: the per-radius scan check_cover replaces, strict > keeps the first max."""
    x = scheme.initials
    m, d = x.shape
    if declared is None:
        declared = 4.0**d
    r_floor = (declared * m) ** (-1.0 / d)
    centers = np.vstack([x, geometry.halton(extra_centers, d), np.full((1, d), 0.5)])
    C_hat, where = 0.0, {}
    for z in centers:
        dist = np.sort(np.linalg.norm(x - z, axis=1))
        for r in np.concatenate([[r_floor], dist[(dist > r_floor) & (dist <= 1.0)]]):
            count = int(np.searchsorted(dist, r * (1.0 + 1e-12), side="right"))
            if count and count / (m * r**d) > C_hat:
                C_hat = count / (m * r**d)
                where = {"center": z.copy(), "radius": float(r), "count": count}
    return float(C_hat), where


@pytest.mark.parametrize("d,K_grid,declared", [
    (2, 6, None), (2, 24, None), (3, 8, None), (2, 6, 2.0), (3, 8, 10.0),
])
def test_check_cover_equals_loop_reference(d, K_grid, declared):
    sch = statmodel.build_stubble_scheme(K_grid, 3, 0.1, statmodel.NoiseLaw(dim=d, covariance=1.0))
    rep = statmodel.check_cover(sch, declared)
    C_hat, where = _check_cover_loop(sch, declared)
    assert np.float64(rep.C_hat).tobytes() == np.float64(C_hat).tobytes()
    assert rep.detail["center"].tobytes() == where["center"].tobytes()
    assert (rep.detail["radius"], rep.detail["count"]) == (where["radius"], where["count"])
    assert type(rep.detail["radius"]) is float and type(rep.detail["count"]) is int


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), m=st.integers(1, 60), snap=st.sampled_from([0, 3, 7]),
       declared=st.sampled_from([None, 0.5, 3.0, 1e300]), seed=st.integers(0, 2**32 - 1))
def test_check_cover_screen_is_bitwise_the_scan(d, m, snap, declared, seed):
    # random starts, or starts snapped to a coarse grid (tied distances and repeated
    # starts); at declared 1e300 the floor radius's power is below 1e-290 and every
    # ratio takes the scalar power
    x = np.random.default_rng(seed).random((m, d))
    if snap:
        x = np.round(x * snap) / snap
    sch = statmodel.ObservationScheme("stubble", x, np.full((m, 1), 0.1),
                                      statmodel.NoiseLaw(dim=d, covariance=1.0))
    rep = statmodel.check_cover(sch, declared)
    C_hat, where = _check_cover_loop(sch, declared)
    assert np.float64(rep.C_hat).tobytes() == np.float64(C_hat).tobytes()
    assert rep.detail.keys() == where.keys()
    if where:
        assert rep.detail["center"].tobytes() == where["center"].tobytes()
        assert (rep.detail["radius"], rep.detail["count"]) == (where["radius"], where["count"])


def test_check_cover_takes_the_scalar_power_where_numpy_differs():
    # two starts r apart win at radius r (C_hat = 1 / r^3 at declared 6e5, the floor
    # radius below r); r is one where numpy's array power and r**3 differ, if any does
    rs = (0.51 + 1e-9 * np.arange(4000)) - 0.5
    differs = rs[np.power(rs, 3) != np.array([r**3 for r in rs.tolist()])]
    r = float(differs[0]) if differs.size else float(rs[0])
    x = np.array([[0.5, 0.5, 0.5], [0.5 + r, 0.5, 0.5]])
    assert x[1, 0] - x[0, 0] == r
    sch = statmodel.ObservationScheme("stubble", x, np.full((2, 1), 0.1),
                                      statmodel.NoiseLaw(dim=3, covariance=1.0))
    rep = statmodel.check_cover(sch, 6e5)
    assert np.float64(rep.C_hat).tobytes() == np.float64(2 / (2 * r**3)).tobytes()
    assert (rep.detail["center"].tolist(), rep.detail["radius"], rep.detail["count"]) == (
        x[0].tolist(), r, 2)


@pytest.mark.parametrize("declared", [0.0, -1.0])
def test_check_cover_rejects_nonpositive_constant(declared):
    sch = statmodel.build_stubble_scheme(4, 2, 0.1, _noise2())
    with pytest.raises(ValueError, match="<= 0"):
        statmodel.check_cover(sch, declared)


@pytest.mark.parametrize("declared", [1e308, 1e-320])
def test_check_cover_rejects_a_floor_radius_out_of_float_range(declared):
    # 1e308 * 16 overflows, so r_floor would be 0; at 1e-320 m r_floor^d overflows
    sch = statmodel.build_stubble_scheme(4, 2, 0.1, _noise2())
    with pytest.raises(ValueError, match="out of float range"):
        statmodel.check_cover(sch, declared)


@pytest.mark.parametrize("initials,times", [
    (np.zeros((0, 2)), np.zeros((0, 3))), (np.zeros((2, 2)), np.zeros((2, 0))),
    (np.zeros((2, 0)), np.full((2, 1), 0.1))])
def test_scheme_rejects_no_start_or_no_time(initials, times):
    # an empty scheme made check_cover divide by 0 and T_max reduce an empty array
    with pytest.raises(ValueError, match=r"shape \(\d+, \d+\)"):
        statmodel.ObservationScheme("snake", initials, times, _noise2())


def test_check_cover_time_equidistant():
    sch = statmodel.build_stubble_scheme(20, 3, 0.1, _noise2())
    rep = statmodel.check_cover_time(sch)
    assert rep.passed
    assert rep.C_hat == pytest.approx(2.0, rel=1e-9)
    assert not statmodel.check_cover_time(sch, declared=1.5).passed


def _check_cover_time_loop(scheme):
    """The triple loop check_cover_time replaced: strict > in (j, a, b) order."""
    n, T_sum = scheme.n, scheme.T_sum
    C_hat, where = 0.0, {}
    for j, row in enumerate(scheme.times):
        for a in range(len(row) - 1):
            for b in range(a + 1, len(row)):
                c = (b - a + 1) * T_sum / (n * (row[b] - row[a]))
                if c > C_hat:
                    C_hat = c
                    where = {"trajectory": j, "window": (float(row[a]), float(row[b]))}
    return C_hat, where


def _times_scheme(times):
    times = np.asarray(times, dtype=float)
    return statmodel.ObservationScheme("snake", np.zeros((len(times), 2)), times, _noise2())


@pytest.mark.parametrize("scheme", [
    statmodel.build_stubble_scheme(6, 5, 0.1, _noise2()),  # every unit window ties
    statmodel.build_snake_scheme([[0.0, 0.2], [0.0, 0.6]], [1.0, 3.0], 9, _noise2()),
    _times_scheme(np.sort(np.random.default_rng(4).uniform(0.0, 2.0, (7, 12)), axis=1)),
    _times_scheme([[0.1, 0.2, 0.4, 0.5], [0.3, 0.4, 0.6, 0.7], [0.2, 0.3, 0.5, 0.6]]),
    _times_scheme([[0.1, 0.15, 0.5], [0.2, 0.3, 0.4]]),  # one tight window leads
    _times_scheme([[0.5], [0.7]]),
])
def test_check_cover_time_equals_loop_reference(scheme):
    rep = statmodel.check_cover_time(scheme)
    C_hat, where = _check_cover_time_loop(scheme)
    assert np.float64(rep.C_hat).tobytes() == np.float64(C_hat).tobytes()
    assert rep.detail == where
    if where:
        assert type(rep.detail["trajectory"]) is int


@pytest.mark.parametrize("row", [[0.1, np.nan, 0.5], [0.1, 0.3, np.inf]])
def test_scheme_rejects_non_finite_times(row):
    # a NaN time made every window ratio NaN, and check_cover_time passed
    # with C_hat 0.0 however small the declared constant
    with pytest.raises(ValueError, match="finite"):
        _times_scheme([row, [0.2, 0.3, 0.4]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", ["one", "all"])
def test_scheme_rejects_non_finite_initial_conditions(bad, rows):
    # with every start NaN check_cover passed with C_hat 0.0, and an inf start
    # warned and passed: a non-finite start counts itself in no ball
    initials = np.full((4, 2), 0.5)
    initials[:1 if rows == "one" else 4, 1] = bad
    with pytest.raises(ValueError, match="initial conditions must be finite"):
        statmodel.ObservationScheme("stubble", initials, np.full((4, 1), 0.1), _noise2())


def test_scheme_kl_zero_for_identical_fields():
    fam = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    sch = statmodel.build_stubble_scheme(6, 2, 0.1, _noise2())
    assert statmodel.scheme_kl(sch, fam.f0, fam.f0) == 0.0


def _rotation(closed: bool) -> flow.ModelFunction:
    """u' = (-u_2, u_1), with or without its closed-form flow."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    def closed_flow(x, t):
        x = np.asarray(x, dtype=float)
        c, s = np.cos(t), np.sin(t)
        return np.stack([c * x[..., 0] - s * x[..., 1], s * x[..., 0] + c * x[..., 1]], axis=-1)

    return flow.ModelFunction(dim=2, eval=evaluate,
                              closed_form_flow=closed_flow if closed else None)


def _stubble_det_f1() -> flow.ModelFunction:
    """The chain-remainder field of the beta 1.5 stubble-det pair, built in 2 dimensions."""
    pair = hypotheses.stubble_det_pair(1.5, 2, (2.0, 300.0), 6500.0, 0.05, np.full(2, 0.5))
    return pair.f1


# tol bounds each step's local error; up to t = 2 the global error is 3.4e-9 for the
# rotation and 3.6e-8 for the chain-remainder field, which crosses 40 of its periods
@pytest.mark.parametrize("make_field,tols", [
    (lambda: _rotation(closed=True), 100), (_stubble_det_f1, 1000),
], ids=["rotation", "stubble-det-f1"])
def test_flow_states_closed_form_per_trajectory_times(make_field, tols):
    initials = np.array([[1.0, 0.0], [0.5, -0.25], [-0.3, 0.8]])
    times = np.array([[0.1, 0.2, 0.7, 2.0], [0.3, 0.2, 1.1, 2.0], [0.1, 0.2, 0.4, 2.0]])
    f = make_field()
    got = statmodel.flow_states(f, initials, times)
    want = np.array([[f.closed_form_flow(x, t) for t in row]
                     for x, row in zip(initials, times)])
    assert got.shape == (3, 4, 2)
    assert got.tobytes() == want.tobytes()
    tol = 1e-10
    integrated = statmodel.flow_states(dataclasses.replace(f, closed_form_flow=None),
                                       initials, times, tol=tol)
    assert np.abs(got - integrated).max() <= tols * tol
    # the closed form takes every time in one call; a NaN time is refused before it
    with pytest.raises(ValueError, match="times must be finite"):
        statmodel.flow_states(f, initials[:2], np.array([[np.nan, 0.2], [np.nan, 0.2]]))


def test_flow_states_reads_each_row_as_the_union_of_all_times_did():
    # psi/chi-like rows across two snake pulses, each observed at its own times; the
    # reference is the former readout: every row at the union of all rows' times, gathered
    fam = hypotheses.snake_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    r = fam.rho_plus / 4.0
    alt = fam.combine(np.array([[0.3, 0.5], [0.7, 0.5 + r / 2.0]]), r)
    rng = np.random.default_rng([29, 1])
    initials = np.column_stack([rng.uniform(0.0, 0.2, 6), rng.uniform(0.5 - r, 0.5 + r, 6)])
    T = 0.8 / fam.metadata["drift"]
    times = np.sort(rng.uniform(0.0, T, size=(6, 40)), axis=1)
    times[:, -1] = T
    times[1, 5:9] = times[1, 4]  # repeats within a row
    times[2, :3] = times[3, :3]  # times shared across rows
    cap = (2.0 * r / np.linalg.norm(fam.f0.metadata["velocity"]) / 16.0, T)
    got = statmodel.flow_states(alt, initials, times, tol=1e-10, cap=cap)

    traj = flow.integrate(alt, initials, T, 1e-10, cap=cap)
    unique, inverse = np.unique(times, return_inverse=True)
    want = flow.flow_at(traj, unique)[inverse.reshape(times.shape), np.arange(6)[:, None]]
    assert len(unique) > 200 and got.shape == want.shape == (6, 40, 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("closed", [True, False])
def test_flow_states_paths_agree_on_bad_times(closed):
    f = _rotation(closed=closed)
    initials = np.array([[1.0, 0.0], [0.5, -0.25]])
    with pytest.raises(ValueError):
        statmodel.flow_states(f, initials, np.tile([0.1, 0.2], (3, 1)))
    # both paths refuse a non-finite time, also when no time is finite
    for bad in (np.array([[np.nan, 0.2], [0.1, np.nan]]), np.array([[0.1, 0.2], [0.1, np.inf]]),
                np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="times must be finite"):
            statmodel.flow_states(f, initials, bad)


def test_psi_chi_measure_stubble_quick():
    fam = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    sch = statmodel.build_stubble_scheme(6, 2, 0.1, _noise2())
    out = statmodel.psi_chi_measure(fam, sch, 0.1)
    assert out.psi_hat >= 0.0
    assert out.chi_hat >= 1
    assert out.n_candidates > 0


def _snake_instance(d, delta):
    """A snake master instance built as perfbench/master_pipeline.py builds it."""
    L, L_beta = (2.0, 20.0), 100.0
    fam = hypotheses.snake_prob_family(2.0, d, L, L_beta)
    _, initials, horizons = hypotheses.snake_det_pair(2.0, d, L, L_beta, delta, np.full(d, 0.5))
    noise = statmodel.NoiseLaw(dim=d, covariance=1.0)
    return statmodel.master_instance_snake(
        fam, statmodel.build_snake_scheme(initials, horizons, 40, noise))


def _per_row_deviations(v, alt, z, r, x, times):
    """Deviations (k, d) of ``alt`` from the drift-v null at the observations of one pair.

    The pair (center z, start x) is integrated alone at tol 1e-13 from
    where its null path x + v t first meets B(z, r), in pieces that end at
    every observation and at 64 even steps of its crossing of the ball, so
    no step is longer than 1/64 of the crossing and no observation is
    interpolated.  The k observations at or after the entry are returned;
    the earlier ones deviate by exactly 0, and a path that misses the ball
    returns none.
    """
    a = float(v @ v)
    p = x - z
    b, c = float(p @ v), float(p @ p) - r * r
    disc = b * b - a * c
    seen = times[:0]
    if disc >= 0.0 and not (c > 0.0 and b >= 0.0):
        t_in = max(0.0, (-b - np.sqrt(disc)) / a)
        t_out = (-b + np.sqrt(disc)) / a
        seen = times[times >= t_in]
    if seen.size == 0:
        return np.empty((0, len(x)))
    ends = np.union1d(seen - t_in, np.linspace(0.0, t_out - t_in, 65))
    state, at = x + v * t_in, {0.0: x + v * t_in}
    for t0, t1 in zip(ends[:-1], ends[1:]):
        state = flow.final_state(flow.integrate(alt, state, t1 - t0, 1e-13))
        at[t1] = state
    return np.array([at[t - t_in] - (x + v * t) for t in seen])


def _per_row_psi(family, scheme, r):
    """psi from each (center, start) pair integrated alone (:func:`_per_row_deviations`)."""
    psi = 0.0
    for z in statmodel._default_centers(scheme, r):
        alt = family.make_alternative(z, r)
        for x, times in zip(scheme.initials, scheme.times):
            dev = _per_row_deviations(family.f0.metadata["velocity"], alt, z, r, x, times)
            psi = max(psi, float(np.linalg.norm(dev, axis=1).max(initial=0.0)))
    return psi


def _per_row_kl(family, scheme, alt, z, r):
    """The scheme KL of ``alt``, perturbed at (z, r), from each row integrated alone."""
    v = family.f0.metadata["velocity"]
    return sum(statmodel.gaussian_kl(_per_row_deviations(v, alt, z, r, x, times), scheme.noise)
               for x, times in zip(scheme.initials, scheme.times))


def test_psi_at_rho_minus_sees_the_pulse_of_every_row():
    # at rho_minus a row that starts at its pulse's center crosses half of it in one
    # initial step; integrated from t = 0, psi_hat reads half the reference
    inst = _snake_instance(2, 0.05)
    r = inst.rho_minus
    ref = _per_row_psi(inst.family, inst.scheme, r)
    got = statmodel.psi_chi_measure(inst.family, inst.scheme, r, tol=1e-12).psi_hat
    assert abs(got - ref) <= 1e-3 * ref


@pytest.mark.parametrize("d,delta,r", [(2, 0.05, None), (3, 0.2, None), (2, 0.05, 0.05)],
                         ids=["d2-r_n", "d3-r_n", "d2-r0.05"])
def test_scheme_kl_sees_the_pulse_of_every_row(d, delta, r):
    # integrated from every start over the whole horizon, uncapped, the KL read
    # 4.3e-30 against 4.4e-13 at r 0.05 (stepped over the pulse) and up to 4.5e-4
    # relative low at r_n; from the entry, in 1/32ths of the crossing, within 4e-6
    inst = _snake_instance(d, delta)
    if r is None:
        r = statmodel.choose_master_radius(inst).r_n
    # two of perfbench/master_pipeline.py's KL centers: on and off a sweep
    for x, y in ((0.25, max(r, 0.3)), (0.6, 0.5)):
        z = np.array((x, y) + (0.5,) * (d - 2))
        alt = inst.family.make_alternative(z, r)
        ref = _per_row_kl(inst.family, inst.scheme, alt, z, r)
        got = statmodel.scheme_kl(inst.scheme, inst.family.f0, alt)
        assert abs(got - ref) <= 1e-4 * ref, (z, got, ref)


def _fallback_cases():
    """(f0, f1, scheme) of every alternative that scheme_kl integrates in full."""
    inst = _snake_instance(2, 0.1)
    fam, sch = inst.family, inst.scheme
    r = fam.rho_plus / 4.0
    pair, initials, horizons = hypotheses.snake_det_pair(2.0, 2, (2.0, 20.0), 100.0, 0.1,
                                                         np.full(2, 0.5))
    assert len(pair.f1.metadata["centers"]) > 1
    det_scheme = statmodel.build_snake_scheme(initials, horizons, 40, _noise2())
    rows = np.column_stack([np.full(sch.m, 0.5), sch.initials[:, 1]])  # one center per row
    return {
        "f0-itself": (fam.f0, fam.f0, sch),
        "combine": (fam.f0, fam.combine(np.array([[0.3, 0.5], [0.7, 0.5 + r / 2.0]]), r), sch),
        "snake-det": (pair.f0, pair.f1, det_scheme),
        "row-centers": (fam.f0, fam.make_alternative(rows, r), sch),
    }


@pytest.mark.parametrize("case", ["f0-itself", "combine", "snake-det", "row-centers"])
def test_scheme_kl_integrates_other_alternatives_in_full(case):
    f0, f1, sch = _fallback_cases()[case]
    old = statmodel.gaussian_kl(statmodel.flow_states(f1, sch.initials, sch.times)
                                - statmodel.flow_states(f0, sch.initials, sch.times), sch.noise)
    got = statmodel.scheme_kl(sch, f0, f1)
    assert np.float64(got).tobytes() == np.float64(old).tobytes()


_COORD = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=6),
    st.one_of(st.just([0.0] * d), st.lists(_COORD, min_size=d, max_size=d)))),
    st.floats(1e-3, 2.0))
def test_entry_times_is_the_first_time_in_the_closed_ball(drawn, r):
    offsets, v = np.array(drawn[0]), np.array(drawn[1])
    t_in = statmodel._entry_times(offsets, v, r)
    a = float(v @ v)
    for p, t in zip(offsets, t_in):
        b, pp = float(p @ v), float(p @ p)
        # the closest approach over t >= 0, and the rounding scale of the squares
        # |p|^2, 2 p.v t and |v|^2 t^2 that the root is computed from
        t_near = max(0.0, -b / a) if a > 0.0 else 0.0
        near = float(np.sum((p + v * t_near) ** 2))
        slack = 16.0 * np.finfo(float).eps * (pp + r * r + 2.0 * abs(b) * t_near + a * t_near**2)
        if np.isnan(t):  # misses the ball, or starts outside it and moves away
            assert near > r * r - slack
            continue
        assert near <= r * r + slack and t >= 0.0
        if pp < r * r - slack:  # starts inside
            assert t == 0.0
        elif t > 0.0:  # enters through the sphere, moving inwards
            slack = 16.0 * np.finfo(float).eps * (pp + r * r + 2.0 * abs(b) * t + a * t * t)
            assert abs(float(np.sum((p + v * t) ** 2)) - r * r) <= slack
            assert b + a * t <= 16.0 * np.finfo(float).eps * (abs(b) + a * t)


def _counting_integrate(monkeypatch):
    calls = []
    integrate = flow.integrate
    monkeypatch.setattr(flow, "integrate",
                        lambda *args, **kwargs: calls.append(1) or integrate(*args, **kwargs))
    return calls


def test_psi_chi_measure_integrates_once(monkeypatch):
    stubble = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    cases = [(stubble, statmodel.build_stubble_scheme(6, 2, 0.1, _noise2()))]
    snake = _snake_instance(2, 0.1)
    cases.append((snake.family, snake.scheme))
    calls = _counting_integrate(monkeypatch)
    for fam, sch in cases:
        for r in np.geomspace(0.01, fam.rho_plus, 4):
            calls.clear()
            out = statmodel.psi_chi_measure(fam, sch, float(r))
            assert len(calls) == 1 and out.psi_hat > 0.0


def test_psi_chi_measure_without_hits_integrates_nothing(monkeypatch):
    snake = _snake_instance(2, 0.1)
    far = np.array([[3.0, 3.0], [0.5, 3.0], [-2.0, 0.5]])
    monkeypatch.setattr(statmodel, "_default_centers", lambda scheme, r: far)
    calls = _counting_integrate(monkeypatch)
    for fam, sch in [(snake.family, snake.scheme),
                     (hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0),
                      statmodel.build_stubble_scheme(6, 2, 0.1, _noise2()))]:
        out = statmodel.psi_chi_measure(fam, sch, 0.1)
        assert (out.psi_hat, out.chi_hat, out.n_candidates, out.detail) == (0.0, 0, 3, {})
    assert calls == []


def test_chi_hat_frozen_on_criterion_04_radii():
    # the integers of the master envelope check; no batching of the flows may move them
    fam = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    stubble = statmodel.master_instance_stubble(
        fam, statmodel.build_stubble_scheme(20, 3, 0.1, _noise2()))
    frozen = {
        "stubble": [3, 3, 3, 3, 6, 6, 12, 12, 15, 27, 36, 42, 72, 99, 144, 207, 300, 444,
                    642, 948],
        "snake": [0, 0, 0, 0, 0, 1, 1, 1, 3, 3, 5, 5, 8, 14, 20, 33, 52, 83, 142, 225],
    }
    for inst in (stubble, _snake_instance(2, 0.1)):
        radii = np.geomspace(inst.rho_minus, inst.rho_plus, 20)
        got = [statmodel.psi_chi_measure(inst.family, inst.scheme, float(r)).chi_hat
               for r in radii]
        assert got == frozen[inst.kind]


# --- master instances -----------------------------------------------------

@pytest.fixture(scope="module")
def stubble_master():
    fam = hypotheses.stubble_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    sch = statmodel.build_stubble_scheme(20, 3, 0.1, _noise2())
    return statmodel.master_instance_stubble(fam, sch)


def test_master_instance_stubble_frozen(stubble_master):
    inst = stubble_master
    assert inst.gamma == 6.0  # 2*beta + d
    assert inst.C_noise == 0.5
    assert inst.a_n == pytest.approx(36540.526473885446, rel=1e-9)
    assert inst.rho_minus == pytest.approx(0.0125, rel=1e-12)  # (C_cvr m)^(-1/d)
    assert inst.rho_plus > inst.rho_minus
    # read through to the family and the scheme, which hold them
    assert (inst.kind, inst.rho_plus) == ("stubble", inst.family.rho_plus)


@pytest.mark.parametrize("d,delta", [(2, 0.05), (3, 0.2), (2, 0.1)])
def test_snake_a_n_is_the_radius_grid_maximum(d, delta):
    # psi^2 chi / r^gamma decreases in r, so a_n, its value at the smallest admissible
    # radius, is bit for bit its maximum over 1,000 geometric radii of the whole range
    inst = _snake_instance(d, delta)
    L0, n, T_sum = inst.family.metadata["drift"], inst.scheme.n, inst.scheme.T_sum
    pitch = geometry.min_distance(inst.scheme.initials[:, 1:])

    def ratio(r):
        lines = (2.0 * r / pitch + 1.0) ** (d - 1)
        per_line = max(1.0, statmodel.C_CVRTM * n * (2.0 * r / L0) / T_sum)
        psi = hypotheses.snake_transverse_envelope(inst.family, r)
        return psi**2 * (lines * per_line) / r**inst.gamma

    values = [ratio(r) for r in np.geomspace(max(inst.rho_minus, 1e-12), inst.rho_plus, 1000)]
    assert int(np.argmax(values)) == 0
    assert inst.a_n == float(max(values))


def test_choose_master_radius_pointwise(stubble_master):
    mr = statmodel.choose_master_radius(stubble_master)
    assert mr.r_n == pytest.approx(0.17359512834760923, rel=1e-12)
    assert stubble_master.rho_minus <= mr.r_n <= stubble_master.rho_plus
    assert mr.side_conditions["kl_budget"] == 0.5


@pytest.mark.parametrize("a_n", [1e-3, 1e15], ids=["above-rho-plus", "below-rho-minus"])
def test_choose_master_radius_refuses_a_radius_out_of_range(stubble_master, a_n):
    # (2 C a_n)^(-1/6) is 3.16 for a_n 1e-3 and 3.16e-3 for 1e15, outside [0.0125, rho_plus]
    inst = dataclasses.replace(stubble_master, a_n=a_n)
    with pytest.raises(ConstructionError, match=r"^radius [0-9.e+-]+ outside \[") as info:
        statmodel.choose_master_radius(inst)
    assert isinstance(info.value, statmodel.RadiusOutOfRange)


def test_master_radius_formula_frozen():
    # mpmath reference for C = 1/2, a = 8, gamma = 4
    assert statmodel.master_radius_formula(4.0, 8.0, 0.5) == pytest.approx(
        0.5946035575013605, rel=1e-13
    )


def test_master_envelope_holds_at_radius(stubble_master):
    # the certified envelope psi^2 chi <= a_n r^gamma at the chosen radius
    fam = stubble_master.family
    sch = stubble_master.scheme
    r = statmodel.choose_master_radius(stubble_master).r_n
    out = statmodel.psi_chi_measure(fam, sch, r)
    assert out.psi_hat**2 * out.chi_hat <= stubble_master.a_n * r**stubble_master.gamma


# --- certificates ---------------------------------------------------------

def test_lecam_two_point_boundary():
    assert statmodel.lecam_two_point(0.3) == 0.25
    assert statmodel.lecam_two_point(0.5) == 0.25  # inclusive boundary
    assert statmodel.lecam_two_point(0.5000001) == 0.0


def test_gaussian_lrt_error_frozen():
    # Phi(-1/2), mpmath 22 digits: 0.3085375387259868963623
    assert statmodel.gaussian_lrt_error(0.5) == pytest.approx(
        0.3085375387259869, rel=1e-14
    )
    assert statmodel.gaussian_lrt_error(0.0) == pytest.approx(0.5, rel=1e-14)
    assert statmodel.gaussian_lrt_error(2.0) < statmodel.gaussian_lrt_error(0.5)


def test_monte_carlo_two_point_frozen_seed():
    mc = statmodel.monte_carlo_two_point(0.5, 100000, seed=0)
    assert mc.n_trials == 100000
    assert mc.error_hat == pytest.approx(0.30615, rel=1e-12)
    assert mc.std_error == pytest.approx(0.0014574710202950865, rel=1e-12)
    # agrees with the closed form within 3 standard errors
    assert abs(mc.error_hat - 0.3085375387259869) <= 3.0 * mc.std_error
    again = statmodel.monte_carlo_two_point(0.5, 100000, seed=0)
    assert again.error_hat == mc.error_hat
