"""Tube coverings, packings, and the greedy binary codebook."""

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import odelab
from odelab import cli, flow, geometry, hypotheses


def _line_trajectory(y=0.0, T=1.0):
    """Straight unit-speed motion along e1 at height y."""
    f = flow.ModelFunction(
        dim=2,
        eval=lambda x: np.broadcast_to(np.array([1.0, 0.0]), np.asarray(x, float).shape).copy(),
    )
    return flow.integrate(f, np.array([0.0, y]), T, 1e-10)


def test_point_tube_distance_straight_line():
    tube = geometry.TubeSpec(trajectory=_line_trajectory(), radius=0.1)
    # point above the segment: distance to the tube surface, not the centerline
    d = geometry.point_tube_distance(np.array([0.5, 0.25]), tube)
    assert d == pytest.approx(0.15, abs=1e-6)
    # inside the tube only the axial slice residual remains
    assert geometry.point_tube_distance(np.array([0.5, 0.05]), tube) < 2e-3


def _pulse_trajectory():
    """Drift + two pulses: the RK steps shrink inside the pulses, so the
    slices are far from evenly spaced in time."""
    fam = hypotheses.snake_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    r = fam.rho_plus / 4.0
    alt = fam.combine(np.array([[0.3, 0.5], [0.7, 0.5 + r / 2.0]]), r)
    return flow.integrate(alt, np.array([0.0, 0.5]), 1.0 / fam.metadata["drift"], 1e-10)


def test_point_tube_distance_refines_on_non_uniform_trajectory():
    traj = _pulse_trajectory()
    ts = traj.ts
    assert np.diff(ts).max() > 10.0 * np.diff(ts).min()
    radius = 0.05
    tube = geometry.TubeSpec(trajectory=traj, radius=radius)
    pts = np.random.default_rng([0, 1]).uniform([-0.1, 0.3], [1.1, 0.7], size=(24, 2))
    got = np.array([geometry.point_tube_distance(p, tube) for p in pts])

    # brute force: the same slice distance over 200,001 evenly spaced slices
    fine = np.linspace(ts[0], ts[-1], 200_001)
    states = flow.flow_at(traj, fine)
    vel = np.stack([np.interp(fine, ts, col) for col in traj.derivs.T], axis=1)
    units = vel / np.linalg.norm(vel, axis=1)[:, None]
    brute = np.empty(len(pts))
    for k, p in enumerate(pts):
        w = p - states
        par = (w * units).sum(axis=1)
        perp = np.sqrt(np.maximum((w**2).sum(axis=1) - par**2, 0.0))
        brute[k] = np.sqrt(par**2 + np.maximum(perp - radius, 0.0) ** 2).min()
    # one refined spacing: a tenth of the largest arc length between slices
    dense = np.union1d(ts, np.linspace(ts[0], ts[-1], 512))
    gap = np.diff(dense).max() * np.linalg.norm(traj.derivs, axis=1).max()
    assert np.abs(got - brute).max() <= gap / 10.0


def test_tube_distance_takes_min_over_tubes():
    tubes = [
        geometry.TubeSpec(trajectory=_line_trajectory(0.0), radius=0.1),
        geometry.TubeSpec(trajectory=_line_trajectory(1.0), radius=0.1),
    ]
    pts = np.array([[0.5, 0.2], [0.5, 0.8], [0.5, 0.5]])
    d = geometry.tube_distance(pts, tubes)
    assert d.shape == (3,)
    # no refinement pass here, so the axial slice residual (~1e-3^2) shows
    assert d[0] == pytest.approx(0.1, abs=1e-4)
    assert d[1] == pytest.approx(0.1, abs=1e-4)
    assert d[2] == pytest.approx(0.4, abs=1e-4)


def _unpruned_union_distance(points, tubes):
    """Reference: every slice of every tube, no pruning."""
    best = np.full(len(points), np.inf)
    max_gap = 0.0
    for tube in tubes:
        _, states, units, gap = geometry._slices(tube.trajectory)
        max_gap = max(max_gap, gap)
        dist = geometry._slice_distances(points, states, units, tube.radius).min(axis=1)
        best = np.minimum(best, dist)
    return best, max_gap


def _assert_pruning_exact(points, tubes):
    got, gap = geometry._union_distance(points, tubes)
    want, want_gap = _unpruned_union_distance(points, tubes)
    assert np.array_equal(got, want)
    assert gap == want_gap


def _box_points(tubes, rng):
    """Corners of each tube's slice-state bounding box, and points on its faces."""
    out = []
    for tube in tubes:
        states = geometry._slices(tube.trajectory)[1]
        lo, hi = states.min(axis=0), states.max(axis=0)
        out.extend(itertools.product(*zip(lo, hi)))
        face = rng.uniform(lo - 0.2, hi + 0.2, size=(8, len(lo)))
        axis = rng.integers(len(lo), size=8)
        face[np.arange(8), axis] = np.where(rng.random(8) < 0.5, lo[axis], hi[axis])
        out.extend(face)
    return np.array(out)


_DELTA = 0.05


@functools.lru_cache(maxsize=None)
def _snake_sweeps():
    """The 16 sweeps of the tube-cover suite's benchmark config (delta 0.05, d 2)."""
    pair, initials, horizons = hypotheses.snake_det_pair(2.0, 2, (2.0, 20.0), 100.0, _DELTA,
                                                         np.array([0.5, 0.5]))
    return [flow.integrate(pair.f1, x, float(T), 1e-10) for x, T in zip(initials, horizons)]


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_union_distance_pruning_is_exact_on_snake_lattice(scale):
    # the tube-cover suite's benchmark config: 16 sweeps, the 2,052-point cloud
    tubes = [geometry.TubeSpec(traj, scale * _DELTA) for traj in _snake_sweeps()]
    assert len(tubes) == 16
    pts = np.vstack([geometry.halton(2048, 2), list(itertools.product((0.0, 1.0), repeat=2))])
    _assert_pruning_exact(pts, tubes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tubes=st.integers(1, 5), d=st.sampled_from([2, 3]))
def test_union_distance_pruning_is_exact_on_random_tubes(seed, n_tubes, d):
    rng = np.random.default_rng(seed)
    tubes = []
    for _ in range(n_tubes):
        n = int(rng.integers(2, 30))
        ts = np.cumsum(rng.uniform(0.01, 0.2, size=n)) - 0.01
        traj = flow.Trajectory(t_span=(ts[0], ts[-1]), ts=ts,
                               states=np.cumsum(rng.normal(scale=0.1, size=(n, d)), axis=0),
                               derivs=rng.normal(size=(n, d)))
        tubes.append(geometry.TubeSpec(traj, float(rng.uniform(1e-3, 0.3))))
    pts = np.vstack([_box_points(tubes, rng), rng.uniform(-1.0, 1.0, size=(64, d)),
                     geometry._slices(tubes[0].trajectory)[1][::50]])
    _assert_pruning_exact(pts, tubes)


def test_union_distance_pruning_is_exact_with_non_uniform_trajectory():
    tubes = [geometry.TubeSpec(_pulse_trajectory(), 0.05)]
    tubes += [geometry.TubeSpec(_line_trajectory(y), 0.05) for y in (0.4, 0.55, 0.8)]
    rng = np.random.default_rng([0, 2])
    pts = np.vstack([_box_points(tubes, rng), rng.uniform([-0.1, 0.2], [1.1, 0.9], size=(500, 2))])
    _assert_pruning_exact(pts, tubes)


def _sparse_trajectory(n, rng, d=2):
    """A trajectory whose dense grid is its 512 nodes, moving at exactly n of them: n slices."""
    ts = np.linspace(0.0, 1.0, 512)
    derivs = np.zeros((512, d))
    moving = np.sort(rng.choice(512, size=n, replace=False))
    derivs[moving] = rng.normal(size=(n, d))
    states = np.cumsum(rng.normal(scale=0.01, size=(512, d)), axis=0)
    return flow.Trajectory(t_span=(0.0, 1.0), ts=ts, states=states, derivs=derivs)


_B = geometry._SLICE_BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_union_distance_pruning_is_exact_at_block_boundaries(n):
    # a tube of n slices next to tubes of n + 1 and 2n + 1, queried on the states that
    # open and close each block, on their midpoints and around them
    rng = np.random.default_rng([3, n])
    counts = [min(k, 512) for k in (n, n + 1, 2 * n + 1)]
    tubes = [geometry.TubeSpec(_sparse_trajectory(k, rng), float(rng.uniform(1e-3, 0.05)))
             for k in counts]
    pts = [rng.uniform(-0.3, 0.3, size=(64, 2))]
    for tube, k in zip(tubes, counts):
        states = geometry._slices(tube.trajectory)[1]
        assert len(states) == k
        edges = sorted({max(lo - 1, 0) for lo in range(0, len(states), _B)}
                       | set(range(0, len(states), _B)) | {len(states) - 1})
        pts += [states[edges], 0.5 * (states[edges[:-1]] + states[edges[1:]]),
                states[edges] + rng.normal(scale=0.02, size=(len(edges), 2))]
    _assert_pruning_exact(np.vstack(pts), tubes)


def test_tube_cover_suite_evaluates_few_point_slices(tmp_path, monkeypatch):
    # the benchmark's tube-cover config: 16 sweeps of about 570 slices, two clouds of
    # 2,052 points; pruning whole tubes evaluated 2,572,425 point-slices
    work = []
    slice_distances = geometry._slice_distances
    monkeypatch.setattr(geometry, "_slice_distances", lambda p, s, u, r: work.append(
        len(p) * len(s)) or slice_distances(p, s, u, r))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"suite": "tube-cover", "beta": 2.0, "d": 2, "delta": 0.05}')
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert 0 < sum(work) <= 1_000_000


def _count_dense_builds(monkeypatch):
    """A list that grows by one per default dense-slice build."""
    builds = []
    slices = geometry._slices
    monkeypatch.setattr(geometry, "_slices", lambda traj, times=None: (
        builds.append(1) if times is None else None) or slices(traj, times))
    return builds


def test_point_tube_distance_builds_the_dense_slices_once_per_tube(monkeypatch):
    traj = _pulse_trajectory()
    pts = np.random.default_rng([0, 1]).uniform([-0.1, 0.3], [1.1, 0.7], size=(24, 2))
    fresh = [geometry.point_tube_distance(p, geometry.TubeSpec(traj, 0.05)) for p in pts]
    builds = _count_dense_builds(monkeypatch)
    tube = geometry.TubeSpec(traj, 0.05)
    got = [geometry.point_tube_distance(p, tube) for p in pts]
    assert len(builds) == 1
    assert np.array(got).tobytes() == np.array(fresh).tobytes()


def _report_bytes(rep):
    return (rep.passed, rep.worst_point.tobytes(), np.float64(rep.worst_distance).tobytes(),
            np.float64(rep.threshold).tobytes(), rep.n_samples)


def test_cover_checks_at_two_radii_share_each_tubes_slices(monkeypatch):
    # the snake-det checks: delta, then delta / 2 through the radius override
    region = ((0.0, 1.0), (0.0, 1.0))
    fresh = [geometry.tube_cover_check([geometry.TubeSpec(t, r) for t in _snake_sweeps()], region)
             for r in (_DELTA, _DELTA / 2.0)]
    builds = _count_dense_builds(monkeypatch)
    tubes = [geometry.TubeSpec(t, _DELTA) for t in _snake_sweeps()]
    got = [geometry.tube_cover_check(tubes, region),
           geometry.tube_cover_check(tubes, region, radius=_DELTA / 2.0)]
    assert len(builds) == 16
    assert [_report_bytes(rep) for rep in got] == [_report_bytes(rep) for rep in fresh]
    assert [t.radius for t in tubes] == [_DELTA] * 16


def test_tube_cover_check_pass_and_fail():
    # five horizontal tubes of radius 0.15 at spacing 0.25 cover [0,1]^2
    tubes = [
        geometry.TubeSpec(trajectory=_line_trajectory(y), radius=0.15)
        for y in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    region = ((0.0, 1.0), (0.0, 1.0))
    rep = geometry.tube_cover_check(tubes, region)
    assert rep.passed
    assert rep.n_samples == 2048 + 4  # the Halton cloud plus the corners

    # shrinking every radius to 0.1 opens gaps of depth 0.025
    rep2 = geometry.tube_cover_check(tubes, region, radius=0.1)
    assert not rep2.passed
    assert rep2.worst_distance > rep2.threshold
    # the witness point really is far from every tube
    shrunk = [geometry.TubeSpec(trajectory=t.trajectory, radius=0.1) for t in tubes]
    d = geometry.tube_distance(np.asarray([rep2.worst_point]), shrunk)[0]
    assert d == pytest.approx(rep2.worst_distance, rel=1e-9)


def test_tube_cover_check_stationary_trajectory_rejected():
    f = flow.ModelFunction(dim=2, eval=lambda x: np.zeros_like(np.asarray(x, float)))
    frozen = flow.integrate(f, np.array([0.5, 0.5]), 1.0, 1e-8)
    with pytest.raises(geometry.EmptyTube):
        geometry.point_tube_distance(np.array([0.1, 0.1]),
                                     geometry.TubeSpec(trajectory=frozen, radius=0.1))


def test_packing_number_interval():
    count, centers = geometry.packing_number(((0.0, 1.0),), 0.25)
    assert count == 2
    assert centers.ravel().tolist() == [0.25, 0.75]


def test_packing_number_square():
    count, centers = geometry.packing_number(((0.0, 1.0), (0.0, 1.0)), 0.1)
    assert count == 25
    assert centers.shape == (25, 2)
    # 2r-separated and r-interior to the region
    for a, b in itertools.combinations(centers, 2):
        assert np.linalg.norm(a - b) >= 0.2 - 1e-12
    assert centers.min() >= 0.1 - 1e-12 and centers.max() <= 0.9 + 1e-12


def test_packing_number_degenerate_and_oversized():
    count, centers = geometry.packing_number(((0.0, 1.0),), 0.6)
    # ball wider than the interval: zero centers fit with 2r spacing
    assert count == 0 and centers.size == 0
    with pytest.raises(geometry.RadiusTooLarge):
        geometry.packing_number(((0.0, 1.0),), 1.5)


def test_varshamov_gilbert_guarantee():
    eta = 24
    book = geometry.varshamov_gilbert(eta)
    assert book.shape == (8, eta)  # 2^(eta/8) words
    assert not book[0].any()  # zero word first
    dmin = min(int((a != b).sum()) for a, b in itertools.combinations(book, 2))
    assert dmin >= eta // 8
    assert dmin == 6  # frozen for the default seed


@pytest.mark.parametrize("eta", range(1, 17))
def test_varshamov_gilbert_small_eta_exhaustive(eta):
    # at most 4 words at distance <= 2: the random greedy finds them in a few draws
    book = geometry.varshamov_gilbert(eta)
    dmin = math.ceil(eta / 8)
    assert book.shape == (2 ** dmin, eta)
    assert not book[0].any()
    for i in range(len(book)):
        for j in range(i):
            assert int((book[i] != book[j]).sum()) >= dmin


def test_varshamov_gilbert_deterministic():
    a = geometry.varshamov_gilbert(24, seed=5)
    b = geometry.varshamov_gilbert(24, seed=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("j,base", enumerate((2, 3, 5, 7, 11)))
def test_halton_column_is_a_net_at_prime_powers(j, base):
    # n = base^k points put one point in each cell [m/n, (m+1)/n) of column j;
    # odd bases reach m/n only up to the rounding of the digit sum
    for k in (1, 2, 3):
        n = base**k
        col = np.sort(geometry.halton(n, j + 1)[:, j])
        np.testing.assert_allclose(col, np.arange(n) / n, rtol=0,
                                   atol=0.0 if base == 2 else 1e-15)


def test_halton_first_rows_frozen():
    net = geometry.halton(4, 2)
    assert net[:, 0].tolist() == [0.0, 0.5, 0.25, 0.75]
    assert net[:, 1].tolist() == [0.0, 1 / 3, 2 / 3, 1 / 9]


# ``import odelab`` loads no submodule, so the import guards load every one
_IMPORT_ALL = ("import sys, importlib, odelab; "
               "[importlib.import_module('odelab.' + m) "
               "for m in odelab.__all__ + ['cli'] if not m.startswith('_')]; ")


def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(odelab.__file__)))
    code = _IMPORT_ALL + "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_does_not_load_numpy_polynomial():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(odelab.__file__)))
    code = (_IMPORT_ALL +
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _one_shot_slice_distances(points, states, units, radius):
    """Every point x slice at once: the (P, S, d) difference array in one piece."""
    w = points[:, None, :] - states[None, :, :]
    par = np.einsum("psd,sd->ps", w, units)
    perp = np.sqrt(np.maximum((w**2).sum(axis=-1) - par**2, 0.0))
    return np.sqrt(par**2 + np.maximum(perp - radius, 0.0) ** 2)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blocked_slice_distances_are_bitwise_the_one_shot_formula(d, n):
    rng = np.random.default_rng([d, n])
    states = rng.normal(size=(300, d))
    units = rng.normal(size=(300, d))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    points = rng.normal(size=(n, d))
    points[: n // 4] = states[: n // 4] + 0.05 * units[: n // 4]  # on the axis: perp ~ 0
    got = geometry._slice_distances(points, states, units, 0.1)
    assert got.shape == (n, 300)
    assert got.tobytes() == _one_shot_slice_distances(points, states, units, 0.1).tobytes()


def test_min_distance_pairs_and_cross_sets():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert geometry.min_distance(pts) == 1.0
    assert geometry.min_distance(pts[:1]) == np.inf
    assert geometry.min_distance(pts[:2], np.array([[3.0, 0.0]])) == 3.0


def _one_shot_min_distance(a, b=None):
    """The whole m x m' x d difference array at once."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    other = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    dist = np.sqrt(((a[:, None, :] - other[None, :, :]) ** 2).sum(axis=-1))
    if b is None:
        dist[np.diag_indices(len(a))] = np.inf
    return float(dist.min()) if dist.size else np.inf


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 200), k=st.integers(0, 70), d=st.integers(1, 12),
       seed=st.integers(0, 2**31))
def test_min_distance_is_bitwise_the_one_shot_formula(m, k, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, d))
    a[: m // 3] = np.round(a[: m // 3], 1)  # some repeated rows: zero distances
    b = rng.normal(size=(k, d))
    assert geometry.min_distance(a) == _one_shot_min_distance(a)
    assert geometry.min_distance(a, b) == _one_shot_min_distance(a, b)


def test_min_distance_memory_is_linear_in_the_rows():
    _, initials, _ = hypotheses.snake_det_pair(2.0, 4, (2, 20), 100, 0.1, np.full(4, 0.5))
    transverse = initials[:, 1:]
    assert transverse.shape == (1331, 3)
    tracemalloc.start()
    try:
        pitch = geometry.min_distance(transverse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-shot 1331 x 1331 x 3 difference array alone is 42.5 MB
    assert peak < 8e6
    assert pitch == _one_shot_min_distance(transverse)
