"""Tube coverings, packings, and the greedy binary codebook."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import odelab
from odelab import flow, geometry, hypotheses


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


def test_point_tube_distance_refines_on_non_uniform_trajectory():
    # drift + two pulses: the RK steps shrink inside the pulses, so the
    # slices are far from evenly spaced in time
    fam = hypotheses.snake_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    r = fam.rho_plus / 4.0
    alt = fam.combine(np.array([[0.3, 0.5], [0.7, 0.5 + r / 2.0]]), r)
    traj = flow.integrate(alt, np.array([0.0, 0.5]), 1.0 / fam.metadata["drift"], 1e-10)
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


def test_tube_cover_check_pass_and_fail():
    # five horizontal tubes of radius 0.15 at spacing 0.25 cover [0,1]^2
    tubes = [
        geometry.TubeSpec(trajectory=_line_trajectory(y), radius=0.15)
        for y in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    region = ((0.0, 1.0), (0.0, 1.0))
    rep = geometry.tube_cover_check(tubes, region, samples=512)
    assert rep.passed
    assert rep.n_samples >= 512

    # shrinking every radius to 0.1 opens gaps of depth 0.025
    rep2 = geometry.tube_cover_check(tubes, region, radius=0.1, samples=512)
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


def test_varshamov_gilbert_small_eta_exhaustive():
    book = geometry.varshamov_gilbert(8)
    assert book.shape[0] == 2
    assert int((book[0] != book[1]).sum()) >= 1


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


def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(odelab.__file__)))
    code = "import sys, odelab; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_min_distance_pairs_and_cross_sets():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert geometry.min_distance(pts) == 1.0
    assert geometry.min_distance(pts[:1]) == np.inf
    assert geometry.min_distance(pts[:2], np.array([[3.0, 0.0]])) == 3.0
