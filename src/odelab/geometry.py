"""Tube coverings, grid packings and separated binary codebooks."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import flow as flow_mod
from .flow import Trajectory

__all__ = [
    "EmptyTube",
    "RadiusTooLarge",
    "SearchFailed",
    "TubeSpec",
    "CoverReport",
    "point_tube_distance",
    "tube_distance",
    "tube_cover_check",
    "packing_number",
    "varshamov_gilbert",
    "halton",
    "min_distance",
]


class EmptyTube(Exception):
    """Trajectory has no usable (moving) nodes to define tube slices."""


class RadiusTooLarge(Exception):
    """Packing radius at least as large as the region's shortest side."""


class SearchFailed(Exception):
    """Codebook search exhausted its budget without reaching the target."""


@dataclass(frozen=True)
class TubeSpec:
    trajectory: Trajectory
    radius: float


@dataclass
class CoverReport:
    passed: bool
    worst_point: np.ndarray
    worst_distance: float
    threshold: float
    n_samples: int


def _as_region(region) -> np.ndarray:
    reg = np.asarray(region, dtype=float)
    if reg.ndim != 2 or reg.shape[1] != 2 or np.any(reg[:, 1] <= reg[:, 0]):
        raise ValueError("region must be [(lo, hi), ...] with hi > lo")
    return reg


def halton(n: int, d: int) -> np.ndarray:
    """First n points of the unscrambled d-dimensional Halton net in [0, 1)^d.

    Column j is the radical inverse of 0, 1, ..., n-1 in the j-th prime
    base, accumulated from the lowest digit up (the first point is 0).
    """
    bases = []
    cand = 2
    while len(bases) < d:
        if all(cand % p for p in bases):
            bases.append(cand)
        cand += 1
    out = np.zeros((n, d))
    for j, base in enumerate(bases):
        q = np.arange(n)
        scale = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * scale
            scale /= base
            q //= base
    return out


def min_distance(a, b=None) -> float:
    """Smallest Euclidean distance from a row of ``a`` to a row of ``b``.

    With ``b`` omitted, the smallest distance between two distinct rows of
    ``a``; inf when there is no such pair.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    other = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    dist = np.sqrt(((a[:, None, :] - other[None, :, :]) ** 2).sum(axis=-1))
    if b is None:
        dist[np.diag_indices(len(a))] = math.inf
    return float(dist.min()) if dist.size else math.inf


_DENSE = 512   # evenly spaced slice times, merged with the trajectory's nodes
_REFINE = 21   # slice times across the refinement window of point_tube_distance


def _slices(traj: Trajectory, times: Optional[np.ndarray] = None):
    """(times, states, unit velocities, axial gap) of a trajectory's tube slices.

    ``times`` defaults to the dense grid: the nodes merged with _DENSE
    evenly spaced times.  States are the Hermite dense output; velocities
    are linear interpolations of the node derivatives.  Stalled slices
    (speed below 1e-10 of the max) are dropped.  The axial gap is the
    largest arc length between adjacent requested times -- the resolution
    floor for any distance computed from the slices.
    """
    if times is None:
        times = np.union1d(traj.ts, np.linspace(traj.ts[0], traj.ts[-1], _DENSE))
    states = flow_mod.flow_at(traj, times)
    derivs = np.stack([np.interp(times, traj.ts, col) for col in traj.derivs.T], axis=1)
    speeds = np.linalg.norm(derivs, axis=1)
    vmax = speeds.max()
    if vmax <= 0.0:
        raise EmptyTube("trajectory is stationary; tube slices undefined")
    gap = float(np.diff(times).max()) * float(vmax) if len(times) > 1 else 0.0
    keep = speeds > 1e-10 * vmax
    return times[keep], states[keep], derivs[keep] / speeds[keep, None], gap


def _slice_distances(points: np.ndarray, states: np.ndarray, units: np.ndarray,
                     radius: float) -> np.ndarray:
    """Distance from each point to each slice, shape (points, slices).

    A slice contributes ||w_par|| if the transverse part of w = point -
    state is within the radius, else the Euclidean distance to its rim.
    """
    w = points[:, None, :] - states[None, :, :]  # (P, S, d)
    par = np.einsum("psd,sd->ps", w, units)
    perp_sq = np.maximum((w**2).sum(axis=-1) - par**2, 0.0)
    perp = np.sqrt(perp_sq)
    outside = np.maximum(perp - radius, 0.0)
    return np.sqrt(par**2 + outside**2)


def point_tube_distance(point, tube: TubeSpec) -> float:
    """Distance from a point to the radius-r tube around a trajectory.

    The minimum of the slice distances over the dense grid, refined by
    _REFINE slices spanning the times of the nearest slice's two
    neighbours, so the refined spacing is at most a tenth of the largest
    slice gap wherever the slices sit.
    """
    p = np.asarray(point, dtype=float)[None, :]
    traj = tube.trajectory
    times, states, units, _ = _slices(traj)
    coarse = _slice_distances(p, states, units, tube.radius)[0]
    i = int(coarse.argmin())
    fine = np.linspace(times[max(i - 1, 0)], times[min(i + 1, len(times) - 1)], _REFINE)
    _, states, units, _ = _slices(traj, fine)
    refined = _slice_distances(p, states, units, tube.radius)[0]
    return float(min(coarse[i], refined.min()))


def _union_distance(points: np.ndarray, tubes: Sequence[TubeSpec]):
    """Per-point distance to the union of tubes, and the largest axial gap."""
    best = np.full(len(points), np.inf)
    max_gap = 0.0
    for tube in tubes:
        _, states, units, gap = _slices(tube.trajectory)
        max_gap = max(max_gap, gap)
        dist = _slice_distances(points, states, units, tube.radius).min(axis=1)
        best = np.minimum(best, dist)
    return best, max_gap


def tube_distance(points, tubes: Sequence[TubeSpec]) -> np.ndarray:
    """Per-point distance to the union of tubes (min over tubes)."""
    return _union_distance(np.atleast_2d(np.asarray(points, dtype=float)), tubes)[0]


def tube_cover_check(tubes: Sequence[TubeSpec], region, *, radius: Optional[float] = None,
                     samples: int = 2048, slack: float = 1e-6) -> CoverReport:
    """Do the tubes cover the region?  Checked on a deterministic point cloud.

    The cloud mixes a low-discrepancy net with the region's corners (the
    usual worst case for box coverings).  ``radius`` overrides every
    tube's radius for sensitivity sweeps.  The pass threshold absorbs the
    slice-sampling resolution (half the largest axial gap, with a safety
    factor) so a genuinely covered region is not failed for discreteness.
    """
    reg = _as_region(region)
    d = len(reg)
    if radius is not None:
        tubes = [dataclasses.replace(t, radius=radius) for t in tubes]
    n = max(int(samples), 1000)
    net = halton(n, d)
    pts = reg[:, 0] + (reg[:, 1] - reg[:, 0]) * net
    if d <= 12:
        corners = np.array(list(itertools.product(*[(lo, hi) for lo, hi in reg])))
        pts = np.vstack([pts, corners])
    dist, max_gap = _union_distance(pts, tubes)
    worst = int(dist.argmax())
    width = float((reg[:, 1] - reg[:, 0]).max())
    threshold = slack * max(width, 1.0) + 0.75 * max_gap
    return CoverReport(
        passed=bool(dist[worst] <= threshold),
        worst_point=pts[worst],
        worst_distance=float(dist[worst]),
        threshold=threshold,
        n_samples=len(pts),
    )


def packing_number(region, r: float):
    """Greedy axis-aligned 2r-separated packing of a box: (count, centers).

    Along axis i there is room for floor(side_i / 2r) centers at pitch 2r
    starting r inside the boundary.  Radius must be below the shortest
    side; a radius too large for even a single row yields count 0.
    """
    reg = _as_region(region)
    sides = reg[:, 1] - reg[:, 0]
    if r <= 0:
        raise ValueError("packing radius must be positive")
    if r >= sides.min():
        raise RadiusTooLarge(f"r = {r} >= shortest side {sides.min()}")
    counts = np.floor(sides / (2.0 * r)).astype(int)
    if np.any(counts == 0):
        return 0, np.empty((0, len(reg)))
    axes = [reg[i, 0] + r + 2.0 * r * np.arange(counts[i]) for i in range(len(reg))]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.reshape(-1) for g in grids], axis=-1)
    return int(centers.shape[0]), centers


def varshamov_gilbert(eta: int, *, seed: int = 0, budget: int = 200000) -> np.ndarray:
    """M = 2^ceil(eta/8) binary words of length eta, pairwise Hamming
    distance >= ceil(eta/8), zero word first.

    Randomized greedy (the volume bound leaves exponential room); short
    lengths fall back to a lexicographic scan before giving up.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    dmin = math.ceil(eta / 8)
    M = 2 ** math.ceil(eta / 8)
    rng = np.random.default_rng(seed)
    code = [np.zeros(eta, dtype=np.int8)]
    tries = 0
    while len(code) < M and tries < budget:
        cand = rng.integers(0, 2, size=eta).astype(np.int8)
        arr = np.array(code)
        if (np.abs(arr - cand).sum(axis=1) >= dmin).all():
            code.append(cand)
        tries += 1
    if len(code) < M and eta <= 16:
        for bits in itertools.product((0, 1), repeat=eta):
            cand = np.array(bits, dtype=np.int8)
            arr = np.array(code)
            if (np.abs(arr - cand).sum(axis=1) >= dmin).all():
                code.append(cand)
                if len(code) == M:
                    break
    if len(code) < M:
        raise SearchFailed(f"found {len(code)} of {M} words at distance {dmin}")
    return np.array(code, dtype=np.int8)
