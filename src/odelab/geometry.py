"""Tube coverings, grid packings and separated binary codebooks."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import flow as flow_mod
from .flow import Trajectory, _row_sumsq

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
    "product_grid",
    "min_distance",
]


# points of one lattice: snake-det starts or bump centers (1,331 is the largest tested),
# or the CLI's assumptions K_grid, coincidence n_points or rates grid num
MAX_LATTICE = 10**5


class EmptyTube(Exception):
    """Trajectory has no usable (moving) nodes to define tube slices."""


class RadiusTooLarge(Exception):
    """Packing radius at least as large as the region's shortest side."""


class SearchFailed(Exception):
    """Codebook search exhausted its budget without reaching the target."""


@dataclass(frozen=True)
class TubeSpec:
    """The radius-r tube around a trajectory.

    Its dense slices are built on first use and cached on the instance, so
    every distance query and cover check on one tube shares them.  An
    integrated trajectory's node arrays are read-only, so the cache cannot
    go stale.
    """

    trajectory: Trajectory
    radius: float

    @functools.cached_property
    def slices(self):
        """:func:`_slices` of the trajectory on its default dense grid."""
        return _slices(self.trajectory)


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


def product_grid(axes) -> np.ndarray:
    """Every point of the product of the 1-d ``axes``: (prod n_i, len(axes)), "ij" order.

    Point k takes its coordinates in the order of ``itertools.product``, the
    last axis varying fastest.
    """
    return np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


_MIN_DISTANCE_ROWS = 64


def min_distance(a, b=None) -> float:
    """Smallest Euclidean distance from a row of ``a`` to a row of ``b``.

    With ``b`` omitted, the smallest distance between two distinct rows of
    ``a``; inf when there is no such pair.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    other = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    # a block of rows of a at a time: the difference array grows as len(other), not m^2
    block_mins = []
    for lo in range(0, len(a), _MIN_DISTANCE_ROWS):
        rows = a[lo:lo + _MIN_DISTANCE_ROWS]
        dist = np.sqrt(_row_sumsq(rows[:, None, :] - other[None, :, :]))
        if b is None:
            dist[np.arange(len(rows)), lo + np.arange(len(rows))] = math.inf
        if dist.size:
            block_mins.append(dist.min())
    return float(np.min(block_mins)) if block_mins else math.inf


_DENSE = 512   # evenly spaced slice times, merged with the trajectory's nodes
_REFINE = 21   # slice times across the refinement window of point_tube_distance


def _slices(traj: Trajectory, times: Optional[np.ndarray] = None):
    """(times, states, unit velocities, axial gap) of a trajectory's tube slices.

    ``times`` defaults to the dense grid: the nodes merged with _DENSE
    evenly spaced times, which :attr:`TubeSpec.slices` builds once per
    tube.  States are the Hermite dense output; velocities
    are linear interpolations of the node derivatives.  Stalled slices
    (speed below 1e-10 of the max) are dropped.  The axial gap is the
    largest arc length between adjacent requested times -- the resolution
    floor for any distance computed from the slices.
    """
    if times is None:
        times = np.union1d(traj.ts, np.linspace(traj.ts[0], traj.ts[-1], _DENSE))
    states = flow_mod.flow_at(traj, times)
    derivs = np.stack([np.interp(times, traj.ts, col) for col in traj.derivs.T], axis=1)
    speeds = np.sqrt(_row_sumsq(derivs))
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
    Blocks of _MIN_DISTANCE_ROWS points keep the temporaries cache-sized.
    """
    out = np.empty((len(points), len(states)))
    for lo in range(0, len(points), _MIN_DISTANCE_ROWS):
        w = points[lo:lo + _MIN_DISTANCE_ROWS, None, :] - states[None, :, :]  # (P, S, d)
        par = np.einsum("psd,sd->ps", w, units)
        perp = np.sqrt(np.maximum(_row_sumsq(w) - par**2, 0.0))
        out[lo:lo + _MIN_DISTANCE_ROWS] = np.sqrt(par**2 + np.maximum(perp - radius, 0.0)**2)
    return out


def point_tube_distance(point, tube: TubeSpec) -> float:
    """Distance from a point to the radius-r tube around a trajectory.

    The minimum of the slice distances over the dense grid, refined by
    _REFINE slices spanning the times of the nearest slice's two
    neighbours, so the refined spacing is at most a tenth of the largest
    slice gap wherever the slices sit.
    """
    p = np.asarray(point, dtype=float)[None, :]
    times, states, units, _ = tube.slices
    coarse = _slice_distances(p, states, units, tube.radius)[0]
    i = int(coarse.argmin())
    fine = np.linspace(times[max(i - 1, 0)], times[min(i + 1, len(times) - 1)], _REFINE)
    _, states, units, _ = _slices(tube.trajectory, fine)
    refined = _slice_distances(p, states, units, tube.radius)[0]
    return float(min(coarse[i], refined.min()))


_SLICE_BLOCK = 128  # consecutive slices of a tube that _union_distance prunes as one unit
_BOX_CHUNK = 1 << 16  # coordinates clipped at once for _union_distance's block boxes


def _union_distance(points: np.ndarray, tubes: Sequence[TubeSpec], radius=None):
    """Per-point distance to the union of tubes, and the largest axial gap.

    ``radius``, if given, stands for every tube's radius.  Pruned exactly,
    per block of _SLICE_BLOCK consecutive slices of a tube.
    A slice distance is at least |p - state| - r (triangle inequality on
    (par, perp)), hence at least b - r, where b is the distance from p to
    the bounding box of the block's slice states.  Each point visits the
    blocks in increasing order of b - r - 1e-12 (b + r) and evaluates one
    only while that key is below best, its running minimum.  The margin
    1e-12 (b + r) covers rounding, which moves the computed b and slice
    distances by O(d) units of 2^-53 times |p - state| + r, so no skipped
    slice could lower a computed minimum: the result is bitwise the minimum
    over every slice of every tube.  As best only falls and the keys rise,
    a point's evaluated blocks are a prefix of its order, and the scan
    stops at the first rank where no point evaluates its block.  The gap
    is taken over each tube's whole slice list, so blocks leave it as it was.
    """
    slices = [tube.slices for tube in tubes]
    blocks = [(states[lo:lo + _SLICE_BLOCK], units[lo:lo + _SLICE_BLOCK],
               tube.radius if radius is None else radius)
              for tube, (_, states, units, _) in zip(tubes, slices)
              for lo in range(0, len(states), _SLICE_BLOCK)]
    # the blocks' bounding boxes stacked (blocks, 1, d), then b for a chunk of blocks per clip
    lo = np.empty((len(blocks), 1, points.shape[1]))
    hi = np.empty_like(lo)
    k = 0
    for _, states, _, _ in slices:
        at = np.arange(0, len(states), _SLICE_BLOCK)
        lo[k:k + len(at), 0] = np.minimum.reduceat(states, at)
        hi[k:k + len(at), 0] = np.maximum.reduceat(states, at)
        k += len(at)
    box = np.empty((len(blocks), len(points)))
    chunk = max(1, _BOX_CHUNK // max(points.size, 1))
    for k in range(0, len(blocks), chunk):
        near = np.clip(points, lo[k:k + chunk], hi[k:k + chunk])
        box[k:k + chunk] = np.sqrt(_row_sumsq(points - near))
    box = box.T
    radii = np.array([r for _, _, r in blocks])
    key = box - radii - 1e-12 * (box + radii)  # (points, blocks)
    order = np.argsort(key, axis=1)
    best = np.full(len(points), np.inf)
    rows = np.arange(len(points))
    for block_at in order.T:
        live = key[rows, block_at] < best
        if not live.any():
            break
        for k in np.unique(block_at[live]):
            idx = np.flatnonzero(live & (block_at == k))
            states, units, r = blocks[k]
            dist = _slice_distances(points[idx], states, units, r).min(axis=1)
            best[idx] = np.minimum(best[idx], dist)
    return best, max((gap for _, _, _, gap in slices), default=0.0)


def tube_distance(points, tubes: Sequence[TubeSpec]) -> np.ndarray:
    """Per-point distance to the union of tubes (min over tubes)."""
    return _union_distance(np.atleast_2d(np.asarray(points, dtype=float)), tubes)[0]


def tube_cover_check(tubes: Sequence[TubeSpec], region, *,
                     radius: Optional[float] = None) -> CoverReport:
    """Do the tubes cover the region?  Checked on a deterministic point cloud.

    The cloud is 2,048 Halton points plus, up to d = 12, the region's 2^d
    corners (the usual worst case for box coverings).  ``radius`` overrides every
    tube's radius for sensitivity sweeps, on the tubes' cached slices.  The pass threshold absorbs the
    slice-sampling resolution (half the largest axial gap, with a safety
    factor, plus 1e-6 of the region's widest side, at least 1e-6) so a
    genuinely covered region is not failed for discreteness.
    """
    reg = _as_region(region)
    d = len(reg)
    net = halton(2048, d)
    pts = reg[:, 0] + (reg[:, 1] - reg[:, 0]) * net
    if d <= 12:
        pts = np.vstack([pts, product_grid(reg)])
    dist, max_gap = _union_distance(pts, tubes, radius)
    worst = int(dist.argmax())
    width = float((reg[:, 1] - reg[:, 0]).max())
    threshold = 1e-6 * max(width, 1.0) + 0.75 * max_gap
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
    centers = product_grid([reg[i, 0] + r + 2.0 * r * np.arange(counts[i])
                            for i in range(len(reg))])
    return int(centers.shape[0]), centers


def varshamov_gilbert(eta: int, *, seed: int = 0, budget: int = 200000) -> np.ndarray:
    """M = 2^ceil(eta/8) binary words of length eta, pairwise Hamming
    distance >= ceil(eta/8), zero word first.

    Randomized greedy (the volume bound leaves exponential room); raises
    SearchFailed if ``budget`` draws do not find M words.
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
    if len(code) < M:
        raise SearchFailed(f"found {len(code)} of {M} words at distance {dmin}")
    return np.array(code, dtype=np.int8)
