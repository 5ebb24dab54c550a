"""Flows of autonomous vector fields, u' = f(u), with dense output.

The integrator is an embedded Dormand-Prince 5(4) pair (FSAL) with the
estimated local error kept below ``tol`` on every accepted step.  One RK
loop takes its starts as groups of rows: the rows of a group move with one
time and step, accepted when every row's L2 local error passes, and groups
share nothing, only those still running being evaluated.  :func:`integrate`
makes its start (dim,) or starts (m, dim) one group, so each row of
identical starts is bit for bit its lone run; :func:`integrate_rows` makes
each start a group, so each row of distinct starts is bit for bit its lone
run.  Both hold for a field that evaluates its rows independently: the
stage sums are elementwise over the stage axis and the step factor is a
Python-float power, so a group's arithmetic does not depend on the others.
Accepted nodes store the state *and* its derivative, read-only, and
queries between nodes use cubic Hermite interpolation, O(h^4).  It adds
to the node error where an observation falls inside a step: psi_hat of
the snake instances of perfbench/master_pipeline.py, with steps capped at
1/16 of the crossing, reads up to 7.4e-4 relative off a tol 1e-13
reference, against 6.1e-5 from the nodes alone.  The
formula has one home, :func:`_hermite`, which both readouts call:
:func:`flow_at` reads every row at each time and :func:`flow_rows` each
row at its own times.  Kinks of piecewise-smooth fields are handled by
step rejection; a caller that knows when its orbit meets them integrates
between those times instead, as :func:`odelab.hypotheses.spiral_orbit`
does at the spiral's planned switching times.  Fields that come with a
closed-form flow keep it in :class:`ModelFunction` and the integrator is
still available as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "StepsizeUnderflow",
    "OutOfSpan",
    "ModelFunction",
    "Trajectory",
    "integrate",
    "integrate_rows",
    "flow_at",
    "flow_rows",
    "final_state",
    "semigroup_residual",
    "flow_semigroup_check",
]


class StepsizeUnderflow(Exception):
    """Adaptive stepping stalled; the field is likely not Lipschitz here."""


class OutOfSpan(Exception):
    """Dense-output query outside the integrated time span."""


@dataclass
class ModelFunction:
    """An evaluatable vector field R^dim -> R^dim.

    ``eval`` accepts a point (dim,) or a batch (..., dim) and returns an
    array of its input's shape (or what numpy converts to one, such as a
    nested list); the integrator stores the values as float64.  A closed-form
    flow ``closed_form_flow(x, t)`` takes starts x (..., dim) and times t
    that broadcast against ``x.shape[:-1]``, and returns a new array of the
    broadcast shape + (dim,), which callers may write into; it satisfies
    the semigroup property (checked by :func:`flow_semigroup_check`, not
    assumed).  ``metadata`` carries what a constructor hands to later
    readers (for instance a drift's velocity or a lattice's centers);
    nothing in this module reads it.
    """

    dim: int
    eval: Callable
    closed_form_flow: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.eval(x)


@dataclass
class Trajectory:
    """Accepted RK nodes of one group of rows that share a step.

    ``states`` and ``derivs`` are (n, dim) for a (dim,) start or a row of
    :func:`integrate_rows`, and (n, m, dim) for an (m, dim) start of
    :func:`integrate`.  The counters are exact work counts of the group:
    ``nfev`` = 1 + 6 (``n_accepted`` + ``n_rejected``) field evaluations,
    each on the group's rows, so on the whole (m, dim) start of
    :func:`integrate` and on the row alone for :func:`integrate_rows`.
    """

    t_span: tuple
    ts: np.ndarray          # strictly increasing
    states: np.ndarray      # (n, dim) or (n, m, dim)
    derivs: np.ndarray      # same shape, exactly eval(state) at each node
    n_accepted: int = 0
    n_rejected: int = 0
    nfev: int = 0


# Dormand-Prince 5(4) tableau, shaped to weight a (7, m, dim) stack of stages;
# row i of _A holds the weights of stages 0..i-1
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])[:, :, None, None]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
                0.0])[:, None, None]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])[:, None, None]
_ERR = _B5 - _B4
_A_ROWS = [_A[i, :i] for i in range(7)]

_MAX_STEPS = 5_000_000


def _row_sumsq(x: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis of a float array (..., d); its sqrt is the row norm.

    Bitwise ``np.add.reduce(x * x, axis=-1)``, so its sqrt is bitwise
    ``np.linalg.norm(x, axis=-1)``, for any d and layout: below 8 columns
    numpy adds the squares in column order, as the column loop does (2-5x
    faster from a few hundred rows); from 8 on it sums pairwise, and there
    and on small arrays this is numpy's reduce.
    """
    d = x.shape[-1]
    if d >= 8 or x.size < 256:
        return np.add.reduce(x * x, axis=-1)
    out = x[..., 0] * x[..., 0]
    for j in range(1, d):
        out += x[..., j] * x[..., j]
    return out


def _dopri(f: ModelFunction, y: np.ndarray, T: np.ndarray, tol: float, cap=None) -> list:
    """The RK loop from a block of starts y (groups, rows, dim), group k over [0, T[k]].

    The rows of a group share one time, step and accept/reject decision,
    kept as Python floats: the initial step is the smallest of its rows'
    own and the error the largest of its rows' L2 errors, so a step passes
    when every row does.  Groups share nothing, and only the groups still
    running are evaluated, stacked as one (groups * rows, dim) state.  The
    stage sums run elementwise over the stage axis, so a group's arithmetic
    does not depend on the others; ``cap`` is :func:`integrate`'s.  Returns
    ``(ts, states (n, rows, dim), derivs, attempted steps)`` per group.
    """
    g, r, dim = y.shape
    if dim != f.dim:
        raise ValueError(f"x0 has dim {dim}, field has dim {f.dim}")
    if g * r == 0:
        raise ValueError(f"x0 has shape ({g * r}, {dim}); need at least one start")
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError(f"tol = {tol} outside [1e-13, 1e-3]")
    y = y.reshape(-1, dim)  # group k is rows k r .. k r + r - 1
    K = np.empty((7,) + y.shape)
    K[0] = f.eval(y)  # each store converts to float64 and broadcasts
    h0 = 0.01 * (1.0 + np.sqrt(_row_sumsq(y))) / (np.sqrt(_row_sumsq(K[0])) + 1e-12)
    h0 = h0.reshape(g, r).min(axis=1).tolist()
    # accepted nodes, one record per step: group ids, times, (rows, dim) states and derivatives
    gids, ts, ys, ds = list(range(g)), [0.0] * g, [y], [K[0].copy()]
    attempted = [0] * g
    direction = [1.0 if Tk > 0 else -1.0 for Tk in T.tolist()]
    going = [Tk * dk > 0 for Tk, dk in zip(T.tolist(), direction)]
    run = [k for k, on in enumerate(going) if on]
    h = [direction[k] * max(1e-8, h0[k]) for k in run]
    T, direction, t = [float(T[k]) for k in run], [direction[k] for k in run], [0.0] * len(run)
    steps = 0
    while run:
        if not all(going):  # the rows of the groups still running
            rows = np.repeat(going, r)
            y, K = y[rows], K[:, rows]
        if steps >= _MAX_STEPS:
            raise RuntimeError("step budget exhausted; field badly scaled?")
        for k, (tk, hk) in enumerate(zip(t, h)):
            # the step the error control asks for; clipping it to a leftover
            # T - t below rounding level of t is no stall
            if abs(hk) < 1e-14 * max(1.0, abs(tk)):
                raise StepsizeUnderflow(f"step {hk:.3e} at t = {tk:.6g}")
            if cap is not None and abs(tk) < cap[1] and abs(hk) > cap[0]:
                h[k] = hk = direction[k] * cap[0]
            if abs(hk) > abs(T[k] - tk):
                h[k] = T[k] - tk

        # each row's group step; a lone group steps by its Python float
        hy = h[0] if len(h) == 1 else np.array(h).repeat(r)[:, None]
        for i in range(1, 7):
            yi = y + hy * np.add.reduce(_A_ROWS[i] * K[:i], axis=0)
            K[i] = f.eval(yi)
        y_new = y + hy * np.add.reduce(_B5 * K, axis=0)
        norms = np.sqrt(_row_sumsq(np.add.reduce(_ERR * K, axis=0))).reshape(-1, r).max(axis=1)
        steps += 1

        ok = []
        for k, norm in enumerate(norms.tolist()):
            err = abs(h[k]) * norm
            ok.append(err <= tol)
            if ok[k]:
                t[k] += h[k]
            h[k] *= 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        if any(ok):
            passed = slice(None)  # every group passed: the record is y_new itself
            if not all(ok):  # a group that failed its step keeps its state and derivative
                passed = np.array(ok).repeat(r)
                y_new[~passed], K[6][~passed] = y[~passed], K[0][~passed]
            y = y_new  # never written again: it may be a record
            K[0] = K[6]  # FSAL: stage 7 is f at the accepted state
            gids += [k for k, on in zip(run, ok) if on]
            ts += [tk for tk, on in zip(t, ok) if on]
            ys.append(y[passed])
            ds.append(K[0][passed].copy())
        going = [(Tk - tk) * dk > 0 for Tk, tk, dk in zip(T, t, direction)]
        if not all(going):
            for k, on in zip(run, going):
                attempted[k] = attempted[k] if on else steps
            run, T, direction, t, h = ([a for a, on in zip(v, going) if on]
                                       for v in (run, T, direction, t, h))

    # each group's nodes in step order, the records released as they are merged
    order = np.argsort(gids, kind="stable")
    cuts = np.cumsum(np.bincount(gids, minlength=g))[:-1]
    nodes = [np.split(np.array(ts)[order], cuts)]
    for records in (ys, ds):
        stacked = np.concatenate(records).reshape(-1, r, dim)
        records.clear()
        nodes.append(np.split(stacked[order], cuts))
    return list(zip(*nodes, attempted))


def _trajectory(T: float, ts, ys, ds, attempted: int, squeeze: bool) -> Trajectory:
    """A group's nodes as a read-only Trajectory over [0, T], its row axis dropped if ``squeeze``."""
    if squeeze:
        ys, ds = ys[:, 0], ds[:, 0]
    if T < 0:
        ts, ys, ds = ts[::-1].copy(), ys[::-1].copy(), ds[::-1].copy()
    for nodes in (ts, ys, ds):
        nodes.setflags(write=False)
    n_accepted = len(ts) - 1
    return Trajectory((0.0, float(T)), ts, ys, ds,
                      n_accepted, attempted - n_accepted, 1 + 6 * attempted)


def integrate(f: ModelFunction, x0, T: float, tol: float, *, cap=None) -> Trajectory:
    """Flow from x0 over [0, T] (T < 0 integrates backwards), its rows one group.

    x0 is one start (dim,) or m starts (m, dim), integrated in step as an
    (m, dim) state; the nodes are (n, dim) or (n, m, dim) accordingly.
    tol must lie in [1e-13, 1e-3] and bounds the estimated L2 local error
    of every row on every accepted step.  The rows share one step: the
    initial step is the smallest of the rows' own and a step is accepted
    when every row passes, so each row of a batch of identical starts is
    bit for bit the lone trajectory, whatever m is (for distinct starts,
    :func:`integrate_rows` keeps that).  A step across a kink of a
    piecewise-smooth field fails the error test and is retried shorter, but
    one narrower than a step can pass unseen: rows crossing the snake pulse
    balls at rho_minus = 4.17e-3 (d = 2) read psi 4.4e-2 (tol 1e-12) and
    0.47 (tol 1e-8) relative below rows run in 1/64ths of each crossing.
    ``cap`` = (h_max, t_until) keeps |h| <= h_max while |t| < t_until; at
    1/16 of the crossing those rows read 6.1e-5 at both tols.
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim > 2:
        raise ValueError(f"x0 has shape {x0.shape}; need (dim,) or (m, dim)")
    y = x0.reshape(1, -1) if x0.ndim < 2 else x0
    (nodes,) = _dopri(f, y[None], np.array([T], dtype=float), tol, cap)
    return _trajectory(T, *nodes, squeeze=x0.ndim < 2)


def integrate_rows(f: ModelFunction, starts, T, tol: float) -> list:
    """Flows from each start (m, dim) over [0, T_i], each row its own group.

    T is one time or one per row (0 gives the start alone, < 0 runs
    backwards).  Every row keeps its own time, step and error test, and
    only the rows still running are evaluated, so for a field that
    evaluates its rows independently, row i is bit for bit
    ``integrate(f, starts[i], T_i, tol)``, counters included.
    """
    y = np.array(starts, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"starts have shape {y.shape}; need (m, dim)")
    T = np.broadcast_to(np.asarray(T, dtype=float), y.shape[:1])
    rows = _dopri(f, y[:, None], T, tol)
    return [_trajectory(Ti, *row, squeeze=True) for Ti, row in zip(T.tolist(), rows)]


def _hermite(traj: Trajectory, t, rows=None) -> np.ndarray:
    """Cubic-Hermite dense output, the one home of the formula.

    With ``rows`` None, every row at each time: t.shape + the node shape.
    Otherwise ``rows`` indexes the row axis of (n, m, dim) nodes and
    broadcasts against t, and the row at each time is read: t.shape +
    (dim,).  Each value is bitwise the same either way.  Raises OutOfSpan
    if any time is NaN or outside the span (by more than 1e-12 of its length).
    """
    ts = traj.ts
    lo, hi = ts[0], ts[-1]
    eps = 1e-12 * max(1.0, hi - lo)
    t = np.asarray(t, dtype=float)
    outside = ~((t >= lo - eps) & (t <= hi + eps))  # a NaN time is outside too
    if outside.any():
        raise OutOfSpan(f"t = {t[outside].flat[0]} outside [{lo}, {hi}]")
    at = () if rows is None else (rows,)
    if ts.shape[0] == 1:  # the node's state at every time
        shape = t.shape + traj.states.shape[1 + len(at):]
        return np.broadcast_to(traj.states[(0,) + at], shape).copy()
    t = np.clip(t, lo, hi)
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.shape[0] - 2)
    j = i + 1
    t0 = ts[i]
    trailing = (...,) + (None,) * (traj.states.ndim - 1 - len(at))
    hstep = (ts[j] - t0)[trailing]
    th = (t - t0)[trailing] / hstep
    h00 = 2 * th**3 - 3 * th**2 + 1
    h10 = th**3 - 2 * th**2 + th
    h01 = -2 * th**3 + 3 * th**2
    h11 = th**3 - th**2
    left, right = (i,) + at, (j,) + at
    return (h00 * traj.states[left] + h10 * hstep * traj.derivs[left]
            + h01 * traj.states[right] + h11 * hstep * traj.derivs[right])


def flow_at(traj: Trajectory, t) -> np.ndarray:
    """Cubic-Hermite dense output at a time or at an array of times.

    A scalar t gives the state, shape (dim,) or (m, dim); an array gives
    t.shape + that, located on the nodes with one ``searchsorted``.
    Times must be finite: raises OutOfSpan if any time is NaN or lies
    outside the span (by more than 1e-12 of its length).
    """
    return _hermite(traj, t)


def flow_rows(traj: Trajectory, times) -> np.ndarray:
    """Row j of an (n, m, dim) trajectory at its own times[j] only: shape (m, k, dim).

    ``times`` is (m, k), all finite.  Row j is bitwise
    ``flow_at(traj, times[j])[:, j]``, OutOfSpan included, at k values per
    row where that reads all m.
    """
    times = np.asarray(times, dtype=float)
    if traj.states.ndim != 3 or times.ndim != 2 or times.shape[0] != traj.states.shape[1]:
        raise ValueError(f"times of shape {times.shape} for nodes of shape {traj.states.shape}; "
                         "need (m, k) times for (n, m, dim) nodes")
    return _hermite(traj, times, np.arange(times.shape[0])[:, None])


def final_state(traj: Trajectory) -> np.ndarray:
    """State at t = T (the far end of the span, whichever direction)."""
    return traj.states[-1].copy() if traj.t_span[1] >= 0 else traj.states[0].copy()


def semigroup_residual(f: ModelFunction, mid: Trajectory, direct: Trajectory, t: float,
                       tol: float) -> float:
    """|| U(f, U(f,x,s), t) - U(f, x, s+t) || from the legs x -> s (``mid``) and x -> s+t."""
    via = final_state(integrate(f, final_state(mid), t, tol))
    return float(np.linalg.norm(via - final_state(direct)))


def flow_semigroup_check(f: ModelFunction, x, s: float, t: float, tol: float) -> float:
    """|| U(f, U(f,x,s), t) - U(f, x, s+t) || of a start x (dim,), all three legs
    integrated (T = 0 gives x); the two legs from x run as one row-wise batch."""
    return semigroup_residual(f, *integrate_rows(f, [x, x], [s, s + t], tol), t, tol)
