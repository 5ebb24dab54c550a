"""Flows of autonomous vector fields, u' = f(u), with dense output.

The integrator is an embedded Dormand-Prince 5(4) pair (FSAL) with the
estimated local error kept below ``tol`` on every accepted step.  It takes
one start (dim,) or m starts (m, dim) through the same code: the state is
(m, dim), every row's L2 local error must stay below ``tol``, and the
stage sums are elementwise over the stage axis, so a row's arithmetic does
not depend on how many rows ride along.  Accepted nodes store the state
*and* its derivative, and queries between nodes use cubic Hermite
interpolation — O(h^4), comfortably below every verification tolerance
used downstream.  Kinks of piecewise-smooth fields are handled by step
rejection.  Fields that come with a closed-form flow keep it in
:class:`ModelFunction` and the integrator is still available as an
independent cross-check.
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
    "flow_at",
    "final_state",
    "flow_semigroup_check",
    "gronwall_pair_bound",
]


class StepsizeUnderflow(Exception):
    """Adaptive stepping stalled; the field is likely not Lipschitz here."""


class OutOfSpan(Exception):
    """Dense-output query outside the integrated time span."""


@dataclass
class ModelFunction:
    """An evaluatable vector field R^dim -> R^dim.

    ``eval`` accepts a point (dim,) or a batch (..., dim).  If a
    closed-form flow is known it satisfies the semigroup property (checked
    by :func:`flow_semigroup_check`, not assumed).  ``metadata`` carries
    construction tags and pinned constants used by downstream bounds.
    """

    dim: int
    eval: Callable
    closed_form_flow: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.eval(x)


@dataclass
class Trajectory:
    """Accepted RK nodes of one trajectory, or of m trajectories in step.

    ``states`` and ``derivs`` are (n, dim) for a (dim,) start and
    (n, m, dim) for an (m, dim) start.  The counters are exact work counts:
    ``nfev`` = 1 + 6 (``n_accepted`` + ``n_rejected``) field evaluations,
    each on the whole (m, dim) batch.
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

_MAX_STEPS = 5_000_000


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row of an (m, dim) array (bitwise ``norm(x, axis=-1)``)."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def integrate(f: ModelFunction, x0, T: float, tol: float) -> Trajectory:
    """Flow from x0 over [0, T] (T < 0 integrates backwards).

    x0 is one start (dim,) or m starts (m, dim), integrated in step as an
    (m, dim) state; the nodes are (n, dim) or (n, m, dim) accordingly.
    tol must lie in [1e-13, 1e-3] and bounds the estimated L2 local error
    of every row on every accepted step.  The stage sums run elementwise
    over the stage axis and the initial step is the smallest of the rows'
    own, so each row of a batch of identical starts is bit for bit the lone
    trajectory, whatever m is.  A step across a kink of a piecewise-smooth
    field fails the error test and is retried shorter; there is no step cap.
    """
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError(f"tol = {tol} outside [1e-13, 1e-3]")
    x0 = np.array(x0, dtype=float)
    if x0.ndim > 2:
        raise ValueError(f"x0 has shape {x0.shape}; need (dim,) or (m, dim)")
    single = x0.ndim < 2
    y = x0.reshape(1, -1) if single else x0
    if y.shape[1] != f.dim:
        raise ValueError(f"x0 has dim {y.shape[1]}, field has dim {f.dim}")
    if y.shape[0] == 0:
        raise ValueError(f"x0 has shape {x0.shape}; need at least one start")
    K = np.empty((7,) + y.shape)
    K[0] = np.asarray(f.eval(y), dtype=float).reshape(y.shape)
    n_accepted = n_rejected = 0
    ts, ys, ds = [0.0], [y.copy()], [K[0].copy()]
    if T != 0:
        direction = 1.0 if T > 0 else -1.0
        t = 0.0
        h = direction * max(1e-8, float(np.min(
            0.01 * (1.0 + _row_norms(y)) / (_row_norms(K[0]) + 1e-12))))
        while (T - t) * direction > 0:
            if n_accepted + n_rejected >= _MAX_STEPS:
                raise RuntimeError("step budget exhausted; field badly scaled?")
            # the step the error control asks for; clipping it to a leftover
            # T - t below rounding level of t is no stall
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise StepsizeUnderflow(f"step {h:.3e} at t = {t:.6g}")
            if abs(h) > abs(T - t):
                h = T - t

            for i in range(1, 7):
                yi = y + h * (_A[i, :i] * K[:i]).sum(axis=0)
                K[i] = np.asarray(f.eval(yi), dtype=float).reshape(y.shape)
            y_new = y + h * (_B5 * K).sum(axis=0)
            err = abs(h) * float(np.max(_row_norms((_ERR * K).sum(axis=0))))

            if err <= tol:
                n_accepted += 1
                t += h
                y = y_new
                K[0] = K[6]  # FSAL: stage 7 is f at the accepted state
                ts.append(t)
                ys.append(y)
                ds.append(K[0].copy())
            else:
                n_rejected += 1
            factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            h *= factor

    ts = np.asarray(ts)
    ys = np.asarray(ys)
    ds = np.asarray(ds)
    if single:
        ys, ds = ys[:, 0], ds[:, 0]
    if T < 0:
        ts, ys, ds = ts[::-1].copy(), ys[::-1].copy(), ds[::-1].copy()
    return Trajectory((0.0, float(T)), ts, ys, ds,
                      n_accepted, n_rejected, 1 + 6 * (n_accepted + n_rejected))


def flow_at(traj: Trajectory, t) -> np.ndarray:
    """Cubic-Hermite dense output at a time or at an array of times.

    A scalar t gives the state, shape (dim,) or (m, dim); an array gives
    t.shape + that, located on the nodes with one ``searchsorted``.
    Raises OutOfSpan if any time lies outside the span (by more than
    1e-12 of its length).
    """
    ts = traj.ts
    lo, hi = ts[0], ts[-1]
    eps = 1e-12 * max(1.0, hi - lo)
    t = np.asarray(t, dtype=float)
    outside = (t < lo - eps) | (t > hi + eps)
    if outside.any():
        raise OutOfSpan(f"t = {t[outside].flat[0]} outside [{lo}, {hi}]")
    if ts.shape[0] == 1:
        return np.broadcast_to(traj.states[0], t.shape + traj.states.shape[1:]).copy()
    t = np.clip(t, lo, hi)
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.shape[0] - 2)
    t0 = ts[i]
    trailing = (...,) + (None,) * (traj.states.ndim - 1)
    hstep = (ts[i + 1] - t0)[trailing]
    th = (t - t0)[trailing] / hstep
    h00 = 2 * th**3 - 3 * th**2 + 1
    h10 = th**3 - 2 * th**2 + th
    h01 = -2 * th**3 + 3 * th**2
    h11 = th**3 - th**2
    return (h00 * traj.states[i] + h10 * hstep * traj.derivs[i]
            + h01 * traj.states[i + 1] + h11 * hstep * traj.derivs[i + 1])


def final_state(traj: Trajectory) -> np.ndarray:
    """State at t = T (the far end of the span, whichever direction)."""
    return traj.states[-1].copy() if traj.t_span[1] >= 0 else traj.states[0].copy()


def flow_semigroup_check(f: ModelFunction, x, s: float, t: float, tol: float) -> float:
    """|| U(f, U(f,x,s), t) - U(f, x, s+t) ||, all three legs integrated."""
    mid = final_state(integrate(f, x, s, tol)) if s != 0 else np.array(x, dtype=float).reshape(-1)
    via = final_state(integrate(f, mid, t, tol)) if t != 0 else mid
    direct = final_state(integrate(f, x, s + t, tol)) if s + t != 0 else np.array(x, dtype=float).reshape(-1)
    return float(np.linalg.norm(via - direct))


def gronwall_pair_bound(f: ModelFunction, x1, x2, t: float):
    """Measured separation of two flows of a drift+pulse field vs. two bounds.

    bound_a = ||x1 - x2|| + 4 ||h||_inf L_beta r^(beta+1) / b   (additive),
    bound_b = ||x1 - x2|| * exp(2 ||Dh||_inf L_beta r^beta / b) (Grönwall),

    with the pulse sup-norms pinned in the field's metadata by its
    constructor.  Both trajectories are integrated at tol 1e-10.
    """
    meta = f.metadata
    try:
        b = meta["drift"]
        L_beta = meta["L_beta"]
        r = meta["radius"]
        beta = meta["beta"]
        h_sup = meta["pulse_sup"]
        dh_sup = meta["pulse_grad_sup"]
    except KeyError as missing:
        raise KeyError(f"field metadata lacks {missing} (not a drift+pulse construction?)")
    if b <= 0:
        raise ValueError("drift must be positive")
    u1 = final_state(integrate(f, x1, t, 1e-10))
    u2 = final_state(integrate(f, x2, t, 1e-10))
    measured = float(np.linalg.norm(u1 - u2))
    base = float(np.linalg.norm(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)))
    bound_a = base + 4.0 * h_sup * L_beta * r ** (beta + 1) / b
    bound_b = base * np.exp(2.0 * dh_sup * L_beta * r**beta / b)
    return measured, bound_a, bound_b
