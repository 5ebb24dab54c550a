"""Flows of autonomous vector fields, u' = f(u), with dense output.

The integrator is an embedded Dormand-Prince 5(4) pair (FSAL) with the
estimated local error kept below ``tol`` on every accepted step.  Accepted
nodes store the state *and* its derivative, and queries between nodes use
cubic Hermite interpolation — O(h^4), comfortably below every verification
tolerance used downstream.  Fields that come with a closed-form flow keep
it in :class:`ModelFunction` and the integrator is still available as an
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
    lipschitz_hint: Optional[float] = None
    closed_form_flow: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.eval(x)


@dataclass
class Trajectory:
    initial: np.ndarray
    t_span: tuple
    ts: np.ndarray          # strictly increasing
    states: np.ndarray      # (n, dim)
    derivs: np.ndarray      # (n, dim), exactly eval(state) at each node
    tolerance: float


# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4

_MAX_STEPS = 5_000_000


def integrate(f: ModelFunction, x0, T: float, tol: float,
              max_step: Optional[Callable] = None) -> Trajectory:
    """Flow from x0 over [0, T] (T < 0 integrates backwards).

    tol must lie in [1e-13, 1e-3] and bounds the estimated local error of
    every accepted step.  ``max_step`` may be a callable state -> step cap,
    used by constructions whose fields are only piecewise smooth.
    """
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError(f"tol = {tol} outside [1e-13, 1e-3]")
    y = np.array(x0, dtype=float).reshape(-1)
    if y.shape[0] != f.dim:
        raise ValueError(f"x0 has dim {y.shape[0]}, field has dim {f.dim}")
    k1 = np.asarray(f.eval(y), dtype=float).reshape(-1)
    if T == 0:
        one = y[None, :]
        return Trajectory(y.copy(), (0.0, 0.0), np.zeros(1), one.copy(),
                          k1[None, :].copy(), tol)

    direction = 1.0 if T > 0 else -1.0
    ts, ys, ds = [0.0], [y.copy()], [k1.copy()]
    t = 0.0
    h = direction * min(abs(T), max(1e-8, 0.01 * (1.0 + np.linalg.norm(y))
                                    / (np.linalg.norm(k1) + 1e-12)))
    steps = 0
    while (T - t) * direction > 0:
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError("step budget exhausted; field badly scaled?")
        if abs(h) > abs(T - t):
            h = T - t
        if max_step is not None:
            cap = float(max_step(y))
            if abs(h) > cap:
                h = direction * cap
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepsizeUnderflow(f"step {h:.3e} at t = {t:.6g}")

        k = [k1]
        for i in range(1, 7):
            yi = y + h * sum(a * kk for a, kk in zip(_A[i], k))
            k.append(np.asarray(f.eval(yi), dtype=float).reshape(-1))
        y_new = y + h * sum(b * kk for b, kk in zip(_B5, k))
        err = abs(h) * np.linalg.norm(sum(e * kk for e, kk in zip(_ERR, k)))

        if err <= tol:
            t += h
            y = y_new
            k1 = k[6]  # FSAL: stage 7 is f at the accepted state
            ts.append(t)
            ys.append(y.copy())
            ds.append(k1.copy())
        factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        h *= factor

    ts = np.asarray(ts)
    ys = np.asarray(ys)
    ds = np.asarray(ds)
    if direction < 0:
        ts, ys, ds = ts[::-1].copy(), ys[::-1].copy(), ds[::-1].copy()
    return Trajectory(np.array(x0, dtype=float).reshape(-1), (0.0, float(T)),
                      ts, ys, ds, tol)


def flow_at(traj: Trajectory, t) -> np.ndarray:
    """Cubic-Hermite dense output at a time or at an array of times.

    A scalar t gives the state, shape (dim,); an array gives
    t.shape + (dim,), located on the nodes with one ``searchsorted``.
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
    hstep = (ts[i + 1] - t0)[..., None]
    th = (t - t0)[..., None] / hstep
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
