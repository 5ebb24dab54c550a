"""Adaptive integration with dense output, on fields with known flows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odelab import flow, hypotheses


def _linear_field(a=-0.7):
    return flow.ModelFunction(dim=1, eval=lambda x: a * np.asarray(x, dtype=float))


def _rotation_field():
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def ev(x):
        return np.asarray(x, dtype=float) @ M.T

    return flow.ModelFunction(dim=2, eval=ev)


def test_integrate_linear_matches_exponential():
    f = _linear_field(-0.7)
    traj = flow.integrate(f, np.array([1.3]), 2.0, 1e-10)
    got = flow.final_state(traj)[0]
    assert got == pytest.approx(1.3 * np.exp(-1.4), abs=5e-10)


def test_integrate_rotation_preserves_norm():
    f = _rotation_field()
    x0 = np.array([1.0, 0.0])
    traj = flow.integrate(f, x0, 2.0 * np.pi, 1e-11)
    assert np.linalg.norm(flow.final_state(traj) - x0) < 1e-8


def test_dense_output_between_nodes():
    f = _linear_field(-0.7)
    traj = flow.integrate(f, np.array([1.0]), 2.0, 1e-10)
    ts = np.linspace(0.0, 2.0, 57)
    errs = [abs(flow.flow_at(traj, t)[0] - np.exp(-0.7 * t)) for t in ts]
    assert max(errs) < 1e-8


def test_flow_at_rejects_outside_span():
    traj = flow.integrate(_linear_field(), np.array([1.0]), 1.0, 1e-8)
    with pytest.raises(flow.OutOfSpan):
        flow.flow_at(traj, 1.5)
    with pytest.raises(flow.OutOfSpan):
        flow.flow_at(traj, -0.1)


# T = 0 gives a single-node trajectory
_ROTATIONS = {T: flow.integrate(_rotation_field(), np.array([1.0, 0.5]), T, 1e-8)
              for T in (0.0, 3.0)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.0, 3.0]),
       st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
       st.sampled_from([(12,), (3, 4), (2, 3, 2)]))
def test_flow_at_array_matches_per_time_calls(T, fractions, shape):
    traj = _ROTATIONS[T]
    t = (T * np.asarray(fractions)).reshape(shape)
    got = flow.flow_at(traj, t)
    assert got.shape == shape + (2,)
    each = np.array([flow.flow_at(traj, float(x)) for x in t.reshape(-1)])
    assert each.shape == (12, 2)
    assert np.array_equal(got.reshape(-1, 2), each)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([0.0, 3.0]),
       st.lists(st.floats(0.0, 1.0), min_size=0, max_size=8),
       st.sampled_from([-0.5, 1.5]),
       st.integers(0, 8))
def test_flow_at_array_rejects_any_time_outside_span(T, fractions, outside, where):
    traj = _ROTATIONS[T]
    t = T * np.asarray(fractions)
    t = np.insert(t, min(where, len(t)), outside * max(T, 1.0))
    with pytest.raises(flow.OutOfSpan):
        flow.flow_at(traj, t)


# three rows stepped as one (n, 3, 2) trajectory; T = 0 gives a single node, T < 0 runs back
_STARTS = np.array([[1.0, 0.5], [-0.3, 0.2], [0.0, 2.0]])
_ROWS = {T: flow.integrate(_rotation_field(), _STARTS, T, 1e-8) for T in (0.0, 3.0, -2.0)}

# a float is a fraction of the span, an integer picks a node, "dup" repeats the row's
# previous time and "nan" is a NaN time
_ROW_TIME = st.one_of(st.floats(0.0, 1.0), st.integers(0, 10**6), st.sampled_from(["dup", "nan"]))


def _row_times(traj, T, picks, k):
    out = []
    for x in picks:
        if x == "dup" and len(out) % k:
            out.append(out[-1])
        else:
            out.append(np.nan if x in ("dup", "nan") else
                       float(traj.ts[x % len(traj.ts)]) if isinstance(x, int) else T * x)
    return np.array(out, dtype=float).reshape(3, k)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0.0, 3.0, -2.0]), st.integers(0, 6), st.data())
def test_flow_rows_is_bitwise_flow_at_per_row(T, k, data):
    traj = _ROWS[T]
    times = _row_times(traj, T, data.draw(st.lists(_ROW_TIME, min_size=3 * k, max_size=3 * k)), k)
    got = flow.flow_rows(traj, times)
    assert got.shape == (3, k, 2)
    for j in range(3):
        assert got[j].tobytes() == flow.flow_at(traj, times[j])[:, j].tobytes()
    if T != 0.0:  # between nodes a NaN time reads NaN; a single node is read at any time
        assert np.isnan(got[np.isnan(times)]).all()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([0.0, 3.0, -2.0]), st.integers(0, 5), st.integers(0, 2),
       st.sampled_from([-0.5, 1.5]), st.data())
def test_flow_rows_rejects_a_time_outside_span_as_flow_at_does(T, k, row, outside, data):
    traj = _ROWS[T]
    times = _row_times(traj, T, data.draw(st.lists(_ROW_TIME, min_size=3 * k, max_size=3 * k)), k)
    times = np.insert(times, data.draw(st.integers(0, k)), np.nan, axis=1)
    times[row, data.draw(st.integers(0, k))] = outside * max(abs(T), 1.0) * (1.0 if T >= 0 else -1.0)
    with pytest.raises(flow.OutOfSpan):
        flow.flow_at(traj, times[row])
    with pytest.raises(flow.OutOfSpan):
        flow.flow_rows(traj, times)


def test_flow_rows_needs_one_row_of_times_per_trajectory_row():
    with pytest.raises(ValueError, match=r"need \(m, k\) times"):
        flow.flow_rows(_ROWS[3.0], np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"need \(m, k\) times"):
        flow.flow_rows(_ROWS[3.0], np.zeros(3))
    with pytest.raises(ValueError, match=r"need \(m, k\) times"):
        flow.flow_rows(flow.integrate(_rotation_field(), _STARTS[0], 1.0, 1e-8), np.zeros((1, 4)))


@pytest.mark.parametrize("T", [1.5, -1.5])
def test_integrated_nodes_are_read_only(T):
    # a tube's cached slices are read off these arrays, so nothing may write into them
    trajs = [flow.integrate(_rotation_field(), _STARTS, T, 1e-8),
             flow.integrate(_rotation_field(), _STARTS[0], T, 1e-8),
             *flow.integrate_rows(_rotation_field(), _STARTS, [T, 0.0, T / 2], 1e-8)]
    for traj in trajs:
        for nodes in (traj.ts, traj.states, traj.derivs):
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                nodes += 1.0


def test_trajectory_bookkeeping():
    traj = flow.integrate(_linear_field(), np.array([2.0]), 1.0, 1e-9)
    assert traj.ts[0] == 0.0 and traj.ts[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.ts) > 0)
    assert traj.states.shape == (len(traj.ts), 1)
    assert traj.derivs.shape == traj.states.shape
    assert np.array_equal(flow.final_state(traj), traj.states[-1])


def test_semigroup_property_small_error():
    err = flow.flow_semigroup_check(_rotation_field(), np.array([0.4, -0.2]),
                                    0.7, 1.1, 1e-10)
    assert err < 1e-8


def test_gronwall_pair_bound_orders():
    # each pair of pulse crossings ends within both the additive and the Grönwall bound
    fam = hypotheses.snake_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    checks = hypotheses.snake_gronwall_checks(fam, 0.1, trials=4)
    assert len(checks) == 4
    for _, ok, measured, limit in checks:
        assert ok and measured <= limit
        assert limit > 0


def test_closed_form_flow_used_when_present():
    calls = {"n": 0}

    def ev(x):
        calls["n"] += 1
        return np.ones_like(np.asarray(x, dtype=float))

    def closed(x, t):
        return np.asarray(x, dtype=float) + t

    f = flow.ModelFunction(dim=1, eval=ev, closed_form_flow=closed)
    assert f.closed_form_flow(np.array([0.2]), 0.3)[0] == pytest.approx(0.5)
    # callable protocol forwards to eval
    assert f(np.array([1.0]))[0] == 1.0


# --- batched starts ---------------------------------------------------------

def _snake_pulse_alternative():
    fam = hypotheses.snake_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    r = fam.rho_plus / 4.0
    alt = fam.combine(np.array([[0.3, 0.5], [0.7, 0.5 + r / 2.0]]), r)
    return alt, 1.0 / fam.metadata["drift"]


@pytest.mark.parametrize("x0,T", [(np.array([1.3]), 2.0), (np.array([1.0, 0.5]), -3.0),
                                  (np.tile([1.0, 0.5], (4, 1)), 3.0)])
def test_work_counters_are_exact(x0, T):
    f = _linear_field() if x0.shape[-1] == 1 else _rotation_field()
    traj = flow.integrate(f, x0, T, 1e-10)
    assert traj.n_accepted == len(traj.ts) - 1
    assert traj.nfev == 1 + 6 * (traj.n_accepted + traj.n_rejected)


def test_work_counters_count_rejections_and_zero_span():
    alt, T = _snake_pulse_alternative()
    traj = flow.integrate(alt, np.array([0.0, 0.5]), T, 1e-10)
    assert traj.n_rejected > 0
    assert traj.nfev == 1 + 6 * (traj.n_accepted + traj.n_rejected)
    still = flow.integrate(alt, np.array([0.0, 0.5]), 0.0, 1e-10)
    assert (still.n_accepted, still.n_rejected, still.nfev) == (0, 0, 1)


@pytest.mark.parametrize("m", [1, 16, 256])
def test_step_count_does_not_depend_on_batch_width(m):
    # each row keeps its own error test: the stacked L2 norm took 135/178/234
    traj = flow.integrate(_rotation_field(), np.tile([1.0, 0.0], (m, 1)), 5.0, 1e-10)
    assert traj.n_accepted == 135
    assert traj.states.shape == (136, m, 2)


@pytest.mark.parametrize("m", [1, 2, 16, 256])
def test_batched_rows_are_bitwise_the_lone_trajectory(m):
    alt, T = _snake_pulse_alternative()
    x0 = np.array([0.0, 0.5])
    lone = flow.integrate(alt, x0, T, 1e-10)
    batch = flow.integrate(alt, np.tile(x0, (m, 1)), T, 1e-10)
    assert batch.ts.tobytes() == lone.ts.tobytes()
    assert (batch.n_accepted, batch.n_rejected) == (lone.n_accepted, lone.n_rejected)
    for j in range(m):
        assert batch.states[:, j].tobytes() == lone.states.tobytes()
        assert batch.derivs[:, j].tobytes() == lone.derivs.tobytes()
    t = np.linspace(0.0, T, 7).reshape(7, 1)
    dense = flow.flow_at(batch, t)
    assert dense.shape == (7, 1, m, 2)
    assert dense[:, :, -1].tobytes() == flow.flow_at(lone, t).tobytes()


def test_batched_start_shapes():
    f = _rotation_field()
    starts = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, -0.5]])
    traj = flow.integrate(f, starts, 1.0, 1e-9)
    assert traj.states.shape == traj.derivs.shape == (len(traj.ts), 3, 2)
    assert flow.flow_at(traj, 0.4).shape == (3, 2)
    assert np.array_equal(flow.final_state(traj), traj.states[-1])
    still = flow.integrate(f, starts, 0.0, 1e-9)
    assert still.states.shape == (1, 3, 2)
    assert flow.flow_at(still, np.zeros(2)).shape == (2, 3, 2)
    with pytest.raises(ValueError):
        flow.integrate(f, starts[None], 1.0, 1e-9)


def _diagonal_linear_field():
    a = np.array([-0.7, 0.4])
    return flow.ModelFunction(dim=2, eval=lambda x: a * np.asarray(x, dtype=float))


_ROW_FIELDS = {"linear": (_diagonal_linear_field(), 2.0), "pulse": _snake_pulse_alternative()}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_ROW_FIELDS)),
       offsets=st.lists(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.02, 0.02)),
                        min_size=1, max_size=6, unique=True),
       spans=st.lists(st.sampled_from([1.0, -1.0, 0.5, 0.3, 1e-3]), min_size=6, max_size=6),
       tol=st.sampled_from([1e-10, 1e-7]))
def test_rows_are_bitwise_their_lone_runs(name, offsets, spans, tol):
    # distinct starts with per-row spans (row 0 has T = 0), so rows finish at different steps
    f, span = _ROW_FIELDS[name]
    starts = np.array([0.0, 0.5]) + np.array(offsets)
    T = span * np.array([0.0] + spans[1:len(offsets)])
    rows = flow.integrate_rows(f, starts, T, tol)
    assert len(rows) == len(starts)
    for x, Ti, row in zip(starts, T, rows):
        lone = flow.integrate(f, x, Ti, tol)
        assert row.t_span == lone.t_span
        for got, want in ((row.ts, lone.ts), (row.states, lone.states), (row.derivs, lone.derivs)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ((row.n_accepted, row.n_rejected, row.nfev)
                == (lone.n_accepted, lone.n_rejected, lone.nfev))


def _scalar_loop(f, x0, T, tol):
    """Reference: shared steps with a Python-float time, step and step factor.

    x0 is (dim,) or (m, dim); the initial step is the smallest of the rows', the
    error the largest.
    """
    y = np.atleast_2d(np.array(x0, dtype=float))
    k = np.empty((7,) + y.shape)
    k[0] = f.eval(y)
    ts, ys, ds, rejected = [0.0], [y], [k[0].copy()], 0
    A, b5, e = flow._A, flow._B5, flow._ERR
    if T != 0:
        direction, t = (1.0 if T > 0 else -1.0), 0.0
        h = direction * max(1e-8, float(np.min(0.01 * (1.0 + np.sqrt(flow._row_sumsq(y)))
                                               / (np.sqrt(flow._row_sumsq(k[0])) + 1e-12))))
        while (T - t) * direction > 0:
            h = T - t if abs(h) > abs(T - t) else h
            for i in range(1, 7):
                k[i] = f.eval(y + h * np.add.reduce(A[i, :i] * k[:i], axis=0))
            y_new = y + h * np.add.reduce(b5 * k, axis=0)
            err = abs(h) * float(np.max(np.sqrt(flow._row_sumsq(np.add.reduce(e * k, axis=0)))))
            if err <= tol:
                t, y = t + h, y_new
                k[0] = k[6]
                ts.append(t), ys.append(y), ds.append(k[0].copy())
            else:
                rejected += 1
            h *= 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
    order = slice(None, None, -1 if T < 0 else 1)
    ys, ds = np.array(ys)[order], np.array(ds)[order]
    if np.ndim(x0) == 1:
        ys, ds = ys[:, 0], ds[:, 0]
    return np.array(ts)[order], ys, ds, rejected


@pytest.mark.parametrize("name,x0,T,tol", [
    ("linear", [1.0, -0.5], 2.0, 1e-10), ("linear", [0.3, 0.2], -1.5, 1e-7),
    ("pulse", [0.0, 0.5], 1.0, 1e-10), ("pulse", [0.05, 0.5], -1.0, 1e-9),
    ("linear", [[1.0, -0.5], [0.1, 2.0], [-3.0, 0.5]], 2.0, 1e-10),
    ("pulse", [[0.0, 0.5], [0.1, 0.51], [0.2, 0.49]], 1.0, 1e-10)])
def test_one_loop_is_bitwise_the_scalar_loop(name, x0, T, tol):
    # the merged loop keeps the shared-step arithmetic: a Python-float step factor, not
    # numpy's array power (which rounds differently in about 5% of values on AVX-512)
    f, span = _ROW_FIELDS[name]
    ts, ys, ds, rejected = _scalar_loop(f, x0, T * span, tol)
    trajs = [flow.integrate(f, x0, T * span, tol)]
    if np.ndim(x0) == 1:
        trajs += flow.integrate_rows(f, [x0], T * span, tol)
    for traj in trajs:
        assert traj.n_rejected == rejected and traj.n_accepted == len(ts) - 1
        for got, want in ((traj.ts, ts), (traj.states, ys), (traj.derivs, ds)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rows_take_one_or_per_row_spans():
    f = _diagonal_linear_field()
    starts = np.array([[1.0, 0.5], [0.5, 1.0], [-0.5, 0.25]])
    rows = flow.integrate_rows(f, starts, 1.5, 1e-9)
    assert [r.t_span for r in rows] == [(0.0, 1.5)] * 3
    assert len({r.n_accepted + r.n_rejected for r in rows}) > 1  # each row its own steps
    with pytest.raises(ValueError):
        flow.integrate_rows(f, starts[0], 1.5, 1e-9)
    with pytest.raises(ValueError):
        flow.integrate_rows(f, starts, [1.0, 2.0], 1e-9)
    with pytest.raises(ValueError, match=r"shape \(0, 2\); need at least one start"):
        flow.integrate_rows(f, np.empty((0, 2)), 1.0, 1e-9)


def test_empty_batch_names_its_shape():
    with pytest.raises(ValueError, match=r"shape \(0, 2\); need at least one start"):
        flow.integrate(_rotation_field(), np.empty((0, 2)), 1.0, 1e-9)


def _unit_drift():
    return flow.ModelFunction(dim=1, eval=lambda x: np.ones_like(np.asarray(x, dtype=float)))


# T values whose second-to-last step lands a few ulps short of T; the last
# step is then clipped to that leftover, below 1e-14 * t
@pytest.mark.parametrize("T,x0", [(28.468728879038796, 0.3), (215.61729889563654, 0.3),
                                  (1.9603095593968083, 7.0)])
def test_last_step_clipped_below_rounding_is_no_underflow(T, x0):
    traj = flow.integrate(_unit_drift(), np.array([x0]), T, 1e-10)
    assert traj.ts[-1] == T
    assert flow.final_state(traj)[0] == pytest.approx(x0 + T, rel=1e-14)


@pytest.mark.parametrize("T", [1e-300, -1e-20, 5e-15])
def test_span_below_rounding_is_one_step(T):
    traj = flow.integrate(_unit_drift(), np.array([0.3]), T, 1e-10)
    assert (traj.n_accepted, traj.n_rejected) == (1, 0)
    assert flow.final_state(traj)[0] == 0.3 + T


def _layout(x: np.ndarray, layout: str, rng) -> np.ndarray:
    """x (rows, d) as a C-contiguous array, a strided view, an F-ordered copy or a stack."""
    if layout == "strided":
        wide = np.repeat(x, 2, axis=1)
        wide[:, 1::2] = rng.normal(size=x.shape)
        return wide[:, ::2]
    if layout == "transposed":
        return x.T.copy().T
    if layout == "stack":
        return np.stack([x, -x[::-1], 0.5 * x], axis=1)  # (P, S, d), S = 3
    return x


@pytest.mark.parametrize("d", range(1, 13))
@settings(max_examples=25, deadline=None)
@given(rows=st.sampled_from([0, 1, 7, 64, 5000]),
       layout=st.sampled_from(["contiguous", "strided", "transposed", "stack"]),
       decades=st.integers(0, 150), seed=st.integers(0, 2**32 - 1))
def test_row_sumsq_is_bitwise_numpy_reduce_and_norm(d, rows, layout, decades, seed):
    # the column loop below 8 columns, numpy's pairwise reduce from 8 on
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-decades, decades, size=(rows, d))
    x = _layout(x, layout, rng)
    got = flow._row_sumsq(x)
    want = np.add.reduce(x * x, axis=-1)
    assert got.shape == want.shape == x.shape[:-1]
    assert got.tobytes() == want.tobytes()
    assert np.sqrt(got).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
