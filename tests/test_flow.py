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
    # drift+pulse construction carries the sup-norms the bounds need
    fam = hypotheses.snake_prob_family(2.0, 2, (2.0, 20.0), 100.0)
    f1 = fam.make_alternative(np.array([0.5, 0.5]), 0.1)
    x1 = np.array([0.1, 0.45])
    x2 = np.array([0.1, 0.47])
    measured, bound_a, bound_b = flow.gronwall_pair_bound(f1, x1, x2, 0.8)
    assert measured <= bound_a
    assert measured <= bound_b
    assert bound_a > 0 and bound_b > 0


def test_gronwall_requires_construction_metadata():
    with pytest.raises(KeyError):
        flow.gronwall_pair_bound(_linear_field(), np.array([0.0]), np.array([0.1]), 0.5)


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
