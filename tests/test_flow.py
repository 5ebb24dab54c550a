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

    return flow.ModelFunction(dim=2, eval=ev, lipschitz_hint=1.0)


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


def test_max_step_callable_is_respected():
    seen = []

    def cap(state):
        seen.append(float(state[0]))
        return 0.01

    traj = flow.integrate(_linear_field(), np.array([1.0]), 0.5, 1e-8, max_step=cap)
    assert max(np.diff(traj.ts)) <= 0.01 + 1e-12
    assert seen  # the cap was actually consulted


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
