"""Kernel shapes: values, supports, derivative sup-norms, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial

from odelab import kernels

# Reference suprema of |K^(j)| on (-1, 1) for K(w) = exp(-1/(1-w^2)),
# computed with mpmath at 50 digits (golden-section polish of a 4000-point
# scan).  The in-package measurements are grid based, so tolerances widen
# with the order.
SUP_K = [
    0.3678794411714423,
    0.7984297518335995,
    7.749704941694145,
    186.3999213188283,
    8315.890070895587,
]
SUP_K_RTOL = [1e-12, 1e-12, 1e-6, 1e-6, 1e-5]


def test_standard_kernel_center_value():
    # K(0) = e^{-1}
    assert kernels.standard_kernel(0.0) == pytest.approx(0.36787944117144233, rel=1e-15)


def test_standard_kernel_support():
    w = np.array([-2.0, -1.0, -0.9, 0.9, 1.0, 3.5])
    v = kernels.standard_kernel(w)
    assert v[0] == 0.0 and v[1] == 0.0 and v[4] == 0.0 and v[5] == 0.0
    assert v[2] > 0.0 and v[3] > 0.0


def test_standard_kernel_even():
    w = np.linspace(-0.95, 0.95, 31)
    assert np.allclose(kernels.standard_kernel(w), kernels.standard_kernel(-w), rtol=0, atol=0)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_kernel_deriv_matches_finite_difference(order):
    w = np.linspace(-0.9, 0.9, 13)
    prev = (lambda u: kernels.standard_kernel(u)) if order == 1 else (
        lambda u: kernels.standard_kernel_deriv(u, order - 1)
    )

    def central(h):
        return (prev(w + h) - prev(w - h)) / (2 * h)

    h = 1e-4
    fd = (4.0 * central(h / 2) - central(h)) / 3.0  # Richardson-extrapolated
    got = kernels.standard_kernel_deriv(w, order)
    assert np.allclose(got, fd, rtol=1e-6, atol=1e-8 * max(1.0, np.abs(got).max()))


def _reference_kernel_deriv(w, order):
    """K^(j) written with Polynomial: exp(-1/t) t^(-2j) P_j(w), zero off the support."""
    x, q, p = Polynomial([0.0, 1.0]), Polynomial([1.0, 0.0, -1.0]), Polynomial([1.0])
    for j in range(order):
        p = -2 * x * p + p.deriv() * q**2 + (4 * j) * x * q * p
    w = np.atleast_1d(np.asarray(w, dtype=float))
    out = np.zeros_like(w)
    t = 1.0 - w * w
    inside = t > 1e-12
    ti = t[inside]
    vals = np.exp(-1.0 / ti - (2 * order) * np.log(ti))
    if order > 0:
        vals = vals * p(w[inside])
    out[inside] = vals
    return out


EDGES = [1.0, -1.0, 1.0 - 1e-13, -(1.0 - 1e-13), 0.0, -0.0]


@pytest.mark.parametrize("order", range(7))
def test_kernel_deriv_bitwise_equals_reference(order):
    rng = np.random.default_rng(order)
    inside = rng.uniform(-0.999, 0.999, 20000)  # the all-inside path
    mixed = np.concatenate([rng.uniform(-1.2, 1.2, 20000), EDGES])
    for w in (inside, mixed, mixed.reshape(-1, 2)):
        got = kernels.standard_kernel_deriv(w, order)
        assert got.shape == w.shape
        assert got.tobytes() == _reference_kernel_deriv(w, order).reshape(w.shape).tobytes()
        x = 3.7 * w + 0.3
        u = x - np.floor(x)
        want = 2.0**order * _reference_kernel_deriv(2.0 * u - 1.0, order)
        assert kernels.periodic_kernel_deriv(x, order).tobytes() == want.reshape(x.shape).tobytes()
    for w in EDGES + [0.3, -0.7]:
        got = kernels.standard_kernel_deriv(w, order)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == _reference_kernel_deriv(w, order)[0].tobytes()
        x = 0.5 * (w + 1.0)  # periodic argument with 2x - 1 = w
        got = kernels.periodic_kernel_deriv(x, order)
        want = 2.0**order * _reference_kernel_deriv(2.0 * (x - np.floor(x)) - 1.0, order)[0]
        assert isinstance(got, float) and np.float64(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_sup_abs_kernel_deriv_frozen(order):
    assert kernels.sup_abs_kernel_deriv(order) == pytest.approx(
        SUP_K[order], rel=SUP_K_RTOL[order]
    )


def test_periodic_kernel_unit_periodic():
    x = np.linspace(-1.3, 2.7, 41)
    assert np.allclose(kernels.periodic_kernel(x), kernels.periodic_kernel(x + 1.0),
                       rtol=0, atol=1e-15)
    # one bump per period, peak value e^{-1} at half-integers
    assert kernels.periodic_kernel(0.5) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert kernels.periodic_kernel(0.0) == 0.0


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_periodic_deriv_chain_factor(order):
    # K_per(x) = K(2x - 1) on (0,1) so each derivative picks up a factor 2
    x = np.linspace(0.05, 0.95, 19)
    inner = kernels.standard_kernel_deriv(2.0 * x - 1.0, order)
    assert np.allclose(kernels.periodic_kernel_deriv(x, order), 2.0**order * inner,
                       rtol=1e-13, atol=0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.integers(0, 4))
def test_periodic_deriv_periodicity_property(x, order):
    a = kernels.periodic_kernel_deriv(x, order) if order else kernels.periodic_kernel(x)
    b = kernels.periodic_kernel_deriv(x + 3.0, order) if order else kernels.periodic_kernel(x + 3.0)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_calibrated_alphas_frozen():
    assert kernels.calibrate_alpha(1.5, 1, "bump") == pytest.approx(0.5, rel=1e-12)
    assert kernels.calibrate_alpha(2.0, 2, "bump") == pytest.approx(0.125, rel=1e-12)
    assert kernels.calibrate_alpha(2.0, 2, "pulse") == pytest.approx(0.25, rel=1e-12)


def test_calibrate_alpha_rejects_bad_kind():
    with pytest.raises(ValueError):
        kernels.calibrate_alpha(2.0, 2, "sombrero")


def _bump_spec(beta=2.0, d=2):
    return kernels.KernelSpec(
        beta=beta, alpha=kernels.calibrate_alpha(beta, d, "bump"), kind="bump", dim=d
    )


def test_bump_eval_support_and_center():
    spec = _bump_spec()
    assert kernels.bump_eval(spec, np.zeros(2)) == pytest.approx(
        0.125 * np.exp(-1.0), rel=1e-14
    )
    # compactly supported in the unit ball
    assert kernels.bump_eval(spec, np.array([1.0, 0.0])) == 0.0
    assert kernels.bump_eval(spec, np.array([0.8, 0.8])) == 0.0
    batch = kernels.bump_eval(spec, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert batch.shape == (2,) and batch[1] == 0.0


def test_pulse_eval_shape_and_scalar():
    spec = kernels.KernelSpec(
        beta=2.0, alpha=kernels.calibrate_alpha(2.0, 2, "pulse"), kind="pulse", dim=2
    )
    v = kernels.pulse_eval(spec, np.array([0.3, -0.2]))
    assert isinstance(v, float)
    # odd in the first coordinate, vanishes on the symmetry plane
    assert kernels.pulse_eval(spec, np.array([0.0, 0.4])) == pytest.approx(0.0, abs=1e-15)
    assert kernels.pulse_eval(spec, np.array([-0.3, -0.2])) == pytest.approx(-v, rel=1e-13)


def test_r_max_frozen_and_monotone():
    spec = _bump_spec()
    r = kernels.r_max(2.0, (2.0, 20.0), 100.0, spec)
    assert r == pytest.approx(0.6594894914781894, rel=1e-12)
    # a larger perturbation amplitude (bigger L_beta) must fit a smaller ball
    assert kernels.r_max(2.0, (2.0, 20.0), 400.0, spec) < r
    # an occupied drift budget (b > 0) shrinks the order-0 margin
    assert kernels.r_max(2.0, (2.0, 20.0), 100.0, spec, b=1.9) < r


def test_scaled_field_translation_and_amplitude():
    spec = _bump_spec()
    f = kernels.ScaledField(kernel=spec, center=(0.3, 0.4), radius=0.2, amplitude=5.0)
    # value at the center is L r^beta h(0)
    assert f(np.array([0.3, 0.4])) == pytest.approx(
        5.0 * 0.2**2 * 0.125 * np.exp(-1.0), rel=1e-13
    )
    # vanishes outside B(center, radius)
    assert f(np.array([0.7, 0.4])) == 0.0
    off = kernels.ScaledField(kernel=spec, center=(0.3, 0.4), radius=0.2,
                              amplitude=5.0, offset=2.0)
    assert off(np.array([0.7, 0.4])) == 2.0


def test_shape_deriv_supnorm_positive_and_decaying_support():
    spec = _bump_spec()
    s0 = kernels.shape_deriv_supnorm(spec, 0)
    s1 = kernels.shape_deriv_supnorm(spec, 1)
    # grid measurement sits just below the exact peak alpha * e^{-1}
    assert s0 == pytest.approx(0.125 * np.exp(-1.0), rel=1e-5)
    assert s0 <= 0.125 * np.exp(-1.0) + 1e-15
    assert s1 > s0 > 0.0
