"""Kernel shapes: values, supports, derivative sup-norms, calibration."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial

from odelab import hypotheses, kernels, smoothness

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


@pytest.mark.parametrize("order", range(7))
def test_deriv_coef_is_the_polynomial_recursion(order):
    x, q, p = Polynomial([0.0, 1.0]), Polynomial([1.0, 0.0, -1.0]), Polynomial([1.0])
    for j in range(order):
        p = -2 * x * p + p.deriv() * q**2 + (4 * j) * x * q * p
    got = kernels._deriv_coef(order)
    assert all(type(c) is float for c in got)
    assert got == tuple(p.coef.tolist())


EDGES = [1.0, -1.0, 1.0 - 1e-13, -(1.0 - 1e-13), 0.0, -0.0]


@pytest.mark.parametrize("order", range(7))
def test_kernel_deriv_bitwise_equals_reference(order):
    rng = np.random.default_rng(order)
    inside = rng.uniform(-0.999, 0.999, 20000)  # the all-inside path
    mixed = np.concatenate([rng.uniform(-1.2, 1.2, 20000), EDGES])
    outside = np.concatenate([rng.uniform(1.0, 2.0, 50), -rng.uniform(1.0, 2.0, 50)])
    for w in (inside, mixed, mixed.reshape(-1, 2), outside):  # outside: the early return
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


# sup |K^(j)| on (-1, 1) for K(w) = exp(-1/(1-w^2)), computed with mpmath at 50 digits
# (golden-section polish of a 4000-point scan), against the closed forms: sup K = K(0) =
# e^-1, sup |K'| at 3^(-1/4), where K'' = K (6 w^4 - 2) / (1 - w^2)^4 vanishes
SUP_K = [0.3678794411714423, 0.7984297518335995]


@pytest.mark.parametrize("order", [0, 1])
def test_sup_abs_kernel_deriv_frozen(order):
    sup, argmax = [(kernels.K_SUP, 0.0), (kernels.K1_SUP, kernels.K1_ARGMAX)][order]
    at = abs(kernels.standard_kernel_deriv(argmax, order))
    assert np.float64(sup).tobytes() == np.float64(at).tobytes()
    assert abs(kernels.standard_kernel_deriv(argmax, order + 1)) < 1e-14
    grid = np.abs(kernels.standard_kernel_deriv(np.linspace(-1.0, 1.0, 400001), order)).max()
    assert grid <= sup <= grid * (1.0 + 1e-10)
    assert sup == pytest.approx(SUP_K[order], rel=1e-15)


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


# alpha = 2^-k of each (beta, kind) the CLI and the benchmark build, from the jet bounds
FROZEN_ALPHA_K = {(1.5, "bump"): 2, (2.0, "bump"): 3, (2.5, "bump"): 6, (3.5, "bump"): 11,
                  (2.0, "pulse"): 4}


def test_calibrated_alphas_frozen():
    for (beta, kind), k in FROZEN_ALPHA_K.items():
        assert kernels.calibrate_alpha(beta, kind) == 2.0**-k


# every (beta, d, kind) the CLI and the benchmark calibrate
CALIBRATION_GRID = [
    (1.5, 1, "bump"), (2.5, 1, "bump"), (2.0, 2, "bump"), (3.5, 3, "bump"),
    (2.0, 2, "pulse"), (2.0, 3, "bump"), (2.0, 3, "pulse"),
]


@functools.lru_cache(maxsize=None)
def _direct_report(beta, d, kind, k):
    """certify_membership of the shape at alpha = 2^-k against the unit class."""
    ell = smoothness.strict_floor(beta)
    cls = smoothness.SmoothnessClass(
        beta=beta, L=(1.0,) * (ell + 1), L_beta=1.0, dim_in=d, dim_out=1
    )
    spec = kernels.KernelSpec(beta=beta, alpha=2.0**-k, kind=kind, dim=d)
    report = smoothness.certify_membership(
        lambda pts: kernels.kernel_shape_eval(spec, pts), cls, [(-1.0, 1.0)] * d
    )
    return report.components[0]


def _scale(kind, k):
    return 2.0 ** (-k * (2 if kind == "pulse" else 1))


def _reference_calibrate_k(beta, kind):
    """The bound-each-alpha loop: first k whose scaled bounds meet the unit class."""
    sups, holder = kernels._unit_bounds(beta, kind)
    for k in range(40):
        s = _scale(kind, k)
        if all(s * m <= 1.0 for m in sups) and s * holder <= 1.0 + kernels.MEMBERSHIP_SLACK:
            return k
    raise kernels.CalibrationFailed


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("beta,d,kind", CALIBRATION_GRID)
def test_calibrate_alpha_equals_certify_each_alpha(beta, d, kind):
    # the finite-difference certifier, which reads low, passes the calibrated shape too
    k = _reference_calibrate_k(beta, kind)
    assert kernels.calibrate_alpha(beta, kind) == 2.0**-k
    assert _direct_report(beta, d, kind, k).passed


@pytest.mark.parametrize("beta,d,kind", CALIBRATION_GRID)
def test_unit_measurements_scale_exactly(beta, d, kind):
    # the bounds of the alpha = 2^-k shape are the unit bounds times alpha or alpha^2, bitwise
    sups, _ = kernels._unit_bounds(beta, kind)
    for k in range(_reference_calibrate_k(beta, kind) + 2):
        spec = kernels.KernelSpec(beta=beta, alpha=2.0**-k, kind=kind, dim=d)
        scaled = [kernels.shape_deriv_supnorm(spec, j) for j in range(len(sups))]
        assert _bits(scaled) == _bits([_scale(kind, k) * m for m in sups])


def _refuse(*args, **kwargs):
    raise AssertionError("finite-difference call during calibration")


def test_calibrate_alpha_certifies_once(monkeypatch):
    # one bound computation per (beta, kind), shared by the kernels of every d; no
    # finite difference
    kernels._unit_bounds.cache_clear()
    for name in ("certify_membership", "derivative_supnorm", "holder_quotient"):
        monkeypatch.setattr(smoothness, name, _refuse)
    for d in range(1, 13):
        assert hypotheses._calibrated(3.5, d, (2.0,) * 4, 100.0, "bump")[1].alpha == 2.0**-11
    assert kernels._unit_bounds.cache_info().misses == 1


@pytest.mark.parametrize("beta,d,kind", CALIBRATION_GRID + [(2.0, 7, "bump"), (3.5, 7, "bump"),
                                                            (2.0, 12, "bump"), (2.0, 12, "pulse")])
def test_calibration_makes_no_finite_difference_call(monkeypatch, beta, d, kind):
    kernels._unit_bounds.cache_clear()
    kernels._kernel_sup_bounds.cache_clear()
    for name in ("certify_membership", "derivative_supnorm", "holder_quotient"):
        monkeypatch.setattr(smoothness, name, _refuse)
    spec = kernels.KernelSpec(beta=beta, alpha=kernels.calibrate_alpha(beta, kind),
                              kind=kind, dim=d)
    assert kernels.r_max(beta, (2.0,) * (smoothness.strict_floor(beta) + 1), 100.0, spec) > 0.0


def _half_line_sup(order: int) -> float:
    """max |K^(order)| on 2,000,001 points of [0, 1]: 100x the grid density of the bounds."""
    w = np.linspace(0.0, 1.0, 2_000_001)
    return max(float(np.abs(kernels.standard_kernel_deriv(w[i:i + 250_000], order)).max())
               for i in range(0, w.size, 250_000))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kernel_sup_bounds_cover_a_finer_grid(n):
    # |K^(j)| is even: each bound _unit_bounds reads up to order n is at least the
    # maximum on a grid 100x finer, and within the stated 1e-3 of it
    for j, bound in enumerate(kernels._kernel_sup_bounds(n if n <= 4 else n + 2)[:n + 1]):
        finer = _half_line_sup(j)
        assert finer <= bound <= finer * (1.0 + 1e-3)


# float.hex of every bound at each depth _unit_bounds reads: n = 2, 3, 4, then n + 2 for
# n = 5, 6 (the grids stop at order MAX_DERIV_ORDER = 8)
FROZEN_KERNEL_SUP_BOUNDS = {
    2: ["0x1.78b56362cef38p-2", "0x1.98cbc8d08eb29p-1", "0x1.effb9d8eb4cc3p+2",
        "0x1.ce9866c9d27f0p+9", "0x1.5fc3cd76221c8p+16"],
    3: ["0x1.78b56362cef38p-2", "0x1.98cbc8d08eb29p-1", "0x1.effb9d8eb4cc3p+2",
        "0x1.74cfecc9876d0p+7", "0x1.5fc3cd76221c8p+16", "0x1.2e1e55c4573c6p+24"],
    4: ["0x1.78b56362cef38p-2", "0x1.98cbc8d08eb29p-1", "0x1.effb326e919a2p+2",
        "0x1.74cfecc9876d0p+7", "0x1.040c08109c7edp+13", "0x1.2e1e55c4573c6p+24",
        "0x1.0cc2caee9f460p+34"],
    7: ["0x1.78b56362cef38p-2", "0x1.98cbc8d08eb29p-1", "0x1.effb326cb01cfp+2",
        "0x1.74ccda38c3dbep+7", "0x1.03df307898bbdp+13", "0x1.23335c142d463p+19",
        "0x1.7b14e39b1e4aep+26", "0x1.fff1ee23229c8p+35", "0x1.96fbe930a9b01p+55",
        "0x1.2cab748f23af8p+67"],
    8: ["0x1.78b56362cef38p-2", "0x1.98cbc8d08eb29p-1", "0x1.effb326cafa27p+2",
        "0x1.74ccda38c3dbep+7", "0x1.03df250fb00d9p+13", "0x1.23335c142d463p+19",
        "0x1.3712ea50ea0d2p+26", "0x1.fff1ee23229c8p+35", "0x1.a0616d8644438p+47",
        "0x1.2cab748f23af8p+67", "0x1.31c1164b499a2p+79"],
}


def test_kernel_sup_bounds_frozen():
    for top, hexes in FROZEN_KERNEL_SUP_BOUNDS.items():
        assert [v.hex() for v in kernels._kernel_sup_bounds(top)] == hexes


def _phi_deriv_coefs(m: int) -> list:
    """R_m, lowest degree first: phi^(m)(rho) = exp(-1/s) R_m(s) / s^(2m), s = 1 - rho."""
    r = [1.0]
    for k in range(m):  # R_{k+1} = -(R_k + s^2 R_k' - 2k s R_k)
        nxt = [0.0] * (len(r) + 1)
        for i, c in enumerate(r):
            nxt[i] -= c
            nxt[i + 1] += (2 * k - i) * c
        r = nxt
    return r


def test_bump_directional_derivatives_peak_on_the_radial_line():
    # D_v^k K(|x|) = sum_j k!/(j!(k-2j)!) phi^(k-j)(|x|^2) (2 x.v)^(k-2j), phi(rho) =
    # exp(-1/(1-rho)): on a (|x|, cos theta) grid every order the calibration uses peaks at
    # cos theta = +-1, where it is K^(k)(|x|)
    a = np.linspace(0.0, 0.999, 2001)[:, None]
    c = np.linspace(-1.0, 1.0, 201)[None, :]
    s = 1.0 - a * a
    phi = [np.exp(-1.0 / s) * np.polyval(_phi_deriv_coefs(m)[::-1], s) / s ** (2 * m)
           for m in range(7)]
    for k in range(1, 7):
        jet = sum(math.factorial(k) / (math.factorial(j) * math.factorial(k - 2 * j))
                  * phi[k - j] * (2.0 * a * c) ** (k - 2 * j) for j in range(k // 2 + 1))
        assert np.abs(jet).max() == np.abs(jet[:, [0, -1]]).max()
        along = kernels.standard_kernel_deriv(a[:, 0], k)
        assert np.abs(jet[:, -1] - along).max() <= 1e-9 * np.abs(along).max()


def test_calibrate_alpha_rejects_bad_kind():
    with pytest.raises(ValueError):
        kernels.calibrate_alpha(2.0, "sombrero")


def _bump_spec(beta=2.0, d=2):
    return kernels.KernelSpec(
        beta=beta, alpha=kernels.calibrate_alpha(beta, "bump"), kind="bump", dim=d
    )


def test_bump_eval_support_and_center():
    spec = _bump_spec()
    assert kernels.kernel_shape_eval(spec, np.zeros(2)) == pytest.approx(
        0.125 * np.exp(-1.0), rel=1e-14
    )
    # compactly supported in the unit ball
    assert kernels.kernel_shape_eval(spec, np.array([1.0, 0.0])) == 0.0
    assert kernels.kernel_shape_eval(spec, np.array([0.8, 0.8])) == 0.0
    batch = kernels.kernel_shape_eval(spec, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert batch.shape == (2,) and batch[1] == 0.0


def test_pulse_eval_shape_and_scalar():
    spec = kernels.KernelSpec(
        beta=2.0, alpha=kernels.calibrate_alpha(2.0, "pulse"), kind="pulse", dim=2
    )
    v = kernels.kernel_shape_eval(spec, np.array([0.3, -0.2]))
    assert isinstance(v, float)
    # odd in the first coordinate, vanishes on the symmetry plane
    shape = functools.partial(kernels.kernel_shape_eval, spec)
    assert shape(np.array([0.0, 0.4])) == pytest.approx(0.0, abs=1e-15)
    assert shape(np.array([-0.3, -0.2])) == pytest.approx(-v, rel=1e-13)


# the bump r_max at beta 2, L (2, 20), L_beta 100: its order-0 term, from sup K = K_SUP
R_MAX_FROZEN = 0.6594885082800512


def test_r_max_frozen_and_monotone():
    spec = _bump_spec()
    r = kernels.r_max(2.0, (2.0, 20.0), 100.0, spec)
    assert r == pytest.approx(R_MAX_FROZEN, rel=1e-12)
    # a larger perturbation amplitude (bigger L_beta) must fit a smaller ball
    assert kernels.r_max(2.0, (2.0, 20.0), 400.0, spec) < r


def test_r_max_is_the_same_at_every_dimension():
    # the bounds do not depend on d, and at d = 12, where no finite-difference sample of
    # [-1, 1]^d lies in the unit ball, the radius is no exception
    radii = {kernels.r_max(2.0, (2.0, 20.0), 100.0, _bump_spec(2.0, d)) for d in range(1, 13)}
    assert len(radii) == 1 and radii.pop() == pytest.approx(R_MAX_FROZEN, rel=1e-12)


def test_scaled_field_translation_and_amplitude():
    spec = _bump_spec()
    field = hypotheses._perturbed_field(spec, np.zeros(2), [(0.3, 0.4)], 0.2, 5.0, 0, 1.0)

    def f(x):  # the perturbed output coordinate
        return field(x)[..., 0]

    # value at the center is L r^beta h(0)
    assert f(np.array([0.3, 0.4])) == pytest.approx(
        5.0 * 0.2**2 * 0.125 * np.exp(-1.0), rel=1e-13
    )
    # vanishes outside B(center, radius)
    assert f(np.array([0.7, 0.4])) == 0.0


def test_shape_deriv_supnorm_positive_and_decaying_support():
    spec = _bump_spec()
    s0 = kernels.shape_deriv_supnorm(spec, 0)
    s1 = kernels.shape_deriv_supnorm(spec, 1)
    # grid measurement sits just below the exact peak alpha * e^{-1}
    assert s0 == pytest.approx(0.125 * np.exp(-1.0), rel=1e-5)
    assert s0 <= 0.125 * np.exp(-1.0) + 1e-15
    assert s1 > s0 > 0.0


@pytest.mark.parametrize("beta,d,kind", [
    (2.0, 2, "bump"), (2.0, 2, "pulse"), (2.0, 3, "pulse"),
    (3.5, 3, "bump"), (2.5, 1, "bump"), (1.5, 1, "bump"),
])
def test_shape_deriv_supnorm_bounds_the_direct_measurement(beta, d, kind):
    # the upper bounds against measuring the calibrated shape by finite differences
    spec = kernels.KernelSpec(beta=beta, alpha=kernels.calibrate_alpha(beta, kind),
                              kind=kind, dim=d)
    for k in range(smoothness.strict_floor(beta) + 1):
        direct = smoothness.derivative_supnorm(
            lambda pts: kernels.kernel_shape_eval(spec, pts), k, [(-1.0, 1.0)] * d)[0]
        assert 0.0 < direct <= kernels.shape_deriv_supnorm(spec, k)


def _straddling_points(rng, n: int, d: int, center, radius):
    """n points at ||x - z|| / r near 1 first (some within 1e-12 of it), then anywhere."""
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rho = np.concatenate([
        1.0 + np.array([-6e-13, -5e-13, -4e-13, -1e-12, 1e-13, -1e-13, 0.0, 1e-12]),
        [0.0, 0.3, 0.9, 0.999999, 1.000001, 1.5, 3.0],
        rng.uniform(0.0, 2.0, n),
    ])[:n]
    return np.asarray(center) + radius * rng.permutation(rho)[:, None] * u


def _every_point_shape(spec, w):
    """The shape with K'(w_1) evaluated at every point: no cull to the unit ball."""
    w = np.atleast_1d(w)
    val = spec.alpha * kernels.standard_kernel(np.linalg.norm(w, axis=-1))
    if spec.kind == "pulse":
        val = val * (spec.alpha * kernels.standard_kernel_deriv(w[..., 0], 1))
    return val


@pytest.mark.parametrize("kind", ["bump", "pulse"])
@pytest.mark.parametrize("d", [1, 2, 3])
# the drift a construction adds on the perturbed axis: 0 in the
# probabilistic families, L_0 in snake-det
@pytest.mark.parametrize("drift", [0.0, 0.3])
def test_culled_shape_is_bitwise_the_full_evaluation(kind, d, drift):
    spec = kernels.KernelSpec(beta=2.5, alpha=0.25, kind=kind, dim=d)
    center = tuple(np.linspace(0.2, 0.6, d))
    radius, amplitude = 0.07, 40.0
    perturbed = hypotheses._perturbed_field(spec, np.zeros(d), [center], radius, amplitude,
                                            0, 1.0)

    def field(x):  # the perturbation alone, on the coordinate it perturbs
        return perturbed(x)[..., 0]

    def unit(x):
        return (x - np.asarray(center)) / radius

    def every_point(x):
        scale = amplitude * radius**spec.beta
        return scale * _every_point_shape(spec, unit(x))

    def bits(a):
        return np.asarray(a, dtype=float).tobytes()

    def same(x):
        # as the vector field sees it, drift + perturbation: a culled point is
        # an unsigned 0 where the full product may be -0, and the sum erases that
        shape, ref = kernels.kernel_shape_eval(spec, unit(x)), _every_point_shape(spec, unit(x))
        return (bits(drift + field(x)) == bits(drift + every_point(x))
                and bits(shape + 0.0) == bits(ref + 0.0))

    rng = np.random.default_rng([d, len(kind)])
    for n in (1, 5, 1000):
        x = _straddling_points(rng, n, d, center, radius)
        t = 1.0 - np.linalg.norm(unit(x), axis=-1) ** 2
        if n > 1:  # points just inside and just outside the test 1 - ||w||^2 > 1e-12
            assert ((t > 1e-12) & (t < 2e-12)).any() and ((t <= 1e-12) & (t > -2e-12)).any()
        assert field(x).shape == (n,)
        assert same(x)
    x = _straddling_points(rng, 20, d, center, radius).reshape(4, 5, d)
    assert same(x)
    far = np.asarray(center) + np.full((3, d), 1.0)  # no point inside: early return
    assert same(far)
    for p in x[0]:  # single (d,) points
        assert same(p)


def _pre_core_kernel_deriv(w, order):
    """standard_kernel_deriv as it read before its formula moved to kernels._kernel_core."""
    scalar = np.ndim(w) == 0
    w = np.atleast_1d(np.asarray(w, dtype=float))
    t = 1.0 - w * w
    inside = t > 1e-12
    n_inside = np.count_nonzero(inside)
    if not n_inside:
        return 0.0 if scalar else np.zeros_like(w)
    everywhere = n_inside == inside.size
    ti, wi = (t, w) if everywhere else (t[inside], w[inside])
    if order == 0:
        vals = np.exp(-1.0 / ti)
    else:
        vals = np.exp(-1.0 / ti - (2 * order) * np.log(ti))
        coef = kernels._deriv_coef(order)
        poly = coef[-1]
        for c in coef[-2::-1]:
            poly = poly * wi + c
        vals = vals * poly
    out = vals if everywhere else np.zeros_like(w)
    if not everywhere:
        out[inside] = vals
    return float(out[0]) if scalar else out


def _pre_core_shape(spec, w):
    """kernel_shape_eval as it read before: alpha K(||w||) times alpha K'(w_1), each factor
    masked again by _pre_core_kernel_deriv, on the points with 1 - ||w||^2 > 1e-12."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    nrm = np.linalg.norm(w, axis=-1).reshape(-1)
    val = np.zeros(nrm.shape)
    live = (1.0 - nrm * nrm > 1e-12).nonzero()[0]
    if len(live):
        h = spec.alpha * _pre_core_kernel_deriv(nrm[live], 0)
        if spec.kind == "pulse":
            h = h * (spec.alpha * _pre_core_kernel_deriv(w[..., 0].reshape(-1)[live], 1))
        val[live] = h
    return float(val[0]) if w.ndim == 1 else val.reshape(w.shape[:-1])


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


# the radius where 1 - w^2 crosses the edge 1e-12, and radii k ulps from it, where
# 1 - w^2 moves by about two ulps of 1 per step
_EDGE_RADIUS = math.sqrt(1.0 - 1e-12)
_NEAR_EDGE = st.builds(lambda k: _EDGE_RADIUS + k * math.ulp(_EDGE_RADIUS), st.integers(-6, 6))
_SIGN = st.sampled_from([1.0, -1.0])
_SCALAR = st.one_of(
    st.floats(-1.5, 1.5),
    st.builds(lambda s, w: s * w, _SIGN, _NEAR_EDGE),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
                     math.nan, math.inf, -math.inf]),
)


def _shape_point(d):
    """A point of R^d: anywhere near the ball, on the hyperplane w_1 = 0, or with
    1 - ||w||^2 a few ulps from the edge, along e_1 (|w_1| ~ ||w||) or any direction."""
    coords = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    tiny = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1e-9, 3e-8])

    def along_e1(s, r, scale, rest):
        return [s * r] + [scale * c for c in rest[1:]]

    def any_direction(r, u):
        n = math.sqrt(sum(c * c for c in u))
        return [r * c / n for c in u] if n > 0.1 else [r] + [0.0] * (d - 1)

    return st.one_of(
        st.builds(lambda u: [1.5 * c for c in u], coords),
        st.builds(lambda s, u: [s * 0.0] + u[1:], _SIGN, coords),
        st.builds(along_e1, _SIGN, _NEAR_EDGE, tiny, coords),
        st.builds(any_direction, _NEAR_EDGE, coords),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["bump", "pulse"]), st.integers(1, 4),
       st.sampled_from([(), (5,), (1,), (3, 4), (2, 1)]), st.data())
def test_shape_eval_is_bitwise_the_pre_core_composition(kind, d, batch, data):
    spec = kernels.KernelSpec(beta=2.5, alpha=0.25, kind=kind, dim=d)
    n = math.prod(batch)
    w = np.array(data.draw(st.lists(_shape_point(d), min_size=n, max_size=n)),
                 dtype=float).reshape(batch + (d,))
    assert _same_bits(kernels.kernel_shape_eval(spec, w), _pre_core_shape(spec, w))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, kernels.MAX_DERIV_ORDER), st.one_of(_SCALAR, st.lists(_SCALAR, max_size=12)))
def test_kernel_deriv_is_bitwise_the_pre_core_form(order, w):
    w = w if isinstance(w, float) else np.array(w, dtype=float)
    assert _same_bits(kernels.standard_kernel_deriv(w, order), _pre_core_kernel_deriv(w, order))
