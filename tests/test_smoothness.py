"""Smoothness classes, Faà di Bruno, and the chain-remainder field."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odelab import kernels, smoothness

# Bell numbers B_1..B_6 (sympy.bell)
BELL = [1, 2, 5, 15, 52, 203]

# d^k/dx^k exp(sin x) at x = 0.7, k = 1..4 (sympy, 22 digits)
EXP_SIN_AT_07 = [
    1.456639295036074696437,
    -0.1128111682348904831024,
    -3.419707631274328237665,
    -4.512899015657687160696,
]

# Derivatives of s(y) = (2/3) L0 g'(g^{-1}(y)) at y = 0.4 for the tame
# parameter set (amplitude 0.5, radius 0.5, phase 0.13, L0 = 2, beta = 2.5),
# computed with mpmath at 60 digits via findroot + numerical differentiation.
CHAIN_S_AT_04 = [
    1.330734556041690484886,
    -0.6955029233982708272838,
    -0.6139971772897892241481,
    -68.15298985870281708245,
    -288.9265003593082753909,
]
TAME = dict(amplitude=0.5, radius=0.5, phase=0.13, L0=2.0, beta=2.5)


def test_strict_floor_values():
    assert smoothness.strict_floor(2.0) == 1
    assert smoothness.strict_floor(2.5) == 2
    assert smoothness.strict_floor(1.0001) == 1


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0001, 40.0))
def test_strict_floor_is_strict(beta):
    ell = smoothness.strict_floor(beta)
    assert ell < beta <= ell + 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_partition_counts_are_bell_numbers(k):
    parts = smoothness.enumerate_partitions(k)
    assert len(parts) == BELL[k - 1]
    # each partition is a disjoint cover of {1..k}
    for p in parts:
        seen = sorted(i for b in p.blocks for i in b)
        assert seen == list(range(1, k + 1))


def test_partition_guard():
    with pytest.raises(smoothness.TooLarge):
        smoothness.enumerate_partitions(9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_faa_di_bruno_exp_sin(k):
    f_der = [lambda u: math.exp(u)] * 5
    g_der = [
        lambda x: math.sin(x),
        lambda x: math.cos(x),
        lambda x: -math.sin(x),
        lambda x: -math.cos(x),
        lambda x: math.sin(x),
    ]
    got = smoothness.faa_di_bruno(f_der, g_der, k, 0.7)
    assert got == pytest.approx(EXP_SIN_AT_07[k - 1], rel=1e-12)


def test_faa_di_bruno_linear_inner():
    # f(2x) has k-th derivative 2^k f^{(k)}(2x): only the all-singleton
    # partition survives
    f_der = [lambda u: math.cos(u), lambda u: -math.sin(u), lambda u: -math.cos(u),
             lambda u: math.sin(u), lambda u: math.cos(u)]
    g_der = [lambda x: 2.0 * x, lambda x: 2.0, lambda x: 0.0, lambda x: 0.0,
             lambda x: 0.0]
    for k in (1, 2, 3):
        got = smoothness.faa_di_bruno(f_der, g_der, k, 0.3)
        assert got == pytest.approx(2.0**k * f_der[k](0.6), rel=1e-13)


def test_chain_remainder_field_value_and_flow():
    fld = smoothness.chain_remainder_field(**TAME)
    assert float(fld.eval(np.array([0.4]))[0]) == pytest.approx(
        CHAIN_S_AT_04[0], rel=1e-13
    )
    # closed-form flow solves x' = s(x): check against a small RK step chain
    x = np.array([0.4])
    t = 0.37
    direct = fld.closed_form_flow(x, t)
    n, h = 4000, t / 4000
    y = x.copy()
    for _ in range(n):
        k1 = fld.eval(y)
        k2 = fld.eval(y + 0.5 * h * k1)
        k3 = fld.eval(y + 0.5 * h * k2)
        k4 = fld.eval(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert direct[0] == pytest.approx(y[0], abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(slope=st.one_of(st.just(0.5), st.floats(1e-6, 0.5)),
       radius=st.floats(1e-3, 2.0), phase=st.floats(-3.0, 3.0),
       beta=st.sampled_from([1.5, 2.0, 2.5]))
@example(slope=0.5, radius=2.0 / 3.0 * 2.0 * 0.05, phase=0.4393798133121563, beta=2.5)
def test_chain_remainder_inverse_roundtrip(slope, radius, phase, beta):
    # slope = amplitude * radius^beta * ||K_per'||, up to its cap 1/2
    per_prime = smoothness.periodic_sup(1)
    amp = slope / (radius**beta * per_prime)
    while amp * radius**beta * per_prime > 0.5:  # rounding past the cap
        amp = np.nextafter(amp, 0.0)
    fld = smoothness.chain_remainder_field(amp, radius, phase, 2.0, beta)
    g, g_inv = fld.metadata["g"], fld.metadata["g_inv"]
    y = phase + radius * np.linspace(-1.5, 1.5, 2001)
    assert np.max(np.abs(g(g_inv(y)) - y)) < 1e-13


def test_chain_remainder_slope_guard():
    with pytest.raises(smoothness.SlopeOutOfRange):
        smoothness.chain_remainder_field(50.0, 0.5, 0.13, 2.0, 2.5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_remainder_jet_matches_reference(k):
    outer, inner = smoothness.chain_remainder_jet(**TAME)
    got = smoothness.faa_di_bruno(outer, inner, k, 0.4)
    assert got == pytest.approx(CHAIN_S_AT_04[k], rel=1e-10)


def test_periodic_sup_frozen():
    # 2^j * sup|K^(j)| (mpmath values); grid measurement is slightly low
    truth = [0.3678794411714423, 1.596859503667199, 30.99881976677658,
             1491.199370550626, 133054.2411343294]
    rtol = [1e-12, 1e-7, 1e-6, 1e-6, 1e-5]
    for j in range(5):
        v = smoothness.periodic_sup(j)
        assert v == pytest.approx(truth[j], rel=rtol[j])
        assert v <= truth[j] * (1 + 1e-12)


def test_derivative_supnorm_sine():
    f = lambda x: np.sin(x[..., 0:1] if np.ndim(x) else x)

    def vec(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x)

    got = smoothness.derivative_supnorm(vec, 1, ((0.0, 2.0 * np.pi),))
    assert got == pytest.approx(1.0, rel=1e-4)
    assert got <= 1.0 + 1e-8


def test_holder_quotient_sqrt_like():
    # |x|^0.5 on [-1,1] has 0.5-Hoelder constant exactly 1 (attained at y=0)
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) ** 0.5

    q = smoothness.holder_quotient(f, 0, 0.5, ((-1.0, 1.0),), pairs=20000)
    assert 0.5 < q <= 1.0 + 1e-9


def test_certify_membership_pass_and_fail():
    cls = smoothness.SmoothnessClass(beta=2.0, L=(2.0, 20.0), L_beta=100.0,
                                     dim_in=1, dim_out=1)

    def gentle(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sin(3.0 * x)

    rep = smoothness.certify_membership(gentle, cls, ((0.0, 1.0),),
                                        budget=2048, pairs=20000)
    assert rep.passed

    tight = smoothness.SmoothnessClass(beta=2.0, L=(0.1, 0.2), L_beta=0.5,
                                       dim_in=1, dim_out=1)
    rep2 = smoothness.certify_membership(gentle, tight, ((0.0, 1.0),),
                                         budget=2048, pairs=20000)
    assert not rep2.passed
    # at least one per-component record pins the violated budget
    bad = [c for c in rep2.components if not c.passed]
    assert bad
    c = bad[0]
    over_sup = any(m > lim for m, lim in zip(c.sup_measured, c.sup_limits))
    assert over_sup or c.holder_measured > c.holder_limit
