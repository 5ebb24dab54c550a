"""Smoothness classes, Faà di Bruno, and the chain-remainder field."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odelab import hypotheses, kernels, smoothness

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


# values in [-10, 10] on a 1e-5 lattice: no product of nine underflows
JET = st.lists(st.integers(-10**6, 10**6).map(lambda n: n / 1e5), min_size=9, max_size=9)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 8), f=JET, g=JET)
def test_faa_di_bruno_matches_the_partition_sum(k, f, g):
    # the block-size-class sum against one term per set partition of {1..k}
    terms = []
    for part in smoothness.enumerate_partitions(k):
        term = f[len(part.blocks)]
        for block in part.blocks:
            term *= g[len(block)]
        terms.append(term)
    got = smoothness.faa_di_bruno([lambda _, v=v: v for v in f],
                                  [lambda _, v=v: v for v in g], k, 0.0)
    assert abs(got - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


def test_faa_di_bruno_evaluates_each_callable_once():
    calls = []

    def logged(name, fn):
        return lambda x: calls.append(name) or fn(x)

    g_fns = [math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), math.sin]
    f_der = [logged(("f", j), math.exp) for j in range(5)]
    g_der = [logged(("g", j), fn) for j, fn in enumerate(g_fns)]
    got = smoothness.faa_di_bruno(f_der, g_der, 4, 0.7)
    assert got == pytest.approx(EXP_SIN_AT_07[3], rel=1e-12)
    assert len(calls) == len(set(calls))


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
    per_prime = 2.0 * kernels.K1_SUP  # the slope guard's ||K_per'||
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


@pytest.mark.parametrize("r,beta", [(0.5, 2.5), (0.2, 1.5), (1.3, 2.0), (0.07, 4.5)])
def test_chain_remainder_slope_guard_is_exact(r, beta):
    # sup|K_per'| = 1.596859503667199 (mpmath, as in test_periodic_sup_frozen): a
    # slope 1e-9 relative over the cap 1/2 is rejected, one 1e-9 under it admitted
    amp = 0.5 / (r**beta * 1.596859503667199)
    with pytest.raises(smoothness.SlopeOutOfRange):
        smoothness.chain_remainder_field(amp * (1.0 + 1e-9), r, 0.13, 2.0, beta)
    smoothness.chain_remainder_field(amp * (1.0 - 1e-9), r, 0.13, 2.0, beta)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_remainder_u_jet_matches_reference(k):
    # the jet on the u side, at u = g^{-1}(0.4), needs no inverse beyond that point
    u = smoothness.chain_remainder_field(**TAME).metadata["g_inv"](0.4)
    w = (u - TAME["phase"]) / TAME["radius"]
    kper = [kernels.periodic_kernel_deriv(w, j) for j in range(1, 6)]
    a = TAME["amplitude"] * TAME["radius"] ** TAME["beta"]
    jet = smoothness.chain_remainder_u_jet(kper, a, TAME["radius"], TAME["L0"])
    assert jet[k] == pytest.approx(CHAIN_S_AT_04[k], rel=1e-10)


def _chain_remainder_cap(r, beta):
    return 0.5 / (r**beta * 2.0 * kernels.K1_SUP)


def _inflated(M, a, r, ell):
    """As chain_remainder_bounds: the exact sup |s|, then kernels._grid_sup_bounds of the
    grid maxima M[1:], topped by the jet at -sup |K_per^(j)|."""
    K = kernels._kernel_sup_bounds(ell + 2)
    tops = smoothness.chain_remainder_u_jet([-(2.0**j) * K[j] for j in range(1, ell + 5)],
                                            a, r, 2.0)
    stretch = 1.0 + a * 2.0 * kernels.K1_SUP
    return [2.0 / 3.0 * 2.0 * stretch] + kernels._grid_sup_bounds(
        M[1:], [-v for v in tops[ell + 2:]], stretch * r / 40000)


@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.5, 4.5])
def test_chain_remainder_grid_maxima_resolve(beta):
    # every grid-read bound M_k, k <= ell + 1, is at least max |s^(k)| on 4,000,001 points
    # of one period (100x the grid's density) and above it by at most its gap term
    # (D^2/8) M_{k+2}; the tops M_{ell+2}, M_{ell+3} are at least the grid's maxima; from
    # amplitude 0 to the slope cap of the demo period r = (2/3) 2 0.05
    r = 2.0 / 3.0 * 2.0 * 0.05
    ell = smoothness.strict_floor(beta)
    amps = [f * _chain_remainder_cap(r, beta) for f in (0.0, 1e-3, 0.37, 1.0)]
    finer = np.zeros((len(amps), ell + 2))
    w = np.linspace(0.0, 1.0, 4_000_001)
    for lo in range(0, w.size, 250_000):
        kper = [kernels.periodic_kernel_deriv(w[lo:lo + 250_000], j) for j in range(1, ell + 3)]
        for i, amp in enumerate(amps):
            jet = smoothness.chain_remainder_u_jet(kper, amp * r**beta, r, 2.0)
            finer[i] = np.maximum(finer[i], [np.abs(v).max() for v in jet])
    for amp, fine in zip(amps, finer):
        a = amp * r**beta
        coarse = [float(np.abs(v).max())
                  for v in smoothness.chain_remainder_u_jet(
                      [kernels._periodic_grid(j) for j in range(1, ell + 5)], a, r, 2.0)]
        M = _inflated(coarse[:ell + 2], a, r, ell)
        assert smoothness.chain_remainder_bounds(amp, r, 2.0, beta)[:ell + 1] == M[:ell + 1]
        assert np.all(fine <= M[:ell + 2]) and np.all(np.array(coarse[ell + 2:]) <= M[ell + 2:])
        gap = ((1.0 + a * 2.0 * kernels.K1_SUP) * r / 40000) ** 2 / 8.0
        for k in range(ell + 2):
            assert M[k] <= fine[k] + gap * M[k + 2]


@pytest.mark.parametrize("block", [4096, smoothness.BLOCK, 20000, 40000, 40001, 40002])
@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.5, 4.5])
def test_chain_remainder_blocks_are_bitwise_the_single_pass(monkeypatch, beta, block):
    # blocks that end one point before, at and one point past the 40,001-point grid's end
    r = 2.0 / 3.0 * 2.0 * 0.05
    ell = smoothness.strict_floor(beta)
    gamma = beta - ell
    kper = [kernels.periodic_kernel_deriv(np.linspace(0.0, 1.0, 40001), j)
            for j in range(1, ell + 3)]
    monkeypatch.setattr(smoothness, "BLOCK", block)
    for amp in [f * _chain_remainder_cap(r, beta) for f in (0.0, 1e-3, 0.37, 1.0)]:
        a = amp * r**beta
        M = _inflated([float(np.abs(v).max())
                       for v in smoothness.chain_remainder_u_jet(kper, a, r, 2.0)], a, r, ell)
        single = M[: ell + 1] + [(2.0 * M[ell]) ** (1.0 - gamma) * M[ell + 1] ** gamma]
        blocked = smoothness.chain_remainder_bounds(amp, r, 2.0, beta)
        assert np.array(blocked).tobytes() == np.array(single).tobytes()


def test_periodic_sup_frozen():
    # 2^j sup|K^(j)| (mpmath values), taken at 1/2 and (1 + 3^(-1/4))/2 bit for bit
    truth = [0.3678794411714423, 1.596859503667199]
    sups = [kernels.K_SUP, 2.0 * kernels.K1_SUP]
    for j, w in enumerate([0.5, 0.5 * (1.0 + kernels.K1_ARGMAX)]):
        v = abs(kernels.periodic_kernel_deriv(w, j))
        assert np.float64(v).tobytes() == np.float64(sups[j]).tobytes()
        assert v == pytest.approx(truth[j], rel=1e-15)


def test_derivative_supnorm_sine():
    f = lambda x: np.sin(x[..., 0:1] if np.ndim(x) else x)

    def vec(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x)

    got = smoothness.derivative_supnorm(vec, 1, ((0.0, 2.0 * np.pi),))[0]
    assert got == pytest.approx(1.0, rel=1e-4)
    assert got <= 1.0 + 1e-8


def test_holder_quotient_sqrt_like():
    # |x|^0.5 on [-1,1] has 0.5-Hoelder constant exactly 1 (attained at y=0)
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) ** 0.5

    q = smoothness.holder_quotient(f, 0, 0.5, ((-1.0, 1.0),), pairs=20000)[0]
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


# ---------------------------------------------------------------------------
# one evaluation for every output component


def _reference_scalar_batch(f):
    """Adapt f to map (N, d) -> (N,) float."""

    def call(pts):
        out = np.asarray(f(pts), dtype=float)
        return out.reshape(pts.shape[0])

    return call


def _reference_directional_fd(fb, pts, v, order, h):
    if order == 0:
        return fb(pts)
    acc = np.zeros(pts.shape[0])
    for i in range(order + 1):
        coeff = (-1.0) ** i * math.comb(order, i)
        offset = (order / 2.0 - i) * h
        acc += coeff * fb(pts + offset * v)
    return acc / h**order


def _reference_supnorm(f, order, reg, budget):
    fb = _reference_scalar_batch(f)
    diam = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    h = 10.0 ** (-3.0 / order) * diam if order else 0.0
    dirs = smoothness._direction_set(reg.shape[0])

    def scan(pts):
        if order == 0:
            return np.abs(fb(pts))
        best = np.zeros(pts.shape[0])
        for v in dirs:
            best = np.maximum(best, np.abs(_reference_directional_fd(fb, pts, v, order, h)))
        return best

    pts, spacing = smoothness._sample_box(reg, budget)
    vals = scan(pts)
    i = int(np.argmax(vals))
    local = np.stack(
        [np.clip(pts[i] - spacing, reg[:, 0], reg[:, 1]),
         np.clip(pts[i] + spacing, reg[:, 0], reg[:, 1])],
        axis=-1,
    )
    pts2, _ = smoothness._sample_box(local, min(budget, 729))
    return float(max(vals[i], scan(pts2).max()))


def _reference_holder(f, ell, beta, reg, pairs):
    d = reg.shape[0]
    fb = _reference_scalar_batch(f)
    diam = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    h = 10.0 ** (-3.0 / ell) * diam if ell else 0.0
    rng = np.random.default_rng(0)
    widths = reg[:, 1] - reg[:, 0]
    half = pairs // 2
    xs = reg[:, 0] + rng.random((pairs, d)) * widths
    ys = np.empty_like(xs)
    ys[:half] = reg[:, 0] + rng.random((half, d)) * widths
    scales = 10.0 ** rng.uniform(-4, -0.3, size=(pairs - half, 1)) * diam
    steps = rng.normal(size=(pairs - half, d))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    ys[half:] = np.clip(xs[half:] + scales * steps, reg[:, 0], reg[:, 1])
    if d == 1:
        dirs = np.ones((pairs, 1))
    else:
        dirs = rng.normal(size=(pairs, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dx = _reference_directional_fd(fb, xs, dirs, ell, h)
    dy = _reference_directional_fd(fb, ys, dirs, ell, h)
    sep = np.linalg.norm(xs - ys, axis=1)
    keep = sep > 1e-10 * diam
    quot = np.abs(dx[keep] - dy[keep]) / sep[keep] ** (beta - ell)
    return float(quot.max()) if quot.size else 0.0


def _reference_certify(f, cls, region, budget=4096, pairs=10**5):
    """The per-component certification: every measurement once per output component."""
    reg = np.asarray(region, dtype=float)

    def component(j):
        def fj(pts):
            out = np.asarray(f(pts), dtype=float)
            if out.ndim == 1:
                out = out[:, None]
            return out[:, j]

        return fj

    reports = []
    for j in range(cls.dim_out):
        fj = component(j)
        reports.append((
            [_reference_supnorm(fj, k, reg, budget) for k in range(cls.ell + 1)],
            _reference_holder(fj, cls.ell, cls.beta, reg, pairs),
        ))
    return reports


def _alternative(kind, beta, d):
    """The verify-suite alternative: a kind-shaped perturbation of radius rho_plus/2 at the
    cube center, with the moderate L_k = 2 * 10^k, L_beta = 10^(ell+1) ladder."""
    ell = smoothness.strict_floor(beta)
    L, L_beta = tuple(2.0 * 10.0**k for k in range(ell + 1)), 10.0 ** (ell + 1)
    build = hypotheses.stubble_prob_family if kind == "bump" else hypotheses.snake_prob_family
    fam = build(beta, d, L, L_beta)
    r = fam.rho_plus / 2.0
    f = fam.make_alternative(np.full(d, 0.5), r)
    return f, fam.smoothness_class, [(0.5 - r, 0.5 + r)] * d


def _three_outputs(x):
    """A 3 -> 3 field whose components all differ."""
    x = np.asarray(x, dtype=float)
    return np.stack([
        np.sin(x[..., 0] + 2.0 * x[..., 1]),
        x[..., 2] * np.exp(-(x * x).sum(axis=-1)),
        np.cos(x[..., 0] * x[..., 1] * x[..., 2]),
    ], axis=-1)


def _certify_case(case):
    if case == "three-outputs":
        cls = smoothness.SmoothnessClass(2.5, (2.0, 20.0, 200.0), 1e3, 3, 3)
        return _three_outputs, cls, [(0.0, 1.0)] * 3
    kind, beta, d = case
    return _alternative(kind, beta, d)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("case", [
    ("bump", 2.0, 2), ("bump", 3.5, 3), ("pulse", 2.0, 2), ("pulse", 2.5, 3), "three-outputs",
], ids=["bump-d2-beta2", "bump-d3-beta3.5", "pulse-d2-beta2", "pulse-d3-beta2.5",
        "three-outputs"])
def test_certify_is_bitwise_the_per_component_loop(case):
    f, cls, region = _certify_case(case)
    rep = smoothness.certify_membership(f, cls, region)
    ref = _reference_certify(f, cls, region)
    assert len(rep.components) == cls.dim_out
    for comp, (sups, holder) in zip(rep.components, ref):
        assert _bits(comp.sup_measured) == _bits(sups)
        assert _bits(comp.holder_measured) == _bits(holder)


def _wavy(x):
    """A scalar field of any d whose value at a point depends on that point only."""
    x = np.asarray(x, dtype=float)
    return np.sin(3.0 * x[..., 0]) * np.cos(2.0 * x[..., -1]) + x[..., 0] * x[..., -1] ** 2


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pairs", [2 * smoothness.BLOCK + 3, 1001],
                         ids=["two-blocks-and-3", "below-one-block"])
def test_holder_blocks_are_bitwise_the_single_pass(d, pairs):
    # the running maximum over pair blocks is the maximum over all pairs, bit for bit
    seen = []

    def counted(x):
        seen.append(len(x))
        return _wavy(x)

    reg = np.array([(-0.5, 1.0)] * d)
    got = smoothness.holder_quotient(counted, 2, 2.5, reg, pairs=pairs)
    assert sum(seen) == 2 * (2 + 1) * pairs
    assert _bits(got) == _bits([_reference_holder(_wavy, 2, 2.5, reg, pairs)])


def test_certify_evaluates_each_point_set_once_for_all_components():
    f, cls, region = _alternative("bump", 2.0, 3)
    calls = []

    def every_output(x):
        calls.append(len(x))
        return f(x)

    def first_output(x):
        calls.append(len(x))
        return f(x)[..., 0]

    smoothness.certify_membership(every_output, cls, region, budget=512, pairs=2000)
    n_every = len(calls)
    calls.clear()
    first = dataclasses.replace(cls, dim_out=1)
    smoothness.certify_membership(first_output, first, region, budget=512, pairs=2000)
    assert n_every == len(calls)
