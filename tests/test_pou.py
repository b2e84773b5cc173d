import math

import numpy as np
import pytest

from ultrajet.errors import OrderCapExceeded, QuasianalyticInput, StageOverflow
from ultrajet.geometry import EXPANSION, decompose
from ultrajet.jets import CompactSet
from hypothesis import given, settings, strategies as st

from ultrajet.pou import (
    CanonicalBump,
    _tensor_bump_derivs,
    build_bump,
    build_pou,
    max_delta,
)
from ultrajet.seqcore import gevrey, quotient_power


@pytest.fixture(scope="module")
def seq():
    return gevrey(1.0)


@pytest.fixture(scope="module")
def bump(seq):
    return build_bump(1.0, seq, J=8)


@pytest.fixture(scope="module")
def dec_1d():
    cs = CompactSet(np.array([[0.0]]), ((-1.0, 1.0),))
    return decompose(((-1.0, 1.0),), cs, depth_cap=9)


@pytest.fixture(scope="module")
def pou_1d(dec_1d, seq):
    return build_pou(dec_1d, seq, order_cap=4)


# -- single bumps -----------------------------------------------------------------

def test_trapezoid_single_stage(seq):
    b = build_bump(1.0, seq, J=1)
    assert b.eval(0.0, 0) == 1.0
    assert b.eval(2.0, 0) == 0.0
    assert b.eval(-1.5, 0) == 0.0
    # realized ramp slope is 1/(2 r_1), inside the certified bound 1/r_1
    r1 = b.radii[0]
    x = 9.0 / 8.0 - r1  # middle of the ramp
    h = r1 / 64.0
    slope = (b.eval(x - h, 0) - b.eval(x + h, 0)) / (2.0 * h)
    assert math.isclose(slope, 1.0 / (2.0 * r1), rel_tol=1e-9)
    assert slope <= b.bound(1)


def test_bump_plateau_and_support_exact(bump):
    assert bump.eval(0.0) == 1.0
    assert bump.eval(1.0) == 1.0
    assert bump.eval(-1.0) == 1.0
    assert bump.plateau_halfwidth >= 1.0
    for x in (9.0 / 8.0, 1.2, -3.0):
        assert bump.eval(x) == 0.0
    assert bump.support_halfwidth <= 9.0 / 8.0 + 1e-15


def test_bump_range_and_monotone_shoulders(bump):
    xs = np.linspace(-1.3, 1.3, 4001)
    vals = bump.eval(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    sh = xs[(xs > 1.0) & (xs < 9.0 / 8.0)]
    assert np.all(np.diff(bump.eval(sh)) <= 1e-12)


def test_bump_odd_derivatives_vanish_at_center(bump):
    for j in (1, 3, 5):
        assert abs(bump.eval(0.0, j)) <= 1e-9 * bump.bound(j)


def test_bump_derivatives_match_finite_differences(bump):
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1.2, 1.2, size=10_000)
    r = bump.radii
    for j in range(1, 5):
        h = math.sqrt(6e-7 * r[j] * r[min(j + 1, len(r) - 1)])
        fd = (bump.eval(xs + h, j - 1) - bump.eval(xs - h, j - 1)) / (2.0 * h)
        err = np.max(np.abs(bump.eval(xs, j) - fd))
        assert err < 1e-6 * bump.bound(j), j


def test_bump_derivative_bound_replay(bump):
    rng = np.random.default_rng(10)
    xs = rng.uniform(-1.2, 1.2, size=10_000)
    for j in range(0, bump.canonical.J):
        vals = np.abs(bump.eval(xs, j))
        assert np.max(vals) <= bump.bound(j) * (1.0 + 1e-12), j


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=2, max_size=6))
def test_bump_properties_for_random_radii(raw):
    radii = np.sort(np.asarray(raw))[::-1]
    radii = radii * (0.05 / radii.sum())
    can = CanonicalBump(radii)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.3, 1.3, 800)
    vals = can.eval(xs, 0)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert can.eval(np.array([0.0, can.plateau * 0.999]), 0).tolist() == [1.0, 1.0]
    assert can.eval(np.array([can.support * 1.0001, -2.0]), 0).tolist() == [0.0, 0.0]
    for j in range(1, can.J):
        assert np.max(np.abs(can.eval(xs, j))) <= can.bound(j) * (1 + 1e-12)


def test_bump_scaling_is_exact_dilation(seq):
    big = build_bump(1.0, seq, J=6)
    small = build_bump(0.125, seq, J=6)
    xs = np.linspace(-1.2, 1.2, 501)
    for j in (0, 1, 3):
        a = big.eval(xs, j)
        b = small.eval(0.125 * xs, j) * 0.125 ** j
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_bump_order_cap(bump):
    with pytest.raises(OrderCapExceeded):
        bump.eval(0.0, bump.canonical.J)


def test_stage_overflow_and_quasianalytic(seq):
    cap = max_delta(seq, 8)
    with pytest.raises(StageOverflow):
        build_bump(1.0, seq, delta=4.0 * cap, J=8)
    with pytest.raises(QuasianalyticInput):
        build_bump(1.0, quotient_power(1.0), J=4)


def test_smoothness_continuity_across_breakpoints(bump):
    # C^{J-1}: derivative j = J-2 is still Lipschitz with constant B_{J-1}
    stage = bump.canonical
    j = stage.J - 2
    breaks = stage.stages[j + 1].breaks
    eps = 1e-10
    for b in breaks[1:-1:17]:
        left = stage.eval(np.array([b - eps]), j)[0]
        right = stage.eval(np.array([b + eps]), j)[0]
        assert abs(right - left) <= 4.0 * eps * stage.bound(j + 1) + 1e-12 * stage.bound(j)


# -- partitions of unity --------------------------------------------------------------

def test_pou_sum_to_one_on_covered_region(pou_1d):
    xs = np.linspace(-1.0, 1.0, 30_001).reshape(-1, 1)
    mask = pou_1d.covered(xs)
    s = pou_1d.sum_phi(xs[mask])
    assert np.max(np.abs(s - 1.0)) < 1e-12


def test_sum_phi_is_float_off_the_cover(seq):
    # the set points lie in no expanded cube, so no (point, cube) pair is counted
    cs = CompactSet(np.array([[-1.0], [1.0]]), ((-3.0, 3.0),))
    pou = build_pou(decompose(((-3.0, 3.0),), cs, depth_cap=6), seq, order_cap=2)
    for x, want in (([[-1.0], [1.0]], [0.0, 0.0]), (np.empty((0, 1)), []),
                    ([[0.0]], [1.0])):
        s = pou.sum_phi(x)
        assert s.dtype == np.float64
        assert s.tolist() == want


def test_pou_support_exact(pou_1d):
    dec = pou_1d.dec
    rng = np.random.default_rng(3)
    for i in range(0, dec.n_cubes, 5):
        half = dec.expanded_halfwidth(i)
        outside = dec.centers[i][0] + np.concatenate([
            rng.uniform(half * 1.0001, half * 3.0, 50),
            -rng.uniform(half * 1.0001, half * 3.0, 50)])
        vals = pou_1d.phi(i, outside.reshape(-1, 1))
        assert np.all(vals == 0.0)


def test_pou_psi_is_one_on_cube(pou_1d):
    dec = pou_1d.dec
    for i in range(0, dec.n_cubes, 7):
        half = dec.sides[i] / 2.0
        xs = dec.centers[i][0] + np.linspace(-half, half, 9)
        assert np.all(pou_1d.psi(i, xs.reshape(-1, 1)) == 1.0)


def test_pou_phi_is_one_without_earlier_overlap(pou_1d):
    dec = pou_1d.dec
    hits = 0
    for i in range(dec.n_cubes):
        x = dec.centers[i].reshape(1, -1)
        earlier = [k for k in dec.neighbors[i] if k < i]
        if all(pou_1d.psi(k, x)[0] == 0.0 for k in earlier):
            assert pou_1d.phi(i, x)[0] == 1.0
            hits += 1
    assert hits >= 1


def test_pou_phi_in_unit_interval(pou_1d):
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, size=2000).reshape(-1, 1)
    for i in range(0, pou_1d.dec.n_cubes, 6):
        v = pou_1d.phi(i, xs)
        assert np.all(v >= -1e-15) and np.all(v <= 1.0 + 1e-12)


def test_pou_derivative_bound_replay(pou_1d):
    rng = np.random.default_rng(5)
    dec = pou_1d.dec
    checked = 0
    for i in range(0, dec.n_cubes, 9):
        half = dec.expanded_halfwidth(i)
        xs = (dec.centers[i][0]
              + rng.uniform(-half, half, 200)).reshape(-1, 1)
        tables = pou_1d.phi_derivs(i, xs, up_to=4)
        for beta, vals in tables.items():
            bound = pou_1d.phi_bound(i, beta)
            assert np.max(np.abs(vals)) <= bound * (1.0 + 1e-9)
            checked += 1
    assert checked >= 10


def test_pou_derivs_match_finite_differences(pou_1d):
    dec = pou_1d.dec
    i = dec.n_cubes // 2
    half = dec.expanded_halfwidth(i)
    rng = np.random.default_rng(6)
    xs = (dec.centers[i][0] + rng.uniform(-half, half, 300)).reshape(-1, 1)
    r = pou_1d.bumps[i][0].radii
    h = math.sqrt(6e-7 * r[2] * r[3])
    tab = pou_1d.phi_derivs(i, xs, up_to=2)
    fd = (pou_1d.phi(i, xs + h) - pou_1d.phi(i, xs - h)) / (2.0 * h)
    scale = pou_1d.phi_bound(i, (1,))
    assert np.max(np.abs(tab[(1,)] - fd)) < 1e-6 * scale


def test_pou_growth_factor_tracks_conjugate_decay(pou_1d):
    # G(d) recorded per cube stays below exp(sigma*(c d)) for a grid c
    from ultrajet.fncore import omega_conjugate, power
    sigma = power(0.5, normalized=False)
    dec = pou_1d.dec
    small = [i for i in range(dec.n_cubes) if dec.cube_dist[i] < 0.25]
    C = 2.0 / (pou_1d.delta * np.min(dec.sides))
    gs = {i: pou_1d.growth_factor(i, C) for i in small}
    ok_for_some_c = False
    for c in (2.0 ** -k for k in range(0, 24)):
        if all(g <= math.exp(omega_conjugate(sigma, c * float(dec.diam(i))))
               for i, g in gs.items()):
            ok_for_some_c = True
            break
    assert ok_for_some_c


def test_pou_smoothness_degree_exceeds_order_cap(pou_1d):
    assert pou_1d.J == pou_1d.order_cap + 4
    assert pou_1d.J >= pou_1d.order_cap + 1


def test_pou_halving_counter(dec_1d, seq):
    cap = max_delta(seq, 8)
    pou = build_pou(dec_1d, seq, delta=10.0 * cap, order_cap=4)
    assert pou.halvings >= 4
    assert pou.delta <= cap


def test_pou_2d_sum_and_supports(seq):
    cs = CompactSet(np.array([[0.0, 0.0]]), ((-1.0, 1.0), (-1.0, 1.0)))
    dec = decompose(((-1.0, 1.0), (-1.0, 1.0)), cs, depth_cap=5)
    pou = build_pou(dec, seq, order_cap=2)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, size=(4000, 2))
    mask = pou.covered(xs)
    s = pou.sum_phi(xs[mask])
    assert np.max(np.abs(s - 1.0)) < 1e-11
    # mixed derivative bound replay
    i = dec.n_cubes // 2
    half = dec.expanded_halfwidth(i)
    pts = dec.centers[i] + rng.uniform(-half, half, size=(200, 2))
    tab = pou.phi_derivs(i, pts, up_to=2)
    assert np.max(np.abs(tab[(1, 1)])) <= pou.phi_bound(i, (1, 1)) * (1 + 1e-9)


def test_psi_derivatives_vanish_just_outside_expanded_cube(seq):
    # the partition multiplies only the factors of a point's incident cubes;
    # that is exact because every psi_k derivative is exactly 0 off Q_k*
    box = ((-3.0, 3.0), (-3.0, 3.0))
    cs = CompactSet(np.array([[0.0, 0.0], [1.0, 1.0]]), box)
    dec = decompose(box, cs, depth_cap=5)
    pou = build_pou(dec, seq, order_cap=4)
    rng = np.random.default_rng(8)
    half = dec.sides * (EXPANSION / 2.0)
    owner = np.repeat(np.arange(dec.n_cubes), 64)
    x = dec.centers[owner] + half[owner, None] * rng.uniform(-1.0, 1.0, (len(owner), 2))
    axis = rng.integers(0, 2, len(owner))
    sign = rng.choice((-1.0, 1.0), len(owner))
    rows = np.arange(len(owner))
    c = dec.centers[owner, axis]
    edge = c + sign * half[owner]
    inside = np.ones(len(edge), dtype=bool)
    while np.any(inside):  # step past the boundary by as few floats as possible
        edge[inside] = np.nextafter(edge[inside], sign[inside] * np.inf)
        inside = np.abs(edge - c) <= half[owner]
    x[rows, axis] = edge
    assert not np.any(np.all(np.abs(x - dec.centers[owner]) <= half[owner, None], axis=1))
    tables = _tensor_bump_derivs(pou.canonical, x, dec.centers, dec.sides / 2.0,
                                 owner, pou.order_cap)
    values = np.concatenate(list(tables.values()))
    assert np.all(values == 0.0)
    assert values.size > 100_000
