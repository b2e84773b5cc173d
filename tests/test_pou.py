import math

import numpy as np
import pytest

from ultrajet.errors import OrderCapExceeded, QuasianalyticInput, StageOverflow
from ultrajet.geometry import EXPANSION, decompose
from ultrajet.jets import CompactSet
from hypothesis import given, settings, strategies as st

import ultrajet.pou as pou_module
from ultrajet.pou import (
    Bump1D,
    CanonicalBump,
    _tensor_bump_derivs,
    build_pou,
    max_delta,
)
from ultrajet.seqcore import gevrey, quotient_power

from test_kernel_oracles import cap_bump, plateau_and_support


@pytest.fixture(scope="module")
def seq():
    return gevrey(1.0)


def unit_bump(seq, J, r=1.0):
    """The bump of half-width r centered at 0, radii at the budget cap."""
    return Bump1D(cap_bump(seq, J), 0.0, r)


def phi_tables(pou, i, x, up_to):
    """The derivative tables of phi_i, |m| <= up_to, at the rows of x (0 off
    Q_i*), read from the pair tables."""
    point, cube, tables = pou.pair_derivs(x, up_to)
    hit = cube == i
    out = {m: np.zeros(len(x)) for m in tables}
    for m, v in tables.items():
        out[m][point[hit]] = v[hit]
    return out


@pytest.fixture(scope="module")
def bump(seq):
    return unit_bump(seq, 8)


@pytest.fixture(scope="module")
def dec_1d():
    cs = CompactSet(np.array([[0.0]]), ((-1.0, 1.0),))
    return decompose(((-1.0, 1.0),), cs, depth_cap=9)


@pytest.fixture(scope="module")
def pou_1d(dec_1d, seq):
    return build_pou(dec_1d, seq, order_cap=4)


# -- single bumps -----------------------------------------------------------------

def test_trapezoid_single_stage(seq):
    b = unit_bump(seq, 1)
    assert b.eval(0.0, 0) == 1.0
    assert b.eval(2.0, 0) == 0.0
    assert b.eval(-1.5, 0) == 0.0
    # realized ramp slope is 1/(2 r_1), inside the certified bound 1/r_1
    r1 = b.canonical.radii[0] * b.r
    x = 9.0 / 8.0 - r1  # middle of the ramp
    h = r1 / 64.0
    slope = (b.eval(x - h, 0) - b.eval(x + h, 0)) / (2.0 * h)
    assert math.isclose(slope, 1.0 / (2.0 * r1), rel_tol=1e-9)
    assert slope <= b.bound(1)


def test_bump_plateau_and_support_exact(bump):
    assert bump.eval(0.0) == 1.0
    assert bump.eval(1.0) == 1.0
    assert bump.eval(-1.0) == 1.0
    plateau, support = plateau_and_support(bump.canonical)
    assert plateau * bump.r >= 1.0
    for x in (9.0 / 8.0, 1.2, -3.0):
        assert bump.eval(x) == 0.0
    assert support * bump.r <= 9.0 / 8.0 + 1e-15


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
    r = bump.canonical.radii * bump.r
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
    plateau, support = plateau_and_support(can)
    assert can.eval(np.array([0.0, plateau * 0.999]), 0).tolist() == [1.0, 1.0]
    assert can.eval(np.array([support * 1.0001, -2.0]), 0).tolist() == [0.0, 0.0]
    for j in range(1, can.J):
        assert np.max(np.abs(can.eval(xs, j))) <= can.bound(j) * (1 + 1e-12)


def test_bump_scaling_is_exact_dilation(seq):
    big = unit_bump(seq, 6)
    small = unit_bump(seq, 6, r=0.125)
    xs = np.linspace(-1.2, 1.2, 501)
    for j in (0, 1, 3):
        a = big.eval(xs, j)
        b = small.eval(0.125 * xs, j) * 0.125 ** j
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_bump_order_cap(bump):
    with pytest.raises(OrderCapExceeded):
        bump.eval(0.0, bump.canonical.J)


def test_stage_overflow_and_quasianalytic(seq, dec_1d):
    cap = max_delta(seq, 8)
    with pytest.raises(StageOverflow):
        CanonicalBump(4.0 * cap * np.exp(-seq.log_mu[1:9]))
    # bound(j), j < J, the product of the first j of 1/r: these radii
    # overflow at the last order only, and one radius fewer does not
    tiny = [0.03, 1e-160, 1e-160, 1e-160]
    with np.errstate(over="ignore"):
        per_order = [np.prod(1.0 / np.array(tiny[:j])) for j in range(len(tiny))]
    assert np.isfinite(per_order[:-1]).all() and not np.isfinite(per_order[-1])
    with pytest.raises(StageOverflow):
        CanonicalBump(tiny)
    assert [CanonicalBump(tiny[:-1]).bound(j) for j in range(3)] == per_order[:-1]
    with pytest.raises(QuasianalyticInput):
        build_pou(dec_1d, quotient_power(1.0), order_cap=0)


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
        assert np.all(pou_1d.bumps[i][0].eval(xs) == 1.0)


def test_pou_phi_is_one_without_earlier_overlap(pou_1d):
    dec = pou_1d.dec
    hits = 0
    for i in range(dec.n_cubes):
        x = dec.centers[i].reshape(1, -1)
        earlier = [k for k in dec.neighbors[i] if k < i]
        if all(pou_1d.bumps[k][0].eval(x[:, 0])[0] == 0.0 for k in earlier):
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
        tables = phi_tables(pou_1d, i, xs, up_to=4)
        for beta, vals in tables.items():
            bound = pou_1d.phi_bounds(sum(beta))[beta][i]
            assert np.max(np.abs(vals)) <= bound * (1.0 + 1e-9)
            checked += 1
    assert checked >= 10


def test_pou_derivs_match_finite_differences(pou_1d):
    dec = pou_1d.dec
    i = dec.n_cubes // 2
    half = dec.expanded_halfwidth(i)
    rng = np.random.default_rng(6)
    xs = (dec.centers[i][0] + rng.uniform(-half, half, 300)).reshape(-1, 1)
    r = pou_1d.canonical.radii * pou_1d.bumps[i][0].r
    h = math.sqrt(6e-7 * r[2] * r[3])
    tab = phi_tables(pou_1d, i, xs, up_to=2)
    fd = (pou_1d.phi(i, xs + h) - pou_1d.phi(i, xs - h)) / (2.0 * h)
    scale = pou_1d.phi_bounds(1)[(1,)][i]
    assert np.max(np.abs(tab[(1,)] - fd)) < 1e-6 * scale


def test_pou_growth_factor_tracks_conjugate_decay(pou_1d, seq):
    # G(d) recorded per cube stays below exp(sigma*(c d)) for a grid c
    from ultrajet.fncore import omega_conjugate_grid, power
    sigma = power(0.5, normalized=False)
    dec = pou_1d.dec
    small = [i for i in range(dec.n_cubes) if dec.cube_dist[i] < 0.25]
    C = 2.0 / (pou_1d.delta * np.min(dec.sides))
    # G_i: the smallest G with (bound for d^beta phi_i) <= C^{|beta|+1} M_{|beta|} G
    M = np.exp(seq.logM[: pou_1d.order_cap + 1])
    bounds = pou_1d.phi_bounds(pou_1d.order_cap)
    gs = {i: max(float(b[i]) / (C ** (sum(m) + 1) * M[sum(m)]) for m, b in bounds.items())
          for i in small}
    ok_for_some_c = False
    for c in (2.0 ** -k for k in range(0, 24)):
        if all(g <= math.exp(omega_conjugate_grid(sigma, c * float(dec.diam()[i])))
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


@pytest.mark.parametrize("dim", [1, 2])
def test_partition_builds_no_bump1d_until_bumps_is_read(seq, monkeypatch, dim):
    built = []

    def spy(*args, **kwargs):
        built.append(Bump1D(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pou_module, "Bump1D", spy)
    box = ((-1.0, 1.0),) * dim
    dec = decompose(box, CompactSet(np.zeros((1, dim)), box), depth_cap=4)
    pou = build_pou(dec, seq, order_cap=2)
    assert len(pou.pair_derivs(np.full((3, dim), 0.5), 2)[0]) > 0
    pou.phi_bounds(2)
    assert built == []
    # the eager tuple build_pou used to make: per cube, per axis (center, r)
    want = tuple(tuple((float(c), float(s) / 2.0) for c in center)
                 for center, s in zip(dec.centers, dec.sides))
    got = tuple(tuple((b.center, b.r) for b in axes) for axes in pou.bumps)
    assert got == want and len(built) == dec.n_cubes * dim
    assert all(b.canonical is pou.canonical for b in built)
    assert pou.bumps is pou.bumps  # built once


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
    tab = phi_tables(pou, i, pts, up_to=2)
    assert np.max(np.abs(tab[(1, 1)])) <= pou.phi_bounds(2)[(1, 1)][i] * (1 + 1e-9)


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
