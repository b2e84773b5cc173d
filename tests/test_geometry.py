import itertools
import math

import numpy as np
import pytest

from ultrajet.errors import DepthExhausted
from ultrajet.geometry import (
    EXPANSION,
    box_grid,
    cube_diagnostics,
    decompose,
    nearest_index,
)
from ultrajet.jets import INCIDENCE_BLOCK, CompactSet


@pytest.fixture(scope="module")
def dec_origin_1d():
    cs = CompactSet(np.array([[0.0]]), ((-1.0, 1.0),))
    return decompose(((-1.0, 1.0),), cs, depth_cap=12)


@pytest.fixture(scope="module")
def dec_origin_2d():
    cs = CompactSet(np.array([[0.0, 0.0]]), ((-1.0, 1.0), (-1.0, 1.0)))
    return decompose(((-1.0, 1.0), (-1.0, 1.0)), cs, depth_cap=8)


def test_nearest_tie_break():
    cs = CompactSet.from_points([[-1.0], [1.0]])
    assert cs.points[nearest_index([[0.0], [0.5], [1.0]], cs)[0], 0].tolist() == [-1.0, 1.0, 1.0]


def test_nearest_index_ranks_points_whose_squared_distances_underflow():
    # every square of a difference underflows to 0: the lexicographic tie
    # rule alone would give the point -1e-300 at distance 0 to both queries
    cs = CompactSet(np.array([[-1e-300], [1e-300]]), ((-1.0, 1.0),))
    idx, dist = nearest_index([[5e-301], [1e-300], [-5e-301]], cs)
    assert idx.tolist() == [1, 1, 0]
    assert dist.tolist() == [5e-301, 0.0, 5e-301]
    # in 2D the nearest point is not the one of least max-norm difference;
    # the far point's scaled square overflows to inf
    pair = CompactSet(np.array([[2e-300, 2e-300], [2.5e-300, 0.0], [1.0, 1.0]]),
                      ((-1.0, 1.0),) * 2)
    idx, dist = nearest_index([[0.0, 0.0]], pair)
    assert idx.tolist() == [1] and dist.tolist() == [2.5e-300]


def test_nearest_matches_linear_scan():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(7, 2))
    cs = CompactSet.from_points(pts)
    xs = rng.uniform(-3, 3, size=(50, 2))
    for x, got in zip(xs, cs.points[nearest_index(xs, cs)[0]]):
        dists = np.linalg.norm(pts - x, axis=1)
        assert math.isclose(float(np.linalg.norm(got - x)), float(dists.min()),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_1d_cubes_are_dyadic_with_correct_ratios(dec_origin_1d):
    dec = dec_origin_1d
    ratio = dec.cube_dist / dec.diam()
    assert np.all(ratio >= 1.0 - 1e-12)
    assert np.all(ratio <= 4.0 + 1e-12)
    # the interval [1/4, 1/2] is an accepted cube with d = diam = 1/4
    idx = np.where(np.isclose(dec.centers[:, 0], 0.375)
                   & np.isclose(dec.sides, 0.25))[0]
    assert len(idx) == 1
    assert math.isclose(dec.cube_dist[idx[0]], 0.25, rel_tol=1e-15)


def test_1d_symmetric_set_gives_symmetric_decomposition():
    cs = CompactSet(np.array([[-1.0], [1.0]]), ((-2.0, 2.0),))
    dec = decompose(((-2.0, 2.0),), cs, depth_cap=10)
    key = sorted(zip(dec.centers[:, 0], dec.sides))
    mirrored = sorted(zip(-dec.centers[:, 0], dec.sides))
    for (c1, s1), (c2, s2) in zip(key, mirrored):
        assert math.isclose(c1, c2, abs_tol=1e-15)
        assert s1 == s2


def test_interiors_disjoint_and_union_covers(dec_origin_1d):
    dec = dec_origin_1d
    # disjoint interiors: sort intervals and compare endpoints
    lo = dec.centers[:, 0] - dec.sides / 2.0
    hi = dec.centers[:, 0] + dec.sides / 2.0
    order = np.argsort(lo)
    assert np.all(lo[order][1:] >= hi[order][:-1] - 1e-15)
    # random points are covered by a cube, the collar, or the set
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1, 1, size=400):
        in_cube = np.any((x >= lo - 1e-15) & (x <= hi + 1e-15))
        clo = dec.collar_centers[:, 0] - dec.collar_sides / 2.0
        chi = dec.collar_centers[:, 0] + dec.collar_sides / 2.0
        in_collar = np.any((x >= clo - 1e-15) & (x <= chi + 1e-15))
        assert in_cube or in_collar or abs(x) < 1e-12


def test_overlap_bound_1d(dec_origin_1d):
    assert dec_origin_1d.max_overlap() <= 12 ** 2
    assert dec_origin_1d.max_overlap() <= 6  # empirical for a point set


def test_overlap_bound_2d(dec_origin_2d):
    assert dec_origin_2d.max_overlap() <= 12 ** 4
    assert dec_origin_2d.max_overlap() <= 20  # empirically small


def test_neighbor_diameter_ratios(dec_origin_2d):
    b1, B1 = dec_origin_2d.neighbor_diam_ratios()
    assert 0 < b1 <= 1.0 <= B1
    assert b1 >= 1.0 / 8.0 and B1 <= 8.0


def test_collar_shrinks_with_depth():
    cs = CompactSet(np.array([[0.0]]), ((-1.0, 1.0),))
    radii = [decompose(((-1.0, 1.0),), cs, depth_cap=d).collar_radius
             for d in (4, 6, 8, 10)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert radii[-1] < radii[0] / 16.0


@pytest.mark.parametrize("dim, depth_cap", [(1, 8), (2, 6), (3, 4)])
def test_cover_scales_by_powers_of_two(dim, depth_cap):
    # the cover is defined by distances to the set alone, so the set scaled
    # by 2^e has the cover scaled by 2^e, bit for bit: at 2^-40 the box is
    # narrower than an absolute gap tolerance of 1e-12, and at 2^-600 every
    # square of a difference underflows
    pts = np.array([[0.0] * dim, [0.5, 0.25, -0.5][:dim]])
    box = ((-3.0, 3.0),) * dim
    want = decompose(box, CompactSet(pts, box), depth_cap)
    for e in (-40, -600):
        scaled = ((np.ldexp(-3.0, e), np.ldexp(3.0, e)),) * dim
        got = decompose(scaled, CompactSet(np.ldexp(pts, e), scaled), depth_cap)
        assert got.n_cubes == want.n_cubes
        assert np.array_equal(got.nearest_idx, want.nearest_idx)
        assert np.array_equal(got.neighbor_pairs, want.neighbor_pairs)
        for name in ("centers", "sides", "center_dist", "cube_dist", "collar_radius"):
            assert np.array_equal(getattr(got, name), np.ldexp(getattr(want, name), e)), name


def test_depth_exhausted():
    cs = CompactSet(np.array([[0.0]]), ((-1.0, 1.0),))
    with pytest.raises(DepthExhausted):
        decompose(((-1.0, 1.0),), cs, depth_cap=3, min_feature_scale=1e-4)


def test_determinism(dec_origin_2d):
    cs = CompactSet(np.array([[0.0, 0.0]]), ((-1.0, 1.0), (-1.0, 1.0)))
    again = decompose(((-1.0, 1.0), (-1.0, 1.0)), cs, depth_cap=8)
    assert np.array_equal(again.centers, dec_origin_2d.centers)
    assert np.array_equal(again.sides, dec_origin_2d.sides)


def test_diagnostics_1d(dec_origin_1d):
    rep = cube_diagnostics(dec_origin_1d, samples_per_cube=32, seed=1)
    assert rep["center_over_point"] <= 3.0
    assert rep["point_over_center"] <= 2.0
    assert rep["point_over_diam"] <= 9.0
    assert rep["diam_over_point"] <= 3.0
    assert rep["anchor_travel"] <= 2.0
    assert rep["anchor_spread"] <= 4.0


def test_diagnostics_2d_many_samples(dec_origin_2d):
    n = max(1, 10_000 // dec_origin_2d.n_cubes)
    rep = cube_diagnostics(dec_origin_2d, samples_per_cube=n, seed=2)
    assert rep["anchor_spread"] <= 4.0
    assert rep["max_overlap"] <= 12 ** 4


def test_center_at_expanded_cube_has_no_anchor_spread(dec_origin_1d):
    dec = dec_origin_1d
    for i in (0, dec.n_cubes // 2, dec.n_cubes - 1):
        xhat_i = dec.nearest_points[i]
        x = dec.centers[i]
        spread = float(np.linalg.norm(xhat_i - dec.cset.points[nearest_index(x, dec.cset)[0][0]]))
        assert spread <= 4.0 * dec.center_dist[i]
        assert spread == 0.0


def test_box_grid_rows_and_cap():
    x = np.linspace(-1.0, 2.0, 7)
    assert np.array_equal(box_grid(((-1.0, 2.0),), 7), x.reshape(-1, 1))
    xx, yy = np.meshgrid(np.linspace(-1.0, 2.0, 5), np.linspace(0.0, 3.0, 5))
    assert np.array_equal(box_grid(((-1.0, 2.0), (0.0, 3.0)), 5),
                          np.column_stack([xx.ravel(), yy.ravel()]))
    assert box_grid(((0.0, 1.0),) * 2, 400).shape == (160_000, 2)
    grid = box_grid(((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), 400)
    assert grid.shape == (54 ** 3, 3)
    assert np.array_equal(grid[:54, 0], np.linspace(0.0, 1.0, 54))
    assert np.all(grid[:54, 1:] == 0.0)


def _cover_samples(dec, rng, per_cube=6):
    """Random points of each expanded cube plus its corners: the corners lie
    on the boundaries that the incidence test has to decide."""
    half = dec.sides * (EXPANSION / 2.0)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=dec.dim)))
    inner = rng.uniform(-1.0, 1.0, size=(dec.n_cubes, per_cube, dec.dim))
    offsets = np.concatenate([inner, np.broadcast_to(
        corners, (dec.n_cubes,) + corners.shape)], axis=1)
    return (dec.centers[:, None, :] + half[:, None, None] * offsets).reshape(-1, dec.dim)


def test_incident_cubes_are_neighbors():
    pts = np.array([[0.0, 0.0], [0.5, -0.25], [-0.75, 0.6]])
    cs = CompactSet(pts, ((-1.0, 1.0), (-1.0, 1.0)))
    dec = decompose(((-1.0, 1.0), (-1.0, 1.0)), cs, depth_cap=6)
    x = _cover_samples(dec, np.random.default_rng(11))
    point, cube = dec.incidence(x)
    neighbors = [set(n.tolist()) for n in dec.neighbors]
    pairs = 0
    for p in np.unique(point):
        hit = cube[point == p].tolist()
        for a, b in itertools.combinations(hit, 2):
            assert b in neighbors[a] and a in neighbors[b]
            pairs += 1
    assert pairs > 1000


def test_incidence_matches_brute_force_3d():
    cs = CompactSet(np.array([[0.0, 0.0, 0.0], [0.5, 0.25, -0.5]]),
                    ((-1.0, 1.0),) * 3)
    dec = decompose(((-1.0, 1.0),) * 3, cs, depth_cap=3)
    rng = np.random.default_rng(12)
    odd = [[np.nan, 0.0, 0.0], [0.1, np.inf, 0.1], [-np.inf, 0.0, 0.0], [np.nan] * 3]
    x = np.concatenate([_cover_samples(dec, rng, per_cube=2), odd,
                        rng.uniform(-1.0, 1.0, size=(500, 3))])
    assert len(x) > 4 * (INCIDENCE_BLOCK // dec.n_cubes)  # several blocks
    for expansion in (1.0, EXPANSION):
        half = dec.sides * (expansion / 2.0)
        inside = np.all(np.abs(x[:, None, :] - dec.centers[None, :, :])
                        <= half[None, :, None], axis=2)
        want_point, want_cube = np.nonzero(inside)  # row-major: by point, then cube
        point, cube = dec.incidence(x, expansion=expansion)
        assert np.array_equal(point, want_point)
        assert np.array_equal(cube, want_cube)
    assert np.array_equal(dec.cubes_containing(x[0]), cube[point == 0])
