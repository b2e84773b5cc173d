"""Dyadic cube covers of the complement of a finite compact set.

A cubical box around the set in R^d is subdivided by a 2^d-ary tree (each
node cube splits into its 2^d children of half the side): a node cube is
accepted once its diameter is at most its distance to the set, split
otherwise, and truncated at a depth cap.  Accepted cubes satisfy
``diam Q <= d(Q, E) <= 4 diam Q``; the unaccepted depth-cap cubes form the
*collar*, the thin uncovered shell around the set whose width halves with
every extra level.

Construction runs level by level, one array pass per dyadic level, in the
breadth-first order of the tree (children of a split cube in a fixed offset
order), so the cube order (which downstream fixes the partition-of-unity
product order) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DepthExhausted, InvariantViolation
from .jets import CompactSet, _norms, blocks

EXPANSION = 9.0 / 8.0  # expanded cube Q* has the same center, 9/8 the side
MAX_GRID_POINTS = 160_000


def box_grid(box, per_axis: int) -> np.ndarray:
    """Tensor grid of ``per_axis`` equispaced samples per coordinate of the
    box, one row per point, coordinate 0 varying fastest.  The per-axis
    count is lowered so that the grid holds at most MAX_GRID_POINTS points."""
    dim = len(box)
    per_axis = min(per_axis, int(MAX_GRID_POINTS ** (1.0 / dim) + 1e-9))
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes[::-1], indexing="ij")
    return np.column_stack([m.ravel() for m in mesh[::-1]])


def nearest_index(x, cset: CompactSet, half: float = 0.0) -> tuple:
    """Index of the Euclidean-nearest set point of each row of x, and the
    distance to it: the root of the least sum over the coordinates of
    (p - c)^2, c the point p clamped into the closed cube of half-side
    ``half`` about the row (the row itself when ``half`` is 0).  Ties go to
    the lexicographically smallest point.  Blocks of rows meet every point.

    A row whose least square is subnormal or 0 and whose nearest difference
    is not 0 ranks its points again on the differences divided by 2^k, the
    power of two at its smallest nonzero max-norm difference, and takes 2^k
    times the root of that same sum.  The division is exact, so squares that
    underflow neither tie nor vanish, and a set scaled by a power of two
    gets the scaled distances and the same ranks."""
    x = np.asarray(x, dtype=float).reshape(-1, cset.dim)
    # points in lexicographic order, so that argmin's first minimum breaks ties
    lex = cset.lex_order
    pts = cset.points[lex]
    idx, dist = np.empty(len(x), dtype=np.intp), np.empty(len(x))
    for rows in blocks(len(x), len(pts)):
        c = x[rows, None, :]
        v = pts - np.clip(pts, c - half, c + half) if half else pts - c
        d2 = np.sum(v ** 2, axis=2)
        k = np.argmin(d2, axis=1)
        least = d2[np.arange(len(k)), k]
        dist[rows] = np.sqrt(least)
        low = np.flatnonzero(least < np.finfo(float).tiny)
        low = low[v[low, k[low]].any(axis=1)]  # an exact hit keeps its rank
        if len(low):
            w = v[low]
            size = np.abs(w).max(axis=2)
            s = np.ldexp(1.0, np.frexp(np.where(size > 0.0, size, np.inf).min(axis=1))[1] - 1)
            with np.errstate(over="ignore"):  # far points scale to inf
                d2 = np.sum((w / s[:, None, None]) ** 2, axis=2)
            k[low] = np.argmin(d2, axis=1)
            dist[rows.start + low] = s * np.sqrt(d2[np.arange(len(low)), k[low]])
        idx[rows] = lex[k]
    return idx, dist


@dataclass(frozen=True)
class CubeDecomposition:
    """Accepted cubes (breadth-first creation order) plus the collar."""

    dim: int
    box: tuple
    depth_cap: int
    centers: np.ndarray        # (N, dim)
    sides: np.ndarray          # (N,)
    nearest_idx: np.ndarray    # (N,), its index in the set
    center_dist: np.ndarray    # (N,), d(x_i, E)
    cube_dist: np.ndarray      # (N,), d(Q_i, E)
    neighbor_pairs: tuple      # (i, j) arrays, j != i with Q_i* meeting Q_j*, by i, then j
    collar_centers: np.ndarray
    collar_sides: np.ndarray
    collar_radius: float
    cset: CompactSet = field(repr=False, default=None)

    # (N, dim), the nearest set point to each center
    nearest_points = cached_property(lambda self: self.cset.points[self.nearest_idx])
    # per cube i, the j of its pairs (i, j), split from neighbor_pairs at the first read
    neighbors = cached_property(lambda self: tuple(np.split(self.neighbor_pairs[1], np.cumsum(
        np.bincount(self.neighbor_pairs[0], minlength=self.n_cubes)))[:-1]))

    @property
    def n_cubes(self) -> int:
        return len(self.sides)

    def diam(self) -> np.ndarray:
        return self.sides * np.sqrt(self.dim)

    def expanded_halfwidth(self, i) -> float:
        return float(self.sides[i]) * EXPANSION / 2.0

    def incidence(self, x, expansion: float = EXPANSION) -> tuple:
        """The (point, cube) pairs with x[point] in cube grown ``expansion``
        times about its center, sorted by point, then cube.  Blocks of
        points meet every cube, one axis at a time and at most
        INCIDENCE_BLOCK comparisons per block, so memory is linear in x."""
        pts = np.asarray(x, dtype=float).reshape(-1, self.dim)
        half = self.sides * (expansion / 2.0)
        pairs = [np.zeros((2, 0), dtype=np.intp)]
        for rows in blocks(len(pts), self.n_cubes):
            inside = True
            for d, c in enumerate(self.centers.T):
                inside = inside & (np.abs(pts[rows, d, None] - c) <= half)
            point, cube = np.nonzero(inside)
            pairs.append(np.stack([rows.start + point, cube]))
        return tuple(np.concatenate(pairs, axis=1))

    def cubes_containing(self, x) -> np.ndarray:
        """Indices of accepted cubes whose expanded cube contains x."""
        return self.incidence(x)[1]

    def max_overlap(self) -> int:
        return int(np.bincount(self.neighbor_pairs[0]).max(initial=0))

    def neighbor_diam_ratios(self) -> tuple[float, float]:
        """Realized (b1, B1): extreme diameter ratios among neighbor pairs."""
        cube, nbr = self.neighbor_pairs
        if not len(cube):
            return 1.0, 1.0
        r = self.sides[nbr] / self.sides[cube]
        return float(r.min()), max(float(r.max()), 1.0)


def decompose(box, cset: CompactSet, depth_cap: int,
              min_feature_scale: float | None = None) -> CubeDecomposition:
    """Whitney-type dyadic decomposition of box minus the set.

    Raises DepthExhausted when the truncation collar ends up wider than the
    caller's minimum feature scale.
    """
    dim = cset.dim
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != dim:
        raise ValueError("box dimension does not match the set")
    sides0 = [hi - lo for lo, hi in box]
    if any(s <= 0 for s in sides0):
        raise ValueError("box must have positive side length")
    if max(sides0) - min(sides0) > 1e-12 * max(sides0):
        raise ValueError("box must be a cube (equal side lengths)")
    for d in range(dim):
        if np.any(cset.points[:, d] < box[d][0]) or np.any(cset.points[:, d] > box[d][1]):
            raise ValueError("set must lie inside the box")
    if depth_cap < 1:
        raise ValueError("depth_cap must be at least 1")

    root_center = np.array([(lo + hi) / 2.0 for lo, hi in box])
    side = float(sides0[0])
    sqrt_n = float(np.sqrt(dim))
    offsets = np.array(list(product((-0.25, 0.25), repeat=dim)))

    # one pass per level: the levels in order and the children of each
    # split cube in offset order are the breadth-first order of the tree
    acc_centers, acc_sides, acc_dist = [], [], []
    level = root_center[None, :]
    for depth in range(depth_cap + 1):
        d_cube = nearest_index(level, cset, side / 2.0)[1]
        diam = side * sqrt_n
        accept = d_cube >= diam
        far = accept & (d_cube > 4.0 * diam + 1e-12 * diam)
        if far.any():
            k = int(np.argmax(far))
            raise InvariantViolation(
                f"cube at {level[k]} ({side=}) too far from the set: "
                f"{float(d_cube[k])} > 4 * {diam}")
        acc_centers.append(level[accept])
        acc_sides.append(np.full(np.count_nonzero(accept), side))
        acc_dist.append(d_cube[accept])
        if depth == depth_cap:
            col_centers, col_dist = level[~accept], d_cube[~accept]
            break
        level = (level[~accept][:, None, :] + side * offsets).reshape(-1, dim)
        side = side / 2.0

    centers = np.concatenate(acc_centers)
    sides = np.concatenate(acc_sides)
    cube_dist = np.concatenate(acc_dist)
    n = len(sides)
    near_idx, center_dist = nearest_index(centers, cset)

    # neighbors: a gap test of every pair, blocks of cubes against all cubes
    half = sides * (EXPANSION / 2.0)
    tol = 1e-12 * float(sides0[0])
    pairs = [np.zeros((2, 0), dtype=np.intp)]
    for rows in blocks(n, n):
        meet = True
        for c in centers.T:
            meet = meet & (np.abs(c - c[rows, None]) - (half + half[rows, None]) <= tol)
        own = np.arange(rows.stop - rows.start)
        meet[own, rows.start + own] = False
        i, j = np.nonzero(meet)
        pairs.append(np.stack([rows.start + i, j]))

    col_sides = np.full(len(col_dist), side)
    collar_radius = float(np.max(col_dist + col_sides * sqrt_n, initial=0.0))
    if min_feature_scale is not None and collar_radius > min_feature_scale:
        raise DepthExhausted(
            f"collar radius {collar_radius:g} exceeds the minimum feature "
            f"scale {min_feature_scale:g} at depth {depth_cap}")

    return CubeDecomposition(dim=dim, box=box, depth_cap=depth_cap,
                             centers=centers, sides=sides,
                             nearest_idx=near_idx, center_dist=center_dist, cube_dist=cube_dist,
                             neighbor_pairs=tuple(np.concatenate(pairs, axis=1)),
                             collar_centers=col_centers, collar_sides=col_sides,
                             collar_radius=collar_radius, cset=cset)


def cube_diagnostics(dec: CubeDecomposition, samples_per_cube: int, seed: int) -> dict:
    """Sample the expanded cubes and verify the center/point comparison
    inequalities; returns the worst realized ratios.

    For x in Q_i*: d(x,E)/2 <= d(x_i,E) <= 3 d(x,E);
    diam Q_i / 3 <= d(x,E) <= 9 diam Q_i;
    |xhat_i - x| <= 2 d(x_i,E); |xhat_i - xhat| <= 4 d(x_i,E).

    The samples of all cubes are one draw, cube by cube as from one stream,
    and meet the set in one :func:`nearest_index` call.  A violation names
    the first bad (cube, sample, check).
    """
    rng = np.random.default_rng(seed)
    half = (dec.sides * EXPANSION / 2.0)[:, None, None]
    xs = dec.centers[:, None, :] + rng.uniform(
        -half, half, size=(dec.n_cubes, samples_per_cube, dec.dim))
    near, d_x = (a.reshape(xs.shape[:2]) for a in nearest_index(xs, dec.cset))
    anchor = dec.nearest_points[:, None, :]
    d_i = dec.center_dist[:, None]
    d_i_floor, d_x_floor = np.maximum(d_i, 1e-300), np.maximum(d_x, 1e-300)
    diam = dec.diam()[:, None]
    ratios = np.stack([d_i / d_x_floor, d_x / d_i_floor, d_x / diam, diam / d_x_floor,
                       _norms(anchor - xs) / d_i_floor,
                       _norms(anchor - dec.cset.points[near]) / d_i_floor], axis=-1)
    names = ("center_over_point", "point_over_center", "point_over_diam",
             "diam_over_point", "anchor_travel", "anchor_spread")
    bounds = (3.0, 2.0, 9.0, 3.0, 2.0, 4.0)
    bad = ratios > np.array(bounds) * (1.0 + 1e-9)
    if bad.any():
        i, k, c = np.unravel_index(np.argmax(bad), bad.shape)
        raise InvariantViolation(
            f"{names[c]} = {ratios[i, k, c]:g} > {bounds[c]} at cube {i}, x={xs[i, k]}")
    worst = {name: float(np.fmax.reduce(column, axis=None, initial=0.0))
             for name, column in zip(names, np.moveaxis(ratios, -1, 0))}
    worst["max_overlap"] = dec.max_overlap()
    b1, B1 = dec.neighbor_diam_ratios()
    worst["b1"], worst["B1"] = b1, B1
    worst["samples_per_cube"] = samples_per_cube
    return worst
