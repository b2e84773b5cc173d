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
from .jets import INCIDENCE_BLOCK, CompactSet, _norms

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


def nearest_index(x, cset: CompactSet) -> tuple:
    """Index of the Euclidean-nearest set point of each row of x, and the
    distance to it (the root of the least sum of (p - x)^2 over the
    coordinates); ties go to the lexicographically smallest point.  Blocks
    of rows meet every point, at most INCIDENCE_BLOCK pairs per block."""
    x = np.asarray(x, dtype=float).reshape(-1, cset.dim)
    # points in lexicographic order, so that argmin's first minimum breaks ties
    lex = np.lexsort(cset.points.T[::-1])
    pts = cset.points[lex]
    idx, dist = np.empty(len(x), dtype=np.intp), np.empty(len(x))
    step = max(1, INCIDENCE_BLOCK // len(pts))
    for lo in range(0, len(x), step):
        d2 = np.sum((pts - x[lo:lo + step, None, :]) ** 2, axis=2)
        k = np.argmin(d2, axis=1)
        idx[lo:lo + step] = lex[k]
        dist[lo:lo + step] = np.sqrt(d2[np.arange(len(k)), k])
    return idx, dist


def _cube_distances(centers: np.ndarray, side: float, pts: np.ndarray) -> np.ndarray:
    """Distance from each closed cube of the given side to the nearest set
    point (exact for finite sets: clamp each point into the cube), in
    blocks of at most INCIDENCE_BLOCK (cube, point) pairs."""
    out = np.empty(len(centers))
    step = max(1, INCIDENCE_BLOCK // len(pts))
    for lo in range(0, len(centers), step):
        c = centers[lo:lo + step, None, :]
        clamped = np.clip(pts, c - side / 2.0, c + side / 2.0)
        out[lo:lo + step] = np.sqrt(np.sum((pts - clamped) ** 2, axis=2).min(axis=1))
    return out


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
        step = max(1, INCIDENCE_BLOCK // max(1, self.n_cubes))
        pairs = [np.zeros((2, 0), dtype=np.intp)]
        for lo in range(0, len(pts), step):
            inside = True
            for d, c in enumerate(self.centers.T):
                inside = inside & (np.abs(pts[lo:lo + step, d, None] - c) <= half)
            point, cube = np.nonzero(inside)
            pairs.append(np.stack([lo + point, cube]))
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
    pts = cset.points
    for d in range(dim):
        if np.any(pts[:, d] < box[d][0]) or np.any(pts[:, d] > box[d][1]):
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
        d_cube = _cube_distances(level, side, pts)
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
    tol = 1e-12 * max(float(sides0[0]), 1.0)
    step = max(1, INCIDENCE_BLOCK // max(1, n))
    pairs = [np.zeros((2, 0), dtype=np.intp)]
    for lo in range(0, n, step):
        meet = True
        for c in centers.T:
            gap = np.abs(c - c[lo:lo + step, None]) - (half + half[lo:lo + step, None])
            meet = meet & (gap <= tol)
        rows = np.arange(meet.shape[0])
        meet[rows, lo + rows] = False
        i, j = np.nonzero(meet)
        pairs.append(np.stack([lo + i, j]))

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


def cube_diagnostics(dec: CubeDecomposition, samples_per_cube: int = 16,
                     seed: int = 0) -> dict:
    """Sample the expanded cubes and verify the center/point comparison
    inequalities; returns the worst realized ratios.

    For x in Q_i*: d(x,E)/2 <= d(x_i,E) <= 3 d(x,E);
    diam Q_i / 3 <= d(x,E) <= 9 diam Q_i;
    |xhat_i - x| <= 2 d(x_i,E); |xhat_i - xhat| <= 4 d(x_i,E).

    The samples of all cubes are one draw, cube by cube as from one stream;
    they meet the set in blocks of cubes of at most INCIDENCE_BLOCK
    (sample, point) pairs.  A violation names the first bad (cube, sample,
    check).
    """
    rng = np.random.default_rng(seed)
    pts = dec.cset.points
    half = (dec.sides * EXPANSION / 2.0)[:, None, None]
    xs = dec.centers[:, None, :] + rng.uniform(
        -half, half, size=(dec.n_cubes, samples_per_cube, dec.dim))
    d_i = dec.center_dist[:, None]
    diam = dec.diam()[:, None]
    d_i_floor = np.maximum(d_i, 1e-300)
    names = ("center_over_point", "point_over_center", "point_over_diam",
             "diam_over_point", "anchor_travel", "anchor_spread")
    bounds = (3.0, 2.0, 9.0, 3.0, 2.0, 4.0)
    limits = np.array(bounds) * (1.0 + 1e-9)
    worst = dict.fromkeys(names, 0.0)
    step = max(1, INCIDENCE_BLOCK // max(1, samples_per_cube * len(pts)))
    for lo in range(0, dec.n_cubes, step):
        block = slice(lo, lo + step)
        x = xs[block]
        near, d_x = (a.reshape(x.shape[:2]) for a in nearest_index(x, dec.cset))
        travel = _norms(dec.nearest_points[block, None, :] - x)
        spread = _norms(dec.nearest_points[block, None, :] - pts[near])
        d_x_floor = np.maximum(d_x, 1e-300)
        ratios = np.stack([d_i[block] / d_x_floor, d_x / d_i_floor[block],
                           d_x / diam[block], diam[block] / d_x_floor,
                           travel / d_i_floor[block], spread / d_i_floor[block]], axis=-1)
        bad = ratios > limits
        if bad.any():
            b, k, c = np.unravel_index(np.argmax(bad), bad.shape)
            raise InvariantViolation(
                f"{names[c]} = {ratios[b, k, c]:g} > {bounds[c]} at cube "
                f"{lo + b}, x={x[b, k]}")
        for name, column in zip(names, np.moveaxis(ratios, -1, 0)):
            worst[name] = float(np.fmax.reduce(column, axis=None, initial=worst[name]))
    worst["max_overlap"] = dec.max_overlap()
    b1, B1 = dec.neighbor_diam_ratios()
    worst["b1"], worst["B1"] = b1, B1
    worst["samples_per_cube"] = samples_per_cube
    return worst
