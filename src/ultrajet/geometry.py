"""Dyadic cube covers of the complement of a finite compact set.

A cubical box around the set in R^d is subdivided by a 2^d-ary tree (each
node cube splits into its 2^d children of half the side): a node cube is
accepted once its diameter is at most its distance to the set, split
otherwise, and truncated at a depth cap.  Accepted cubes satisfy
``diam Q <= d(Q, E) <= 4 diam Q``; the unaccepted depth-cap cubes form the
*collar*, the thin uncovered shell around the set whose width halves with
every extra level.

Construction is breadth-first and single-threaded, so the cube order (which
downstream fixes the partition-of-unity product order) is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DepthExhausted, InvariantViolation
from .jets import CompactSet

EXPANSION = 9.0 / 8.0  # expanded cube Q* has the same center, 9/8 the side
MAX_GRID_POINTS = 160_000
INCIDENCE_BLOCK = 1 << 14


def box_grid(box, per_axis: int) -> np.ndarray:
    """Tensor grid of ``per_axis`` equispaced samples per coordinate of the
    box, one row per point, coordinate 0 varying fastest.  The per-axis
    count is lowered so that the grid holds at most MAX_GRID_POINTS points."""
    dim = len(box)
    per_axis = min(per_axis, int(MAX_GRID_POINTS ** (1.0 / dim) + 1e-9))
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes[::-1], indexing="ij")
    return np.column_stack([m.ravel() for m in mesh[::-1]])


def nearest(x, cset: CompactSet) -> np.ndarray:
    """Euclidean-nearest point of the set; ties resolve to the
    lexicographically smallest coordinates."""
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = np.sum((cset.points - x) ** 2, axis=1)
    best = d2.min()
    ties = np.where(d2 <= best)[0]
    order = np.lexsort(cset.points[ties].T[::-1])
    return cset.points[ties[order[0]]].copy()


def _cube_distance(center: np.ndarray, side: float, pts: np.ndarray) -> float:
    """Distance from the closed cube to the nearest set point (exact for
    finite sets: clamp each point into the cube)."""
    lo = center - side / 2.0
    hi = center + side / 2.0
    clamped = np.clip(pts, lo, hi)
    return float(np.sqrt(np.sum((pts - clamped) ** 2, axis=1).min()))


@dataclass(frozen=True)
class CubeDecomposition:
    """Accepted cubes (breadth-first creation order) plus the collar."""

    dim: int
    box: tuple
    depth_cap: int
    centers: np.ndarray        # (N, dim)
    sides: np.ndarray          # (N,)
    nearest_points: np.ndarray  # (N, dim), nearest set point to each center
    center_dist: np.ndarray    # (N,), d(x_i, E)
    cube_dist: np.ndarray      # (N,), d(Q_i, E)
    neighbors: tuple           # per cube: indices j != i with Q_i* meeting Q_j*
    collar_centers: np.ndarray
    collar_sides: np.ndarray
    collar_radius: float
    cset: CompactSet = field(repr=False, default=None)

    @property
    def n_cubes(self) -> int:
        return len(self.sides)

    def diam(self, i=None) -> np.ndarray:
        s = self.sides if i is None else self.sides[i]
        return s * np.sqrt(self.dim)

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
        return max((len(n) for n in self.neighbors), default=0)

    def neighbor_diam_ratios(self) -> tuple[float, float]:
        """Realized (b1, B1): extreme diameter ratios among neighbor pairs."""
        lo, hi = np.inf, 0.0
        for i, nbrs in enumerate(self.neighbors):
            if len(nbrs) == 0:
                continue
            r = self.sides[nbrs] / self.sides[i]
            lo = min(lo, float(r.min()))
            hi = max(hi, float(r.max()))
        if not np.isfinite(lo):
            lo = 1.0
        return lo, max(hi, 1.0)


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
    root_side = float(sides0[0])
    sqrt_n = float(np.sqrt(dim))

    acc_centers, acc_sides, col_centers, col_sides = [], [], [], []
    queue = deque([(root_center, root_side, 0)])
    offsets = list(product((-0.25, 0.25), repeat=dim))
    while queue:
        center, side, depth = queue.popleft()
        d_cube = _cube_distance(center, side, pts)
        diam = side * sqrt_n
        if d_cube >= diam:
            if d_cube > 4.0 * diam + 1e-12 * diam:
                raise InvariantViolation(
                    f"cube at {center} ({side=}) too far from the set: "
                    f"{d_cube} > 4 * {diam}")
            acc_centers.append(center)
            acc_sides.append(side)
        elif depth >= depth_cap:
            col_centers.append(center)
            col_sides.append(side)
        else:
            for off in offsets:
                queue.append((center + side * np.asarray(off), side / 2.0,
                              depth + 1))

    centers = np.asarray(acc_centers).reshape(-1, dim)
    sides = np.asarray(acc_sides, dtype=float)
    n = len(sides)
    near_pts = np.array([nearest(c, cset) for c in centers]).reshape(n, dim)
    center_dist = np.sqrt(np.sum((centers - near_pts) ** 2, axis=1))
    cube_dist = np.array([_cube_distance(centers[i], sides[i], pts)
                          for i in range(n)])

    half = sides * (EXPANSION / 2.0)
    neighbors = []
    for i in range(n):
        gap = np.abs(centers - centers[i]) - (half + half[i])[:, None]
        meet = np.all(gap <= 1e-12 * max(root_side, 1.0), axis=1)
        meet[i] = False
        neighbors.append(np.where(meet)[0])

    col_centers = np.asarray(col_centers).reshape(-1, dim)
    col_sides = np.asarray(col_sides, dtype=float)
    if len(col_sides):
        col_d = np.array([_cube_distance(col_centers[i], col_sides[i], pts)
                          for i in range(len(col_sides))])
        collar_radius = float(np.max(col_d + col_sides * sqrt_n))
    else:
        collar_radius = 0.0
    if min_feature_scale is not None and collar_radius > min_feature_scale:
        raise DepthExhausted(
            f"collar radius {collar_radius:g} exceeds the minimum feature "
            f"scale {min_feature_scale:g} at depth {depth_cap}")

    return CubeDecomposition(dim=dim, box=box, depth_cap=depth_cap,
                             centers=centers, sides=sides,
                             nearest_points=near_pts, center_dist=center_dist,
                             cube_dist=cube_dist, neighbors=tuple(neighbors),
                             collar_centers=col_centers, collar_sides=col_sides,
                             collar_radius=collar_radius, cset=cset)


def cube_diagnostics(dec: CubeDecomposition, samples_per_cube: int = 16,
                     seed: int = 0) -> dict:
    """Sample the expanded cubes and verify the center/point comparison
    inequalities; returns the worst realized ratios.

    For x in Q_i*: d(x,E)/2 <= d(x_i,E) <= 3 d(x,E);
    diam Q_i / 3 <= d(x,E) <= 9 diam Q_i;
    |xhat_i - x| <= 2 d(x_i,E); |xhat_i - xhat| <= 4 d(x_i,E).
    """
    rng = np.random.default_rng(seed)
    pts = dec.cset.points
    worst = {"center_over_point": 0.0, "point_over_center": 0.0,
             "point_over_diam": 0.0, "diam_over_point": 0.0,
             "anchor_travel": 0.0, "anchor_spread": 0.0}
    for i in range(dec.n_cubes):
        half = dec.expanded_halfwidth(i)
        xs = dec.centers[i] + rng.uniform(-half, half,
                                          size=(samples_per_cube, dec.dim))
        d_i = dec.center_dist[i]
        diam = float(dec.diam(i))
        xhat_i = dec.nearest_points[i]
        for x in xs:
            d_x = float(np.sqrt(np.sum((pts - x) ** 2, axis=1).min()))
            xhat = nearest(x, dec.cset)
            checks = [
                ("center_over_point", d_i / max(d_x, 1e-300), 3.0),
                ("point_over_center", d_x / max(d_i, 1e-300), 2.0),
                ("point_over_diam", d_x / diam, 9.0),
                ("diam_over_point", diam / max(d_x, 1e-300), 3.0),
                ("anchor_travel",
                 float(np.linalg.norm(xhat_i - x)) / max(d_i, 1e-300), 2.0),
                ("anchor_spread",
                 float(np.linalg.norm(xhat_i - xhat)) / max(d_i, 1e-300), 4.0),
            ]
            for name, ratio, bound in checks:
                worst[name] = max(worst[name], ratio)
                if ratio > bound * (1.0 + 1e-9):
                    raise InvariantViolation(
                        f"{name} = {ratio:g} > {bound} at cube {i}, x={x}")
    worst["max_overlap"] = dec.max_overlap()
    b1, B1 = dec.neighbor_diam_ratios()
    worst["b1"], worst["B1"] = b1, B1
    worst["samples_per_cube"] = samples_per_cube
    return worst
