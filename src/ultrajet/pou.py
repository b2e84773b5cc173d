"""Certified bump functions and partitions of unity on cube covers.

A bump is the indicator of a plateau convolved with J uniform densities of
decreasing half-widths r_1 >= ... >= r_J.  That makes it an exact piecewise
polynomial of smoothness C^{J-1}: value 1 on the shrunk plateau, 0 outside
the grown one, values in [0, 1], and

    sup |f^{(j)}| <= B_j := prod_{i<=j} 1/r_i,   j <= J - 1,

because j central differences of the remaining (J-j)-stage convolution (a
function bounded by one) realize the derivative exactly.

Evaluation follows that identity: the j-th derivative is a signed sum of
2^j evaluations of the stored (J-j)-stage convolution at shifted points,
computed from its piecewise-polynomial representation in one evaluation
over the shifted copies stacked together.  Pieces carry local (midpoint)
coordinates and moving averages are accumulated from nonnegative piece
integrals, so no stage suffers catastrophic cancellation; plateau pieces
are snapped to the exact constant 1.  A stage is built in one pass over
all its pieces, the partial integrals at both window edges of every piece
together, degree-major: one row per polynomial degree, one column per edge.

All radii scale with the bump half-width (r_j = delta * r / theta_j for the
quotient sequence theta of the smoothness class), so every bump is a
dilation of one canonical bump per (sequence, delta, J).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

import numpy as np

from .errors import OrderCapExceeded, QuasianalyticInput, StageOverflow
from .geometry import EXPANSION, CubeDecomposition, _box_pairs
from .jets import _leibniz_fold, blocks, multi_indices
from .seqcore import WeightSequence

# radii must fit in half the expansion margin of the half-width so that the plateau
# still covers [-r, r] while the support stays inside [-9r/8, 9r/8]
RADII_BUDGET = (EXPANSION - 1.0) / 2.0
# binomial rows C(k, i), i <= k, for the shifted antiderivatives of the
# stages; a stage of degree k has about 2^k pieces, so the rows cover every
# bump that fits in memory
_BINOMIAL = np.array([[comb(k, i) for i in range(32)] for k in range(32)], dtype=float)
# per degree k: k + 1, and the factor of power k in a piece integral
_POWERS = np.arange(32) + 1
_PIECE_FACTORS = (1.0 - (-1.0) ** _POWERS) / _POWERS


class _PiecewisePoly:
    """Compactly supported piecewise polynomial with local-coordinate
    coefficients, exact zero outside the support, and snapped plateau."""

    __slots__ = ("breaks", "mids", "coeffs", "cumint", "plateau_lo", "plateau_hi")

    def __init__(self, breaks, coeffs, plateau, mids=None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.mids = 0.5 * (self.breaks[:-1] + self.breaks[1:]) if mids is None else mids
        self.coeffs = np.asarray(coeffs, dtype=float)  # (P, deg+1), ascending
        self.plateau_lo, self.plateau_hi = plateau
        # exact piece integrals in local coordinates (odd powers cancel)
        n = self.coeffs.shape[1]
        halfw = ((self.breaks[1:] - self.breaks[:-1]) / 2.0)[:, None]
        terms = self.coeffs * (halfw ** _POWERS[:n]) * _PIECE_FACTORS[:n]
        self.cumint = np.zeros(len(terms) + 1)
        np.add.reduce(terms, axis=1).cumsum(out=self.cumint[1:])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x > self.breaks[0]) & (x < self.breaks[-1])
        flat = (x >= self.plateau_lo) & (x <= self.plateau_hi)
        out[flat] = 1.0
        todo = inside & ~flat
        if np.any(todo):
            xt = x[todo]
            idx = self.piece(xt)
            u = xt - self.mids[idx]
            c = self.coeffs[idx]
            val = np.zeros_like(xt)
            for k in range(c.shape[1] - 1, -1, -1):  # Horner in place
                val *= u
                val += c[:, k]
            out[todo] = val
        return out

    def piece(self, y):
        """Index of the piece holding y (the nearest end piece outside)."""
        idx = self.breaks.searchsorted(y, side="right") - 1
        return np.minimum(np.maximum(idx, 0), len(self.mids) - 1)


def _edge_integrals(g: _PiecewisePoly, y: np.ndarray, q: np.ndarray,
                    n: int) -> np.ndarray:
    """For each window edge y inside g's support, in piece q, the integral
    of g from the left end of the piece to y + u, as ascending coefficients
    in u, one row per degree and one column per edge: the antiderivative
    shifted by gamma = y - mid, with the binomial x power terms accumulated
    in ascending order of its degree, minus its value at the left end."""
    mid = g.mids[q]
    anti = np.zeros((n, len(y)))
    np.divide(g.coeffs[q].T, _POWERS[:n - 1, None], out=anti[1:])
    # gamma^t in row n - 1 - t: the rows from n - 1 - k on are gamma^(k - i), i <= k
    power = np.empty((n, len(y)))
    power[-1] = 1.0
    np.subtract(y, mid, out=power[:-1])
    for t in range(n - 3, -1, -1):
        power[t] *= power[t + 1]  # one product at a time
    shifted = np.zeros((n, len(y)))
    for k in range(1, n):
        shifted[:k + 1] += (anti[k] * _BINOMIAL[k, :k + 1, None]) * power[n - 1 - k:]
    x = g.breaks[q] - mid
    left = anti[-1] + x * 0  # Horner in place, as numpy's polyval
    for k in range(n - 2, -1, -1):
        left *= x
        left += anti[k]
    shifted[0] -= left
    return shifted


def _convolve_uniform(g: _PiecewisePoly, r: float,
                      plateau: tuple[float, float]) -> _PiecewisePoly:
    """Moving average of g over [x - r, x + r], divided by 2r, as an exact
    piecewise polynomial, every piece in one pass.  ``plateau`` is the known
    exact-1 interval of the result, used for snapping."""
    breaks = np.concatenate([g.breaks - r, g.breaks + r])
    breaks.sort()
    if (repeat := breaks[1:] == breaks[:-1]).any():  # keep the first of equal breaks
        breaks = breaks[np.concatenate([[True], ~repeat])]
    lo, hi = breaks[:-1], breaks[1:]
    mids = 0.5 * (lo + hi)
    n = g.coeffs.shape[1] + 1  # result degree = input degree + 1
    coeffs = np.zeros((len(mids), n))
    flat = (plateau[0] <= lo) & (hi <= plateau[1])
    coeffs[flat, 0] = 1.0
    work = np.nonzero(~flat)[0]
    yp, ym = y = mids[work] + np.array([[r], [-r]])  # the upper and lower window edges
    # integral of g over its full pieces left of each window edge: none left
    # of the support, all right of it, and inside it the index of its piece
    full = np.maximum(g.breaks.searchsorted(y, side="right") - 1, 0)  # at most len(g.mids)
    poly = np.zeros((n, len(work)))
    poly[0] = g.cumint[full[0]] - g.cumint[full[1]]
    # plus the partial integrals (polynomials in u) at the upper edges inside
    # g's support, minus those at the lower: both ascend, so each is one run
    # (an edge is below the end when it is at most the float below the end)
    ends = np.array([g.breaks[0], np.nextafter(g.breaks[-1], -np.inf)])
    up, down = (slice(*e.searchsorted(ends, side="right").tolist()) for e in (yp, ym))
    edges = _edge_integrals(g, np.concatenate([yp[up], ym[down]]),
                            np.concatenate([full[0][up], full[1][down]]), n)
    n_up = up.stop - up.start
    poly[:, up] += edges[:, :n_up]
    poly[:, down] -= edges[:, n_up:]
    coeffs[work] = (1.0 / (2.0 * r)) * poly.T
    return _PiecewisePoly(breaks, coeffs, plateau, mids)


class CanonicalBump:
    """Unit-half-width bump: plateau [-1, 1], support [-9/8, 9/8].

    Stores every intermediate convolution stage so derivatives up to J-1
    can be evaluated by the central-difference identity.
    """

    def __init__(self, radii):
        radii = np.asarray(radii, dtype=float)
        if np.any(radii <= 0) or np.any(np.diff(radii) > 1e-15):
            raise ValueError("radii must be positive and non-increasing")
        s = float(np.sum(radii))
        if s > RADII_BUDGET * (1.0 + 1e-12):
            raise StageOverflow(
                f"radii sum {s:g} exceeds the budget {RADII_BUDGET:g}")
        self.radii = radii
        self.J = len(radii)
        with np.errstate(over="ignore"):  # 1/r of a tiny radius
            if not np.isfinite(np.cumprod(1.0 / radii[:-1])).all():  # bound(j), j < J
                raise StageOverflow(f"radius {radii[-1]:g} overflows the derivative bounds")
        self.a = float(np.nextafter(EXPANSION - s, -np.inf))
        suffix = np.concatenate([np.cumsum(radii[::-1])[::-1], [0.0]])
        # stages[m] = indicator convolved with radii m..J (1-based m)
        stage = _PiecewisePoly(np.array([-self.a, self.a]),
                               np.array([[1.0]]), (-self.a, self.a))
        self.stages: list = [None] * (self.J + 2)
        self.stages[self.J + 1] = stage
        for m in range(self.J, 0, -1):
            plateau = (-(self.a - suffix[m - 1]), self.a - suffix[m - 1])
            stage = _convolve_uniform(stage, float(radii[m - 1]), plateau)
            self.stages[m] = stage

    def bound(self, j: int) -> float:
        """Certified sup bound for the j-th derivative."""
        return float(np.prod(1.0 / self.radii[:j])) if j else 1.0

    def eval(self, u, j: int = 0):
        """j-th derivative at u: signed sum of 2^j evaluations of stage j+1,
        one per sign vector s in {+1, -1}^j (lexicographic, + first) at
        u + s . radii[:j].  The stage is evaluated once on the shifted copies
        of u stacked together (in blocks of at most INCIDENCE_BLOCK points),
        and the signed copies are added in sign-vector order."""
        if j > self.J - 1:
            raise OrderCapExceeded(f"derivative {j} exceeds smoothness C^{self.J - 1}")
        u = np.asarray(u, dtype=float)
        stage = self.stages[j + 1]
        if j == 0:
            return np.clip(stage(u), 0.0, 1.0)
        # sign vector t is -1 where bit j-1-d of t is set
        signs = 1.0 - 2.0 * ((np.arange(2 ** j)[:, None] >> np.arange(j - 1, -1, -1)) & 1)
        # each shift is one dot of a sign vector with the radii, as np.dot takes it
        shifts = np.matmul(signs[:, None, :], self.radii[:j, None])[:, 0, 0]
        shifts = shifts.reshape((-1,) + (1,) * u.ndim)
        out = np.zeros_like(u)
        for rows in blocks(2 ** j, u.size):
            for sign, copy in zip(np.prod(signs[rows], axis=1), stage(u + shifts[rows])):
                out += sign * copy
        scale = float(np.prod(1.0 / (2.0 * self.radii[:j])))
        return scale * out


@dataclass(frozen=True)
class Bump1D:
    """A dilated and centered canonical bump with half-width r: value 1 on
    [center - r, center + r], support inside [center - 9r/8, center + 9r/8]."""

    canonical: CanonicalBump
    center: float
    r: float

    def bound(self, j: int) -> float:
        return self.canonical.bound(j) / self.r ** j

    def eval(self, x, j: int = 0):
        u = (np.asarray(x, dtype=float) - self.center) / self.r
        return self.canonical.eval(u, j) / self.r ** j


def max_delta(seq: WeightSequence, J: int) -> float:
    """Largest radii scale fitting the budget for this class and degree."""
    if seq.K_max < J:
        raise StageOverflow(f"sequence table too short for {J} stages")
    inv_theta = np.exp(-seq.log_mu[1: J + 1])
    return RADII_BUDGET * (1.0 - 2.0 ** -20) / float(np.sum(inv_theta))


# -- tensor bumps and partition of unity ---------------------------------------

def _tensor_bump_derivs(canonical: CanonicalBump, x, centers, radii, owner,
                        up_to: int) -> dict:
    """Derivative tables, |m| <= up_to, of tensor bumps at the rows of x:
    row n takes the bump prod_d b((x_d - c_d) / r) with center
    centers[owner[n]] and half-width radii[owner[n]].  One canonical
    evaluation per order over the whole (rows, dim) table."""
    radii = np.asarray(radii, dtype=float)
    u = (x - centers[owner]) / radii[owner, None]
    level, of_row = np.unique(radii, return_inverse=True)  # r^j once per side
    tables = [canonical.eval(u, j) / np.array([r ** j for r in level.tolist()])[of_row[owner], None]
              for j in range(up_to + 1)]
    return {m: prod(tables[j][:, d] for d, j in enumerate(m))
            for m in multi_indices(x.shape[1], up_to)}


def _tensor_bump_bounds(canonical: CanonicalBump, r: float, dim: int,
                        up_to: int) -> dict:
    """Certified sup bounds of the derivatives of a tensor bump of
    half-width r, |m| <= up_to."""
    return {m: prod(canonical.bound(j) / r ** j for j in m)
            for m in multi_indices(dim, up_to)}


def _complement(tables: dict) -> dict:
    """Derivative tables of 1 - g from those of g."""
    return {m: (1.0 - v) if sum(m) == 0 else -v for m, v in tables.items()}


def _complement_bounds(bounds: dict) -> dict:
    """Sup bounds of the derivatives of 1 - g for g with values in [0, 1]."""
    return {m: 1.0 if sum(m) == 0 else b for m, b in bounds.items()}


def _fold_earlier(tables: dict, factors: dict, group: np.ndarray, multis) -> dict:
    """Derivative tables of each row's product with the factors of the
    earlier rows of its group (rows sorted by group): a left Leibniz fold,
    one pass per rank in the group.  ``tables`` is folded in place."""
    first = np.searchsorted(group, group)  # each group's first row
    rank = np.arange(len(group)) - first
    for t in range(int(rank.max(initial=0))):
        rows = np.nonzero(rank > t)[0]
        folded = _leibniz_fold({m: tables[m][rows] for m in multis},
                               {m: factors[m][first[rows] + t] for m in multis}, multis)
        for m in multis:
            tables[m][rows] = folded[m]
    return tables


@dataclass(frozen=True)
class PartitionOfUnity:
    """Ordered-product partition subordinate to the expanded cubes.

    psi_i is the tensor bump of cube i (value 1 on Q_i, support in Q_i*);
    phi_i = psi_i * prod_{k < i} (1 - psi_k).  At a point x, psi_k and all
    its derivatives are exactly 0 unless x lies in Q_k*, so the product runs
    over the earlier cubes incident to x, in ascending k, and sum_i phi_i =
    1 - prod_i (1 - psi_i) = 1 on the union of the cubes, up to the
    rounding of the ordered product.
    """

    dec: CubeDecomposition
    canonical: CanonicalBump
    delta: float
    order_cap: int
    halvings: int

    @property
    def J(self) -> int:
        return self.canonical.J

    @cached_property
    def bumps(self) -> tuple:
        """Per cube, per axis, the Bump1D factor of psi_cube."""
        return tuple(tuple(Bump1D(self.canonical, float(c), float(s) / 2.0) for c in center)
                     for center, s in zip(self.dec.centers, self.dec.sides))

    def pair_derivs(self, x, up_to: int) -> tuple:
        """The incidence (point, cube) of x with the expanded cubes, and the
        derivative tables of phi_cube at x[point], |m| <= up_to, one entry
        per pair.  phi is a left fold over each point's earlier pairs."""
        if up_to > self.order_cap:
            raise OrderCapExceeded(f"order {up_to} exceeds the build cap {self.order_cap}")
        dec = self.dec
        pts = np.asarray(x, dtype=float).reshape(-1, dec.dim)
        point, cube = dec.incidence(pts)
        multis = multi_indices(dec.dim, up_to)
        phi = _tensor_bump_derivs(self.canonical, pts[point], dec.centers,
                                  dec.sides / 2.0, cube, up_to)
        return point, cube, _fold_earlier(phi, _complement(phi), point, multis)

    def phi(self, i: int, x) -> np.ndarray:
        """phi_i on the point array (0 off Q_i*)."""
        pts = np.asarray(x, dtype=float).reshape(-1, self.dec.dim)
        point, cube, tables = self.pair_derivs(pts, 0)
        hit = cube == i
        out = np.zeros(len(pts))
        out[point[hit]] = tables[(0,) * self.dec.dim][hit]
        return out

    def phi_bounds(self, up_to: int) -> dict:
        """Certified sup bounds for the beta-derivatives of every phi_i,
        |beta| <= up_to, one entry per cube: a Leibniz fold of the
        per-factor central-difference bounds over the earlier neighbors of
        each cube, in ascending order."""
        if up_to > self.order_cap:
            raise OrderCapExceeded(f"order {up_to} exceeds the build cap {self.order_cap}")
        dec = self.dec
        multis = multi_indices(dec.dim, up_to)
        # one group per cube: its earlier neighbors in ascending order, then itself
        cube, nbr = dec.neighbor_pairs
        group = np.concatenate([cube[nbr < cube], np.arange(dec.n_cubes)])
        member = np.concatenate([nbr[nbr < cube], np.arange(dec.n_cubes)])
        order = np.lexsort((member, group))
        group, member = group[order], member[order]
        # the factor bounds depend on the side alone: one table per level
        sides, level = np.unique(dec.sides, return_inverse=True)
        psi = [_tensor_bump_bounds(self.canonical, float(s) / 2.0, dec.dim, up_to)
               for s in sides]

        def per_row(tables):
            return {m: np.array([t[m] for t in tables])[level[member]] for m in multis}

        folded = _fold_earlier(per_row(psi), per_row([_complement_bounds(t) for t in psi]),
                               group, multis)
        return {m: v[member == group] for m, v in folded.items()}

    def sum_phi(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float).reshape(-1, self.dec.dim)
        point, _, tables = self.pair_derivs(pts, 0)
        # float64 also when no point is in a cube (bincount counts in ints then)
        return np.bincount(point, weights=tables[(0,) * self.dec.dim],
                           minlength=len(pts)).astype(float, copy=False)

    def covered(self, x) -> np.ndarray:
        """Points lying in some (unexpanded) cube, where the sum is one: the
        points, boxes of half-width 0, that meet a cube (half-width side/2)."""
        pts = np.asarray(x, dtype=float).reshape(-1, self.dec.dim)
        point = _box_pairs(pts, 0.0, self.dec.centers, self.dec.sides / 2.0)[0]
        return np.bincount(point, minlength=len(pts)) > 0


def build_pou(dec: CubeDecomposition, seq: WeightSequence,
              delta: float | None = None, order_cap: int = 4) -> PartitionOfUnity:
    """Partition of unity over the decomposition with derivative caps.

    Smoothness degree J = order_cap + 4 so every requested derivative is
    well below the spline degree.  A caller-passed delta that overflows the
    radii budget is halved until it fits; the halving count is recorded.
    Radii delta / mu_k that underflow to 0 raise StageOverflow.
    """
    if not seq.flags["non_quasianalytic"]:
        raise QuasianalyticInput(
            f"{seq.label or 'sequence'}: partition needs summable reciprocals")
    J = order_cap + 4
    cap, halvings = max_delta(seq, J), 0
    delta = cap if delta is None else delta
    while delta > cap:
        delta /= 2.0
        halvings += 1
    radii = delta * np.exp(-seq.log_mu[1: J + 1])
    if not np.all(radii > 0.0):
        raise StageOverflow(f"radii delta / mu_k of {seq.label} underflow to 0 for "
                            f"delta {delta:g}, J={J}")
    return PartitionOfUnity(dec=dec, canonical=CanonicalBump(radii), delta=float(delta),
                            order_cap=order_cap, halvings=halvings)
