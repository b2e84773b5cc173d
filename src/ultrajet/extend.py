"""Degree-scheduled extension of jets off their compact set.

The extension is a locally finite sum over the cube cover,

    f(x) = sum_i phi_i(x) * (Taylor field of degree p_i from the nearest
           set point of cube i, evaluated at x),

with the per-cube degree p_i = 2 * (optimal truncation index of the
scheduling sequence at L * d(x_i, E)), capped at the jet's stored order.
On the set itself f takes the jet's zeroth values.  Derivatives combine the
exact partition derivatives with exact polynomial derivatives through the
Leibniz rule, so evaluation is closed-form everywhere.

The verifier measures (a) jet-matching residuals along approach scales,
fitted against C' * (h_{s'}(K d) + d); (b) a growth certificate
sup |d^alpha f| <= C M1^{|alpha|+1} W_alpha; (c) realized constants for the
two Taylor-field bounds that drive the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import factorial

import numpy as np

from .conditions import ChainCertificate, check_almost_increasing
from .errors import IncompatibleGeometry, RangeExhausted
from .fncore import WeightMatrix
from .geometry import (
    EXPANSION,
    CubeDecomposition,
    box_grid,
    nearest_index,
)
from .jets import (
    INCIDENCE_BLOCK,
    Ultrajet,
    _leibniz_fold,
    _leibniz_terms,
    _taylor_dots,
    _taylor_plan,
    multi_indices,
)
from .pou import (
    CanonicalBump,
    PartitionOfUnity,
    _complement,
    _complement_bounds,
    _tensor_bump_bounds,
    _tensor_bump_derivs,
)
from .seqcore import (
    SequenceView,
    WeightSequence,
    gamma_bar_soft,
    gamma_under_soft,
    log_h_assoc,
)

DEFAULT_GUARD = 64.0
ON_SET = 1e-12                     # distance below which a point is a set point
FIT_K_POWERS = np.arange(-8, 13)   # the residual fit tries K = 2^i


@dataclass(frozen=True)
class DegreeSchedule:
    """Per-cube Taylor degrees with their generating parameters."""

    dec: CubeDecomposition
    degrees: np.ndarray       # (n_cubes,) int
    capped: np.ndarray        # (n_cubes,) bool
    L: float
    mode: str                 # "matrix" or "single"
    s_prime: SequenceView
    chain: ChainCertificate | None = None
    collapse_D: float | None = None  # single mode: 2G(Dt) <= G_under(t) witness


def _halving_constant(view: SequenceView, t_range=(0.02, 50.0), n_t: int = 40):
    """Smallest grid D with 2 gamma_bar(D t) <= gamma_under(t) sampled over
    the range (the single-sequence collapse of the degree chain)."""
    ts = np.geomspace(t_range[0], t_range[1], n_t)
    gu, ex_u = gamma_under_soft(view, ts)
    if np.any(ex_u):
        raise RangeExhausted("quotient crossing out of range on the t grid")
    for i in range(0, 30):
        d = 2.0 ** i
        gb, ex_b = gamma_bar_soft(view, d * ts)
        if not np.any(ex_b) and np.all(2 * gb <= gu):
            return d
    raise RangeExhausted("no halving constant on the geometric grid")


def schedule(dec: CubeDecomposition, source, L: float,
             A_max: int | None = None) -> DegreeSchedule:
    """Degree schedule p_i = 2 * gamma_bar_{s'}(L d(x_i, E)).

    ``source`` is either a (matrix, chain certificate) pair -- the scheduling
    sequence is then the factorial-stripped row at the chain's middle
    parameter -- or a single weight sequence of moderate growth passing the
    almost-increase check, which collapses the chain onto itself.
    """
    if L < 1.0:
        raise ValueError("L must be at least 1")
    if isinstance(source, WeightSequence):
        if not source.flags["moderate_growth"]:
            raise ValueError(f"{source.label}: moderate growth flag required "
                             "for single-sequence scheduling")
        if not check_almost_increasing(source).holds:
            raise ValueError(f"{source.label}: quotient-over-index must be "
                             "almost increasing")
        s_prime = source.view("m")
        mode, chain = "single", None
        collapse = _halving_constant(s_prime)
    else:
        matrix, chain = source
        if not isinstance(matrix, WeightMatrix) or not isinstance(chain, ChainCertificate):
            raise TypeError("matrix mode needs (WeightMatrix, ChainCertificate)")
        s_prime = matrix.row(chain.y2).view("m")
        mode, collapse = "matrix", None
    args = L * dec.center_dist
    gb, exhausted = gamma_bar_soft(s_prime, args)
    degrees = 2 * gb.astype(int)
    capped = np.asarray(exhausted).copy()
    if A_max is not None:
        over = degrees > A_max
        capped |= over
        degrees = np.minimum(degrees, A_max)
    return DegreeSchedule(dec=dec, degrees=degrees, capped=capped, L=float(L),
                          mode=mode, s_prime=s_prime, chain=chain,
                          collapse_D=collapse)


@dataclass(frozen=True, eq=False)
class _UnionBump:
    """Smooth cutoff equal to one near every set point: the complement of
    the product of per-point tensor bump complements of half-width radius."""

    canonical: CanonicalBump
    points: np.ndarray
    radius: float

    def derivs(self, pts: np.ndarray, up_to: int) -> dict:
        n_set = len(self.points)
        psi = _tensor_bump_derivs(self.canonical, np.repeat(pts, n_set, axis=0),
                                  self.points, [self.radius] * n_set,
                                  np.tile(np.arange(n_set), len(pts)), up_to)
        multis = multi_indices(self.points.shape[1], up_to)
        prod = _complement({m: v[0::n_set] for m, v in psi.items()})
        for a in range(1, n_set):
            fac = _complement({m: v[a::n_set] for m, v in psi.items()})
            prod = _leibniz_fold(prod, fac, multis)
        return _complement(prod)

    def bounds(self, up_to: int) -> dict:
        """Certified sup bounds for the derivatives, by the same fold."""
        dim = self.points.shape[1]
        prod = fac = _complement_bounds(
            _tensor_bump_bounds(self.canonical, self.radius, dim, up_to))
        for _ in range(len(self.points) - 1):
            prod = _leibniz_fold(prod, fac, multi_indices(dim, up_to))
        return _complement_bounds(prod)


@dataclass(frozen=True)
class ExtensionField:
    """Evaluable extension with exact derivatives up to the partition cap."""

    jet: Ultrajet
    pou: PartitionOfUnity
    sched: DegreeSchedule
    anchor_idx: np.ndarray = field(repr=False, default=None)
    cutoff: object = field(repr=False, default=None)

    @property
    def L(self) -> float:
        return self.sched.L

    def _nearest(self, pts) -> tuple:
        """Index of and distance to the nearest set point of each row."""
        near = nearest_index(pts, self.jet.cset)
        return near, np.sqrt(((pts - self.jet.cset.points[near]) ** 2).sum(-1))

    def point_flags(self, x) -> dict:
        _, d = self._nearest(np.asarray(x, dtype=float).reshape(-1, self.jet.cset.dim))
        return {"on_set": d < ON_SET,
                "collar": (d >= ON_SET) & (d <= self.pou.dec.collar_radius)}

    def derivative_grid(self, x, alpha) -> np.ndarray:
        """d^alpha f on an array of points: :meth:`derivative_grids` for
        the one order."""
        alpha = tuple(alpha)
        return self.derivative_grids(x, [alpha])[alpha]

    def derivative_grids(self, x, alphas) -> dict:
        """d^alpha f on an array of points for every alpha of ``alphas``;
        exact Leibniz combination of partition and Taylor-field
        derivatives.  Values on the set are the stored jet values; collar
        points evaluate through the same sum and should be read together
        with point_flags."""
        return self._grids(x, alphas)[0]

    def _grids(self, x, alphas) -> tuple:
        """:meth:`derivative_grids` and the incident (point, cube) pairs.  The
        partition tables, the cutoff tables, the nearest set points and the
        Taylor sums of each beta are taken once for all the orders."""
        alphas = [tuple(a) for a in alphas]
        top = max((sum(a) for a in alphas), default=0)
        pts = np.asarray(x, dtype=float).reshape(-1, self.pou.dec.dim)
        point, cube, tables = self.pou.pair_derivs(pts, top)
        taylor = {}

        def cube_sum(alpha):
            """d^alpha of sum_i phi_i T_i over the pairs, without the cutoff
            and the on-set values: the Leibniz terms in beta order, then
            each point's pairs in ascending cube order."""
            acc = np.zeros(len(point))
            for beta, gamma, coef in _leibniz_terms(alpha):
                if beta not in taylor:
                    taylor[beta] = self._pair_taylor(pts, point, cube, beta)
                rows, t = taylor[beta]
                acc[rows] += coef * tables[gamma][rows] * t
            # bincount adds in pair order, so each point's cubes ascend; it
            # counts in ints when there is no pair
            out = np.bincount(point, weights=acc, minlength=len(pts))
            return out.astype(float, copy=False)

        if self.cutoff is None:
            out = {alpha: cube_sum(alpha) for alpha in alphas}
        else:
            cut = self.cutoff.derivs(pts, top)
            sums, out = {}, {}
            for alpha in alphas:
                acc = np.zeros(len(pts))
                for beta, gamma, coef in _leibniz_terms(alpha):
                    if beta not in sums:
                        sums[beta] = cube_sum(beta)
                    acc += coef * cut[gamma] * sums[beta]
                out[alpha] = acc
        near, d = self._nearest(pts)
        on_set = d < ON_SET
        if np.any(on_set):
            for alpha, values in out.items():
                values[on_set] = self.jet.values[near[on_set], self.jet.rank(alpha)]
        return out, point, cube

    def _pair_taylor(self, pts, point, cube, beta) -> tuple:
        """d^beta T_cube at pts[point], for the (point, cube) pairs whose
        degree p_cube is at least |beta|: those pairs and their sums.
        The pairs of one Taylor degree share a plan; each sum is one dot, in
        blocks of at most INCIDENCE_BLOCK (pair x term) entries."""
        jet = self.jet
        q_of = self.sched.degrees[cube] - sum(beta)
        sums = np.empty(len(cube))
        for q in np.unique(q_of[q_of >= 0]).tolist():
            ranks, exponents, inv_fact, _ = _taylor_plan(jet.cset.dim, beta, q)
            group = np.flatnonzero(q_of == q)
            step = max(1, INCIDENCE_BLOCK // len(ranks))
            for lo in range(0, len(group), step):
                g = group[lo:lo + step]
                anchor = self.anchor_idx[cube[g]]
                dx = pts[point[g]] - jet.cset.points[anchor]
                coef = jet.values[anchor[:, None], ranks] * inv_fact
                sums[g] = _taylor_dots(coef, dx, exponents, q)
        rows = np.flatnonzero(q_of >= 0)
        return rows, sums[rows]

    def value(self, x) -> np.ndarray:
        return self.derivative_grid(x, (0,) * self.jet.cset.dim)


def extend(jet: Ultrajet, pou: PartitionOfUnity, sched: DegreeSchedule,
           cutoff_radius: float | None = None) -> ExtensionField:
    """Assemble the extension field.

    Requires a certified jet (the schedule's L should be at least the guard
    multiple of the certificate rho) and a partition built on the schedule's
    decomposition of the jet's set.  ``cutoff_radius`` switches on
    multiplication by a smooth cutoff equal to one on
    {d(x, E) <= cutoff_radius}.
    """
    if pou.dec is not sched.dec:
        raise IncompatibleGeometry("partition and schedule use different covers")
    if jet.certificate is None:
        raise ValueError("jet must carry a growth certificate")
    if sched.L < jet.certificate.rho:
        raise ValueError("L below the certificate rho; raise the guard")
    dec = pou.dec
    if not np.array_equal(jet.cset.points, dec.cset.points):
        raise IncompatibleGeometry("jet and cover are on different sets")
    anchor = dec.nearest_idx.astype(int)
    cut = None
    if cutoff_radius is not None:
        cut = _UnionBump(pou.canonical, jet.cset.points, float(cutoff_radius))
    return ExtensionField(jet=jet, pou=pou, sched=sched, anchor_idx=anchor,
                          cutoff=cut)


def default_L(jet: Ultrajet, guard: float = DEFAULT_GUARD) -> float:
    if jet.certificate is None:
        raise ValueError("jet must carry a growth certificate")
    return guard * max(1.0, jet.certificate.rho)


def _taylor_sup_bounds(field: ExtensionField, multis) -> dict:
    """Upper bounds for |d^beta T_i| over every expanded cube Q_i*, one
    entry per cube (0 where |beta| > p_i): triangle inequality on the
    Taylor coefficients at the cube's anchor point, with the exact maximal
    anchor-to-corner distance.  The (cube, beta) rows of one Taylor degree
    share a plan, and each row's sum is the BLAS dot a 1-D ``@`` takes."""
    jet, dec = field.jet, field.pou.dec
    half = dec.sides * EXPANSION / 2.0
    signs = np.array(list(product((-1.0, 1.0), repeat=dec.dim)))
    corners = (dec.centers[:, None, :] + signs * half[:, None, None]
               - dec.nearest_points[:, None, :])
    r_max = np.sqrt(np.sum(corners * corners, axis=2)).max(axis=1)
    # q[b, i] = p_i - |beta_b|, the Taylor degree of row (cube i, beta_b)
    q_of = field.sched.degrees[None, :] - np.array([sum(b) for b in multis])[:, None]
    out = np.zeros(q_of.shape)
    for q in range(int(q_of.max(initial=-1)) + 1):
        b, i = np.nonzero(q_of == q)
        plans = [_taylor_plan(dec.dim, beta, q) for beta in multis]
        ranks = np.array([plan[0] for plan in plans])[b]
        inv_fact, order = plans[0][2], plans[0][3]
        coef = np.abs(jet.values[field.anchor_idx[i, None], ranks]) * inv_fact
        powers = r_max[i, None] ** order
        out[b, i] = np.matmul(coef[:, None, :], powers[:, :, None])[:, 0, 0]
    return dict(zip(multis, out))


def derivative_bounds(field: ExtensionField, up_to: int) -> dict:
    """Certified sup bounds for |d^alpha f|, |alpha| <= up_to: Leibniz fold
    of the partition bound tables with per-cube Taylor coefficient bounds,
    maximized over cubes (locally finite sum: at most the overlap count of
    cubes contributes at any point)."""
    dec = field.pou.dec
    multis = multi_indices(dec.dim, up_to)
    per_cube = _leibniz_fold(_taylor_sup_bounds(field, multis),
                             field.pou.phi_bounds(up_to), multis)
    overlap = dec.max_overlap() + 1
    out = {m: overlap * float(np.fmax.reduce(per_cube[m], initial=0.0)) for m in multis}
    if field.cutoff is not None:
        out = _leibniz_fold(out, field.cutoff.bounds(up_to), multis)
    return out


# -- verification -------------------------------------------------------------------

def _approach_points(cset, d: float, box) -> np.ndarray:
    """Points at distance exactly d from the set (axis directions), inside
    the box and anchored to their nearest set point: per set point and
    axis, the step -d, then +d.  A step that rounds onto the set (or so
    close to it that the field reads the stored jet there) is dropped: its
    residual would be 0 by construction."""
    pts = np.repeat(cset.points, 2 * cset.dim, axis=0)
    rows = np.arange(len(pts))
    pts[rows, rows // 2 % cset.dim] += np.where(rows % 2, d, -d)
    lo, hi = np.array(box, dtype=float).T
    dist = np.sqrt(np.sum((cset.points - pts[:, None, :]) ** 2, axis=2)).min(axis=1)
    keep = np.all((lo <= pts) & (pts <= hi), axis=1) & (dist >= ON_SET) & (
        np.abs(dist - d) < 1e-12 * max(d, 1.0))
    return pts[keep]


def _taylor_bounds(field: ExtensionField, target_seq: WeightSequence,
                   approach) -> dict:
    """Realized constants of the two Taylor-field bounds at the approach
    points: per scale, the degree p = 2 gamma_bar(L d), and every alpha with
    |alpha| <= min(p, 4).  The points of all scales of one degree share one
    array pass per alpha, one dot per point, each with its own d in the
    increment ratio.  Each constant is the largest ratio; NaN never
    counts."""
    jet, L = field.jet, field.L
    s_all = np.exp(target_seq.logM[: jet.A_max + 2])
    field_C = increment_C = 0.0
    gb, _ = gamma_bar_soft(field.sched.s_prime, L * np.array([a[0] for a in approach]))
    degrees = np.minimum(2 * gb, jet.A_max)
    for p in np.unique(degrees).tolist():
        group = [a for a, q in zip(approach, degrees) if q == p]
        pts, anchors = (np.concatenate([a[k] for a in group]) for k in (1, 2))
        d = np.concatenate([np.full(len(a[1]), a[0]) for a in group])
        dx = pts - jet.cset.points[anchors]
        for alpha in multi_indices(jet.cset.dim, min(p, 4)):
            tot = sum(alpha)
            ranks, exponents, inv_fact, _ = _taylor_plan(jet.cset.dim, alpha, p - tot)
            t_val = _taylor_dots(jet.values[anchors[:, None], ranks] * inv_fact,
                                 dx, exponents, p - tot)
            denom = (2.0 * L) ** (tot + 1) * s_all[tot]
            field_C = np.fmax.reduce(np.abs(t_val) / denom, initial=field_C)
            if tot < p:
                diff = np.abs(t_val - jet.values[anchors, jet.rank(alpha)])
                small_s = np.exp(target_seq.log_m[tot + 1])
                denom2 = (2.0 * L) ** (tot + 1) * factorial(tot) * small_s * d
                increment_C = np.fmax.reduce(diff / denom2, initial=increment_C)
    return {"field_bound_C": float(field_C), "increment_bound_C": float(increment_C)}


def verify(field: ExtensionField, target_seq: WeightSequence, orders,
           approach_scales, growth_orders: int | None = None,
           grid_points: int = 800) -> dict:
    """Verification report: residuals, growth certificate, Taylor bounds.

    One evaluation pass covers the approach points of every scale, in scale
    order, then the growth grid.  Each row of it depends on that point
    alone, so a scale reads its own rows: its residual, and whether any
    cube it meets had its degree capped.  The fit takes every K = 2^i,
    i in FIT_K_POWERS, in one envelope query, and keeps the first K with
    the least finite C'."""
    jet = field.jet
    dec = field.pou.dec
    cset = jet.cset
    approach = []  # per scale with points: (d, points, their nearest set point)
    for d in approach_scales:
        pts = _approach_points(cset, float(d), dec.box)
        if len(pts):
            approach.append((float(d), pts, nearest_index(pts, cset)))

    alphas = [tuple(a) if isinstance(a, (tuple, list)) else (int(a),) for a in orders]
    for alpha in alphas:
        if len(alpha) != cset.dim:
            raise ValueError(f"order {alpha} does not match dimension {cset.dim}")
    g_ord = growth_orders if growth_orders is not None else max(map(sum, alphas))
    growth_multis = multi_indices(dec.dim, g_ord)
    grid = box_grid(dec.box, int(round(grid_points ** (1.0 / dec.dim))))
    edges = np.cumsum([0] + [len(a[1]) for a in approach]).tolist()
    vals, point, cube = field._grids(
        np.concatenate([a[1] for a in approach] + [grid]),
        list(dict.fromkeys((alphas if approach else []) + growth_multis)))
    capped = [bool(np.any(field.sched.capped[cube[(lo <= point) & (point < hi)]]))
              for lo, hi in zip(edges, edges[1:])]
    residuals = []
    for alpha in alphas:
        for (d, pts, anchors), lo, hi, cap in zip(approach, edges, edges[1:], capped):
            ref = jet.values[anchors, jet.rank(alpha)]
            residuals.append({
                "alpha": list(alpha), "d": d,
                "residual": float(np.max(np.abs(vals[alpha][lo:hi] - ref))),
                "capped": cap, "n_points": len(pts)})

    fit = None
    clean = [r for r in residuals if not r["capped"]]
    if clean:
        d = np.array([r["d"] for r in clean])
        res = np.array([r["residual"] for r in clean])
        K = 2.0 ** FIT_K_POWERS
        lh = log_h_assoc(field.sched.s_prime, K[:, None] * d)
        h = np.where(np.isfinite(lh), np.exp(lh), 0.0)
        # per K the largest ratio, NaN skipped; an infinite one rules K out
        needed = np.fmax.reduce(res / (h + d), axis=1, initial=0.0)
        best = int(np.argmin(needed))
        if np.isfinite(needed[best]):
            fit = {"K": float(K[best]), "C_prime": float(needed[best])}

    # growth certificate: certified bounds (grid-free), sampled sups reported
    sups = {m: float(np.max(np.abs(vals[m][edges[-1]:]))) for m in growth_multis}
    bounds = derivative_bounds(field, g_ord)
    W = np.exp(target_seq.logM[: g_ord + 1])
    M1 = max(1.0, max((bounds[m] / W[sum(m)]) ** (1.0 / (sum(m) + 1.0))
                      for m in bounds))
    C_growth = max(bounds[m] / (M1 ** (sum(m) + 1) * W[sum(m)]) for m in bounds)
    growth = {"M1": M1, "C": float(C_growth), "row": target_seq.label,
              "grid_sups": {str(list(m)): v for m, v in sups.items()},
              "certified_bounds": {str(list(m)): v for m, v in bounds.items()},
              "grid_points": len(grid)}
    return {"residuals": residuals, "fit": fit, "growth": growth,
            "taylor_bounds": _taylor_bounds(field, target_seq, approach),
            "jet_certificate_C": jet.certificate.C, "L": field.L, "mode": field.sched.mode,
            "degree_cap_hit": bool(np.any(field.sched.capped))}
