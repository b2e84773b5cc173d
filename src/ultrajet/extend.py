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

from dataclasses import dataclass
from itertools import product
from math import factorial

import numpy as np

from .conditions import ChainCertificate, check_almost_increasing
from .errors import BoundOverflow, IncompatibleGeometry, OrderCapExceeded, RangeExhausted
from .fncore import WeightMatrix
from .geometry import (
    EXPANSION,
    CubeDecomposition,
    box_grid,
    nearest_index,
)
from .jets import (
    Ultrajet,
    _leibniz_fold,
    _leibniz_terms,
    _taylor_plan,
    _taylor_sums,
    multi_indices,
)
from .pou import PartitionOfUnity
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
HALVING_TS = np.geomspace(0.02, 50.0, 40)  # the t grid of the halving constant


@dataclass(frozen=True)
class DegreeSchedule:
    """Per-cube Taylor degrees with their generating parameters."""

    dec: CubeDecomposition
    degrees: np.ndarray       # (n_cubes,) int
    capped: np.ndarray        # (n_cubes,) bool
    L: float
    mode: str                 # "matrix" or "single"
    s_prime: SequenceView


def _halving_constant(view: SequenceView):
    """Smallest grid D with 2 gamma_bar(D t) <= gamma_under(t) at every t of
    HALVING_TS (the single-sequence collapse of the degree chain)."""
    gu, ex_u = gamma_under_soft(view, HALVING_TS)
    if np.any(ex_u):
        raise RangeExhausted("quotient crossing out of range on the t grid")
    D = 2.0 ** np.arange(30)  # one row of D t per candidate, in one query
    gb, ex_b = gamma_bar_soft(view, D[:, None] * HALVING_TS)
    ok = ~np.any(ex_b, axis=1) & np.all(2 * gb <= gu, axis=1)
    if not np.any(ok):
        raise RangeExhausted("no halving constant on the geometric grid")
    return float(D[np.argmax(ok)])


def schedule(dec: CubeDecomposition, source, L: float, A_max: int) -> DegreeSchedule:
    """Degree schedule p_i = min(2 * gamma_bar_{s'}(L d(x_i, E)), A_max),
    A_max the stored order of the jet to extend; a cube whose degree is
    lowered to A_max, or whose truncation index is out of range, is capped.

    ``source`` is either a (matrix, chain certificate) pair -- the scheduling
    sequence is then the factorial-stripped row at the chain's middle
    parameter -- or a single weight sequence of moderate growth passing the
    almost-increase check and with a halving constant, which collapses the
    chain onto itself.
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
        s_prime, mode = source.view("m"), "single"
        _halving_constant(s_prime)  # raises RangeExhausted when there is none
    else:
        matrix, chain = source
        if not isinstance(matrix, WeightMatrix) or not isinstance(chain, ChainCertificate):
            raise TypeError("matrix mode needs (WeightMatrix, ChainCertificate)")
        s_prime, mode = matrix.row(chain.y2).view("m"), "matrix"
    gb, exhausted = gamma_bar_soft(s_prime, L * dec.center_dist)
    degrees = 2 * gb.astype(int)
    return DegreeSchedule(dec=dec, degrees=np.minimum(degrees, A_max),
                          capped=exhausted | (degrees > A_max), L=float(L),
                          mode=mode, s_prime=s_prime)


@dataclass(frozen=True)
class ExtensionField:
    """Evaluable extension with exact derivatives up to the partition cap."""

    jet: Ultrajet
    pou: PartitionOfUnity
    sched: DegreeSchedule

    def derivative_grid(self, x, alpha) -> np.ndarray:
        """d^alpha f on an array of points: :meth:`derivative_grids` for
        the one order."""
        alpha = tuple(alpha)
        return self.derivative_grids(x, [alpha])[alpha]

    def derivative_grids(self, x, alphas) -> dict:
        """d^alpha f on an array of points for every alpha of ``alphas``;
        exact Leibniz combination of partition and Taylor-field
        derivatives.  Values within ON_SET of a set point are the stored jet
        values; every other point, the collar around the set included,
        evaluates through the same sum."""
        return self._grids(x, alphas)[0]

    @np.errstate(over="ignore", invalid="ignore")
    def _grids(self, x, alphas) -> tuple:
        """:meth:`derivative_grids` and the incident (point, cube) pairs.  The
        partition tables, the nearest set points and the Taylor sums of each
        beta are taken once for all the orders.  d^alpha of sum_i phi_i T_i
        adds the Leibniz terms in beta order, then each point's pairs in
        ascending cube order.  A value that overflows raises BoundOverflow
        instead of a warning."""
        alphas = [tuple(a) for a in alphas]
        top = max((sum(a) for a in alphas), default=0)
        pts = np.asarray(x, dtype=float).reshape(-1, self.pou.dec.dim)
        point, cube, tables = self.pou.pair_derivs(pts, top)
        taylor, out = {}, {}
        for alpha in alphas:
            acc = np.zeros(len(point))
            for beta, gamma, coef in _leibniz_terms(alpha):
                if beta not in taylor:
                    taylor[beta] = self._pair_taylor(pts, point, cube, beta)
                rows, t = taylor[beta]
                acc[rows] += coef * tables[gamma][rows] * t
            # bincount adds in pair order, so each point's cubes ascend; it
            # counts in ints when there is no pair
            sums = np.bincount(point, weights=acc, minlength=len(pts))
            out[alpha] = sums.astype(float, copy=False)
        near, dist = nearest_index(pts, self.jet.cset)
        on_set = dist < ON_SET
        if np.any(on_set):
            for alpha, values in out.items():
                values[on_set] = self.jet.values[near[on_set], self.jet.rank(alpha)]
        if not all(np.isfinite(values).all() for values in out.values()):
            raise BoundOverflow("sampled derivative values are not all finite")
        return out, point, cube

    def _pair_taylor(self, pts, point, cube, beta) -> tuple:
        """d^beta T_cube at pts[point], for the (point, cube) pairs whose
        degree p_cube is at least |beta|: those pairs and their sums, one
        :func:`_taylor_sums` call at the degree p_cube - |beta| of each pair."""
        q_of = self.sched.degrees[cube] - sum(beta)
        rows = np.flatnonzero(q_of >= 0)
        anchor = self.pou.dec.nearest_idx[cube[rows]]
        dx = pts[point[rows]] - self.jet.cset.points[anchor]
        return rows, _taylor_sums(self.jet.values, anchor, dx, (beta,), q_of[rows, None])[:, 0]

    def value(self, x) -> np.ndarray:
        return self.derivative_grid(x, (0,) * self.jet.cset.dim)


def extend(jet: Ultrajet, pou: PartitionOfUnity, sched: DegreeSchedule) -> ExtensionField:
    """Assemble the extension field.

    Requires a certified jet (the schedule's L should be at least the guard
    multiple of the certificate rho), a partition built on the schedule's
    decomposition of the jet's set, and scheduled degrees of at most the
    jet's stored order (else OrderCapExceeded).
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
    if np.any(sched.degrees > jet.A_max):
        raise OrderCapExceeded(f"scheduled degree {int(sched.degrees.max())} exceeds "
                               f"stored order {jet.A_max}")
    return ExtensionField(jet=jet, pou=pou, sched=sched)


def default_L(jet: Ultrajet, guard: float = DEFAULT_GUARD) -> float:
    if jet.certificate is None:
        raise ValueError("jet must carry a growth certificate")
    return guard * max(1.0, jet.certificate.rho)


def _taylor_sup_bounds(field: ExtensionField, multis) -> dict:
    """Upper bounds for |d^beta T_i| over every expanded cube Q_i*, one
    entry per cube (0 where |beta| > p_i): triangle inequality on the
    Taylor coefficients at the cube's anchor point, with the exact maximal
    anchor-to-corner distance.  The (cube, beta) rows of one Taylor degree
    share one stacked plan; sums of absolute terms are no Taylor sums of the
    jet, so each row's is taken here, the BLAS dot a 1-D ``@`` takes."""
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
        ranks, _, inv_fact, order = _taylor_plan(dec.dim, tuple(multis), q)
        coef = np.abs(jet.values[dec.nearest_idx[i, None], ranks[b]]) * inv_fact
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
    return {m: overlap * float(np.fmax.reduce(per_cube[m], initial=0.0)) for m in multis}


# -- verification -------------------------------------------------------------------

def _approach_points(cset, scales, box) -> tuple:
    """The approach table of every scale d of ``scales``, from one
    nearest-point pass: the scale index, the point and the index of the
    nearest set point of each kept step, in scale order.  A scale d steps
    from every set point along every axis by -d, then by +d.  A step
    that leaves the box or rounds onto the set (or so close to it that the
    field reads the stored jet there) is dropped: its residual would be 0
    by construction.  So is a step nearer to another set point, up to 1e-12
    times the largest of d, 1 and its coordinates."""
    start = np.repeat(cset.points, 2 * cset.dim, axis=0)  # the steps of one scale
    rows = np.arange(len(scales) * len(start))
    scale_of, pts = rows // len(start), start[rows % len(start)]
    d = np.asarray(scales, dtype=float)[scale_of]
    pts[rows, rows // 2 % cset.dim] += np.where(rows % 2, d, -d)
    lo, hi = np.array(box, dtype=float).T
    near, dist = nearest_index(pts, cset)
    keep = np.all((lo <= pts) & (pts <= hi), axis=1) & (dist >= ON_SET) & (
        np.abs(dist - d) < 1e-12 * np.maximum(np.maximum(d, 1.0), np.abs(pts).max(axis=1)))
    return scale_of[keep], pts[keep], near[keep]


def _taylor_bounds(field: ExtensionField, target_seq: WeightSequence,
                   d, pts, anchors) -> dict:
    """Realized constants of the two Taylor-field bounds at the approach
    points ``pts``, each with its scale ``d`` and nearest set point: the
    degree p = 2 gamma_bar(L d), and every alpha with |alpha| <= min(p, 4),
    from one :func:`_taylor_sums` call at the degree p - |alpha| of each
    (point, alpha).  Each constant is the largest ratio; NaN never counts."""
    jet, L = field.jet, field.sched.L
    s_all = np.exp(target_seq.logM[: jet.A_max + 2])
    field_C = increment_C = 0.0
    gb, _ = gamma_bar_soft(field.sched.s_prime, L * d)
    degrees = np.minimum(2 * gb, jet.A_max)
    alphas = multi_indices(jet.cset.dim, min(int(degrees.max(initial=0)), 4))
    q = degrees[:, None] - np.array([sum(alpha) for alpha in alphas])
    sums = _taylor_sums(jet.values, anchors, pts - jet.cset.points[anchors], tuple(alphas), q)
    for alpha, t_val, q_alpha in zip(alphas, sums.T, q.T):
        tot = sum(alpha)
        denom = (2.0 * L) ** (tot + 1) * s_all[tot]
        field_C = np.fmax.reduce(np.abs(t_val) / denom, initial=field_C)
        k = q_alpha > 0  # |alpha| < p
        if k.any():
            diff = np.abs(t_val[k] - jet.values[anchors[k], jet.rank(alpha)])
            small_s = np.exp(target_seq.log_m[tot + 1])
            denom2 = (2.0 * L) ** (tot + 1) * factorial(tot) * small_s * d[k]
            increment_C = np.fmax.reduce(diff / denom2, initial=increment_C)
    return {"field_bound_C": float(field_C), "increment_bound_C": float(increment_C)}


def verify(field: ExtensionField, target_seq: WeightSequence, orders,
           approach_scales, growth_orders: int | None = None,
           grid_points: int = 800) -> dict:
    """Verification report: residuals, fit, growth certificate, Taylor bounds.

    One evaluation pass covers the approach table of every scale, then the
    growth grid.  Each row of it depends on that point alone, so a scale
    reads its own rows: its residual, and whether any cube it meets had its
    degree capped.  The fit takes every K = 2^i, i in FIT_K_POWERS, in one
    envelope query, and keeps the first K with the least finite C'."""
    jet = field.jet
    dec = field.pou.dec
    cset = jet.cset
    scales = np.asarray(approach_scales, dtype=float)
    scale_of, pts, anchors = _approach_points(cset, scales, dec.box)
    kept, starts, counts = np.unique(scale_of, return_index=True, return_counts=True)

    alphas = [tuple(a) if isinstance(a, (tuple, list)) else (int(a),) for a in orders]
    for alpha in alphas:
        if len(alpha) != cset.dim:
            raise ValueError(f"order {alpha} does not match dimension {cset.dim}")
    g_ord = growth_orders if growth_orders is not None else max(map(sum, alphas))
    growth_multis = multi_indices(dec.dim, g_ord)
    grid = box_grid(dec.box, int(round(grid_points ** (1.0 / dec.dim))))
    n = len(pts)
    verified = alphas if n else []
    vals, point, cube = field._grids(np.concatenate([pts, grid]),
                                     list(dict.fromkeys(verified + growth_multis)))
    capped = np.isin(kept, scale_of[point[(point < n) & field.sched.capped[cube]]])
    residuals = []
    for alpha in verified:
        err = np.abs(vals[alpha][:n] - jet.values[anchors, jet.rank(alpha)])
        for d, r, cap, m in zip(scales[kept].tolist(), np.maximum.reduceat(err, starts).tolist(),
                                capped.tolist(), counts.tolist()):
            residuals.append({"alpha": list(alpha), "d": d, "residual": r,
                              "capped": cap, "n_points": m})

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
    sups = {m: float(np.max(np.abs(vals[m][n:]))) for m in growth_multis}
    bounds = derivative_bounds(field, g_ord)
    if not np.isfinite(list(bounds.values())).all():
        raise BoundOverflow(f"certified sup bounds {list(bounds.values())} are not all finite")
    W = np.exp(target_seq.logM[: g_ord + 1])
    M1 = max(1.0, max((bounds[m] / W[sum(m)]) ** (1.0 / (sum(m) + 1.0))
                      for m in bounds))
    C_growth = max(bounds[m] / (M1 ** (sum(m) + 1) * W[sum(m)]) for m in bounds)
    growth = {"M1": M1, "C": float(C_growth), "row": target_seq.label,
              "grid_sups": {str(list(m)): v for m, v in sups.items()},
              "certified_bounds": {str(list(m)): v for m, v in bounds.items()},
              "grid_points": len(grid)}
    return {"residuals": residuals, "fit": fit, "growth": growth,
            "taylor_bounds": _taylor_bounds(field, target_seq, scales[scale_of], pts, anchors)}
