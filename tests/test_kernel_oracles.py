"""The fast kernels against the earlier loops, kept here as reference
implementations: the dimension-generic multi-index kernel of ``jets``
against the hand-unrolled 1D/2D loops, the point-cube incidence with
its pairwise partition fold (``pou``, ``extend``) against the per-cube mask
loops and the per-cube folds over all earlier neighbors, the vectorized
conjugates of ``fncore`` against one bounded scalar minimisation per point,
the array tail sum of ``seqcore`` against its per-decade loop, the
shared row search and log-cap verdict of ``conditions`` against the
per-pair loops of each check, and the array passes of ``jets.certify``,
the bump stages of ``pou`` and ``geometry.cube_diagnostics`` against their
per-term, per-piece and per-sample loops, bit for bit."""

import json
from dataclasses import replace
from math import comb, factorial, isfinite, log
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from ultrajet.conditions import (
    C_CAP,
    LOG_CAP,
    Verdict,
    check_almost_increasing,
    check_concavity_equivalence,
    check_descendant,
    check_good,
    check_quotient_root_domination,
)
from ultrajet.extend import (
    DegreeSchedule,
    ExtensionField,
    _UnionBump,
    _taylor_sup_bound,
    derivative_bounds,
)
from ultrajet.errors import GridExhausted, InvariantViolation, NotLittleO, UltrajetError
from ultrajet.fncore import (
    GRID_HI,
    WeightMatrix,
    gevrey_dual,
    log_power,
    omega_conjugate_grid,
    omega_of_sequence,
    power,
    weight_matrix,
    young_conjugate_grid,
)
from ultrajet.geometry import EXPANSION, cube_diagnostics, decompose, nearest
from ultrajet.jets import (
    CompactSet,
    Sin,
    Tensor,
    Ultrajet,
    _certify_plan,
    _leibniz_fold,
    _leibniz_terms,
    _remainders,
    certify,
    jet_from_preset,
    multi_indices,
    taylor_grid,
)
from ultrajet.pou import RADII_BUDGET, Bump1D, CanonicalBump, _PiecewisePoly, build_pou
from ultrajet.seqcore import _model_tail_sum, descendant, gevrey, quotient_power


# -- reference implementations (1D and 2D only) ----------------------------------

def oracle_taylor_grid(jet, a_index, p, alpha, x):
    a = jet.cset.points[a_index]
    dim = jet.cset.dim
    pts = np.asarray(x, dtype=float).reshape(-1, dim)
    out = np.zeros(len(pts))
    if dim == 1:
        dx = pts[:, 0] - a[0]
        power = np.ones_like(dx)
        for j in range(0, p - alpha[0] + 1):
            out += jet.value(a_index, (alpha[0] + j,)) / factorial(j) * power
            power = power * dx
        return out
    dx = pts[:, 0] - a[0]
    dy = pts[:, 1] - a[1]
    for j1 in range(0, p - sum(alpha) + 1):
        for j2 in range(0, p - sum(alpha) - j1 + 1):
            beta = (alpha[0] + j1, alpha[1] + j2)
            out += (jet.value(a_index, beta) / (factorial(j1) * factorial(j2))
                    * dx ** j1 * dy ** j2)
    return out


def oracle_taylor_sup_bound(field, i, beta):
    jet = field.jet
    dec = field.pou.dec
    p_i = int(field.sched.degrees[i])
    if sum(beta) > p_i:
        return 0.0
    anchor = dec.nearest_points[i]
    half = dec.sides[i] * EXPANSION / 2.0
    corners = np.array(np.meshgrid(*[[-half, half]] * dec.dim)).T.reshape(-1, dec.dim)
    r_max = float(np.max(np.linalg.norm(dec.centers[i] + corners - anchor, axis=1)))
    ai = int(field.anchor_idx[i])
    total = 0.0
    if dec.dim == 1:
        for j in range(0, p_i - beta[0] + 1):
            total += abs(jet.value(ai, (beta[0] + j,))) / factorial(j) * r_max ** j
    else:
        for j1 in range(0, p_i - sum(beta) + 1):
            for j2 in range(0, p_i - sum(beta) - j1 + 1):
                g = (beta[0] + j1, beta[1] + j2)
                total += (abs(jet.value(ai, g))
                          / (factorial(j1) * factorial(j2)) * r_max ** (j1 + j2))
    return total


def oracle_leibniz_fold(left, right, multis):
    out = {}
    for m in multis:
        acc = 0.0
        if len(m) == 1:
            for i in range(m[0] + 1):
                acc = acc + comb(m[0], i) * left[(i,)] * right[(m[0] - i,)]
        else:
            for i in range(m[0] + 1):
                for j in range(m[1] + 1):
                    acc = acc + (comb(m[0], i) * comb(m[1], j)
                                 * left[(i, j)] * right[(m[0] - i, m[1] - j)])
        out[m] = acc
    return out


# -- random jets ---------------------------------------------------------------------

@st.composite
def jet_cases(draw):
    """A jet with random values on a random set of distinct points, a base
    point, a degree p <= A_max, a derivative alpha with |alpha| <= p and a
    few evaluation points."""
    dim = draw(st.sampled_from((1, 2)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(1, 4))
    A_max = draw(st.integers(0, 8))
    rng = np.random.default_rng(seed)
    pts = np.unique(np.round(rng.uniform(-2.0, 2.0, size=(n, dim)), 3), axis=0)
    cset = CompactSet(pts, ((-3.0, 3.0),) * dim)
    values = rng.uniform(-3.0, 3.0, size=(len(pts), len(multi_indices(dim, A_max))))
    jet = Ultrajet(cset, A_max, values)
    p = draw(st.integers(0, A_max))
    alpha = draw(st.sampled_from(multi_indices(dim, p)))
    a_index = draw(st.integers(0, len(pts) - 1))
    x = rng.uniform(-3.0, 3.0, size=(draw(st.integers(1, 6)), dim))
    return jet, a_index, p, alpha, x


@settings(max_examples=150, deadline=None)
@given(jet_cases())
def test_taylor_grid_matches_oracle(case):
    jet, a_index, p, alpha, x = case
    got = taylor_grid(jet, a_index, p, alpha, x)
    want = oracle_taylor_grid(jet, a_index, p, alpha, x)
    # relative to the sum of the absolute values of the terms
    a = jet.cset.points[a_index]
    abs_jet = Ultrajet(jet.cset, jet.A_max, np.abs(jet.values))
    scale = oracle_taylor_grid(abs_jet, a_index, p, alpha, a + np.abs(x - a))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(jet_cases(), st.integers(0, 8), st.floats(0.01, 2.0))
def test_taylor_sup_bound_matches_oracle(case, degree, side):
    jet, a_index, _, alpha, _ = case
    dim = jet.cset.dim
    anchor = jet.cset.points[a_index]
    dec = SimpleNamespace(dim=dim, nearest_points=anchor[None, :],
                          sides=np.array([side]),
                          centers=(anchor + 1.5 * side)[None, :])
    field = SimpleNamespace(jet=jet, pou=SimpleNamespace(dec=dec),
                            sched=SimpleNamespace(degrees=np.array([min(degree, jet.A_max)])),
                            anchor_idx=np.array([a_index]))
    got = _taylor_sup_bound(field, 0, alpha)
    want = oracle_taylor_sup_bound(field, 0, alpha)
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(0, 6), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 5))
def test_leibniz_fold_bitwise_equals_oracle(dim, up_to, seed, n):
    rng = np.random.default_rng(seed)
    multis = multi_indices(dim, up_to)
    left = {m: rng.normal(size=n) for m in multis}
    right = {m: rng.normal(size=n) for m in multis}
    got = _leibniz_fold(left, right, multis)
    want = oracle_leibniz_fold(left, right, multis)
    assert all(np.array_equal(got[m], want[m]) for m in multis)
    scalars = {m: float(left[m][0]) for m in multis}
    got = _leibniz_fold(scalars, right, multis)
    want = oracle_leibniz_fold(scalars, right, multis)
    assert all(np.array_equal(got[m], want[m]) for m in multis)


# -- reference implementations of the partition and the extension sums ------------

def oracle_psi_deriv(pou, i, beta, pts):
    out = np.ones(len(pts))
    for d in range(pou.dec.dim):
        out = out * pou.bumps[i][d].eval(pts[:, d], int(beta[d]))
    return out


def oracle_psi_bound(pou, i, beta):
    b = 1.0
    for d in range(pou.dec.dim):
        b *= pou.bumps[i][d].bound(int(beta[d]))
    return b


def oracle_earlier_neighbors(pou, i):
    return [int(k) for k in pou.dec.neighbors[i] if k < i]


def oracle_phi_derivs(pou, i, pts, up_to):
    """phi_i folded over every earlier neighbor of cube i."""
    multis = multi_indices(pou.dec.dim, up_to)
    tables = {m: oracle_psi_deriv(pou, i, m, pts) for m in multis}
    for k in oracle_earlier_neighbors(pou, i):
        fac = {}
        for m in multis:
            v = oracle_psi_deriv(pou, k, m, pts)
            fac[m] = (1.0 - v) if sum(m) == 0 else -v
        tables = _leibniz_fold(tables, fac, multis)
    return tables


def oracle_phi_bound(pou, i, beta):
    multis = multi_indices(pou.dec.dim, sum(beta))
    bounds = {m: oracle_psi_bound(pou, i, m) for m in multis}
    for k in oracle_earlier_neighbors(pou, i):
        fac = {m: (1.0 if sum(m) == 0 else oracle_psi_bound(pou, k, m))
               for m in multis}
        bounds = _leibniz_fold(bounds, fac, multis)
    return float(bounds[tuple(beta)])


def oracle_mask(dec, i, pts, expansion=EXPANSION):
    half = dec.sides[i] * expansion / 2.0
    return np.all(np.abs(pts - dec.centers[i]) <= half, axis=1)


def oracle_sum_phi(pou, pts):
    out = np.zeros(len(pts))
    zero = (0,) * pou.dec.dim
    for i in range(pou.dec.n_cubes):
        mask = oracle_mask(pou.dec, i, pts)
        if np.any(mask):
            out[mask] += oracle_phi_derivs(pou, i, pts[mask], 0)[zero]
    return out


def oracle_covered(pou, pts):
    out = np.zeros(len(pts), dtype=bool)
    for i in range(pou.dec.n_cubes):
        out |= oracle_mask(pou.dec, i, pts, expansion=1.0)
    return out


def oracle_cubes_containing(dec, x):
    half = dec.sides * (EXPANSION / 2.0)
    inside = np.all(np.abs(dec.centers - x) <= half[:, None], axis=1)
    return np.where(inside)[0]


def oracle_union_bumps(cutoff):
    dim = cutoff.points.shape[1]
    return [[Bump1D(canonical=cutoff.canonical, center=float(a[d]),
                    r=cutoff.radius) for d in range(dim)]
            for a in cutoff.points]


def oracle_union_derivs(cutoff, pts, up_to):
    dim = cutoff.points.shape[1]
    multis = multi_indices(dim, up_to)
    prod = None
    for axes in oracle_union_bumps(cutoff):
        fac = {}
        for m in multis:
            v = np.ones(len(pts))
            for d in range(dim):
                v = v * axes[d].eval(pts[:, d], int(m[d]))
            fac[m] = (1.0 - v) if sum(m) == 0 else -v
        prod = fac if prod is None else _leibniz_fold(prod, fac, multis)
    return {m: (1.0 - prod[m]) if sum(m) == 0 else -prod[m] for m in multis}


def oracle_union_bound(cutoff, m):
    dim = cutoff.points.shape[1]
    multis = multi_indices(dim, sum(m))
    prod = None
    for axes in oracle_union_bumps(cutoff):
        fac = {}
        for mm in multis:
            b = 1.0
            for d in range(dim):
                b *= axes[d].bound(int(mm[d]))
            fac[mm] = 1.0 if sum(mm) == 0 else b
        prod = fac if prod is None else _leibniz_fold(prod, fac, multis)
    return 1.0 if sum(m) == 0 else float(prod[tuple(m)])


def oracle_cube_sum(field, pts, alpha):
    dec = field.pou.dec
    out = np.zeros(len(pts))
    for i in range(dec.n_cubes):
        mask = oracle_mask(dec, i, pts)
        if not np.any(mask):
            continue
        sub = pts[mask]
        tables = oracle_phi_derivs(field.pou, i, sub, sum(alpha))
        acc = np.zeros(len(sub))
        p_i = int(field.sched.degrees[i])
        for beta, gamma, coef in _leibniz_terms(alpha):
            if sum(beta) <= p_i:
                acc += coef * tables[gamma] * taylor_grid(
                    field.jet, int(field.anchor_idx[i]), p_i, beta, sub)
        out[mask] += acc
    return out


def oracle_derivative_grid(field, pts, alpha):
    if field.cutoff is None:
        out = oracle_cube_sum(field, pts, alpha)
    else:
        cut = oracle_union_derivs(field.cutoff, pts, sum(alpha))
        out = np.zeros(len(pts))
        for beta, gamma, coef in _leibniz_terms(alpha):
            out += coef * cut[gamma] * oracle_cube_sum(field, pts, beta)
    on_set = field.point_flags(pts)["on_set"]
    for k in np.where(on_set)[0]:
        out[k] = field.jet.value(field.jet.cset.index_of(pts[k]), alpha)
    return out


def oracle_derivative_bounds(field, up_to):
    dec = field.pou.dec
    multis = multi_indices(dec.dim, up_to)
    overlap = dec.max_overlap() + 1
    out = {}
    for m in multis:
        per_point_max = 0.0
        for i in range(dec.n_cubes):
            acc = 0.0
            for beta, gamma, coef in _leibniz_terms(m):
                acc += (coef * oracle_phi_bound(field.pou, i, gamma)
                        * _taylor_sup_bound(field, i, beta))
            per_point_max = max(per_point_max, acc)
        out[m] = overlap * per_point_max
    if field.cutoff is not None:
        folded = {}
        for m in multis:
            acc = 0.0
            for beta, gamma, coef in _leibniz_terms(m):
                acc += coef * oracle_union_bound(field.cutoff, gamma) * out[beta]
            folded[m] = acc
        out = folded
    return out


# -- random partitions and extension fields --------------------------------------------

SEQ = gevrey(1.0)


@st.composite
def field_cases(draw):
    """An extension field with random jet values and per-cube degrees on the
    cover of a random set of distinct points, with or without a cutoff, an
    order up_to <= order_cap and sample points (the set points among them)."""
    dim = draw(st.sampled_from((1, 2)))
    depth = draw(st.integers(3, 6))
    order_cap = draw(st.integers(1, 4))
    up_to = draw(st.integers(0, order_cap))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 4))
    pts = np.unique(np.round(rng.uniform(-0.8, 0.8, size=(n, dim)), 3), axis=0)
    box = ((-1.0, 1.0),) * dim
    cset = CompactSet(pts, box)
    dec = decompose(box, cset, depth_cap=depth)
    pou = build_pou(dec, SEQ, order_cap=order_cap)
    A_max = order_cap + 2
    values = rng.uniform(-3.0, 3.0, size=(len(pts), len(multi_indices(dim, A_max))))
    jet = Ultrajet(cset, A_max, values)
    sched = DegreeSchedule(dec=dec, degrees=rng.integers(0, A_max + 1, dec.n_cubes),
                           capped=np.zeros(dec.n_cubes, dtype=bool), L=1.0,
                           mode="single", s_prime=None)
    anchor = np.array([cset.index_of(a) for a in dec.nearest_points], dtype=int)
    cutoff = None
    if draw(st.booleans()):
        cutoff = _UnionBump(pou.canonical, pts, draw(st.sampled_from((0.1, 0.25, 0.3))))
    field = ExtensionField(jet=jet, pou=pou, sched=sched, anchor_idx=anchor,
                           cutoff=cutoff)
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=(60, dim)), pts])
    return field, up_to, x


@settings(max_examples=40, deadline=None)
@given(field_cases())
def test_partition_and_incidence_equal_oracle(case):
    field, up_to, x = case
    pou, dec = field.pou, field.pou.dec
    point, cube, tables = pou.pair_derivs(x, up_to)
    for i in range(dec.n_cubes):
        mask = oracle_mask(dec, i, x)
        rows = cube == i
        assert np.array_equal(point[rows], np.where(mask)[0])
        want = oracle_phi_derivs(pou, i, x[mask], up_to)
        assert all(np.array_equal(tables[m][rows], want[m]) for m in want)
    assert np.array_equal(pou.sum_phi(x), oracle_sum_phi(pou, x))
    assert np.array_equal(pou.covered(x), oracle_covered(pou, x))
    for p in x[::7]:
        assert np.array_equal(dec.cubes_containing(p), oracle_cubes_containing(dec, p))


@settings(max_examples=40, deadline=None)
@given(field_cases())
def test_extension_sums_equal_oracle(case):
    field, up_to, x = case
    for alpha in multi_indices(field.jet.cset.dim, up_to):
        assert np.array_equal(field.derivative_grid(x, alpha),
                              oracle_derivative_grid(field, x, alpha))
    got = derivative_bounds(field, up_to)
    want = oracle_derivative_bounds(field, up_to)
    assert got.keys() == want.keys()
    assert all(abs(got[m] - want[m]) <= 1e-14 * want[m] for m in want)


# -- certification, bump stages and cube diagnostics: the per-term loops ----------

def oracle_certify(jet, seq, rho, P_max, form):
    n_need = max(jet.A_max, P_max + 1)
    M = np.exp(seq.logM[: n_need + 1])
    m = np.exp(seq.log_m[: n_need + 1])
    best = 0.0
    binding = ()
    for i, a in enumerate(jet.cset.points):
        for r, alpha in enumerate(jet.multi):
            c = abs(jet.values[i, r]) / (rho ** sum(alpha) * M[sum(alpha)])
            if c > best:
                best, binding = c, ("value", i, alpha)
    for i, a in enumerate(jet.cset.points):
        for j, b in enumerate(jet.cset.points):
            if i == j:
                continue
            dist = float(np.linalg.norm(b - a))
            for p in range(0, P_max + 1):
                for alpha in multi_indices(jet.cset.dim, p):
                    rem = abs(jet.value(j, alpha)
                              - taylor_grid(jet, i, p, alpha, b[None, :])[0])
                    q = p + 1 - sum(alpha)
                    if form == "pointwise":
                        scale = rho ** (p + 1) * M[p + 1] * dist ** q / factorial(q)
                    else:
                        scale = (rho ** (p + 1) * factorial(sum(alpha))
                                 * m[p + 1] * dist ** q)
                    c = rem / scale
                    if c > best:
                        best, binding = c, ("remainder", i, j, p, alpha)
    return best, binding


def oracle_shift_poly(c, gamma):
    n = len(c)
    out = np.zeros(n)
    for k in range(n):
        ck = c[k]
        if ck == 0.0:
            continue
        g = 1.0
        for i in range(k, -1, -1):
            out[i] += ck * comb(k, i) * g
            g *= gamma
    return out


def oracle_prefix_integral(g, y):
    if y <= g.breaks[0]:
        return 0.0
    if y >= g.breaks[-1]:
        return float(g.cumint[-1])
    return float(g.cumint[g.piece(y)])


def oracle_convolve_uniform(g, r, plateau):
    breaks = np.unique(np.concatenate([g.breaks - r, g.breaks + r]))
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    deg = g.coeffs.shape[1]
    coeffs = np.zeros((len(mids), deg + 1))
    inv = 1.0 / (2.0 * r)
    k = np.arange(deg)
    for p, m in enumerate(mids):
        if breaks[p + 1] <= g.breaks[0] - r or breaks[p] >= g.breaks[-1] + r:
            continue
        if plateau[0] <= breaks[p] and breaks[p + 1] <= plateau[1]:
            coeffs[p, 0] = 1.0
            continue
        yp, ym = m + r, m - r
        poly = np.zeros(deg + 1)
        poly[0] = oracle_prefix_integral(g, yp) - oracle_prefix_integral(g, ym)
        for y, sign in ((yp, 1.0), (ym, -1.0)):
            if g.breaks[0] < y < g.breaks[-1]:
                q = int(g.piece(y))
                anti = np.concatenate([[0.0], g.coeffs[q] / (k + 1.0)])
                shifted = oracle_shift_poly(anti, y - g.mids[q])
                shifted[0] -= float(np.polynomial.polynomial.polyval(
                    g.breaks[q] - g.mids[q], anti))
                poly[: len(shifted)] += sign * shifted
        coeffs[p] = inv * poly
    return _PiecewisePoly(breaks, coeffs, plateau)


def oracle_cube_diagnostics(dec, samples_per_cube, seed):
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


def _bits(v):
    return np.float64(v).tobytes()


@st.composite
def certify_cases(draw):
    """A jet on 1-6 distinct points in dimension 1-3, with random values of
    random magnitude, small integer values on integer points (ties), or a
    tensor of sines (whose remainders can bind); P_max <= A_max, rho and the
    certificate form."""
    dim = draw(st.sampled_from((1, 2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("random", "integer", "sines")))
    digits = 0 if kind == "integer" else draw(st.integers(1, 3))
    pts = np.unique(np.round(rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, 6)), dim)),
                             digits), axis=0)
    cset = CompactSet(pts, ((-3.0, 3.0),) * dim)
    A_max = draw(st.integers(0, (8, 6, 4)[dim - 1]))
    shape = (len(pts), len(multi_indices(dim, A_max)))
    if kind == "sines":
        jet = jet_from_preset(Tensor(*[Sin(rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0))
                                       for _ in range(dim)]), cset, A_max)
    elif kind == "integer":
        jet = Ultrajet(cset, A_max, rng.integers(-1, 2, size=shape).astype(float))
    else:
        jet = Ultrajet(cset, A_max, rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0))
    seq = gevrey(draw(st.floats(0.5, 2.0)), K_max=A_max + 2)
    return (jet, seq, draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),  # 0: inf and NaN ratios
            draw(st.integers(0, A_max)), draw(st.sampled_from(("pointwise", "factored"))))


ONE_POINT = jet_from_preset(Sin(), CompactSet(np.array([[0.5]]), ((-3.0, 3.0),)), 6)
PAIR = jet_from_preset(Sin(1.3, 0.2), CompactSet(np.array([[0.1], [0.4]]), ((-3.0, 3.0),)), 8)


@settings(max_examples=80, deadline=None)
@given(certify_cases())
@example((ONE_POINT, gevrey(1.0, K_max=8), 1.0, 6, "pointwise"))
@example((PAIR, gevrey(1.0, K_max=10), 2.0, 3, "factored"))  # P_max < A_max
def test_certify_bitwise_equals_oracle(case):
    jet, seq, rho, P_max, form = case
    with np.errstate(divide="ignore", invalid="ignore"):
        got = certify(jet, seq, rho=rho, P_max=P_max, form=form)
        C, binding = oracle_certify(jet, seq, rho, P_max, form)
    assert _bits(got.C) == _bits(C)
    assert got.binding == binding


@settings(max_examples=40, deadline=None)
@given(certify_cases())
def test_certify_remainders_bitwise_equal_taylor_grid(case):
    jet, _, _, P_max, _ = case
    n = len(jet.cset.points)
    p_of, alpha_of, groups = _certify_plan(jet.cset.dim, P_max)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        table = _remainders(jet, i, others, jet.cset.points[others] - jet.cset.points[i],
                            groups)
        for row, j in enumerate(others):
            b = jet.cset.points[j][None, :]
            want = [abs(jet.value(j, jet.multi[a]) - taylor_grid(jet, i, p, jet.multi[a], b)[0])
                    for p, a in zip(p_of, alpha_of)]
            assert table[row].tobytes() == np.array(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=7), st.floats(0.2, 1.0))
def test_bump_stages_bitwise_equal_oracle(weights, fill):
    radii = np.sort(weights)[::-1]
    bump = CanonicalBump(radii * (fill * RADII_BUDGET / np.sum(radii)))
    stage = bump.stages[bump.J + 1]
    for m in range(bump.J, 0, -1):
        got = bump.stages[m]
        stage = oracle_convolve_uniform(stage, float(bump.radii[m - 1]),
                                        (got.plateau_lo, got.plateau_hi))
        for attr in ("breaks", "coeffs", "cumint"):
            assert getattr(got, attr).tobytes() == getattr(stage, attr).tobytes()


@st.composite
def cover_cases(draw):
    """The cover of 1-4 points in dimension 1-3 at depth cap 1 and up, at
    times with one cube's center distance scaled so that a comparison
    inequality breaks, a sample count and a seed."""
    dim = draw(st.sampled_from((1, 2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = np.unique(np.round(rng.uniform(-0.8, 0.8, size=(draw(st.integers(1, 4)), dim)),
                             draw(st.integers(0, 2))), axis=0)
    box = ((-1.0, 1.0),) * dim
    dec = decompose(box, CompactSet(pts, box), depth_cap=draw(st.integers(1, (7, 5, 3)[dim - 1])))
    if dec.n_cubes and draw(st.booleans()):
        dist = dec.center_dist.copy()
        dist[draw(st.integers(0, dec.n_cubes - 1))] *= draw(st.sampled_from((0.2, 5.0)))
        dec = replace(dec, center_dist=dist)
    return dec, draw(st.integers(0, 40)), draw(st.integers(0, 1000))


CENTER = CompactSet(np.zeros((1, 2)), ((-1.0, 1.0),) * 2)
EMPTY_COVER = decompose(CENTER.box, CENTER, depth_cap=1)
LINE = CompactSet(np.array([[-0.3], [0.5]]), ((-1.0, 1.0),))
LINE_COVER = decompose(LINE.box, LINE, depth_cap=5)
MUTATED_COVER = replace(LINE_COVER, center_dist=LINE_COVER.center_dist * np.where(
    np.arange(LINE_COVER.n_cubes) == 3, 10.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(cover_cases())
@example((EMPTY_COVER, 16, 0))
@example((MUTATED_COVER, 32, 0))
def test_cube_diagnostics_equal_oracle(case):
    dec, samples, seed = case
    try:
        want = oracle_cube_diagnostics(dec, samples, seed)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as got:
            cube_diagnostics(dec, samples, seed)
        assert str(got.value) == str(exc)
        return
    got = cube_diagnostics(dec, samples, seed)
    assert got.keys() == want.keys()
    assert all(_bits(got[k]) == _bits(want[k]) for k in want)


# -- conjugates and the model tail sum: the scalar loops ---------------------------

def oracle_young_conjugate(fn, t):
    s_cap = min(600.0, log(fn.t_valid_max) if isfinite(fn.t_valid_max) else 600.0)

    def g(s):
        return s * t - float(fn.phi(s))

    s_hi = 1.0
    while g(s_hi) >= g(0.5 * s_hi) and s_hi < s_cap:
        s_hi *= 2.0
    if s_hi >= s_cap and g(min(s_hi, s_cap)) >= g(0.5 * min(s_hi, s_cap)):
        raise GridExhausted(
            f"conjugate argmax of {fn.label} still rising at s={s_cap:g} (t={t:g})")
    s_hi = min(s_hi, s_cap)
    res = minimize_scalar(lambda s: -g(s), bounds=(0.0, s_hi), method="bounded",
                          options={"xatol": 1e-10 * max(1.0, s_hi)})
    return max(-float(res.fun), g(0.0))


def oracle_omega_conjugate(fn, s):
    if not fn.flags["o_of_t"]:
        raise NotLittleO(f"{fn.label}: o(t) certificate absent")
    t_hi = min(fn.t_valid_max * 0.45, GRID_HI * 1e3)
    ts = np.geomspace(1e-9, t_hi, 600)
    obj = fn(ts) - s * ts
    best = float(np.max(obj))
    i = int(np.argmax(obj))
    lo = ts[max(0, i - 1)]
    hi = ts[min(len(ts) - 1, i + 1)]
    res = minimize_scalar(lambda u: -(float(fn(u)) - s * u), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12 * hi})
    return max(best, -float(res.fun), 0.0)


def oracle_model_tail_sum(log_c, p, q, k0, max_decades=200):
    u0 = log(max(k0, 3.0))
    n = 16
    acc = 0.0
    incs = []
    for d in range(max_decades):
        us = u0 + log(10.0) * (d + np.arange(n + 1) / n)
        vals = np.exp((1.0 - p) * us - q * np.log(us) - log_c)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        inc = log(10.0) / n / 3.0 * float(vals @ w)
        incs.append(inc)
        acc += inc
        if d >= 3 and inc <= 1e-14 * max(acc, 1e-300):
            return True, acc
        if d >= 7 and incs[-1] >= 0.999 * incs[-2]:
            return False, float("inf")
    d_idx = np.arange(max_decades - 4, max_decades, dtype=float) + 1.0
    tail4 = np.maximum(incs[-4:], 1e-300)
    qq = -np.polyfit(np.log(d_idx), np.log(tail4), 1)[0]
    if qq <= 1.05:
        return False, float("inf")
    return True, acc + incs[-1] * max_decades / (qq - 1.0)


# the preset weights, one family per draw
weights = st.one_of(
    st.floats(0.3, 1.0).map(power),
    st.floats(1.5, 4.0).map(log_power),
    st.floats(0.5, 3.0).map(gevrey_dual),
)


def assert_matches_oracle(new, old):
    """Both are lower bounds of the same supremum: they agree to 1e-10, and
    the new one is never below the old by more than 1e-12 (relative)."""
    scale = np.maximum(1.0, np.abs(old))
    assert np.all(np.abs(new - old) <= 1e-10 * scale)
    assert np.all(new >= old - 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(weights, st.lists(st.floats(0.0, 5e3), min_size=1, max_size=12))
def test_young_conjugate_grid_matches_oracle(fn, ts):
    old = np.array([oracle_young_conjugate(fn, t) for t in ts])
    assert_matches_oracle(young_conjugate_grid(fn, ts), old)


@settings(max_examples=60, deadline=None)
@given(weights, st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12))
def test_omega_conjugate_grid_matches_oracle(fn, ss):
    if not fn.flags["o_of_t"]:  # power(alpha) near alpha = 1
        with pytest.raises(NotLittleO):
            omega_conjugate_grid(fn, ss)
        return
    old = np.array([oracle_omega_conjugate(fn, s) for s in ss])
    assert_matches_oracle(omega_conjugate_grid(fn, ss), old)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 2.0), st.sampled_from((16, 32, 64)),
       st.lists(st.one_of(st.floats(0.0, 80.0), st.integers(0, 80).map(float)),
                min_size=1, max_size=8))
def test_young_conjugate_grid_exhausts_like_oracle(s, k_max, ts):
    # growth profiles are valid only up to mu_K, which caps the bracket: a
    # t at or beyond about K_max runs past it
    fn = omega_of_sequence(gevrey(s, K_max=k_max))
    try:
        old = np.array([oracle_young_conjugate(fn, t) for t in ts])
    except GridExhausted as exc:
        with pytest.raises(GridExhausted) as got:
            young_conjugate_grid(fn, ts)
        assert str(got.value) == str(exc)
        return
    new = young_conjugate_grid(fn, ts)
    # phi is piecewise linear here, so the scalar search stops up to about
    # 1e-8 s short in value; the exact conjugate interpolates log M
    exact = np.interp(ts, np.arange(k_max + 1), gevrey(s, K_max=k_max).logM)
    scale = np.maximum(1.0, np.abs(exact))
    assert np.all(new >= old - 1e-12 * np.maximum(1.0, np.abs(old)))
    assert np.all(np.abs(new - exact) <= 1e-9 * scale)


@settings(max_examples=300, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.5, 10.0), st.floats(-3.0, 3.0),
       st.floats(1.0, 500.0), st.one_of(st.integers(5, 24), st.just(200)))
@example(0.0, 1.0625, 0.0, 1.0, 10)  # a matrix-vector product sums row 8 apart
def test_model_tail_sum_bitwise_equals_oracle(log_c, p, q, k0, max_decades):
    # few decades reach the fitted-trend remainder; steep quotients stop
    # at the first decade that may stop
    with np.errstate(over="ignore"):
        old = oracle_model_tail_sum(log_c, p, q, k0, max_decades)
    assert _model_tail_sum(log_c, p, q, k0, max_decades) == old


# -- condition checks: the per-pair row searches ------------------------------------

def _oracle_cap_counter(log_c, **locator):
    return {**locator, "needed_C": float(np.exp(min(log_c, 700.0))),
            "reference_C": C_CAP, "margin": float(np.exp(min(log_c - LOG_CAP, 700.0))),
            "mode": "cap"}


def _oracle_quotient_over_index(row):
    return row.log_mu[1:] - np.log(np.arange(1, row.K_max + 1, dtype=float))


def oracle_check_good(matrix):
    per_x = {}
    worst = None
    for x in matrix.x_grid:
        la = _oracle_quotient_over_index(matrix.row(x))
        pref = np.maximum.accumulate(la)
        pref_arg = np.maximum.accumulate(
            np.where(la >= pref, np.arange(1, len(la) + 1), 1))
        best = None
        for y in matrix.x_grid:
            if y < x:
                continue
            need = pref - _oracle_quotient_over_index(matrix.row(y))
            k_idx = int(np.argmax(need))
            cand = (float(np.max(need)), float(y), int(pref_arg[k_idx]), k_idx + 1)
            if best is None or cand[0] < best[0]:
                best = cand
        log_c, y, j, k = best
        per_x[x] = {"y": y, "C": float(np.exp(min(log_c, 700.0))) if log_c <= 700
                    else float("inf"), "log_C": log_c}
        if worst is None or log_c > worst[0]:
            worst = (log_c, x, y, j, k)
    rng = {"K_max": matrix.K_max, "x_grid": list(matrix.x_grid)}
    details = {"per_x": {f"{x:g}": w for x, w in per_x.items()}}
    log_c, x, y, j, k = worst
    if log_c <= LOG_CAP:
        return Verdict("good_matrix", True, {"C": float(np.exp(max(log_c, 0.0)))},
                       tested_range=rng, details=details)
    return Verdict("good_matrix", False, {"log_C_range": log_c},
                   counterexample=_oracle_cap_counter(log_c, x=x, y_best=y, j=j, k=k),
                   tested_range=rng, details=details)


def oracle_check_quotient_root_domination(matrix):
    per_x = {}
    worst = None
    for x in matrix.x_grid:
        lt = matrix.row(x).log_mu[1:]
        best = None
        for y in matrix.x_grid:
            if y < x:
                continue
            need = lt - matrix.row(y).logM[1:] / np.arange(1, matrix.K_max + 1)
            cand = (float(np.max(need)), float(y), int(np.argmax(need)) + 1)
            if best is None or cand[0] < best[0]:
                best = cand
        per_x[x] = {"y": best[1], "log_C": best[0]}
        if worst is None or best[0] > worst[0]:
            worst = (best[0], x, best[1], best[2])
    rng = {"K_max": matrix.K_max, "x_grid": list(matrix.x_grid)}
    details = {"per_x": {f"{x:g}": w for x, w in per_x.items()}}
    log_c, x, y, k = worst
    if log_c <= LOG_CAP:
        return Verdict("quotient_root_domination", True,
                       {"C": float(np.exp(max(log_c, 0.0)))},
                       tested_range=rng, details=details)
    return Verdict("quotient_root_domination", False, {"log_C_range": log_c},
                   counterexample=_oracle_cap_counter(log_c, x=x, y_best=y, k=k),
                   tested_range=rng, details=details)


def oracle_concave_matrix_form(matrix):
    per_x = {}
    worst = None
    for x in matrix.x_grid:
        roots_x = matrix.row(x).log_m[1:] / np.arange(1, matrix.K_max + 1)
        pref = np.maximum.accumulate(roots_x)
        best = None
        for y in matrix.x_grid:
            if y < x:
                continue
            roots_y = matrix.row(y).log_m[1:] / np.arange(1, matrix.K_max + 1)
            need = float(np.max(pref - roots_y))
            if best is None or need < best[0]:
                best = (need, float(y))
        per_x[x] = {"y": best[1], "log_D": best[0]}
        if worst is None or best[0] > worst[0]:
            worst = (best[0], x, best[1])
    log_d, x, y = worst
    rng = {"K_max": matrix.K_max, "x_grid": list(matrix.x_grid)}
    if log_d <= LOG_CAP:
        return Verdict("concave_matrix_form", True, {"D": float(np.exp(max(log_d, 0.0)))},
                       tested_range=rng, details={"per_x": per_x})
    return Verdict("concave_matrix_form", False, {"log_D_range": log_d},
                   counterexample=_oracle_cap_counter(log_d, x=x, y_best=y),
                   tested_range=rng, details={"per_x": per_x})


def oracle_check_almost_increasing(seq):
    k = np.arange(1, seq.K_max + 1, dtype=float)
    la = seq.log_mu[1:] - np.log(k)
    pref = np.maximum.accumulate(la)
    pref_arg = np.maximum.accumulate(np.where(la >= pref, np.arange(1, seq.K_max + 1), 1))
    need = pref - la
    i_max = int(np.argmax(need))
    log_c = float(need[i_max])
    roots = seq.log_m[1:] / k
    log_c_root = float(np.max(np.maximum.accumulate(roots) - roots))
    wit = {"C": float(np.exp(min(max(log_c, 0.0), 700.0))),
           "C_root_variant": float(np.exp(min(max(log_c_root, 0.0), 700.0)))}
    if log_c <= LOG_CAP:
        return Verdict(f"almost_increasing[{seq.label}]", True, wit,
                       tested_range={"K_max": seq.K_max})
    return Verdict(f"almost_increasing[{seq.label}]", False, wit,
                   counterexample=_oracle_cap_counter(log_c, j=int(pref_arg[i_max]),
                                                      k=i_max + 1),
                   tested_range={"K_max": seq.K_max})


def oracle_descendant_verdict(seq):
    out = descendant(seq)
    k = np.arange(1, out.K_max + 1, dtype=float)
    sig = np.exp(out.log_mu[1:])
    monotone = bool(np.all(np.diff(sig / k) >= -1e-12))
    dominated = float(np.max(sig / np.exp(seq.log_mu[1:out.K_max + 1])))
    suffix = seq.quotient_tail_sums()
    mixed_c = float(np.max(suffix[:out.K_max] * sig / k))
    holds = monotone and dominated <= C_CAP and mixed_c <= C_CAP
    wit = {"C_domination": dominated, "C_mixed_tail": mixed_c}
    if holds:
        return Verdict(f"descendant[{seq.label}]", True, wit,
                       tested_range={"K_max": out.K_max})
    return Verdict(f"descendant[{seq.label}]", False, wit,
                   counterexample={"monotone": monotone, "needed_C": dominated,
                                   "reference_C": C_CAP, "margin": 1.0, "mode": "cap"},
                   tested_range={"K_max": out.K_max})


MATRIX_XS = tuple(2.0 ** j for j in range(-2, 4))
GENERATED = {name: weight_matrix(fn, x_grid=MATRIX_XS, K_max=24)
             for name, fn in (("power", power(0.5)), ("log_power", log_power(2.0)),
                              ("gevrey_dual", gevrey_dual(1.0)))}
SCALING_WEIGHT = power(0.5)


def _bare_row(log_mu):
    """A row as the checks read it, NaN entries allowed."""
    log_mu = np.concatenate([[0.0], log_mu])
    log_M = np.cumsum(log_mu)
    return SimpleNamespace(K_max=len(log_mu) - 1, label="row", log_mu=log_mu, logM=log_M,
                           log_m=log_M - gammaln(np.arange(len(log_mu)) + 1.0))


@st.composite
def row_matrices(draw):
    """Hand-built matrices mixing random (often failing) rows, flat rows,
    repeated rows and rows of generated matrices, over a random x subset."""
    xs = sorted(draw(st.sets(st.sampled_from(MATRIX_XS), min_size=1, max_size=4)))
    k_max = draw(st.integers(2, 24))
    rows = {}
    for x in xs:
        kind = draw(st.sampled_from(("random", "nan", "flat", "repeat", *GENERATED)))
        if kind in ("random", "nan"):
            scale = draw(st.sampled_from((3.0, 60.0, 2000.0)))  # log C past 700 too
            log_mu = np.array(draw(st.lists(st.floats(-scale, scale), min_size=k_max,
                                            max_size=k_max)))
            if kind == "nan":
                log_mu[draw(st.integers(0, k_max - 1))] = float("nan")
            rows[x] = _bare_row(log_mu)
        elif kind == "flat":
            rows[x] = _bare_row(np.full(k_max, draw(st.floats(-3.0, 3.0))))
        elif kind == "repeat" and rows:
            rows[x] = rows[list(rows)[-1]]
        else:
            gen = GENERATED.get(kind, GENERATED["power"]).row(x)
            rows[x] = _bare_row(gen.log_mu[1:k_max + 1])
    return WeightMatrix(xs, rows, validate=False)


def _same_verdict(new, old):
    assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())


@settings(max_examples=200, deadline=None)
@given(row_matrices())
@example(WeightMatrix((1.0,), {1.0: _bare_row(np.array([LOG_CAP, log(2.0)]))},
                      validate=False))  # log C exactly at the cap holds
def test_condition_row_searches_equal_oracle(matrix):
    _same_verdict(check_good(matrix), oracle_check_good(matrix))
    _same_verdict(check_quotient_root_domination(matrix),
                  oracle_check_quotient_root_domination(matrix))
    _same_verdict(check_concavity_equivalence(SCALING_WEIGHT, matrix)[1],
                  oracle_concave_matrix_form(matrix))
    for x in matrix.x_grid:
        _same_verdict(check_almost_increasing(matrix.row(x)),
                      oracle_check_almost_increasing(matrix.row(x)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(list(GENERATED)).flatmap(
           lambda name: st.sampled_from(MATRIX_XS).map(GENERATED[name].row)),
       st.builds(gevrey, st.floats(0.5, 3.0), st.integers(4, 64)),
       st.builds(lambda p, k: quotient_power(p, K_max=k), st.floats(0.5, 3.0),
                 st.integers(4, 64))))
def test_check_descendant_equals_oracle(seq):
    try:
        old = oracle_descendant_verdict(seq)
    except UltrajetError as exc:
        with pytest.raises(type(exc)):
            check_descendant(seq)
        return
    _same_verdict(check_descendant(seq), old)
