"""The fast kernels against the earlier loops, kept here as reference
implementations: the dimension-generic multi-index kernel of ``jets``
against the hand-unrolled 1D/2D loops, the point-cube incidence with
its pairwise partition fold (``pou``, ``extend``) against the per-cube mask
loops and the per-cube folds over all earlier neighbors, the exact
conjugates of every ``fncore`` preset against one bounded scalar
minimisation per point, against the hull formulas of growth profiles and
the breakpoint maxima of tables, and against dense scans, the
Newton-started root bisections of ``log_power`` against bisections of the
whole bracket, the unmasked ``log_power`` evaluator past its bridge
against the masked pass over every t, the one-pass
averaged tail transform ``fncore.kappa`` against its per-t decade loop
and ``np.polyfit`` remainders, the batched row flags and array tail sums
of ``seqcore`` against the per-row flag pass and the
per-decade loop, the cached log k! table of ``seqcore`` against SciPy's
``gammaln``, the shared row search and log-cap verdict of
``conditions`` against the per-pair loops of each check and ``check_good``
against the conjugate secants of the generating weight, the pair table of
``check_strong_matrix`` against one ``check_mixed_tail`` per pair and the
one-pass ``WeightMatrix`` validation against its per-pair loop, the chain lookup
of ``conditions.resolve_chain`` against its per-D loop, the array passes of ``jets.certify``
(its largest ratio against a copy of the table without NaN),
the bump stages and stacked bump derivatives of ``pou`` and
``geometry.cube_diagnostics`` against their per-term, per-piece, per-shift
and per-sample loops, and the level passes of
``geometry.decompose``, its nearest-point kernel and the all-cube bounds of
``extend.derivative_bounds`` against the breadth-first queue, the per-point
tie scan and the per-cube folds, the one-pass ``derivative_grids`` and the
batched Taylor bounds of ``verify`` against the per-cube sums and the
per-point loop, ``verify``'s one approach table, one evaluation pass and
one fit query against a table and a pass per approach scale and a query per K, and the blocked ``fncore.splitting_ok`` against its full
arrays, bit for bit."""

import json
from collections import deque
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product
from math import comb, factorial, isfinite, log
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from ultrajet.conditions import (
    GRID_POWERS,
    ChainCertificate,
    Verdict,
    check_almost_increasing,
    check_concavity_equivalence,
    check_descendant,
    check_good,
    check_mixed_tail,
    check_quotient_root_domination,
    check_strong_matrix,
    resolve_chain,
    verify_chain,
)
from ultrajet.extend import (
    DegreeSchedule,
    ExtensionField,
    _approach_points,
    _halving_constant,
    _taylor_bounds,
    _taylor_sup_bounds,
    derivative_bounds,
    extend,
    schedule,
    verify,
)
from ultrajet.errors import (
    BoundOverflow,
    DepthExhausted,
    GridExhausted,
    InvariantViolation,
    NotLittleO,
    QuasianalyticInput,
    RangeExhausted,
    TailUnbounded,
    UltrajetError,
)
from ultrajet.fncore import (
    DEFAULT_X_GRID,
    GRID_HI,
    MATRIX_TOL,
    WeightMatrix,
    _tail_remainder,
    gevrey_dual,
    kappa,
    log_power,
    omega_conjugate_grid,
    omega_of_sequence,
    power,
    splitting_ok,
    tabulated,
    weight_matrix,
    young_conjugate_grid,
)
from ultrajet.geometry import (
    EXPANSION,
    box_grid,
    CubeDecomposition,
    cube_diagnostics,
    decompose,
    nearest_index,
)
import ultrajet.jets as jets_module
from ultrajet.jets import (
    INCIDENCE_BLOCK,
    CompactSet,
    Exp,
    Sin,
    Tensor,
    Ultrajet,
    _certify_plan,
    _leibniz_fold,
    _leibniz_terms,
    _taylor_plan,
    _taylor_sums,
    certify,
    jet_from_preset,
    multi_indices,
)
from ultrajet.pou import (
    RADII_BUDGET,
    CanonicalBump,
    _PiecewisePoly,
    _complement_bounds,
    _tensor_bump_bounds,
    _tensor_bump_derivs,
    build_pou,
    max_delta,
)
import ultrajet.seqcore as seqcore_module
from ultrajet.seqcore import (
    _FLAGS,
    _WITNESSES,
    C_CAP,
    DIVERGENCE_FLOOR,
    LOG_C_CAP,
    TAIL_EXPONENT_MARGIN,
    WeightSequence,
    _MinAffineEnvelope,
    _certify_divergence,
    _decay_exponent,
    _fit_quotient_model,
    _log_factorial,
    _model_tail_sum,
    _row_flags,
    descendant,
    from_mu,
    gamma_bar_soft,
    gamma_under_soft,
    gevrey,
    log_factorials,
    log_h_assoc,
    quotient_power,
)


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
            out += jet.values[a_index, jet.rank((alpha[0] + j,))] / factorial(j) * power
            power = power * dx
        return out
    dx = pts[:, 0] - a[0]
    dy = pts[:, 1] - a[1]
    for j1 in range(0, p - sum(alpha) + 1):
        for j2 in range(0, p - sum(alpha) - j1 + 1):
            beta = (alpha[0] + j1, alpha[1] + j2)
            out += (jet.values[a_index, jet.rank(beta)] / (factorial(j1) * factorial(j2))
                    * dx ** j1 * dy ** j2)
    return out


def reference_taylor_dots(coef, dx, exponents, q):
    """Degree-q Taylor sums at the offsets dx, one BLAS dot per row:
    sum_gamma coef[r, gamma] dx[r]^gamma over the exponents of a Taylor
    plan.  ``coef`` holds one row per offset, or one row for all."""
    powers = dx[:, None, :] ** np.arange(q + 1)[:, None]  # [r, k, d] = dx_d^k
    monomials = powers[:, exponents[0], 0]
    for d in range(1, dx.shape[1]):
        monomials = monomials * powers[:, exponents[d], d]
    sums = np.matmul(np.ascontiguousarray(coef)[..., None, :],
                     np.ascontiguousarray(monomials)[:, :, None])
    return sums[:, 0, 0]


def kernel_taylor_grid(jet, a_index, p, alpha, x):
    """The degree-(p - |alpha|) Taylor field of F^alpha from the set point
    a_index at the points x, as one call of the shared kernel ``_taylor_sums``."""
    alpha = tuple(alpha)
    q = p - sum(alpha)
    dx = np.asarray(x, dtype=float).reshape(-1, jet.cset.dim) - jet.cset.points[a_index]
    return _taylor_sums(jet.values, np.full(len(dx), a_index), dx, (alpha,), q)[:, 0]


def reference_taylor_grid(jet, a_index, p, alpha, x):
    """The Taylor field of :func:`kernel_taylor_grid` with its own
    coefficients, powers and dots: one coefficient row for all points, one
    dot per point.  The bitwise reference for every Taylor sum of the shared
    kernel."""
    alpha = tuple(alpha)
    dim = jet.cset.dim
    q = p - sum(alpha)
    ranks, exponents, inv_fact, _ = _taylor_plan(dim, (alpha,), q)
    dx = np.asarray(x, dtype=float).reshape(-1, dim) - jet.cset.points[a_index]
    return reference_taylor_dots(jet.values[a_index, ranks[0]] * inv_fact, dx, exponents, q)


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
    ai = int(dec.nearest_idx[i])
    total = 0.0
    if dec.dim == 1:
        for j in range(0, p_i - beta[0] + 1):
            total += abs(jet.values[ai, jet.rank((beta[0] + j,))]) / factorial(j) * r_max ** j
    else:
        for j1 in range(0, p_i - sum(beta) + 1):
            for j2 in range(0, p_i - sum(beta) - j1 + 1):
                g = (beta[0] + j1, beta[1] + j2)
                total += (abs(jet.values[ai, jet.rank(g)])
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
    got = kernel_taylor_grid(jet, a_index, p, alpha, x)
    want = oracle_taylor_grid(jet, a_index, p, alpha, x)
    # relative to the sum of the absolute values of the terms
    a = jet.cset.points[a_index]
    abs_jet = Ultrajet(jet.cset, jet.A_max, np.abs(jet.values))
    scale = oracle_taylor_grid(abs_jet, a_index, p, alpha, a + np.abs(x - a))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert _same_array(got, reference_taylor_grid(jet, a_index, p, alpha, x))


@st.composite
def taylor_sum_cases(draw):
    """A random value table on 1-5 points in dimension 1-3, 1-6 alphas, 1-8
    offsets from anchors in any order, and a Taylor degree in [-1, 8] per
    (offset, alpha) that the table holds: one per entry (mixed within a
    row), one per row or one per alpha, in the shape that broadcasts."""
    dim = draw(st.sampled_from((1, 2, 3)))
    A_max = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = np.unique(np.round(rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, 5)), dim)), 3),
                    axis=0)
    jet = Ultrajet(CompactSet(pts, ((-3.0, 3.0),) * dim), A_max,
                   rng.normal(size=(len(pts), len(multi_indices(dim, A_max)))))
    alphas = tuple(draw(st.lists(st.sampled_from(multi_indices(dim, A_max)),
                                 min_size=1, max_size=6)))
    anchors = np.array(draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=8)))
    x = rng.uniform(-3.0, 3.0, size=(len(anchors), dim))
    top = np.array([min(8, A_max - sum(alpha)) for alpha in alphas])  # per alpha
    shape = draw(st.sampled_from(((len(anchors), len(alphas)), (len(anchors), 1),
                                  (len(alphas),))))
    q = rng.integers(-1, (top if shape[-1] == len(alphas) else top.min()) + 1, size=shape)
    return jet, alphas, q, anchors, x


@settings(max_examples=150, deadline=None)
@given(taylor_sum_cases())
def test_taylor_sums_bitwise_equal_reference(case):
    """Each sum of degree q >= 0 is reference_taylor_grid's bit for bit, and
    the same bytes alone as inside the larger call; each of degree -1 is
    NaN.  No anchor gives an empty table."""
    jet, alphas, q, anchors, x = case
    dx = x - jet.cset.points[anchors]
    got = _taylor_sums(jet.values, anchors, dx, alphas, q)
    assert got.shape == (len(anchors), len(alphas))
    degree = np.broadcast_to(q, got.shape)
    for (r, j), q_rj in np.ndenumerate(degree):
        if q_rj < 0:
            assert np.isnan(got[r, j])
            continue
        alpha, a = alphas[j], int(anchors[r])
        want = reference_taylor_grid(jet, a, sum(alpha) + int(q_rj), alpha, x[r])
        alone = _taylor_sums(jet.values, anchors[r:r + 1], dx[r:r + 1], (alpha,), q_rj)
        assert _same_array(got[r, j:j + 1], want)
        assert _same_array(alone[0], want)
    empty = _taylor_sums(jet.values, anchors[:0], dx[:0], alphas, q[:0] if q.ndim == 2 else q)
    assert empty.shape == (0, len(alphas))


@settings(max_examples=150, deadline=None)
@given(jet_cases(), st.integers(0, 8), st.floats(0.01, 2.0))
def test_taylor_sup_bound_matches_oracle(case, degree, side):
    jet, a_index, _, alpha, _ = case
    dim = jet.cset.dim
    anchor = jet.cset.points[a_index]
    dec = SimpleNamespace(dim=dim, nearest_points=anchor[None, :],
                          nearest_idx=np.array([a_index]), sides=np.array([side]),
                          _half_star=np.array([side * (EXPANSION / 2.0)]),
                          centers=(anchor + 1.5 * side)[None, :])
    field = SimpleNamespace(jet=jet, pou=SimpleNamespace(dec=dec),
                            sched=SimpleNamespace(degrees=np.array([min(degree, jet.A_max)])))
    got = _taylor_sup_bounds(field, [alpha])[alpha][0]
    want = oracle_taylor_sup_bound(field, 0, alpha)
    assert abs(got - want) <= 1e-12 * want
    assert _bits(got) == _bits(oracle_cube_taylor_bound(field, 0, alpha))


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


def oracle_phi_bound(pou, i, beta, memo=None):
    """The bound table of cube i at order |beta| is kept in ``memo``, when
    one is given, keyed by (cube, order)."""
    memo = {} if memo is None else memo
    key = ("phi_bound", i, sum(beta))
    if key not in memo:
        multis = multi_indices(pou.dec.dim, sum(beta))
        bounds = {m: oracle_psi_bound(pou, i, m) for m in multis}
        for k in oracle_earlier_neighbors(pou, i):
            fac = {m: (1.0 if sum(m) == 0 else oracle_psi_bound(pou, k, m))
                   for m in multis}
            bounds = _leibniz_fold(bounds, fac, multis)
        memo[key] = bounds
    return float(memo[key][tuple(beta)])


def oracle_phi_bounds(pou, i, up_to):
    """The per-cube fold of the partition bounds: cube i's tensor bump
    bounds folded over the complement bounds of each earlier neighbor."""
    dim = pou.dec.dim
    psi = [_tensor_bump_bounds(pou.canonical, float(pou.dec.sides[k]) / 2.0, dim, up_to)
           for k in [i] + [k for k in pou.dec.neighbors[i] if k < i]]
    tab = psi[0]
    for fac in psi[1:]:
        tab = _leibniz_fold(tab, _complement_bounds(fac), multi_indices(dim, up_to))
    return tab


def oracle_cube_taylor_bound(field, i, beta):
    """Sup bound of |d^beta T_i| over Q_i*, one cube and one beta per call."""
    jet = field.jet
    dec = field.pou.dec
    p_i = int(field.sched.degrees[i])
    if sum(beta) > p_i:
        return 0.0
    anchor = dec.nearest_points[i]
    half = dec.sides[i] * EXPANSION / 2.0
    corners = np.array(np.meshgrid(*[[-half, half]] * dec.dim)).T.reshape(-1, dec.dim)
    r_max = float(np.max(np.linalg.norm(dec.centers[i] + corners - anchor, axis=1)))
    ranks, _, inv_fact, order = _taylor_plan(dec.dim, (tuple(beta),), p_i - sum(beta))
    coef = np.abs(jet.values[int(dec.nearest_idx[i]), ranks[0]]) * inv_fact
    return float(coef @ r_max ** order)


def oracle_cube_derivative_bounds(field, up_to):
    """derivative_bounds as a fold per cube, then the max over cubes."""
    dec = field.pou.dec
    multis = multi_indices(dec.dim, up_to)
    per_cube = [_leibniz_fold({beta: oracle_cube_taylor_bound(field, i, beta)
                               for beta in multis},
                              oracle_phi_bounds(field.pou, i, up_to), multis)
                for i in range(dec.n_cubes)]
    overlap = dec.max_overlap() + 1
    return {m: overlap * max([0.0] + [t[m] for t in per_cube]) for m in multis}


def oracle_mask(dec, i, pts, half=None):
    """The points in the box of half-width ``half`` about center i, Q_i* by default."""
    half = dec.sides[i] * EXPANSION / 2.0 if half is None else half
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
        out |= oracle_mask(pou.dec, i, pts, half=pou.dec.sides[i] / 2.0)
    return out


def oracle_cubes_containing(dec, x):
    half = dec.sides * (EXPANSION / 2.0)
    inside = np.all(np.abs(dec.centers - x) <= half[:, None], axis=1)
    return np.where(inside)[0]


def oracle_cube_sum(field, pts, alpha, memo):
    """``memo`` keeps the partition tables at pts by (cube, order)."""
    dec = field.pou.dec
    out = np.zeros(len(pts))
    for i in range(dec.n_cubes):
        mask = oracle_mask(dec, i, pts)
        if not np.any(mask):
            continue
        sub = pts[mask]
        key = ("phi", i, sum(alpha))
        if key not in memo:
            memo[key] = oracle_phi_derivs(field.pou, i, sub, sum(alpha))
        tables = memo[key]
        acc = np.zeros(len(sub))
        p_i = int(field.sched.degrees[i])
        for beta, gamma, coef in _leibniz_terms(alpha):
            if sum(beta) <= p_i:
                acc += coef * tables[gamma] * reference_taylor_grid(
                    field.jet, int(dec.nearest_idx[i]), p_i, beta, sub)
        out[mask] += acc
    return out


def oracle_row(cset, a) -> int:
    """The row of the one set point within 1e-12 of ``a`` on every axis."""
    hits = np.flatnonzero(np.all(np.abs(cset.points - a) < 1e-12, axis=1))
    assert len(hits) == 1
    return int(hits[0])


def oracle_derivative_grid(field, pts, alpha, memo):
    """``memo`` is one dict per field and pts, shared across alphas."""
    out = oracle_cube_sum(field, pts, alpha, memo)
    on_set = oracle_point_flags(field, pts)["on_set"]
    for k in np.where(on_set)[0]:
        out[k] = field.jet.values[oracle_row(field.jet.cset, pts[k]), field.jet.rank(alpha)]
    return out


def oracle_derivative_bounds(field, up_to, memo):
    """``memo`` is one dict per field."""
    dec = field.pou.dec
    multis = multi_indices(dec.dim, up_to)
    overlap = dec.max_overlap() + 1
    out = {}
    for m in multis:
        per_point_max = 0.0
        for i in range(dec.n_cubes):
            acc = 0.0
            for beta, gamma, coef in _leibniz_terms(m):
                if ("taylor", i, beta) not in memo:
                    memo["taylor", i, beta] = oracle_cube_taylor_bound(field, i, beta)
                acc += (coef * oracle_phi_bound(field.pou, i, gamma, memo)
                        * memo["taylor", i, beta])
            per_point_max = max(per_point_max, acc)
        out[m] = overlap * per_point_max
    return out


# -- random partitions and extension fields --------------------------------------------

SEQ = gevrey(1.0)


@st.composite
def field_cases(draw):
    """An extension field with random jet values and per-cube degrees on the
    cover of a random set of distinct points, an order up_to <= order_cap
    and sample points (the set points among them)."""
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
    assert np.array_equal(dec.nearest_idx, [oracle_row(cset, a) for a in dec.nearest_points])
    field = ExtensionField(jet=jet, pou=pou, sched=sched)
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=(60, dim)), pts])
    return field, up_to, x


def boundary_case_3d():
    """A field on a depth-3 cover in R^3 whose samples lie exactly on two
    faces and two corners of every seventh expanded cube, then one float
    beyond each, where ``<=`` decides the incidence; order 1."""
    box = ((-1.0, 1.0),) * 3
    cset = CompactSet(np.array([[0.25, -0.5, 0.125], [-0.5, 0.5, -0.25]]), box)
    dec = decompose(box, cset, depth_cap=3)
    rng = np.random.default_rng(3)
    jet = Ultrajet(cset, 3, rng.uniform(-3.0, 3.0, size=(2, len(multi_indices(3, 3)))))
    sched = DegreeSchedule(dec=dec, degrees=rng.integers(0, 4, dec.n_cubes),
                           capped=np.zeros(dec.n_cubes, dtype=bool), L=1.0,
                           mode="single", s_prime=None)
    steps = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, -1.0, 1.0], [-1.0, -1.0, -1.0]])
    i = np.arange(0, dec.n_cubes, 7)
    step, c = np.tile(steps, (len(i), 1)), dec.centers[i].repeat(len(steps), axis=0)
    h = (dec.sides[i] * EXPANSION / 2.0).repeat(len(steps))[:, None]
    on = beyond = c + h * step  # dyadic: on the face or corner exactly
    while (inside := (np.abs(beyond - c) <= h) & (step != 0)).any():  # the first float beyond
        beyond = np.where(inside, np.nextafter(beyond, beyond + step), beyond)
    for k, rows in zip(i, np.split(np.arange(len(on)), len(i))):
        assert oracle_mask(dec, k, on[rows]).all() and not oracle_mask(dec, k, beyond[rows]).any()
    field = ExtensionField(jet=jet, pou=build_pou(dec, SEQ, order_cap=1), sched=sched)
    return field, 1, np.concatenate([on, beyond, cset.points])


@settings(max_examples=40, deadline=None)
@given(field_cases())
@example(boundary_case_3d())
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
    memo = {}
    for alpha in multi_indices(field.jet.cset.dim, up_to):
        assert np.array_equal(field.derivative_grid(x, alpha),
                              oracle_derivative_grid(field, x, alpha, memo))
    got = derivative_bounds(field, up_to)
    want = oracle_derivative_bounds(field, up_to, {})
    assert got.keys() == want.keys()
    assert all(abs(got[m] - want[m]) <= 1e-14 * want[m] for m in want)


@settings(max_examples=40, deadline=None)
@given(field_cases())
def test_derivative_bounds_bitwise_equal_per_cube_fold(case):
    field, up_to, _ = case
    got = derivative_bounds(field, up_to)
    want = oracle_cube_derivative_bounds(field, up_to)
    assert got.keys() == want.keys()
    assert all(_bits(got[m]) == _bits(want[m]) for m in want)
    tables = field.pou.phi_bounds(up_to)
    for i in range(field.pou.dec.n_cubes):
        per_cube = oracle_phi_bounds(field.pou, i, up_to)
        assert all(_bits(tables[m][i]) == _bits(per_cube[m]) for m in per_cube)


def oracle_point_flags(field, pts):
    """The flags from the all-pairs (points x set points x dim) distances."""
    e = field.jet.cset.points
    d = np.sqrt(((pts[:, None, :] - e[None, :, :]) ** 2).sum(-1)).min(1)
    return {"on_set": d < 1e-12,
            "collar": (d >= 1e-12) & (d <= field.pou.dec.collar_radius)}


@settings(max_examples=40, deadline=None)
@given(field_cases())
def test_point_flags_and_on_set_values_equal_oracle(case):
    # queries exactly on, 1e-13 off (on the set too) and 1e-11 off (not)
    # every set point, then the random samples
    field, up_to, x = case
    pts = field.jet.cset.points
    n = len(pts)
    q = np.concatenate([pts, pts + 1e-13, pts - 1e-11, x])
    want = oracle_point_flags(field, q)
    assert want["on_set"][:2 * n].all() and not want["on_set"][2 * n:3 * n].any()
    for alpha in multi_indices(field.jet.cset.dim, up_to):
        values = field.derivative_grid(q, alpha)
        for k in np.flatnonzero(want["on_set"]):
            assert values[k] == field.jet.values[oracle_row(field.jet.cset, q[k]), field.jet.rank(alpha)]


def _grids_equal_oracle(field, up_to, x, block):
    """Every order of one derivative_grids call, with INCIDENCE_BLOCK set to
    ``block`` in jets, is bit for bit the one-order call and the oracle."""
    alphas = multi_indices(field.jet.cset.dim, up_to)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
        grids = field.derivative_grids(x, alphas)
    assert list(grids) == alphas
    memo = {}
    for alpha in alphas:
        want = oracle_derivative_grid(field, x, alpha, memo)
        assert _same_array(grids[alpha], want)
        assert _same_array(field.derivative_grid(x, alpha), want)


@settings(max_examples=10, deadline=None)
@given(field_cases(), st.sampled_from((1, 7, INCIDENCE_BLOCK)))
def test_derivative_grids_equal_one_order_calls_and_oracle(case, block):
    # a block of 1 or 7 (pair x term) entries splits every cube's pairs
    _grids_equal_oracle(*case, block)


@st.composite
def field_cases_3d(draw):
    """An extension field on a cover of at most 3 points in R^3 at depth
    <= 3, with random jet values and degrees, an order up_to <= order_cap
    and 20 sample points (the set points among them)."""
    order_cap = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    pts = np.unique(np.round(rng.uniform(-0.8, 0.8, size=(draw(st.integers(1, 3)), 3)), 3),
                    axis=0)
    box = ((-1.0, 1.0),) * 3
    cset = CompactSet(pts, box)
    dec = decompose(box, cset, depth_cap=draw(st.integers(2, 3)))
    pou = build_pou(dec, SEQ, order_cap=order_cap)
    A_max = order_cap + 2
    jet = Ultrajet(cset, A_max, rng.uniform(-3.0, 3.0, size=(len(pts), len(
        multi_indices(3, A_max)))))
    sched = DegreeSchedule(dec=dec, degrees=rng.integers(0, A_max + 1, dec.n_cubes),
                           capped=np.zeros(dec.n_cubes, dtype=bool), L=1.0,
                           mode="single", s_prime=None)
    assert np.array_equal(dec.nearest_idx, [oracle_row(cset, a) for a in dec.nearest_points])
    field = ExtensionField(jet=jet, pou=pou, sched=sched)
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=(20, 3)), pts])
    return field, draw(st.integers(0, order_cap)), x


@settings(max_examples=8, deadline=None)
@given(field_cases_3d(), st.sampled_from((5, INCIDENCE_BLOCK)))
def test_derivative_grids_in_three_dimensions_equal_oracle(case, block):
    _grids_equal_oracle(*case, block)


def oracle_taylor_bounds(field, target_seq, approach):
    """The realized Taylor-field constants, one reference_taylor_grid call
    per (point, alpha) and Python's running max."""
    jet, L = field.jet, field.sched.L
    tb = {"field_bound_C": 0.0, "increment_bound_C": 0.0}
    s_all = np.exp(target_seq.logM[: jet.A_max + 2])
    for d, pts, anchors in approach:
        gb, _ = gamma_bar_soft(field.sched.s_prime, np.array([L * d]))
        p = min(2 * int(gb[0]), jet.A_max)
        for x, ai in zip(pts, anchors.tolist()):
            for alpha in multi_indices(jet.cset.dim, min(p, 4)):
                t_val = reference_taylor_grid(jet, ai, p, alpha, x[None, :])[0]
                tot = sum(alpha)
                denom = (2.0 * L) ** (tot + 1) * s_all[tot]
                tb["field_bound_C"] = max(tb["field_bound_C"], abs(t_val) / denom)
                if tot < p:
                    diff = abs(t_val - jet.values[ai, jet.rank(alpha)])
                    small_s = np.exp(target_seq.log_m[tot + 1])
                    denom2 = ((2.0 * L) ** (tot + 1) * factorial(tot)
                              * small_s * d)
                    tb["increment_bound_C"] = max(tb["increment_bound_C"],
                                                  diff / denom2)
    return tb


@settings(max_examples=40, deadline=None)
@given(field_cases(), st.sampled_from((1.0, 8.0, 64.0)), st.booleans())
def test_taylor_bounds_bitwise_equal_per_point_loop(case, L, poison):
    field, _, _ = case
    jet = field.jet
    if poison:
        # F(a) = inf at every point: each increment with p >= 1 is inf - inf
        values = jet.values.copy()
        values[:, 0] = np.inf
        jet = replace(jet, values=values)
    field = replace(field, jet=jet, sched=replace(field.sched, L=L, s_prime=SEQ.view("m")))
    scales = np.array([0.25, 0.0625, 2.0 ** -6])
    approach = []
    for d in scales.tolist():
        _, pts, anchors = _approach_points(jet.cset, [d], field.pou.dec.box)
        if len(pts):
            approach.append((d, pts, anchors))
    scale_of, pts, anchors = _approach_points(jet.cset, scales, field.pou.dec.box)
    with np.errstate(invalid="ignore"):
        got = _taylor_bounds(field, SEQ, scales[scale_of], pts, anchors)
        want = oracle_taylor_bounds(field, SEQ, approach)
    assert got.keys() == want.keys()
    assert all(_bits(got[k]) == _bits(want[k]) for k in want)


def oracle_verify(field, target_seq, orders, approach_scales, growth_orders=None,
                  grid_points=800):
    """The verifier with one evaluation pass per approach scale, one more
    over the growth grid, one envelope query per fit constant K and the
    Taylor constants from the per-point loop."""
    jet, dec, cset = field.jet, field.pou.dec, field.jet.cset
    approach = []
    for d in approach_scales:
        _, pts, _ = _approach_points(cset, [float(d)], dec.box)
        if len(pts):
            approach.append((float(d), pts, nearest_index(pts, cset)[0]))
    alphas = [tuple(a) if isinstance(a, (tuple, list)) else (int(a),) for a in orders]
    for alpha in alphas:
        if len(alpha) != cset.dim:
            raise ValueError(f"order {alpha} does not match dimension {cset.dim}")
    at_scale = [field._grids(pts, alphas) for _, pts, _ in approach]
    residuals = []
    for alpha in alphas:
        for (d, pts, anchors), (vals, _, cube) in zip(approach, at_scale):
            ref = jet.values[anchors, jet.rank(alpha)]
            residuals.append({
                "alpha": list(alpha), "d": d,
                "residual": float(np.max(np.abs(vals[alpha] - ref))),
                "capped": bool(np.any(field.sched.capped[cube])),
                "n_points": len(pts)})
    fit = None
    clean = [r for r in residuals if not r["capped"]]
    if clean:
        d = np.array([r["d"] for r in clean])
        res = np.array([r["residual"] for r in clean])
        for K in (2.0 ** i for i in range(-8, 13)):
            lh = log_h_assoc(field.sched.s_prime, K * d)
            h = np.where(np.isfinite(lh), np.exp(lh), 0.0)
            needed = float(np.fmax.reduce(res / (h + d), initial=0.0))
            if np.isfinite(needed) and (fit is None or needed < fit["C_prime"]):
                fit = {"K": K, "C_prime": needed}
    g_ord = growth_orders if growth_orders is not None else max(map(sum, alphas))
    grid = box_grid(dec.box, int(round(grid_points ** (1.0 / dec.dim))))
    sups = {m: float(np.max(np.abs(v))) for m, v in
            field.derivative_grids(grid, multi_indices(dec.dim, g_ord)).items()}
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
            "taylor_bounds": oracle_taylor_bounds(field, target_seq, approach)}


def _outcome(fn, *args, **kwargs):
    """The report's verification sections as exact JSON (a float's repr
    names its bits), or the type of the exception raised."""
    try:
        rep = fn(*args, **kwargs)
    except (UltrajetError, ValueError) as exc:
        return type(exc)
    return json.dumps({k: rep[k] for k in ("residuals", "fit", "growth", "taylor_bounds")})


@settings(max_examples=60, deadline=None)
@given(st.one_of(field_cases(), field_cases_3d()), st.data())
def test_verify_one_pass_equals_per_scale_oracle(case, data):
    # duplicate orders and scales, orders past the partition cap, scales
    # whose points all leave the box or round onto the set, growth orders
    # below, at and above the top verified order
    field, _, _ = case
    dim, cap = field.jet.cset.dim, field.pou.order_cap
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    field = replace(
        field, jet=replace(field.jet, certificate=SimpleNamespace(C=1.0)),
        sched=replace(field.sched, L=data.draw(st.sampled_from((1.0, 8.0, 64.0))),
                      s_prime=SEQ.view("m"),
                      capped=rng.random(field.pou.dec.n_cubes) < data.draw(
                          st.sampled_from((0.0, 0.02, 0.2)))))
    orders = data.draw(st.lists(st.sampled_from(multi_indices(dim, cap)),
                                min_size=1, max_size=5))
    if rng.random() < 0.06:
        orders.append((cap + 1,) + (0,) * (dim - 1))
    scales = data.draw(st.lists(st.sampled_from(
        (0.25, 0.125, 0.0625, 0.03125, 2.0 ** -6, 0.5, 1.5, 3.0, 1e-17, 1e-13)),
        min_size=1, max_size=5))
    growth = data.draw(st.sampled_from([None, None, *range(cap + 1)]))
    if rng.random() < 0.06:
        growth = cap + 1
    kwargs = {"growth_orders": growth,
              "grid_points": data.draw(st.sampled_from((8, 30, 64)))}
    with np.errstate(invalid="ignore", over="ignore"):
        got = _outcome(verify, field, SEQ, orders, scales, **kwargs)
        want = _outcome(oracle_verify, field, SEQ, orders, scales, **kwargs)
    assert got == want


@pytest.mark.parametrize("cap_beyond, capped", [
    (0.1, [True, True, False, True]), (0.15, [False, False, False, True])])
def test_verify_row_groups_of_the_approach_table_equal_oracle(cap_beyond, capped):
    # the set {-0.5, 0.6} in [-1, 1]: the scale 0.125 twice gives two row
    # groups; 0.75 keeps no step (two leave the box, two are nearer the other
    # point) between two scales that keep steps; 0.45 keeps 3 (1.05 leaves)
    cset = CompactSet(np.array([[-0.5], [0.6]]), ((-1.0, 1.0),))
    dec = decompose(cset.box, cset, depth_cap=6)
    rng = np.random.default_rng(0)
    jet = Ultrajet(cset, 4, rng.uniform(-3.0, 3.0, size=(2, 5)),
                   certificate=SimpleNamespace(C=1.0))
    sched = DegreeSchedule(dec=dec, degrees=rng.integers(0, 5, dec.n_cubes),
                           capped=dec.cube_dist > cap_beyond, L=8.0, mode="single",
                           s_prime=SEQ.view("m"))
    field = ExtensionField(jet=jet, pou=build_pou(dec, SEQ, order_cap=2), sched=sched)
    args = (field, SEQ, [0, 1, 2], [0.125, 0.125, 0.75, 0.0625, 0.45])
    rows = [(r["d"], r["n_points"], r["capped"])
            for r in verify(*args, grid_points=30)["residuals"]]
    assert rows == list(zip([0.125, 0.125, 0.0625, 0.45], [4, 4, 4, 3], capped)) * 3
    assert _outcome(verify, *args, grid_points=30) == _outcome(oracle_verify, *args,
                                                               grid_points=30)


@settings(max_examples=20, deadline=None)
@given(st.one_of(field_cases(), field_cases_3d()), st.integers(0, 30), st.integers(0, 30))
def test_grids_rows_do_not_depend_on_the_other_rows(case, n_before, n_after):
    field, up_to, x = case
    dim = field.jet.cset.dim
    rng = np.random.default_rng(n_before * 31 + n_after)
    big = np.concatenate([rng.uniform(-1.0, 1.0, size=(n_before, dim)), x,
                          rng.uniform(-1.0, 1.0, size=(n_after, dim))])
    alphas = multi_indices(dim, up_to)
    vals, point, cube = field._grids(x, alphas)
    big_vals, big_point, big_cube = field._grids(big, alphas)
    rows = (n_before <= big_point) & (big_point < n_before + len(x))
    assert np.array_equal(big_point[rows] - n_before, point)
    assert np.array_equal(big_cube[rows], cube)
    for alpha in alphas:
        assert _same_array(big_vals[alpha][n_before:n_before + len(x)], vals[alpha])


# -- certification, bump stages and cube diagnostics: the per-term loops ----------

def oracle_certify(jet, seq, rho, P_max, form="pointwise"):
    """``certify`` by the per-term loop.  ``form`` "factored" scales the
    remainders by rho^{p+1} |alpha|! m_{p+1} |b-a|^q instead of rho^{p+1}
    M_{p+1} |b-a|^q / q!, q = p+1-|alpha|: a binomial factor smaller."""
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
            if float((b - a) @ (b - a)) < np.finfo(float).tiny and np.any(b != a):
                # |b - a|^2 loses bits or underflows: scale by the largest coordinate
                s = float(np.max(np.abs(b - a)))
                dist = s * float(np.linalg.norm((b - a) / s))
            for p in range(0, P_max + 1):
                for alpha in multi_indices(jet.cset.dim, p):
                    rem = abs(jet.values[j, jet.rank(alpha)]
                              - reference_taylor_grid(jet, i, p, alpha, b[None, :])[0])
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
        diam = float(dec.diam()[i])
        xhat_i = dec.nearest_points[i]
        for x in xs:
            d_x = float(np.sqrt(np.sum((pts - x) ** 2, axis=1).min()))
            xhat = dec.cset.points[nearest_index(x, dec.cset)[0][0]]
            checks = [
                ("center_over_point", d_i / d_x, 3.0),
                ("point_over_center", d_x / d_i, 2.0),
                ("point_over_diam", d_x / diam, 9.0),
                ("diam_over_point", diam / d_x, 3.0),
                ("anchor_travel", float(np.linalg.norm(xhat_i - x)) / d_i, 2.0),
                ("anchor_spread", float(np.linalg.norm(xhat_i - xhat)) / d_i, 4.0),
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
    tensor of sines (whose remainders can bind); P_max <= A_max and rho."""
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
            draw(st.integers(0, A_max)))


ONE_POINT = jet_from_preset(Sin(), CompactSet(np.array([[0.5]]), ((-3.0, 3.0),)), 6)
PAIR = jet_from_preset(Sin(1.3, 0.2), CompactSet(np.array([[0.1], [0.4]]), ((-3.0, 3.0),)), 8)
# equally spaced: every distance but the largest repeats
EVEN = jet_from_preset(Sin(0.9, 0.4), CompactSet(np.arange(-1.5, 1.75, 0.5)[:, None],
                                                  ((-3.0, 3.0),)), 10)


@settings(max_examples=80, deadline=None)
@given(certify_cases())
@example((ONE_POINT, gevrey(1.0, K_max=8), 1.0, 6))
@example((PAIR, gevrey(1.0, K_max=10), 2.0, 3))  # P_max < A_max
@example((EVEN, gevrey(1.0, K_max=12), 1.0, 10))
def test_certify_bitwise_equals_oracle(case):
    """Also with INCIDENCE_BLOCK at 1 and 7 in jets, so that blocks of pairs
    split the rows of one base point."""
    jet, seq, rho, P_max = case
    with np.errstate(divide="ignore", invalid="ignore"):
        C, binding = oracle_certify(jet, seq, rho, P_max)
        for block in (INCIDENCE_BLOCK, 1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
                if not isfinite(C):  # no certificate rests on an infinite C
                    with pytest.raises(BoundOverflow):
                        certify(jet, seq, rho=rho, P_max=P_max)
                    continue
                got = certify(jet, seq, rho=rho, P_max=P_max)
            assert _bits(got.C) == _bits(C)
            assert got.binding == binding


def oracle_first_max(ratios, best):
    """The largest ratio past ``best`` and its first index, on a copy of the
    table with every NaN made -inf."""
    flat = np.where(np.isnan(ratios), -np.inf, ratios).ravel()
    k = int(np.argmax(flat))
    if flat[k] > best:
        return flat[k], tuple(int(v) for v in np.unravel_index(k, ratios.shape))
    return best, None


NAN = float("nan")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(st.one_of(st.floats(), st.sampled_from([NAN, 0.0, -0.0, 1.0])),
                      min_size=cols, max_size=cols), min_size=1, max_size=4),
    st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, 1.0])))))
@example(([[NAN, 1.0, 3.0], [2.0, 0.5, 3.0]], 0.0))  # a NaN before the maximum
@example(([[1.0, NAN, 0.5]], 0.0))  # at the maximum's place
@example(([[1.0, 3.0], [NAN, 2.0]], 0.0))  # after it
@example(([[NAN, NAN], [NAN, NAN]], 0.0))  # all NaN
@example(([[NAN, 2.0]], 5.0))  # nothing past best
def test_first_max_equals_nan_free_copy_oracle(case):
    # argmax stops at the first NaN, so only then is the table copied without them
    table, best = case
    ratios = np.array(table, dtype=float)
    (got, at), (want, want_at) = jets_module._first_max(ratios, best), oracle_first_max(ratios, best)
    assert _bits(got) == _bits(want) and at == want_at


@settings(max_examples=40, deadline=None)
@given(certify_cases())
def test_certify_remainders_bitwise_equal_taylor_grid(case):
    """certify's remainders |F^alpha(b) - T|, T from one kernel call over
    every pair and candidate, are the per-point Taylor field's bit for bit."""
    jet, _, _, P_max = case
    n = len(jet.cset.points)
    p_of, alpha_of, alphas, *_ = _certify_plan(jet.cset.dim, P_max)
    assert alphas == tuple(jet.multi[al] for al in alpha_of.tolist())
    if n == 1:
        return  # no pair
    a, b = np.nonzero(~np.eye(n, dtype=bool))  # every pair a != b, in (a, b) order
    q_of = p_of - np.array([sum(alpha) for alpha in alphas])
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.abs(jet.values[b[:, None], alpha_of] - _taylor_sums(
            jet.values, a, jet.cset.points[b] - jet.cset.points[a], alphas, q_of))
    for row, (i, j) in enumerate(zip(a, b)):
        pt = jet.cset.points[j][None, :]
        want = [abs(jet.values[j, al]
                    - reference_taylor_grid(jet, i, p, jet.multi[al], pt)[0])
                for p, al in zip(p_of, alpha_of)]
        assert table[row].tobytes() == np.array(want).tobytes()


def test_block_of_64_entries_changes_no_bit():
    """With INCIDENCE_BLOCK at 64 in jets, certify (C and binding), the
    Taylor-field bounds and derivative_grids are their default-block
    results bit for bit: 64 entries split the pairs of certify and of the
    field, and the rows of every Taylor-sum call."""
    cset = CompactSet(np.array([[-0.5, 0.3], [0.6, -0.4], [0.1, 1.1], [-1.2, -0.9]]),
                      ((-3.0, 3.0),) * 2)
    jet = jet_from_preset(Tensor(Sin(), Exp(0.5)), cset, 8)
    dec = decompose(cset.box, cset, depth_cap=6)  # cube degrees 0-8 at L = 1
    pou = build_pou(dec, SEQ, order_cap=2)
    scales = np.array([0.25, 0.125, 0.0625])
    scale_of, pts, anchors = _approach_points(cset, scales, dec.box)
    x = box_grid(dec.box, 30)

    def results():
        cert = certify(jet, SEQ, rho=1.0)
        field = extend(jet.with_certificate(cert), pou, schedule(dec, SEQ, L=1.0, A_max=8))
        return (cert, _taylor_bounds(field, SEQ, scales[scale_of], pts, anchors),
                field.derivative_grids(x, multi_indices(2, 2)))

    want = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "INCIDENCE_BLOCK", 64)
        got = results()
    assert _bits(got[0].C) == _bits(want[0].C) and got[0].binding == want[0].binding
    assert all(_bits(got[1][k]) == _bits(want[1][k]) for k in want[1])
    assert all(_same_array(got[2][m], want[2][m]) for m in want[2])


@st.composite
def canonical_bumps(draw):
    """A canonical bump of 1-10 stages, its non-increasing radii filling
    20-100% of the budget."""
    radii = np.sort(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=10)))[::-1]
    return CanonicalBump(radii * (draw(st.floats(0.2, 1.0)) * RADII_BUDGET / np.sum(radii)))


# the benchmark workloads' bumps (pou.order_cap 3 and 4)
def cap_bump(seq, J):
    """The canonical bump that build_pou takes for J stages at delta = max_delta."""
    return CanonicalBump(max_delta(seq, J) * np.exp(-seq.log_mu[1:J + 1]))


def plateau_and_support(bump):
    """The half-widths of the plateau and of the support of a canonical bump:
    9/8 less the radii, and the last break of its first stage."""
    return bump.a - float(np.sum(bump.radii)), float(bump.stages[1].breaks[-1])


WORKLOAD_BUMPS = tuple(cap_bump(gevrey(1.0), J) for J in (7, 8))


@settings(max_examples=25, deadline=None)
@given(canonical_bumps())
@example(WORKLOAD_BUMPS[0])
@example(WORKLOAD_BUMPS[1])
@example(CanonicalBump(np.full(4, 2.0 ** -7)))  # dyadic: window edges meet exactly
@example(CanonicalBump([RADII_BUDGET / 2.0]))
@example(cap_bump(gevrey(1.0), 10))
def test_bump_stages_bitwise_equal_oracle(bump):
    stage = bump.stages[bump.J + 1]
    for m in range(bump.J, 0, -1):
        got = bump.stages[m]
        stage = oracle_convolve_uniform(stage, float(bump.radii[m - 1]),
                                        (got.plateau_lo, got.plateau_hi))
        for attr in ("breaks", "mids", "coeffs", "cumint"):
            assert getattr(got, attr).tobytes() == getattr(stage, attr).tobytes()


def test_equal_dyadic_radii_merge_window_edges():
    """The equal-radii example above takes the break deduplication path."""
    bump = CanonicalBump(np.full(4, 2.0 ** -7))
    assert any(len(bump.stages[m].breaks) < 2 * len(bump.stages[m + 1].breaks)
               for m in range(1, bump.J + 1))


def oracle_bump_eval(bump, u, j=0):
    """CanonicalBump.eval as one stage call per shift u + s . radii[:j]."""
    u = np.asarray(u, dtype=float)
    stage = bump.stages[j + 1]
    if j == 0:
        return np.clip(stage(u), 0.0, 1.0)
    out = np.zeros_like(u)
    scale = float(np.prod(1.0 / (2.0 * bump.radii[:j])))
    for signs in product((1.0, -1.0), repeat=j):
        shift = float(np.dot(signs, bump.radii[:j]))
        out += np.prod(signs) * stage(u + shift)
    return scale * out


def _bump_points(bump, j, rng):
    """Random points of [-1.3, 1.3], points whose shifted copies land on a
    piece break of stage j+1, the plateau and support ends, points outside
    the support, signed zeros and NaN."""
    signs = rng.choice((1.0, -1.0), size=(12, j))
    on_breaks = [float(rng.choice(bump.stages[j + 1].breaks)) - float(np.dot(s, bump.radii[:j]))
                 for s in signs]
    plateau, support = plateau_and_support(bump)
    ends = [support, plateau, bump.a, 1.0, 9.0 / 8.0, 1.5, 1e300, 0.0]
    return np.concatenate([rng.uniform(-1.3, 1.3, 40), on_breaks, ends,
                           [-e for e in ends], [np.nan, np.nan]])


@settings(max_examples=20, deadline=None)
@given(canonical_bumps(), st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 200, INCIDENCE_BLOCK)))
@example(WORKLOAD_BUMPS[1], 0, INCIDENCE_BLOCK)
def test_bump_eval_bitwise_equals_per_shift_oracle(bump, seed, block):
    """Every derivative j <= J - 1, with INCIDENCE_BLOCK in jets at ``block``,
    on a flat and a two-row point array; and the 2D tensor tables."""
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
        for j in range(bump.J):
            u = _bump_points(bump, j, rng)
            for pts in (u, u.reshape(2, -1)):
                got, want = bump.eval(pts, j), oracle_bump_eval(bump, pts, j)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    x = rng.uniform(-2.0, 2.0, size=(60, 2))
    centers, radii = rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(0.5, 1.5, 3)
    owner = rng.integers(0, 3, len(x))
    up_to = min(bump.J - 1, 3)
    got = _tensor_bump_derivs(bump, x, centers, radii, owner, up_to)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CanonicalBump, "eval", oracle_bump_eval)
        want = _tensor_bump_derivs(bump, x, centers, radii, owner, up_to)
    assert got.keys() == want.keys()
    assert all(got[m].tobytes() == want[m].tobytes() for m in want)


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
    """Also with INCIDENCE_BLOCK at 1 and 7 in jets, so that the blocks
    of nearest_index split the samples of one cube."""
    dec, samples, seed = case
    try:
        want = oracle_cube_diagnostics(dec, samples, seed)
    except InvariantViolation as exc:
        want = exc
    for block in (INCIDENCE_BLOCK, 1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
            if isinstance(want, InvariantViolation):
                with pytest.raises(InvariantViolation) as got:
                    cube_diagnostics(dec, samples, seed)
                assert str(got.value) == str(want)
                continue
            got = cube_diagnostics(dec, samples, seed)
        assert got.keys() == want.keys()
        assert all(_bits(got[k]) == _bits(want[k]) for k in want)


# -- the Whitney cover: the breadth-first loop and the per-point nearest scan -------

def oracle_nearest(x, cset):
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = np.sum((cset.points - x) ** 2, axis=1)
    ties = np.where(d2 <= d2.min())[0]
    return cset.points[ties[np.lexsort(cset.points[ties].T[::-1])[0]]].copy()


def oracle_cube_distance(center, side, pts):
    clamped = np.clip(pts, center - side / 2.0, center + side / 2.0)
    return float(np.sqrt(np.sum((pts - clamped) ** 2, axis=1).min()))


def oracle_decompose(box, cset, depth_cap, min_feature_scale=None):
    """One cube per iteration of a breadth-first queue; neighbors by one gap
    test per cube; distances recomputed per cube."""
    dim = cset.dim
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    pts = cset.points
    root_side = box[0][1] - box[0][0]
    sqrt_n = float(np.sqrt(dim))
    acc_centers, acc_sides, col_centers, col_sides = [], [], [], []
    queue = deque([(np.array([(lo + hi) / 2.0 for lo, hi in box]), root_side, 0)])
    offsets = list(product((-0.25, 0.25), repeat=dim))
    while queue:
        center, side, depth = queue.popleft()
        d_cube = oracle_cube_distance(center, side, pts)
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
                queue.append((center + side * np.asarray(off), side / 2.0, depth + 1))
    centers = np.asarray(acc_centers).reshape(-1, dim)
    sides = np.asarray(acc_sides, dtype=float)
    n = len(sides)
    near_pts = np.array([oracle_nearest(c, cset) for c in centers]).reshape(n, dim)
    near_idx = np.array([np.nonzero(np.all(pts == a, axis=1))[0][0] for a in near_pts],
                        dtype=np.intp)
    center_dist = np.sqrt(np.sum((centers - near_pts) ** 2, axis=1))
    cube_dist = np.array([oracle_cube_distance(c, s, pts) for c, s in zip(centers, sides)])
    half = sides * (EXPANSION / 2.0)
    neighbors = []
    for i in range(n):
        gap = np.abs(centers - centers[i]) - (half + half[i])[:, None]
        meet = np.all(gap <= 1e-12 * root_side, axis=1)
        meet[i] = False
        neighbors.append(np.where(meet)[0])
    col_centers = np.asarray(col_centers).reshape(-1, dim)
    col_sides = np.asarray(col_sides, dtype=float)
    collar_radius = 0.0
    if len(col_sides):
        col_d = np.array([oracle_cube_distance(col_centers[i], col_sides[i], pts)
                          for i in range(len(col_sides))])
        collar_radius = float(np.max(col_d + col_sides * sqrt_n))
    if min_feature_scale is not None and collar_radius > min_feature_scale:
        raise DepthExhausted(
            f"collar radius {collar_radius:g} exceeds the minimum feature "
            f"scale {min_feature_scale:g} at depth {depth_cap}")
    dec = CubeDecomposition(dim=dim, box=box, depth_cap=depth_cap, centers=centers,
                            sides=sides, nearest_idx=near_idx,
                            center_dist=center_dist, cube_dist=cube_dist,
                            neighbor_pairs=(
                                np.repeat(np.arange(n), [len(k) for k in neighbors]),
                                np.concatenate([np.zeros(0, np.intp), *neighbors])),
                            collar_centers=col_centers,
                            collar_sides=col_sides, collar_radius=collar_radius, cset=cset)
    vars(dec)["neighbors"] = tuple(neighbors)  # the per-cube lists, not a split of the pairs
    return dec


def _same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


@st.composite
def set_cases(draw):
    """1-5 distinct points in [-1, 1]^d, d = 1-3, rounded to 0-2 digits, at
    times moved onto a face of the box, a depth cap from 1 and at times a
    minimum feature scale."""
    dim = draw(st.sampled_from((1, 2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = np.round(rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 5)), dim)),
                   draw(st.integers(0, 2)))
    if draw(st.booleans()):
        pts[0, draw(st.integers(0, dim - 1))] = draw(st.sampled_from((-1.0, 1.0)))
    box = ((-1.0, 1.0),) * dim
    scale = draw(st.one_of(st.none(), st.floats(0.01, 2.0)))
    return box, CompactSet(np.unique(pts, axis=0), box), draw(
        st.integers(1, (8, 5, 3)[dim - 1])), scale


SQUARE = ((-1.0, 1.0),) * 2
ONE_POINT_2D = (SQUARE, CompactSet(np.array([[0.25, -0.5]]), SQUARE), 4, None)
FACES_3D = (((-1.0, 1.0),) * 3, CompactSet(np.array([[-1.0, 0.0, 1.0], [1.0, 1.0, -1.0]]),
                                           ((-1.0, 1.0),) * 3), 2, None)
EXHAUSTED = (((-1.0, 1.0),), CompactSet(np.array([[0.0], [0.5]]), ((-1.0, 1.0),)), 1, 0.1)
# many cube pairs meet on the first axis and part on a later one
SPREAD_3D = (((-1.0, 1.0),) * 3, CompactSet(np.array([[0.25, -0.5, 0.125], [-0.5, 0.5, -0.25]]),
                                            ((-1.0, 1.0),) * 3), 3, None)


@settings(max_examples=150, deadline=None)
@given(set_cases())
@example(ONE_POINT_2D)
@example(FACES_3D)
@example(EXHAUSTED)
@example(SPREAD_3D)
def test_decompose_bitwise_equals_oracle(case):
    """Also with INCIDENCE_BLOCK at 1 and 7 in jets, so that the blocks
    of the nearest-point and cube-distance passes split every level."""
    box, cset, depth_cap, scale = case
    try:
        want = oracle_decompose(box, cset, depth_cap, min_feature_scale=scale)
    except DepthExhausted as exc:
        want = exc
    for block in (INCIDENCE_BLOCK, 1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
            if isinstance(want, DepthExhausted):
                with pytest.raises(DepthExhausted) as got:
                    decompose(box, cset, depth_cap, min_feature_scale=scale)
                assert str(got.value) == str(want)
                continue
            got = decompose(box, cset, depth_cap, min_feature_scale=scale)
        _decompositions_equal(got, want)


def _decompositions_equal(got, want):
    for f in fields(CubeDecomposition):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "neighbor_pairs":
            assert len(a) == len(b)
            assert all(_same_array(x, y) for x, y in zip(a, b))
        elif isinstance(b, np.ndarray):
            assert _same_array(a, b), f.name
        else:
            assert a == b and type(a) is type(b), f.name
    assert len(got.neighbors) == len(want.neighbors)
    assert all(_same_array(x, y) for x, y in zip(got.neighbors, want.neighbors))
    assert (got.max_overlap(), got.neighbor_diam_ratios()) == (
        max(map(len, want.neighbors), default=0), oracle_neighbor_diam_ratios(want))


def oracle_neighbor_diam_ratios(dec):
    lo, hi = np.inf, 0.0
    for i, nbrs in enumerate(dec.neighbors):
        if len(nbrs) == 0:
            continue
        r = dec.sides[nbrs] / dec.sides[i]
        lo = min(lo, float(r.min()))
        hi = max(hi, float(r.max()))
    if not np.isfinite(lo):
        lo = 1.0
    return lo, max(hi, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_nearest_index_breaks_ties_like_oracle(dim, seed, n):
    # integer points and half-integer queries: many equidistant pairs
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(-2, 3, size=(n, dim)).astype(float), axis=0)
    cset = CompactSet(pts, ((-3.0, 3.0),) * dim)
    x = rng.integers(-6, 7, size=(40, dim)) / 2.0
    want = np.array([oracle_nearest(q, cset) for q in x])
    assert np.array_equal(cset.points[nearest_index(x, cset)[0]], want)


def oracle_nearest_distance(x, cset, idx):
    """d(x, E) as decompose, cube_diagnostics and the field's on-set test
    took it: the root of the summed squares to the gathered nearest point."""
    return np.sqrt(np.sum((x - cset.points[idx]) ** 2, axis=-1))


def oracle_all_pairs_distance(x, cset):
    """d(x, E) as the approach points took it: the least distance of a
    matrix of every (row, set point) pair."""
    return np.sqrt(np.sum((cset.points - x[:, None, :]) ** 2, axis=2)).min(axis=1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.sampled_from((1.0, 0.37, 1e3)), st.sampled_from((1, 7, INCIDENCE_BLOCK)))
def test_nearest_index_distance_equals_both_old_distances(dim, seed, n, scale, block):
    # scaled integer points; rows at half-integers (many ties), on the set
    # points and anywhere in the box, in blocks of ``block`` pairs; and all
    # of it scaled by 2^-600, where every square of a difference underflows
    rng = np.random.default_rng(seed)
    pts = scale * np.unique(rng.integers(-2, 3, size=(n, dim)).astype(float), axis=0)
    cset = CompactSet(pts, ((-3.0 * scale, 3.0 * scale),) * dim)
    x = np.concatenate([scale * rng.integers(-6, 7, size=(20, dim)) / 2.0, pts,
                        rng.uniform(-3.0 * scale, 3.0 * scale, size=(20, dim))])
    small = CompactSet(np.ldexp(pts, -600), ((np.ldexp(-3.0 * scale, -600),
                                              np.ldexp(3.0 * scale, -600)),) * dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
        idx, dist = nearest_index(x, cset)
        small_idx, small_dist = nearest_index(np.ldexp(x, -600), small)
    assert np.array_equal(small_idx, idx)
    assert _same_array(small_dist, np.ldexp(dist, -600))
    assert _same_array(dist, oracle_nearest_distance(x, cset, idx))
    assert _same_array(dist, oracle_all_pairs_distance(x, cset))
    assert not dist[20:20 + len(pts)].any()
    assert np.array_equal(cset.points[idx], [oracle_nearest(q, cset) for q in x])


# -- conjugates and the model tail sum: the scalar loops ---------------------------

def oracle_young_conjugate(fn, t):
    s_cap = min(600.0, log(fn.t_valid_max) if isfinite(fn.t_valid_max) else 600.0)

    def g(s):
        return s * t - float(fn.phi(s))

    s_hi = 1.0
    while s_hi < s_cap and g(s_hi) >= g(0.5 * s_hi):  # no phi(s) past the cap
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
    # refine around the scan's maximum and every interior local maximum: a
    # narrow positive bump can lie far from a maximum at the left end
    rising = obj[1:-1] > obj[:-2]
    peaks = np.flatnonzero(rising & (obj[1:-1] >= obj[2:])) + 1
    for i in {int(np.argmax(obj)), *peaks.tolist()}:
        lo = ts[max(0, i - 1)]
        hi = ts[min(len(ts) - 1, i + 1)]
        res = minimize_scalar(lambda u: -(float(fn(u)) - s * u), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-12 * hi})
        best = max(best, -float(res.fun))
    return max(best, 0.0)


def oracle_model_tail_sum(log_c, p, q, k0, max_decades=200):
    """The per-decade loop; returns (converged, tail, whether a fitted
    remainder was added)."""
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
            return True, acc, False
        if d >= 7 and incs[-1] >= 0.999 * incs[-2]:
            return False, float("inf"), False
    d_idx = np.arange(max_decades - 4, max_decades, dtype=float) + 1.0
    tail4 = np.maximum(incs[-4:], 1e-300)
    qq = -np.polyfit(np.log(d_idx), np.log(tail4), 1)[0]
    if qq <= 1.05:
        return False, float("inf"), True
    return True, acc + incs[-1] * max_decades / (qq - 1.0), True


def oracle_fit_quotient_model(log_mu):
    k = len(log_mu) - 1
    j = np.arange(max(3, k // 2), k + 1, dtype=float)
    lj = np.log(j)
    a = np.vstack([np.ones_like(lj), lj, np.log(lj)]).T
    coef, *_ = np.linalg.lstsq(a, log_mu[max(3, k // 2):], rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def oracle_row_flags(logM):
    """The per-row flag pass of a sequence, with the per-decade tail loop."""
    tol = 1e-12
    k = len(logM) - 1
    log_mu = np.concatenate([[0.0], np.diff(logM)])
    mu_tail = log_mu[1:]
    flags, wit = {}, {}
    flags["log_convex"] = bool(np.all(mu_tail >= -tol) and np.all(np.diff(mu_tail) >= -tol))
    roots = logM[1:] / np.arange(1, k + 1)
    ok, growth = False, 0.0
    if k >= 8:
        growth = float(np.exp(roots[-1] - roots[(3 * k) // 4 - 1]))
        ok = growth >= 1.05 and float(logM[-1]) >= log(DIVERGENCE_FLOOR)
    flags["weight_sequence"] = ok
    wit["weight_sequence_growth"] = growth
    m_quot = np.diff(logM - gammaln(np.arange(k + 1) + 1.0))
    flags["strongly_log_convex"] = bool(flags["log_convex"]
                                        and np.all(np.diff(m_quot) >= -tol))
    log_c, p, q = oracle_fit_quotient_model(log_mu)
    ok, tail = False, float("inf")
    if p > 1.0 - TAIL_EXPONENT_MARGIN:
        with np.errstate(over="ignore"):
            ok, tail, _ = oracle_model_tail_sum(log_c, p, q, k + 0.5)
    flags["non_quasianalytic"] = ok
    wit["nonqa_tail_exponent"] = p
    wit["nonqa_tail_estimate"] = tail
    c_mg = float(np.max(mu_tail - roots))
    wit["moderate_growth_log_C"] = c_mg
    flags["moderate_growth"] = bool(flags["weight_sequence"] and c_mg <= 40.0 * log(2.0))
    return flags, wit


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
@example(fn=gevrey_dual(0.99999), ss=[0.25])  # the maximum, 6.93e-6, lies near t = 4
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
    # 1e-8 s short in value; log M is convex, so phi* interpolates it
    exact = np.interp(ts, np.arange(k_max + 1), gevrey(s, K_max=k_max).logM)
    scale = np.maximum(1.0, np.abs(exact))
    assert np.all(new >= old - 1e-12 * np.maximum(1.0, np.abs(old)))
    assert np.all(np.abs(new - exact) <= 1e-13 * scale)


@st.composite
def closed_form_cases(draw):
    """A power preset, raw or normalized, as ``power`` or ``gevrey_dual``,
    and its exponent."""
    normalized = draw(st.booleans())
    if draw(st.booleans()):
        alpha = draw(st.floats(0.05, 1.0))
        return power(alpha, normalized), alpha
    s = draw(st.floats(0.05, 10.0))
    return gevrey_dual(s, normalized), 1.0 / (1.0 + s)


@settings(max_examples=80, deadline=None)
@given(closed_form_cases(), st.lists(st.floats(0.0, 5e3), max_size=8),
       st.lists(st.floats(560.0, 610.0), max_size=4))
def test_closed_form_young_conjugate_matches_golden_kernel(case, ts, s_near_cap):
    # t whose argmax log(t/a)/a lies near the s cap of 600, where the
    # doubling bracket stops and the scalar search raises GridExhausted
    fn, alpha = case
    ts = np.array(ts + [alpha * np.exp(alpha * s) for s in s_near_cap])
    try:
        old = np.array([oracle_young_conjugate(fn, t) for t in ts])
    except GridExhausted as exc:
        with pytest.raises(GridExhausted) as got:
            young_conjugate_grid(fn, ts)
        assert str(got.value) == str(exc)
        return
    assert_matches_oracle(young_conjugate_grid(fn, ts), old)


@settings(max_examples=80, deadline=None)
@given(closed_form_cases(), st.lists(st.one_of(st.floats(1e-3, 10.0), st.floats(1e-6, 1e-3)),
                                     min_size=1, max_size=12))
@example((power(0.90625, False), 0.90625), [7.0])  # stationary point 3.4e-10
def test_closed_form_omega_conjugate_matches_golden_kernel(case, ss):
    # small s put the stationary point past the scan top for exponents
    # near 1, where both take the top; large s put it below the scan's
    # lower end 1e-9, where both take that end
    fn, _ = case
    try:
        old = np.array([oracle_omega_conjugate(fn, s) for s in ss])
    except NotLittleO:
        with pytest.raises(NotLittleO):
            omega_conjugate_grid(fn, ss)
        return
    assert_matches_oracle(omega_conjugate_grid(fn, ss), old)


def assert_young_above_dense_scan(fn, ts):
    """phi* at each t short of the s cap is at least the largest s t - phi(s)
    over a dense grid of [0, s_cap]."""
    s_cap = min(600.0, log(fn.t_valid_max) if isfinite(fn.t_valid_max) else 600.0)
    s = np.linspace(0.0, s_cap, 100_001)
    phi = fn.phi(s)
    for t in ts:
        try:
            got = young_conjugate_grid(fn, [t])[0]
        except GridExhausted:
            continue
        want = np.max(s * t - phi)
        assert got >= want - 1e-12 * max(1.0, abs(want))


def assert_omega_star_equals(fn, ss, want):
    """omega* equals ``want`` to 1e-13 and is never below the scalar
    search (relative)."""
    got = omega_conjugate_grid(fn, ss)
    scale = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    old = np.array([oracle_omega_conjugate(fn, s) for s in ss])
    assert np.all(got >= old - 1e-12 * np.maximum(1.0, np.abs(old)))


@st.composite
def growth_profiles(draw):
    k_max = draw(st.integers(16, 256))
    if draw(st.booleans()):
        return gevrey(draw(st.floats(0.3, 2.0)), K_max=k_max)
    return quotient_power(draw(st.floats(0.5, 3.0)), K_max=k_max)


@settings(max_examples=40, deadline=None)
@given(growth_profiles(), st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=12),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(gevrey(0.5, K_max=256), np.linspace(0.01, 3.0, 400).tolist(), [0.5])
def test_growth_profile_conjugates_are_exact(seq, ss, fractions):
    # omega* is the largest of the concave k log t - log M_k - s t, each at
    # its stationary point t = k/s clamped to the scan range
    fn = omega_of_sequence(seq)
    assert_young_above_dense_scan(fn, [f * seq.K_max for f in fractions])
    if not fn.flags["o_of_t"]:
        with pytest.raises(NotLittleO):
            omega_conjugate_grid(fn, ss)
        return
    k = np.arange(seq.K_max + 1, dtype=float)
    t_hi = min(0.45 * fn.t_valid_max, GRID_HI * 1e3)
    want = []
    for s in ss:
        t = np.clip(k / s, 1e-9, t_hi)
        want.append(max(0.0, float(np.max(k * np.log(t) - seq.logM - s * t))))
    assert_omega_star_equals(fn, ss, np.array(want))


@st.composite
def tables(draw):
    """Breakpoints and values of a table, concave or not."""
    n = draw(st.integers(2, 8))
    ts = np.cumsum(draw(st.lists(st.floats(0.05, 2e3), min_size=n, max_size=n)))
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
                          min_size=n, max_size=n))
    return ts.tolist(), np.cumsum(rises).tolist()


@settings(max_examples=80, deadline=None)
@given(tables(), st.lists(st.one_of(st.floats(1e-4, 10.0), st.floats(1e-6, 1e-2)),
                          min_size=1, max_size=12),
       st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
@example(([1.0, 3131.166, 3142.025, 5767.42], [0.0, 4.858, 8.732, 8.732]),
         [0.0026827], [1.0])  # the peak 0.303 sits at the breakpoint 3142.025
def test_tabulated_conjugates_are_exact(table, ss, ts):
    # omega - s t is piecewise linear: it peaks at a breakpoint or an end
    fn = tabulated(*table)
    assert_young_above_dense_scan(fn, ts)
    if not fn.flags["o_of_t"]:
        with pytest.raises(NotLittleO):
            omega_conjugate_grid(fn, ss)
        return
    knots = np.array(table[0])
    t_hi = min(0.45 * fn.t_valid_max, GRID_HI * 1e3)
    t = np.r_[1e-9, knots[(knots > 1e-9) & (knots < t_hi)], t_hi]
    want = np.array([max(0.0, float(np.max(fn(t) - s * t))) for s in ss])
    assert_omega_star_equals(fn, ss, want)


def oracle_bisect(f, lo, hi):
    """Where the increasing array function f crosses 0 in [lo, hi], per
    entry: bisection of the whole bracket until no float is left inside."""
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not np.any(live):
            return mid
        below = f(mid) < 0.0
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)


def oracle_log_power_conjugates(b, scale):
    """The conjugates of ``log_power(b, scale)`` with each root bisected over
    all of its bracket, [s1, 600] or [0, log t_hi]; ``young`` also returns
    the root's derivative gap phi'(s) - t, as an array function of s."""
    fn = log_power(b, scale)
    s1 = b + 1.0
    t1 = np.exp(s1)
    w1 = scale * t1 / s1 ** b
    c = w1 / s1

    def young(t):
        out = np.zeros_like(t)
        up = t > c
        tu = t[up]

        def gap(s):
            return scale * np.exp(s) * s ** -b * (1.0 - b / s) - tu

        s = oracle_bisect(gap, s1, 600.0)
        out[up] = s * tu - fn(np.exp(s))
        return out, up, s, gap

    def omega_star(s, t_hi):
        out = np.zeros_like(s)
        low = s < c
        sl = s[low]

        def gap(u):
            v = np.maximum(u, s1)
            return sl - np.where(u < s1, c * np.exp(-u), scale * v ** -b * (1.0 - b / v))

        t = np.minimum(np.exp(oracle_bisect(gap, 0.0, log(t_hi))), t_hi)
        out[low] = np.maximum(fn(t) - sl * t, 0.0)
        return out

    return young, omega_star, c


def sign_steps_once(f, x, k=8):
    """Whether f, at the k floats below each x, x and the k floats above, is
    negative up to one point and nonnegative from there on."""
    pts = [x]
    for _ in range(k):
        pts = [np.nextafter(pts[0], -np.inf)] + pts + [np.nextafter(pts[-1], np.inf)]
    below = np.array([f(p) < 0.0 for p in pts], dtype=int)
    return np.all(np.diff(below, axis=0) <= 0, axis=0)


@st.composite
def log_power_queries(draw):
    """A log_power weight with the t and s of its conjugates' edge cases: at
    c (1 -+ 1e-12), where both derivative roots leave their lower ends, at
    roots near the s cap 600 and the scan top log t_hi, across the matrix
    grid and the fn CSV grid, and where omega' turns from bridge to tail."""
    b, scale = draw(st.floats(1.05, 100.0)), draw(st.floats(0.05, 20.0))
    *_, c = oracle_log_power_conjugates(b, scale)
    s1, t_hi = b + 1.0, 1e12
    near_c = c * (1.0 + np.array(draw(st.lists(st.floats(-1e-12, 1e-12), max_size=6))))
    s_cap = np.array(draw(st.lists(st.floats(590.0, 610.0), max_size=4)))
    grid = (np.array(DEFAULT_X_GRID)[:, None] * np.arange(65)).ravel()
    ts = np.r_[near_c, scale * np.exp(s_cap) * s_cap ** -b * (1.0 - b / s_cap), grid]
    u_top = log(t_hi) + np.array(draw(st.lists(st.floats(-1e-9, 1e-9), max_size=4)))
    v = np.maximum(u_top, s1)
    top = np.where(u_top < s1, c * np.exp(-u_top), scale * v ** -b * (1.0 - b / v))
    junction = c * np.exp(-s1) * (1.0 + np.array(draw(st.lists(st.floats(-1e-6, 1e-6),
                                                                max_size=4))))
    ss = np.r_[near_c, top, junction, np.geomspace(1e-2, 1e8, 200)]
    return b, scale, ts, ss[ss > 0]


@settings(max_examples=40, deadline=None)
@given(log_power_queries())
@example((1.5132223576906814, 0.8982262007621534, np.array([2.1875]), np.array([0.5])))
def test_log_power_conjugates_equal_full_bracket_bisection(case):
    # the Newton estimate only narrows each bracket: phi* is the full-bracket
    # bisection's bit for bit wherever phi' - t, in floats, changes sign once
    # within 8 floats of its root (at the example's t it changes sign thrice,
    # so the two bisections may stop on different floats, here 2 apart), and
    # omega* agrees to 1e-14 wherever the gap is as flat
    b, scale, ts, ss = case
    young, omega_star = log_power(b, scale).conjugates
    old_young, old_omega_star, _ = oracle_log_power_conjugates(b, scale)
    want, up, s, gap = old_young(ts)
    got = young(ts)
    once = np.ones(len(ts), dtype=bool)
    once[up] = sign_steps_once(gap, s)
    assert np.array_equal(got[once], want[once])
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
    want = old_omega_star(ss, 1e12)
    got = omega_star(ss, 1e12)
    assert_matches_oracle(got, want)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1e-300, np.abs(want)))


def oracle_log_power_eval(b, scale, t):
    """``log_power(b, scale)`` by masks over every t: 0 up to 1, the bridge
    w1 log t / s1 below e^s1, scale t / (log t)^b from e^s1 on, in logs where
    (log t)^b overflows."""
    s1 = b + 1.0
    t1 = np.exp(s1)
    w1 = scale * t1 / s1 ** b
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 1.0) & (t < t1)
    out[mid] = w1 * np.log(t[mid]) / s1
    hi = t >= t1
    with np.errstate(over="ignore", invalid="ignore"):
        out[hi] = scale * t[hi] / np.log(t[hi]) ** b
    far = hi & ~(out > 0.0)
    if far.any():
        out[far] = np.exp(log(scale) + np.log(t[far]) - b * np.log(np.log(t[far])))
    return out


@st.composite
def log_power_points(draw):
    """A log_power weight and t: wholly past the bridge e^(b+1), straddling
    it (with 0 and 1), at it and its neighbouring floats, empty, or one t as
    a 0-d array; b from 109 on puts (log t)^b past the float range for large t."""
    b = draw(st.one_of(st.floats(0.05, 8.0), st.floats(109.0, 140.0)))
    scale = draw(st.floats(0.05, 20.0))
    t1 = float(np.exp(b + 1.0))
    at = [t1, float(np.nextafter(t1, 0.0)), float(np.nextafter(t1, np.inf))]
    kind = draw(st.sampled_from(("past", "straddling", "at", "empty", "0-d")))
    ts = [10.0 ** x for x in draw(st.lists(st.floats(-3.0, 308.0), min_size=1, max_size=40))]
    if kind == "past":
        ts = [max(t, t1) for t in ts] + draw(st.lists(st.sampled_from(at[::2]), max_size=2))
    elif kind == "straddling":
        ts = draw(st.permutations(ts + [0.0, 1.0] + at))
    elif kind == "at":
        ts = draw(st.lists(st.sampled_from(at), min_size=1, max_size=6))
    return b, scale, (np.asarray(ts[0]) if kind == "0-d" else np.array([] if kind == "empty"
                                                                        else ts))


@settings(max_examples=200, deadline=None)
@given(log_power_points())
@example((120.0, 2.0, np.exp(np.array([300.0, 371.0, 372.0, 600.0, 700.0]))))
@example((120.0, 2.0, np.asarray(np.exp(600.0))))  # phi(s_cap) of the conjugate's cap test
@example((109.0, 2.0, np.array([1e308])))  # scale t and (log t)^b both overflow
def test_log_power_evaluator_equals_masked_oracle(case):
    # an array wholly past the bridge takes one pass without masks; any
    # other, and a 0-d t, the masked pass, which hands its tail to the first
    b, scale, t = case
    got = np.asarray(log_power(b, scale)(t))
    want = oracle_log_power_eval(b, scale, t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 10.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=5),
       st.floats(1.0, 500.0), st.one_of(st.integers(5, 24), st.just(200)))
@example([(0.0, 1.0625, 0.0)], 1.0, 10)  # a matrix-vector product sums row 8 apart
def test_model_tail_sum_equals_oracle(models, k0, max_decades):
    # few decades reach the fitted-trend remainder; steep quotients stop
    # at the first decade that may stop.  A sum a stop rule ends is the
    # loop's bit for bit; a fitted remainder takes the closed-form slope
    # where the loop takes np.polyfit, the two within 1e-10 relative
    with np.errstate(over="ignore"):
        old = [oracle_model_tail_sum(*m, k0, max_decades) for m in models]
    converged, tail = _model_tail_sum(*np.array(models).T, k0, max_decades)
    for (ok, want, fitted), got_ok, got in zip(old, converged.tolist(), tail.tolist()):
        assert got_ok == ok
        assert got == want or (fitted and abs(got - want) <= 1e-10 * want)


@st.composite
def log_tables(draw):
    """A stack of log M rows sharing one K: log-convex rows (two prefix sums
    of nonnegative steps), gevrey rows and rows of generated matrices, and
    arbitrary rows, whose flags mostly fail."""
    k_max = draw(st.sampled_from((1, 2, 3, 7, 8, 16, 24)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("convex", "gevrey", "matrix", "arbitrary")))
        if kind == "convex":
            steps = draw(st.lists(st.floats(0.0, 3.0), min_size=k_max - 1, max_size=k_max - 1))
            log_mu = draw(st.floats(-3.0, 3.0)) + np.cumsum([0.0, *steps])
            rows.append(np.cumsum([0.0, *log_mu]))
        elif kind == "gevrey":
            rows.append(gevrey(draw(st.floats(0.05, 3.0)), K_max=k_max).logM)
        elif kind == "matrix":
            mat = GENERATED[draw(st.sampled_from(sorted(GENERATED)))]
            rows.append(mat.row(draw(st.sampled_from(MATRIX_XS))).logM[:k_max + 1])
        else:
            rows.append([0.0, *draw(st.lists(st.floats(-5.0, 60.0), min_size=k_max,
                                             max_size=k_max))])
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(log_tables())
def test_row_flags_equal_per_row_oracle(table):
    # one lstsq call takes every row as a right-hand side, and the tail
    # sums take the closed-form slope: flags equal, witnesses within 1e-10
    for logM, row in zip(table, _row_flags(table)):
        flags, wit = row()
        want_flags, want_wit = oracle_row_flags(logM)
        assert flags == want_flags == WeightSequence(logM).flags
        assert list(wit) == list(want_wit)
        assert np.allclose(list(wit.values()), list(want_wit.values()), rtol=1e-10,
                           atol=1e-12)


def oracle_array_model_tail_sum(log_c, p, q, k0, max_decades=200):
    """The all-decades array pass: every model's ``max_decades`` decades at
    once, then each one's first stopping decade; returns (converged, tail,
    the decade each sum stopped at, max_decades if none)."""
    log_c, p, q = (np.asarray(v, dtype=float)[:, None, None] for v in (log_c, p, q))
    u0 = log(max(k0, 3.0))
    n = 16
    us = u0 + log(10.0) * (np.arange(max_decades)[:, None] + np.arange(n + 1) / n)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    with np.errstate(over="ignore"):
        vals = np.exp((1.0 - p) * us - q * np.log(us) - log_c)
    incs = log(10.0) / n / 3.0 * np.vecdot(vals, w)
    acc = np.cumsum(incs, axis=1)
    d = np.arange(max_decades)
    small = (d >= 3) & (incs <= 1e-14 * np.maximum(acc, 1e-300))
    flat = (d >= 7) & (incs >= 0.999 * np.roll(incs, 1, axis=1))
    rows, first = np.arange(len(incs)), np.argmax(small | flat, axis=1)
    stopped = (small | flat)[rows, first]
    converged = stopped & small[rows, first]
    tail = np.where(converged, acc[rows, first], float("inf"))
    rest = np.flatnonzero(~stopped)
    qq = _decay_exponent(incs[rest, -4:], max_decades)
    fit = rest[qq > 1.05]
    converged[fit] = True
    tail[fit] = acc[fit, -1] + incs[fit, -1] * max_decades / (qq[qq > 1.05] - 1.0)
    return converged, tail, np.where(stopped, first, max_decades)


# rows that stop in the first block (decades below 32), in the second (32 to
# 127), in the last (128 to 199), and that run to 200: divergent and fitted
SPREAD_MODELS = [(0.0, 2.0, 0.0), (1.0, 1.3, 0.5), (0.0, 1.1, 0.0), (-2.0, 1.08, -1.0),
                 (0.0, 1.0003, 0.0), (0.0, 1.03, 2.0), (3.0, 0.97, -3.0)]


def test_spread_models_stop_in_every_block():
    stops = oracle_array_model_tail_sum(*np.array(SPREAD_MODELS).T, 128.5)[2]
    assert {int(np.searchsorted([32, 128, 200], d, side="right")) for d in stops} == {
        0, 1, 2, 3}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.9, 3.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=12),
       st.floats(1.0, 500.0), st.sampled_from((5, 24, 32, 33, 100, 128, 129, 200)))
@example(SPREAD_MODELS, 128.5, 200)
@example(SPREAD_MODELS[::-1], 3.0, 129)
@example(SPREAD_MODELS[1:], 128.5, 200)  # no p >= 1.5: one block of every decade
def test_blocked_model_tail_sum_bitwise_equals_array_pass(models, k0, max_decades):
    # the rows of one call leave the blocks at different decades, or run to
    # max_decades; each sum is still the all-decades pass's, bit for bit
    want_ok, want, _ = oracle_array_model_tail_sum(*np.array(models).T, k0, max_decades)
    got_ok, got = _model_tail_sum(*np.array(models).T, k0, max_decades)
    assert got_ok.tolist() == want_ok.tolist()
    assert got.tobytes() == want.tobytes()


def oracle_eager_row_flags(logM):
    """The one-pass flags with every row's tail sum taken at once, by the
    all-decades array pass: a (flags, witnesses) pair per row."""
    tol = 1e-12
    k = logM.shape[1] - 1
    mu_tail = np.diff(logM, axis=1)
    log_convex = np.all(mu_tail >= -tol, axis=1) & np.all(np.diff(mu_tail, axis=1) >= -tol,
                                                          axis=1)
    roots = logM[:, 1:] / np.arange(1, k + 1)
    weight_seq, growth = _certify_divergence(roots)
    weight_seq &= logM[:, -1] >= log(DIVERGENCE_FLOOR)
    m_quot = np.diff(logM - log_factorials(k), axis=1)
    strongly = log_convex & np.all(np.diff(m_quot, axis=1) >= -tol, axis=1)
    log_c, p_fit, q_fit = _fit_quotient_model(mu_tail)
    nonqa, tail = np.zeros(len(logM), dtype=bool), np.full(len(logM), float("inf"))
    fit = p_fit > 1.0 - TAIL_EXPONENT_MARGIN
    nonqa[fit], tail[fit], _ = oracle_array_model_tail_sum(log_c[fit], p_fit[fit],
                                                           q_fit[fit], k + 0.5)
    c_mg = np.max(mu_tail - roots, axis=1)
    moderate = weight_seq & (c_mg <= 40.0 * log(2.0))
    flags = np.array([log_convex, weight_seq, strongly, nonqa, moderate]).T.tolist()
    witnesses = np.array([growth, p_fit, tail, c_mg]).T.tolist()
    return [(dict(zip(_FLAGS, f)), dict(zip(_WITNESSES, w))) for f, w in zip(flags, witnesses)]


def assert_same_certificates(got, want):
    """Flags equal and witnesses bit for bit, in the same key order."""
    (flags, wit), (want_flags, want_wit) = got, want
    assert list(flags.items()) == list(want_flags.items())
    assert list(wit) == list(want_wit)
    assert np.array(list(wit.values())).tobytes() == np.array(list(want_wit.values())).tobytes()


@settings(max_examples=150, deadline=None)
@given(log_tables())
def test_first_read_certificates_equal_eager_flags(table):
    # the tail certificates come at the first read, for every row at once:
    # each row's flags and witnesses are the eager pass's, read in any order
    # (a one-row table is its own least-squares call)
    eager = oracle_eager_row_flags(table)
    rows = _row_flags(table)
    for i in reversed(range(len(table))):
        assert_same_certificates(rows[i](), eager[i])
        seq = WeightSequence(table[i])
        assert_same_certificates((seq.flags, seq.witnesses),
                                 oracle_eager_row_flags(table[i][None])[0])


@pytest.mark.parametrize("name", ["power", "log_power", "gevrey_dual"])
def test_matrix_row_certificates_equal_eager_flags(name):
    mat = GENERATED[name]
    fresh = weight_matrix(mat.source, x_grid=mat.x_grid, K_max=mat.K_max)
    for x, want in zip(fresh.x_grid, oracle_eager_row_flags(fresh.stack("logM"))):
        assert_same_certificates((fresh.row(x).flags, fresh.row(x).witnesses), want)


def oracle_lower_hull(y):
    """The lower hull loop over every point of the table: pop while the
    previous vertex is on or above the new chord."""
    ks = np.arange(len(y), dtype=float)
    hull = []
    for i in range(len(y)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (ks[i] - ks[a]) >= (y[i] - y[a]) * (ks[b] - ks[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


@st.composite
def hull_tables(draw):
    """Strictly convex tables (every index a vertex), tables with exactly
    collinear triples (integer slopes, some repeated) and arbitrary ones."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("convex", "collinear", "arbitrary")))
    if kind == "convex":
        slopes = np.cumsum(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
        return np.concatenate([[draw(st.floats(-10.0, 10.0))], slopes]).cumsum()[:n]
    if kind == "collinear":
        slopes = sorted(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        return np.cumsum([0.0, *slopes])[:n]
    return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(hull_tables())
def test_envelope_hull_equals_loop_oracle(y):
    # where no consecutive triple pops, the hull is every index with no loop
    assert _MinAffineEnvelope(y).vertices.tolist() == oracle_lower_hull(y)


@pytest.mark.parametrize("seq", [gevrey(1.0), gevrey(0.5, K_max=32)], ids=["M", "M32"])
def test_convex_tables_take_every_index_as_a_vertex(seq):
    for kind in ("M", "m"):
        y = seq.view(kind).log_values()
        assert _MinAffineEnvelope(y).vertices.tolist() == oracle_lower_hull(y)
    assert _MinAffineEnvelope(seq.logM).vertices.tolist() == list(range(seq.K_max + 1))


def oracle_log_factorials(n):
    """log k! for k = 0..n, by SciPy's Cephes lgam."""
    return gammaln(np.arange(n + 1) + 1.0)


def test_log_factorials_bitwise_equal_oracle(monkeypatch):
    # every k up to 100,000 from an empty table, so the second call grows
    # the first; then x = k + 1 at each branch edge of lgam
    monkeypatch.setattr(seqcore_module, "_LOG_FACTORIALS", np.zeros(0))
    short = log_factorials(10)
    table = log_factorials(100_000)
    assert table.tobytes() == oracle_log_factorials(100_000).tobytes()
    assert short.tobytes() == table[:11].tobytes() == log_factorials(10).tobytes()
    assert not short.flags.writeable and not table.flags.writeable
    with pytest.raises(ValueError):
        table[3] = 0.0
    for x in (12, 13, 999, 1000, 1001, 10**8 - 1, 10**8, 10**8 + 1, 2**40):
        assert np.float64(_log_factorial(x - 1)).tobytes() == gammaln(float(x)).tobytes()


def oracle_quotient_tail_sums(seq):
    """The suffix sums with the tail model refitted on every call."""
    log_c, p, q = oracle_fit_quotient_model(seq.log_mu)
    p_min = 1.0 - TAIL_EXPONENT_MARGIN
    ok, tail, _ = (False, float("inf"), False) if p <= p_min else oracle_model_tail_sum(
        log_c, p, q, seq.K_max + 0.5)
    if not ok:
        why = (f"fitted quotient exponent {p:.3f} <= {p_min:g}" if p <= p_min
               else f"model tail sum at fitted exponent {p:.3f} does not converge")
        raise TailUnbounded(f"{seq.label or 'sequence'}: {why}, "
                            "tail sum not certified finite")
    inv = np.exp(-seq.log_mu[1:])
    return np.cumsum(inv[::-1])[::-1] + tail


@pytest.mark.parametrize("seq", [
    gevrey(1.0), gevrey(0.25, K_max=40), quotient_power(2.0, scale=3.0),
    quotient_power(1.2, K_max=300), descendant(gevrey(1.0)),
    from_mu([1.0] + [k * np.log(k + 2.0) ** 2 for k in range(1, 129)], label="L"),
    quotient_power(0.5), quotient_power(1.0, label="H"),  # TailUnbounded, both ways
], ids=lambda seq: f"{seq.label or 'sequence'}-{seq.K_max}")
def test_quotient_tail_sums_equal_refit(seq):
    try:
        want = oracle_quotient_tail_sums(seq)
    except TailUnbounded as exc:
        with pytest.raises(TailUnbounded) as got:
            seq.quotient_tail_sums()
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(seq.quotient_tail_sums(), want)


# -- the averaged tail transform: the per-t decade loop -----------------------------

def oracle_simpson_log(g, lo, ratio):
    n = 32
    h = log(ratio) / n
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    u = lo[:, None] * np.exp(np.arange(n + 1) * h)[None, :]
    return (h / 3.0) * (g(u) * u) @ w


def oracle_tail_remainder(s, what):
    """The per-row remainder loop over the (n, n_decades) decade sums."""
    n_dec = s.shape[1]
    rem = np.empty(len(s))
    for i in range(len(s)):
        r = s[i, -1] / max(s[i, -2], 1e-300)
        if r <= 0.95:
            rem[i] = s[i, -1] * r / (1.0 - r)
            continue
        d_idx = np.arange(n_dec - 4, n_dec, dtype=float) + 1.0
        tail4 = np.maximum(s[i, -4:], 1e-300)
        q = -np.polyfit(np.log(d_idx), np.log(tail4), 1)[0]
        if q <= 1.05:
            raise QuasianalyticInput(
                f"{what}: decade sums decay like d^-{q:.2f}, not summable")
        rem[i] = s[i, -1] * n_dec / (q - 1.0)
    return rem


def oracle_kappa(fn, t):
    """Every t integrates its own decades [t 10^d, t 10^(d+1)], all t stop
    at the first decade where all have settled, else each takes the
    remainder fitted to its own last four decade sums."""
    if not fn.flags["non_quasianalytic"]:
        raise QuasianalyticInput(f"{fn.label}: tail integral not certified finite")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    what, t_cap, max_decades = f"kappa[{fn.label}]", 0.45 * fn.t_valid_max, 60
    if isfinite(t_cap):
        avail = int(np.floor(np.log10(t_cap / float(np.max(ts))))) if t_cap > 0 else 0
        if avail < 4:
            raise QuasianalyticInput(
                f"{what}: only {avail} certified decades above t0, cannot certify tail")
        max_decades = min(max_decades, avail)
    sums, acc, lo = [], np.zeros_like(ts), ts.copy()
    for d in range(max_decades):
        j = oracle_simpson_log(lambda u: fn(u) / u ** 2, lo, 10.0)
        sums.append(j)
        acc += j
        lo *= 10.0
        if d >= 3 and np.all(acc > 0.0) and np.all(j <= 1e-12 * acc):
            return ts * acc
    return ts * (acc + oracle_tail_remainder(np.stack(sums, axis=1), what))


@st.composite
def kappa_cases(draw):
    """A preset over its config range, the point past which [t, inf) holds
    no kink of it (inf for growth profiles, piecewise linear in log t), and
    an unsorted t set with duplicates: spread over [1e-3, 1e9], around 1 and
    the kink, and around 1e-4 of the certified range, where the decades
    left run out."""
    kind = draw(st.sampled_from(("power", "gevrey_dual", "log_power", "growth")))
    if kind == "power":
        fn, kink = power(draw(st.floats(1e-12, 1.0))), 1.0
    elif kind == "gevrey_dual":
        fn, kink = gevrey_dual(draw(st.floats(0.05, 10.0))), 1.0
    elif kind == "log_power":
        b = draw(st.floats(1.0, 5.0, exclude_min=True))
        fn, kink = log_power(b, draw(st.floats(0.05, 20.0))), float(np.exp(b + 1.0))
    else:
        seq = gevrey(draw(st.floats(0.25, 3.0)), K_max=draw(st.sampled_from((64, 256, 1024))))
        fn, kink = omega_of_sequence(seq), float("inf")
    cap = min(1e13, 0.45 * fn.t_valid_max)
    anchors = [1.0, min(kink, 1e9), 1e-4 * cap]
    point = st.one_of(
        st.floats(-3.0, 9.0).map(lambda x: 10.0 ** x),
        st.tuples(st.sampled_from(anchors), st.floats(-0.5, 0.5)).map(
            lambda ax: ax[0] * 10.0 ** ax[1]))
    ts = draw(st.lists(point, min_size=1, max_size=8))
    ts += draw(st.lists(st.sampled_from(ts), max_size=3))
    return fn, kink, np.array(draw(st.permutations(ts)))


@settings(max_examples=200, deadline=None)
@given(kappa_cases())
@example((log_power(1.04), float(np.exp(2.04)), np.array([1.0, 1e8])))  # d^-1.05, not d^-0.92
# t 100 is one ulp above t 10 10, where omega leaves 0: d^--559.91, not d^--559.96
@example((omega_of_sequence(gevrey(1.0, K_max=256)), float("inf"),
          np.array([1.0, 0.001000000000000001])))
def test_kappa_matches_per_t_oracle(case):
    fn, kink, ts = case
    try:
        old = oracle_kappa(fn, ts)
    except (UltrajetError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            kappa(fn, ts)
        assert str(got.value) == str(exc)
        return
    new = kappa(fn, ts)
    # past the last kink both are close to the closed form (the worst
    # difference, about 4.5e-7, is the oracle's own error near t = 1 for
    # small exponents); below it, quadrature error at the kink puts the
    # oracle itself up to 6e-4 off
    smooth = ts >= kink
    assert np.all(np.abs(new - old)[smooth] <= 5e-7 * old[smooth])
    assert np.all(np.abs(new - old) <= 2e-3 * old)


def exact_fitted_remainder(last4, n_dec):
    """The fitted remainder of one row with the least-squares slope taken
    exactly, in fractions, on the same float log-sums, and the bound on the
    relative error of a float slope.

    Both float paths fit y = log(sums) on x = log(d), d the last four decade
    indices, and round the centred sums (the closed form) or solve the
    uncentred system [x 1] (np.polyfit), whose slope is conditioned like
    max|x| / ||x - mean x||.  Either perturbs the slope q by a few
    u (max|y| + |q| max|x|) / ||x - mean x||, u the unit roundoff, and the
    remainder last n_dec / (q - 1) then moves by that over |q - 1|
    (relative), plus a few u for the division.  The constant 32 covers the
    worst ratio seen over 1e5 random rows: 9.4 for np.polyfit, 0.33 for the
    closed form."""
    x = np.log(np.arange(n_dec - 3, n_dec + 1, dtype=float))
    y = np.log(np.maximum(last4, 1e-300))
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(fx) / 4, sum(fy) / 4
    sxx = sum((a - mx) ** 2 for a in fx)
    q = -sum((a - mx) * (b - my) for a, b in zip(fx, fy)) / sxx
    rem = float(Fraction(last4[-1]) * n_dec / (q - 1))
    u = np.finfo(float).eps / 2
    cond = (np.max(np.abs(y)) + abs(float(q)) * np.max(np.abs(x))) / (
        np.sqrt(float(sxx)) * abs(float(q) - 1.0))
    return rem, 4.0 * u + 32.0 * u * cond


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-30.0, 3.0), st.floats(-1.0, 4.0),
                          st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4)),
                min_size=1, max_size=6),
       st.integers(4, 60))
@example([(0.0, 2.0, [0.0] * 4), (-13.0, 2.625, [-0.171875, 0.0, -0.1328125, 0.0])], 37)
def test_tail_remainder_matches_polyfit_loop(rows, n_dec):
    # rows of the last four decade sums c d^-q (1 + noise): geometric, fitted
    # or not summable.  A geometric row is the loop's bit for bit; a fitted
    # one is checked, for both paths, against the exact least-squares slope
    d = np.arange(n_dec - 3, n_dec + 1, dtype=float)
    last4 = np.array([10.0 ** c * d ** -q * (1.0 + np.array(e)) for c, q, e in rows])
    sums = np.concatenate([np.ones((len(rows), n_dec - 4)), last4], axis=1)
    try:
        old = oracle_tail_remainder(sums, "t")
    except QuasianalyticInput as exc:
        with pytest.raises(QuasianalyticInput) as got:
            _tail_remainder(last4, n_dec, "t")
        # equal sums fit a slope of zero, of either sign
        assert (str(got.value).replace("d^--0.00", "d^-0.00")
                == str(exc).replace("d^--0.00", "d^-0.00"))
        return
    new = _tail_remainder(last4, n_dec, "t")
    for row, got, want in zip(last4, new, old):
        if row[-1] / max(row[-2], 1e-300) <= 0.95:
            assert got == want
            continue
        exact, bound = exact_fitted_remainder(row, n_dec)
        assert abs(got - exact) <= bound * abs(exact)
        assert abs(want - exact) <= bound * abs(exact)


# -- condition checks: the per-pair row searches ------------------------------------

def _oracle_cap_counter(log_c, **locator):
    return {**locator, "needed_C": float(np.exp(min(log_c, 700.0))),
            "reference_C": C_CAP, "margin": float(np.exp(min(log_c - LOG_C_CAP, 700.0))),
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
    if log_c <= LOG_C_CAP:
        return Verdict("good_matrix", True, {"C": float(np.exp(max(log_c, 0.0)))},
                       tested_range=rng, details=details)
    return Verdict("good_matrix", False, {"log_C_range": log_c},
                   counterexample=_oracle_cap_counter(log_c, x=x, y_best=y, j=j, k=k),
                   tested_range=rng, details=details)


def oracle_good_via_conjugate_secants(matrix):
    """check_good on rows rebuilt from the conjugate secants of the
    generating weight rather than the stored rows."""
    x_col = np.asarray(matrix.x_grid)[:, None]
    vals = young_conjugate_grid(matrix.source, x_col * np.arange(matrix.K_max + 1))
    secants = np.diff(vals, axis=1) / x_col  # log theta^x_k, k = 1..K
    rows = np.concatenate([np.zeros_like(x_col), np.cumsum(secants, axis=1)], axis=1)
    return check_good(WeightMatrix(matrix.x_grid,
                                   {x: WeightSequence(row, label=f"secant@{x:g}")
                                    for x, row in zip(matrix.x_grid, rows)},
                                   source=None))


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
    if log_c <= LOG_C_CAP:
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
    if log_d <= LOG_C_CAP:
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
    if log_c <= LOG_C_CAP:
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
def row_matrices(draw, tails=False):
    """Hand-built matrices mixing random (often failing) rows, flat rows,
    repeated rows and rows of generated matrices, over a random x subset.
    With ``tails`` the rows are weight sequences, so they carry a tail
    certificate or none: NaN rows give way to rows of quotients k^p, p <= 1,
    and of falling quotients k^-p, whose tails are unbounded, and the random
    rows stay within exp's range."""
    xs = sorted(draw(st.sets(st.sampled_from(MATRIX_XS), min_size=1, max_size=4)))
    k_max = draw(st.integers(2, 24))
    make_row = _sequence_row if tails else _bare_row
    rows = {}
    for x in xs:
        kind = draw(st.sampled_from(("random", "unbounded", "falling", "flat", "repeat",
                                     *GENERATED) if tails else
                                    ("random", "nan", "flat", "repeat", *GENERATED)))
        if kind in ("random", "nan"):
            # log C past 700 too, but not past exp's range for tails
            scale = draw(st.sampled_from((3.0, 60.0) if tails else (3.0, 60.0, 2000.0)))
            log_mu = np.array(draw(st.lists(st.floats(-scale, scale), min_size=k_max,
                                            max_size=k_max)))
            if kind == "nan":
                log_mu[draw(st.integers(0, k_max - 1))] = float("nan")
            rows[x] = make_row(log_mu)
        elif kind in ("unbounded", "falling"):
            p = draw(st.floats(0.0, 1.0)) * (1.0 if kind == "unbounded" else -2.0)
            rows[x] = make_row(p * np.log(np.arange(1.0, k_max + 1)))
        elif kind == "flat":
            rows[x] = make_row(np.full(k_max, draw(st.floats(-3.0, 3.0))))
        elif kind == "repeat" and rows:
            rows[x] = rows[list(rows)[-1]]
        else:
            gen = GENERATED.get(kind, GENERATED["power"]).row(x)
            rows[x] = make_row(gen.log_mu[1:k_max + 1])
    return WeightMatrix(xs, rows)


def _sequence_row(log_mu):
    return WeightSequence(np.concatenate([[0.0], np.cumsum(log_mu)]), label="row")


def _same_verdict(new, old):
    assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())


@settings(max_examples=200, deadline=None)
@given(row_matrices())
@example(WeightMatrix((1.0,), {1.0: _bare_row(np.array([LOG_C_CAP, log(2.0)]))}))  # at the cap
def test_condition_row_searches_equal_oracle(matrix):
    _same_verdict(check_good(matrix), oracle_check_good(matrix))
    _same_verdict(check_quotient_root_domination(matrix),
                  oracle_check_quotient_root_domination(matrix))
    _same_verdict(check_concavity_equivalence(SCALING_WEIGHT, matrix)[1],
                  oracle_concave_matrix_form(matrix))
    for x in matrix.x_grid:
        _same_verdict(check_almost_increasing(matrix.row(x)),
                      oracle_check_almost_increasing(matrix.row(x)))


def oracle_check_strong_matrix(matrix):
    """Matrix strength as one check_mixed_tail verdict per pair (x, y >= x)."""
    results = {}
    for x in matrix.x_grid:
        best = None
        for y in matrix.x_grid:
            if y < x:
                continue
            try:
                v = check_mixed_tail(matrix.row(x), matrix.row(y))
            except (QuasianalyticInput, TailUnbounded):
                continue
            score = (not v.holds, v.witness_constants.get("C", float("inf")))
            if best is None or score < best[0]:
                best = (score, float(y), v)
        results[x] = best
    rng = {"K_max": matrix.K_max, "x_grid": list(matrix.x_grid)}
    if any(b is None for b in results.values()):
        bad_x = next(x for x, b in results.items() if b is None)
        counter = {"x": float(bad_x), "needed_C": float("inf"),
                   "reference_C": C_CAP, "margin": float("inf"), "mode": "tail"}
        return Verdict("strong_matrix", False, {},
                       counterexample=counter, tested_range=rng,
                       details={"exists_holds": False})
    exists_ok = any(b[2].holds for b in results.values())
    forall_ok = all(b[2].holds for b in results.values())
    per_x = {f"{x:g}": {"y": b[1], "holds": b[2].holds,
                        "C": b[2].witness_constants.get("C")}
             for x, b in results.items()}
    details = {"exists_holds": exists_ok,
               "exists_x": [float(x) for x, b in results.items() if b[2].holds],
               "per_x": per_x}
    if forall_ok:
        c = max(b[2].witness_constants["C"] for b in results.values())
        return Verdict("strong_matrix", True, {"C": c}, tested_range=rng,
                       details=details)
    bad_x, (score, y, v) = next((x, b) for x, b in results.items() if not b[2].holds)
    counter = dict(v.counterexample)
    counter["x"] = float(bad_x)
    counter["y_best"] = y
    return Verdict("strong_matrix", False, v.witness_constants,
                   counterexample=counter, tested_range=rng, details=details)


@settings(max_examples=150, deadline=None)
@given(st.one_of(row_matrices(tails=True),
                 st.builds(weight_matrix, weights, K_max=st.integers(16, 64))))
def test_strong_matrix_equals_per_pair_oracle(matrix):
    _same_verdict(check_strong_matrix(matrix), oracle_check_strong_matrix(matrix))


def oracle_validate(matrix):
    """WeightMatrix._validate with one splitting and one index-doubling test
    per pair (x, 2x) and (x, 4x), each splitting test on the full arrays."""
    xs = matrix.x_grid
    rows = [matrix.rows[x] for x in xs]
    for x, r in zip(xs, rows):
        if abs(r.logM[0]) > 1e-9:
            raise InvariantViolation(f"row {x:g}: W_0 != 1")
        if not r.flags["log_convex"]:
            raise InvariantViolation(f"row {x:g}: not log-convex")
    for i in range(len(xs) - 1):
        if np.any(rows[i].log_mu > rows[i + 1].log_mu + MATRIX_TOL):
            raise InvariantViolation(f"quotients not monotone {xs[i]:g} -> {xs[i + 1]:g}")
    ks = np.arange(2, matrix.K_max // 2 + 1)
    for x in xs:
        if 2.0 * x in matrix.rows and not oracle_splitting_ok(matrix.rows[x].logM,
                                                              matrix.rows[2.0 * x].logM):
            raise InvariantViolation(f"splitting bound fails at x={x:g}")
        if 4.0 * x in matrix.rows and np.any(matrix.rows[x].log_mu[2 * ks] > matrix.rows[
                4.0 * x].log_mu[ks] + MATRIX_TOL):
            raise InvariantViolation(f"index-doubling bound fails at x={x:g}")


@settings(max_examples=150, deadline=None)
@given(weights, st.sampled_from((DEFAULT_X_GRID, (0.5, 0.75, 1.0, 1.5, 2.0, 3.0))),
       st.integers(4, 64), st.sets(st.integers(0, 10), min_size=1), st.integers(0, 10),
       st.integers(1, 64), st.floats(-2.0, 2.0), st.sampled_from((0.0, 0.01, 0.1, 1.0)))
@example(power(0.5), DEFAULT_X_GRID, 32, {8, 10}, 0, 16, 2.0, 0.0)  # index doubling
@example(power(0.5), DEFAULT_X_GRID, 32, {0, 1, 2}, 0, 6, 0.5, 0.0)  # both, at one x
def test_matrix_validation_equals_per_pair_oracle(fn, x_grid, k_max, keep, which, k0,
                                                  shift, ramp):
    """A generated matrix on a subset of its grid (so some x have a 4x and
    no 2x), with one row lifted or lowered from index k0 on by a constant
    and a ramp in log mu: convex, so the row stays log-convex unless the
    constant makes it dip."""
    mat = weight_matrix(fn, x_grid=x_grid, K_max=k_max)
    xs = sorted({mat.x_grid[i % len(x_grid)] for i in keep})
    x, k0 = xs[which % len(xs)], min(k0, k_max)
    log_mu = mat.row(x).log_mu.copy()
    log_mu[k0:] += shift + ramp * np.arange(k_max + 1 - k0)
    rows = {**{y: mat.row(y) for y in xs}, x: WeightSequence(np.cumsum(log_mu))}
    try:
        oracle_validate(WeightMatrix(xs, rows))
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as got:
            WeightMatrix(xs, rows, source=fn)
        assert str(got.value) == str(exc)
        return
    WeightMatrix(xs, rows, source=fn)


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


def oracle_halving_constant(view, t_range=(0.02, 50.0), n_t=40):
    """The first D = 2^i with 2 gamma_bar(D t) <= gamma_under(t), one query
    per D."""
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(gevrey, st.floats(0.5, 3.0), st.integers(4, 128)),
                 st.builds(lambda p, k: quotient_power(p, K_max=k), st.floats(0.5, 3.0),
                           st.integers(4, 128))))
def test_halving_constant_equals_per_d_oracle(seq):
    view = seq.view("m")
    try:
        want = oracle_halving_constant(view)
    except RangeExhausted as exc:
        with pytest.raises(RangeExhausted) as got:
            _halving_constant(view)
        assert str(got.value) == str(exc)
        return
    got = _halving_constant(view)
    assert type(got) is float and got == want


def oracle_chain_holds(matrix, x, y1, y2, y3, d, ts):
    mx, m1, m2, m3 = (matrix.row(y).view("m") for y in (x, y1, y2, y3))
    g_x, ex0 = gamma_under_soft(mx, ts)
    g1, ex1 = gamma_under_soft(m1, d * ts)
    g2u, ex2 = gamma_under_soft(m2, d * d * ts)
    g2b, ex3 = gamma_bar_soft(m2, d * d * ts)
    g3, ex4 = gamma_bar_soft(m3, d ** 3 * ts)
    if np.any(ex0 | ex1 | ex2 | ex3 | ex4):
        return False
    return bool(np.all(g3 <= g2u) and np.all(g2u <= g2b)
                and np.all(g2b <= g1) and np.all(2 * g1 <= g_x))


def oracle_resolve_chain(matrix, x, t_range=(0.05, 1e3), n_t=48):
    """The loop over (y1, y2, y3, D), one chain test per D."""
    if not check_good(matrix).holds:
        raise RangeExhausted("chain needs a good matrix; goodness verdict failed")
    if matrix.source is not None and not matrix.source.flags["o_of_t"]:
        raise NotLittleO(f"{matrix.source.label}: o(t) certificate absent")
    x = float(x)
    if x not in matrix.rows:
        raise RangeExhausted(f"x={x:g} is not a point of the matrix grid")
    ts = np.geomspace(t_range[0], t_range[1], n_t)
    xs = matrix.x_grid
    for y1 in (y for y in xs if y >= 2.0 * x):
        if not splitting_ok(matrix.row(x).log_m, matrix.row(y1).log_m):
            continue
        for y2 in (y for y in xs if y >= 2.0 * y1):
            if not splitting_ok(matrix.row(y1).log_m, matrix.row(y2).log_m):
                continue
            for y3 in (y for y in xs if y >= y2):
                for d in GRID_POWERS[:14]:
                    if oracle_chain_holds(matrix, x, y1, y2, y3, d, ts):
                        return ChainCertificate(x, y1, y2, y3, d,
                                                (float(ts[0]), float(ts[-1])), n_t)
    raise RangeExhausted(f"no in-grid chain certificate for x={x:g}")


@settings(max_examples=80, deadline=None)
@given(weights, st.sampled_from((16, 32, 64)),
       st.one_of(st.sampled_from(DEFAULT_X_GRID), st.sampled_from((0.75, 3.0, 100.0)),
                 st.floats(0.05, 10.0)))
@example(power(0.884), 32, 1.0)  # x's own indices run out: no chain at any D
@example(power(0.5), 64, 0.25)
def test_resolve_chain_equals_loop_oracle(fn, k_max, x):
    mat = weight_matrix(fn, K_max=k_max)
    try:
        want = oracle_resolve_chain(mat, x)
    except UltrajetError as exc:
        with pytest.raises(type(exc)) as got:
            resolve_chain(mat, x)
        assert str(got.value) == str(exc)
        return
    assert resolve_chain(mat, x) == want


@settings(max_examples=60, deadline=None)
@given(weights, st.sampled_from((16, 32, 64)),
       st.one_of(st.sampled_from(DEFAULT_X_GRID), st.sampled_from((0.75, 3.0, 100.0)),
                 st.floats(0.05, 10.0)),
       st.sampled_from((1, 3, 10)), st.integers(0, 2 ** 32 - 1))
@example(power(0.884), 32, 1.0, 10, 0)  # x's own indices run out
@example(power(0.5), 64, 0.25, 3, 0)
@example(power(0.4), 16, 0.5, 10, 1464)  # (0.5, 0.5, 2, D=4) holds on 48 t, not on 480
def test_verify_chain_equals_oracle_on_the_refined_grid(fn, k_max, x, refine, seed):
    """The certificate that resolve_chain finds, it with D halved and with
    y3 one grid step lower, and a drawn certificate on the grid's rows."""
    mat = weight_matrix(fn, K_max=k_max)
    grid = mat.x_grid
    rng = np.random.default_rng(seed)
    y1, y2, y3 = sorted(rng.choice(grid, 3).tolist())
    certs = [ChainCertificate(x if float(x) in mat.rows else grid[0], y1, y2, y3,
                              float(rng.choice(GRID_POWERS[:14])), (0.05, 1e3), 48)]
    try:
        found = resolve_chain(mat, x)
    except UltrajetError:
        found = None
    if found is not None:
        lower = [y for y in grid if y < found.y3]
        certs += [found, replace(found, D=found.D / 2.0)]
        certs += [replace(found, y3=lower[-1])] if lower else []
    for cert in certs:
        ts = np.geomspace(*cert.t_range, cert.n_t * refine)
        assert verify_chain(mat, cert, refine) is oracle_chain_holds(
            mat, cert.x, cert.y1, cert.y2, cert.y3, cert.D, ts)


def oracle_splitting_ok(a, b):
    """Index splitting from the full (K+1)^2 index and value arrays."""
    k_max = len(a) - 1
    jk = np.arange(k_max + 1)[:, None] + np.arange(k_max + 1)[None, :]
    return not np.any((a[np.minimum(jk, k_max)] - b[:, None] - b[None, :])[jk <= k_max]
                      > MATRIX_TOL)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("random", "holds", "last_anti_diagonal")),
       st.sampled_from((1, 50, INCIDENCE_BLOCK)))
@example(3000, 0, "last_anti_diagonal", INCIDENCE_BLOCK)
def test_splitting_ok_blocks_equal_full_array_oracle(k_max, seed, kind, block):
    """Linear tables b_j = j s + c split a_n = n s with slack 2c; "random"
    perturbs a, and "last_anti_diagonal" breaks only a_K, so only the
    entries j + k = K fail."""
    rng = np.random.default_rng(seed)
    slope, c = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
    a = slope * np.arange(k_max + 1.0)
    b = a + c
    if kind == "random":
        a = a + rng.uniform(0.0, 2.2 * c, size=k_max + 1)
    elif kind == "last_anti_diagonal":
        a[k_max] += 2.0 * c + 1e-3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets_module, "INCIDENCE_BLOCK", block)
        got = splitting_ok(a, b)
    assert got == oracle_splitting_ok(a, b)
    if kind != "random":
        assert got == (kind == "holds")

