"""Jets on finite compact sets: exact derivative tables, Taylor fields,
Whitney remainders, and growth certificates.

A jet is a complete table of values F^alpha(a) for every multi-index up to
an order cap and every point of a finite set in R^d, any d >= 1.  The
multi-index kernel here (graded multi-indices and their ranks, Leibniz
terms, Taylor plans) serves every dimension and every module, and one kernel
takes every Taylor sum of a jet from offsets and a degree per sum, one dot
per sum, so that a sum does not depend on the other sums of its call.
Preset generators produce the tables from exact derivative recurrences, so
tests can treat them as ground truth.  Certification finds the smallest
constant making the two growth bounds (pointwise derivative bound, and scaled
remainder bound at every pair and degree) hold over all stored data: the
remainders over all point pairs are taken in one array pass, one
:func:`_taylor_sums` call a block of pairs, so the constant is exact for
that arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import comb, factorial, prod

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import BoundOverflow, OrderCapExceeded
from .seqcore import WeightSequence

DEFAULT_A_MAX = 12
# entries per block of the array passes over products of two inputs (point
# pairs, point-cube pairs, shifted copies of points), so that their memory
# stays linear in each input
INCIDENCE_BLOCK = 1 << 14


def blocks(n: int, per_row: int) -> list:
    """The row slices of a pass over n rows of per_row entries each: at most
    INCIDENCE_BLOCK // per_row rows a slice, and at least one."""
    step = max(1, INCIDENCE_BLOCK // max(1, per_row))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


@lru_cache(maxsize=None)
def _graded(dim: int, up_to: int) -> tuple:
    return tuple(sorted((m for m in product(range(up_to + 1), repeat=dim)
                         if sum(m) <= up_to), key=lambda m: (sum(m), m)))


def multi_indices(dim: int, up_to: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= up_to in graded lexicographic order."""
    return list(_graded(dim, up_to))


@lru_cache(maxsize=None)
def _ranks(dim: int, up_to: int) -> dict:
    """Position of each multi-index in the graded order.  Lower degrees come
    first, so a position does not depend on ``up_to``."""
    return {m: r for r, m in enumerate(_graded(dim, up_to))}


@lru_cache(maxsize=None)
def _leibniz_terms(m: tuple) -> tuple:
    """Leibniz rule for d^m: the triples (beta, m - beta, prod_d C(m_d, beta_d))
    over beta <= m in lexicographic order."""
    return tuple((beta, tuple(k - b for k, b in zip(m, beta)),
                  prod(comb(k, b) for k, b in zip(m, beta)))
                 for beta in product(*(range(k + 1) for k in m)))


def _leibniz_fold(left: dict, right: dict, multis) -> dict:
    """Derivative tables of a product from the tables of its two factors."""
    out = {}
    for m in multis:
        acc = 0.0
        for beta, gamma, coef in _leibniz_terms(m):
            acc = acc + coef * left[beta] * right[gamma]
        out[m] = acc
    return out


@lru_cache(maxsize=None)
def _taylor_plan(dim: int, alphas: tuple, q: int) -> tuple:
    """Terms of the degree-q Taylor fields of F^alpha, alpha in ``alphas``,
    one per |gamma| <= q: the ranks of alpha + gamma (one row per alpha),
    the exponents gamma (one array per coordinate), 1/gamma! and |gamma|."""
    gammas = [g for g in product(range(q + 1), repeat=dim) if sum(g) <= q]
    ranks = _ranks(dim, max(map(sum, alphas)) + q)
    return (np.array([[ranks[tuple(a + g for a, g in zip(alpha, gam))] for gam in gammas]
                      for alpha in alphas], dtype=np.intp),
            tuple(np.array(column, dtype=np.intp) for column in zip(*gammas)),
            np.array([1.0 / prod(map(factorial, g)) for g in gammas]),
            np.array([sum(g) for g in gammas]))


@dataclass(frozen=True)
class CompactSet:
    """Finite set of pairwise distinct points in R^dim, any dim >= 1, with a
    box ((lo, hi) per coordinate) that contains it."""

    points: np.ndarray  # shape (n_points, dim)
    box: tuple          # ((lo, hi),) * dim

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must have shape (n, dim) with dim >= 1")
        if len(pts) == 0:
            raise ValueError("compact set must be non-empty")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        if len(self.box) != pts.shape[1]:
            raise ValueError("box must have one (lo, hi) pair per coordinate")
        for d, (lo, hi) in enumerate(self.box):
            if np.any(pts[:, d] < lo) or np.any(pts[:, d] > hi):
                raise ValueError("points must lie inside the box")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, pts) -> "CompactSet":
        """The points in a cube: each axis padded by 2, the shorter sides
        then widened evenly to the longest."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, hi = pts.min(axis=0) - 2.0, pts.max(axis=0) + 2.0
        grow = (np.max(hi - lo) - (hi - lo)) / 2.0
        return cls(pts, tuple(zip((lo - grow).tolist(), (hi + grow).tolist())))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    # the point indices in lexicographic order of the coordinates
    lex_order = cached_property(lambda self: np.lexsort(self.points.T[::-1]))


# -- presets with exact derivative recurrences ----------------------------------

class Preset1D:
    """One-variable generator with an exact derivative table."""

    def table(self, x: float, up_to: int) -> np.ndarray:
        raise NotImplementedError


class Sin(Preset1D):
    def __init__(self, a: float = 1.0, b: float = 0.0):
        self.a, self.b = a, b

    def table(self, x, up_to):
        j = np.arange(up_to + 1)
        return self.a ** j * np.sin(self.a * x + self.b + j * np.pi / 2.0)


class Exp(Preset1D):
    def __init__(self, a: float = 1.0):
        self.a = a

    def table(self, x, up_to):
        j = np.arange(up_to + 1)
        return self.a ** j * np.exp(self.a * x)


class Poly(Preset1D):
    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)  # ascending powers

    def table(self, x, up_to):
        out = np.empty(up_to + 1)
        c = self.coeffs
        for j in range(up_to + 1):
            out[j] = npoly.polyval(x, c) if len(c) else 0.0
            c = npoly.polyder(c) if len(c) else c
        return out


class Runge(Preset1D):
    """1/(1 + c x^2); derivatives via the rational recurrence
    P_{k+1} = P_k' (1 + c x^2) - 2 c (k+1) x P_k over numerator polynomials."""

    def __init__(self, c: float = 1.0):
        self.c = c

    def table(self, x, up_to):
        c = self.c
        den = np.array([1.0, 0.0, c])
        p = np.array([1.0])
        out = np.empty(up_to + 1)
        base = 1.0 + c * x * x
        for k in range(up_to + 1):
            out[k] = npoly.polyval(x, p) / base ** (k + 1)
            dp = npoly.polyder(p) if len(p) > 1 else np.array([0.0])
            p = npoly.polyadd(npoly.polymul(dp, den),
                              npoly.polymul(p, np.array([0.0, -2.0 * c * (k + 1)])))
        return out


class Product1D(Preset1D):
    def __init__(self, *factors: Preset1D):
        self.factors = factors

    def table(self, x, up_to):
        out = self.factors[0].table(x, up_to)
        for f in self.factors[1:]:
            g = f.table(x, up_to)
            out = np.array([sum(coef * out[i] * g[k]
                                for (i,), (k,), coef in _leibniz_terms((j,)))
                            for j in range(up_to + 1)])
        return out


class Sum1D(Preset1D):
    def __init__(self, *terms: Preset1D):
        self.terms = terms

    def table(self, x, up_to):
        return np.sum([t.table(x, up_to) for t in self.terms], axis=0)


class Tensor:
    """Separable generator f_1(x_1) * ... * f_d(x_d), one axis per coordinate."""

    def __init__(self, *axes: Preset1D):
        if not axes or not all(isinstance(a, Preset1D) for a in axes):
            raise ValueError("tensor axes must be one or more one-variable presets")
        self.axes = axes

    def table(self, pt, up_to):
        """Array t with t[alpha] = d^alpha of the product at pt, each
        alpha_d <= up_to."""
        out = self.axes[0].table(float(pt[0]), up_to)
        for axis, x in zip(self.axes[1:], pt[1:]):
            out = np.multiply.outer(out, axis.table(float(x), up_to))
        return out


# -- the jet table ----------------------------------------------------------------

@dataclass(frozen=True)
class JetCertificate:
    rho: float
    C: float
    seq_label: str
    P_max: int
    binding: tuple = ()

    def to_dict(self):  # schema 1 keys: a failed certificate raises, and one form is left
        return {"rho": self.rho, "C": self.C, "seq": self.seq_label,
                "P_max": self.P_max, "ok": True, "form": "pointwise",
                "binding": list(self.binding)}


@dataclass(frozen=True)
class Ultrajet:
    """Complete value table F^alpha(a), |alpha| <= A_max, a in the set."""

    cset: CompactSet
    A_max: int
    values: np.ndarray  # (n_points, n_multi)
    certificate: JetCertificate | None = None

    def __post_init__(self):
        if self.values.shape != (len(self.cset.points), len(self.multi)):
            raise ValueError("value table does not match point/order layout")

    @property
    def multi(self) -> tuple:
        return _graded(self.cset.dim, self.A_max)

    def rank(self, alpha) -> int:
        return _ranks(self.cset.dim, self.A_max)[tuple(alpha)]

    def with_certificate(self, cert: JetCertificate) -> "Ultrajet":
        return replace(self, certificate=cert)


def jet_from_preset(preset, cset: CompactSet, A_max: int = DEFAULT_A_MAX) -> Ultrajet:
    """Tabulate exact derivatives of a preset over the set.  A one-variable
    preset is a tensor with one axis; a tensor needs one axis per coordinate."""
    tensor = preset if isinstance(preset, Tensor) else Tensor(preset)
    if len(tensor.axes) != cset.dim:
        raise ValueError(f"preset has {len(tensor.axes)} axes but the set "
                         f"has dimension {cset.dim}")
    multi = _graded(cset.dim, A_max)
    vals = np.empty((len(cset.points), len(multi)))
    # derivatives past the float range come out inf or NaN with no warning:
    # certify and the field evaluation report them as BoundOverflow
    with np.errstate(over="ignore", invalid="ignore"):
        for i, pt in enumerate(cset.points):
            table = tensor.table(pt, A_max)
            vals[i] = [table[m] for m in multi]
    return Ultrajet(cset, A_max, vals)


# -- Taylor fields ----------------------------------------------------------------

def _taylor_sums(values: np.ndarray, anchors: np.ndarray, offsets: np.ndarray,
                 alphas: tuple, q) -> np.ndarray:
    """Taylor sums sum_{|gamma| <= q} F^{alpha+gamma}(a) dx^gamma / gamma!
    from the value table, one row per offset and one column per alpha of
    ``alphas``: row r from the point anchors[r] at dx = offsets[r], entry
    (r, j) of degree q[r, j] (``q`` an int array that broadcasts to the
    table; an entry of degree q < 0 is NaN).  Each degree's rectangle, its
    rows by its columns, gathers its coefficients once per point and takes
    each sum as one BLAS dot of two unit-stride vectors, so an entry does not
    depend on the other entries.  Rows go in blocks of at most
    INCIDENCE_BLOCK entries of the largest rectangle."""
    q, out = np.atleast_2d(q), np.full((len(anchors), len(alphas)), np.nan)
    plans = []  # per degree: its rows (a mask of q's rows), its columns and their Taylor plan
    for degree in range(q.max(initial=-1) + 1):
        hit = q == degree  # "|" spreads a q of one column over every column
        cols = (hit.any(axis=0) | np.zeros(len(alphas), bool)).nonzero()[0].tolist()
        if cols:
            plans.append((degree, hit.any(axis=1), cols,
                          _taylor_plan(offsets.shape[1], tuple([alphas[c] for c in cols]), degree)))
    exponents = np.arange(q.max(initial=0) + 1)[:, None]  # up to the top degree of the call
    for block in blocks(len(anchors), max((plan[0].size for *_, plan in plans), default=1)):
        powers = offsets[block, None, :] ** exponents  # [r, k, d] = dx_d^k
        for degree, rows, cols, (ranks, exps, inv_fact, _) in plans:
            # a q that varies by column alone gives every degree all the rows
            r = slice(None) if q.shape[0] == 1 else rows[block].nonzero()[0]
            pw, at = powers[r], anchors[block][r]
            monomials = reduce(np.multiply, [pw[:, e, d] for d, e in enumerate(exps)])
            lo = at.min(initial=len(values))  # a block without the degree gathers nothing
            coef = values[lo:at.max(initial=0) + 1].take(ranks, axis=1) * inv_fact
            coef = coef.take(at - lo, axis=0)  # from each point to its rows
            # unit strides (take's output is C-contiguous) keep each sum one dot
            sums = np.matmul(coef[:, :, None, :],
                             np.ascontiguousarray(monomials)[:, None, :, None])[:, :, 0, 0]
            ix = (block, cols) if q.shape[0] == 1 else ((block.start + r)[:, None], cols)
            # only a q that varies along both axes puts other degrees in a rectangle
            out[ix] = sums if 1 in q.shape else np.where(q[ix] == degree, sums, out[ix])
    return out


# -- certification ----------------------------------------------------------------------

def _certify_plan(dim: int, P_max: int) -> tuple:
    """The remainder candidates (p, alpha) of one pair of points in the order
    :func:`certify` scans them, p ascending, then alpha graded: the p, the
    rank of alpha and alpha of each candidate."""
    p_of, alphas = zip(*[(p, alpha) for p in range(P_max + 1) for alpha in _graded(dim, p)])
    return np.array(p_of), np.array([_ranks(dim, P_max)[a] for a in alphas]), alphas


def _first_max(ratios: np.ndarray, best) -> tuple:
    """The largest ratio and the index of its first occurrence (row-major)
    when it exceeds ``best``, else (best, None).  NaN never counts."""
    flat = np.where(np.isnan(ratios), -np.inf, ratios).ravel()
    k = int(np.argmax(flat))
    if flat[k] > best:
        return flat[k], tuple(int(v) for v in np.unravel_index(k, ratios.shape))
    return best, None


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, each the BLAS dot product
    ``np.linalg.norm`` takes of one vector, except where that square is
    subnormal or 0 for a nonzero v (coordinates below about 1e-154): there
    s |v / s| with s = max_d |v_d|, whose square neither loses bits nor underflows."""
    sq = np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]
    out = np.sqrt(sq)
    tiny = (sq < np.finfo(float).tiny) & (v != 0.0).any(axis=-1)
    if tiny.any():
        s = np.abs(v[tiny]).max(axis=-1)
        out[tiny] = s * _norms(v[tiny] / s[:, None])
    return out


def certify_orders(seq: WeightSequence, A_max: int, P_max: int | None) -> tuple:
    """The remainder degree P_max (A_max when None) that :func:`certify`
    takes for a jet of stored order A_max, and the order max(A_max,
    P_max + 1) of ``seq`` that it reads; raises ValueError when P_max is
    negative and OrderCapExceeded when it exceeds A_max or the sequence
    table is shorter.  Needs no jet table."""
    P_max = A_max if P_max is None else P_max
    if P_max < 0:
        raise ValueError(f"P_max {P_max} is negative")
    if P_max > A_max:
        raise OrderCapExceeded(f"P_max {P_max} exceeds stored order {A_max}")
    n_need = max(A_max, P_max + 1)
    if seq.K_max < n_need:
        raise OrderCapExceeded(f"sequence table too short for order {n_need}")
    return P_max, n_need


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def certify(jet: Ultrajet, seq: WeightSequence, rho: float,
            P_max: int | None = None) -> JetCertificate:
    """Smallest constant C making both growth bounds hold over all stored
    data: the largest ratio over the values (a, alpha), scaled by rho^|alpha|
    M_|alpha|, and the remainders (a, b, p <= P_max, alpha), scaled by
    rho^{p+1} M_{p+1} |b-a|^{q+1} / (q+1)!, q = p-|alpha|.  ``binding`` names
    the first largest ratio in that order, values first.  A jet value that
    is not finite raises BoundOverflow before any ratio is formed, and so
    does a C that is not finite (a ratio over a scale that underflows).  One
    array pass over the pairs (a, b), a != b, in (a, b) order, in blocks of
    at most INCIDENCE_BLOCK (pair x candidate) entries: one
    :func:`_taylor_sums` call a block, at the Taylor degree q per candidate.
    """
    P_max, n_need = certify_orders(seq, jet.A_max, P_max)
    if not np.all(np.isfinite(jet.values)):  # a NaN ratio never binds: C could come out finite
        i, j = np.argwhere(~np.isfinite(jet.values))[0]
        raise BoundOverflow(f"jet value {jet.values[i, j]} at point {i}, alpha {jet.multi[j]}")
    M = np.exp(seq.logM[: n_need + 1])
    degree = np.array([sum(alpha) for alpha in jet.multi])
    n = len(jet.cset.points)
    try:  # Python floats, as the per-term bounds take them
        rho_k = [rho ** k for k in range((n_need if n > 1 else jet.A_max) + 1)]
    except OverflowError:
        raise BoundOverflow(f"rho^k leaves the float range for rho = {rho:g}") from None
    den = np.array([rho_k[k] * M[k] for k in range(jet.A_max + 1)])
    best, at = _first_max(np.abs(jet.values) / den[degree], 0.0)
    binding = () if at is None else ("value", at[0], jet.multi[at[1]])
    if n > 1:
        p_of, alpha_of, alphas = _certify_plan(jet.cset.dim, P_max)
        q_of = p_of - degree[alpha_of]  # the Taylor degree of each candidate
        lead = np.array([rho_k[p + 1] * M[p + 1] for p in p_of.tolist()])
        fact = np.array([float(factorial(q + 1)) for q in q_of.tolist()])
        # pair k is (a, b) = (k // (n - 1), the (k % (n - 1))-th point other
        # than a), so the pairs run in (a, b) order, a block at a time
        for rows in blocks(n * (n - 1), len(p_of)):
            a, b = np.divmod(np.arange(rows.start, rows.stop), n - 1)
            b += b >= a
            diff = jet.cset.points[b] - jet.cset.points[a]
            # |b - a| as np.linalg.norm takes it (one BLAS dot per pair) and
            # its powers as Python floats: every ratio is then bit for bit the
            # per-term one (the oracle in tests/test_kernel_oracles.py)
            dist = _norms(diff)
            try:
                powers = [[d ** q for q in range(P_max + 2)] for d in dist.tolist()]
            except OverflowError:
                raise BoundOverflow(f"remainder scale {dist.max():g}^{P_max + 1} of a point "
                                    "pair overflows") from None
            scale = lead * np.array(powers)[:, q_of + 1] / fact
            taylor = _taylor_sums(jet.values, a, diff, alphas, q_of)
            best, at = _first_max(np.abs(jet.values[b[:, None], alpha_of] - taylor) / scale, best)
            if at is not None:
                binding = ("remainder", int(a[at[0]]), int(b[at[0]]), int(p_of[at[1]]),
                           jet.multi[alpha_of[at[1]]])
    if not np.isfinite(best):
        raise BoundOverflow(f"jet certificate constant {best} at {binding} is not finite")
    return JetCertificate(rho=rho, C=best, seq_label=seq.label, P_max=P_max,
                          binding=binding)
