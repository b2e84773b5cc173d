"""Weight functions and their transforms.

A weight function is an increasing continuous ``omega: [0, inf) -> [0, inf)``
with ``omega(0) = 0`` used to regulate derivative growth.  This module
provides the preset families, the convex conjugate of ``phi(s) = omega(e^s)``,
the decreasing conjugate ``sup_s (omega(s) - t s)``, the averaged tail
transform ``t * int_t^inf omega(u)/u^2 du``, and the weight matrix
``W^x_k = exp(phi*(x k)/x)`` spanned by a weight function.

Every preset carries both conjugates as exact array functions: closed
forms for the power presets, one root per point for ``log_power`` (Newton,
then bisection on a bracket 1e-13 wide: about 12 array passes), and the
finite maxima of the piecewise forms (the discrete Legendre transform) for
growth profiles and tables.  The conjugates take arrays of any shape
(there are no scalar twins).  A weight matrix flags all its rows in one
pass.  The averaged tail transform integrates each gap of its query grid
once, not decades per t.

Asymptotic properties (doubling, linear bound, little-o of t, tail
integrability) are certified on a finite log-spaced grid with reported
witness constants; every flag is a finite-range verdict.
"""

from __future__ import annotations

from functools import cached_property
from math import ceil, isfinite, log, log10

import numpy as np

from .errors import (
    GridExhausted,
    InvariantViolation,
    NotLittleO,
    QuasianalyticInput,
)
from . import jets
from .seqcore import (DEFAULT_K_MAX, LOG_C_CAP, WeightSequence, _decay_exponent, _log_convex,
                      _row_flags)

# default certification grid: 64 points per decade on [1e-6, 1e9]
GRID_LO, GRID_HI, GRID_PER_DECADE = 1e-6, 1e9, 64

# default matrix parameter grid {2^j : -4 <= j <= 6}; closed under doubling
DEFAULT_X_GRID = tuple(2.0 ** j for j in range(-4, 7))


class WeightFunction:
    """Evaluable weight with flags and witnesses on a certification grid.

    ``fn`` must accept numpy arrays of nonnegative reals.  ``t_valid_max``
    bounds the range on which the evaluator is certified (e.g. growth
    profiles of finite sequence tables); grids used by the transforms are
    clamped to it.  ``conjugates`` holds the exact ``(phi*(t), omega*(s,
    t_hi))`` array functions every preset attaches; a weight built without
    them has its flags, ``kappa`` and the heir checks, but no conjugate or
    matrix.  The flags and witnesses come at the first read of either.
    Instances are immutable and thread-safe.
    """

    def __init__(self, fn, label: str, t_valid_max: float = float("inf"),
                 conjugates=None):
        self._fn = fn
        self.label = label
        self.t_valid_max = t_valid_max
        self.conjugates = conjugates
        self.normalized = bool(np.max(self(np.linspace(1e-9, 1.0, 64))) <= 1e-12)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self._fn(np.maximum(t, 0.0))
        return out if out.ndim else float(out)

    def phi(self, s):
        """Log-reparametrized weight ``omega(e^s)``."""
        return self(np.exp(np.asarray(s, dtype=float)))

    flags = property(lambda self: self._certificates[0])
    witnesses = property(lambda self: self._certificates[1])

    @cached_property
    def _certificates(self) -> tuple:
        """(flags, witnesses), on GRID_PER_DECADE log-spaced t per decade from
        GRID_LO to min(GRID_HI, 0.45 t_valid_max), at least 8."""
        hi = min(GRID_HI, 0.45 * self.t_valid_max)
        t = np.geomspace(GRID_LO, hi, max(8, int(round(GRID_PER_DECADE * np.log10(hi / GRID_LO)))))
        w = self(t)
        scale = max(1.0, float(np.max(np.abs(w))))
        c_dbl = float(np.max(self(2.0 * t) / (w + 1.0)))
        c_lin = float(np.max(w / (t + 1.0)))

        # log t = o(omega): growth of omega/log t over the last quarter (not
        # certified on a grid that ends below 10)
        ratio = w[t > 10.0] / np.log(t[t > 10.0])
        q3 = (3 * len(ratio)) // 4
        log_small = len(ratio) > 0 and ratio[-1] >= 1.05 * ratio[q3] and ratio[-1] >= 10.0

        s = np.log(t[t >= 1e-4])
        slopes = np.diff(self.phi(s)) / np.diff(s)
        sl_t = np.diff(w) / np.diff(t)
        r = w / t
        q3 = (3 * len(r)) // 4
        dec = bool(np.all(np.diff(r[q3:]) <= 1e-15 * scale))
        nonqa, q_fit, tail = _tail_integrability(self)
        flags = {"increasing": bool(np.all(np.diff(w) >= -1e-12 * scale)),
                 "doubling": bool(log(max(c_dbl, 1.0)) <= LOG_C_CAP),
                 "linear_bound": bool(log(max(c_lin, 1.0)) <= LOG_C_CAP),
                 "log_small": bool(log_small),
                 "convex_phi": bool(np.all(np.diff(slopes) >= -1e-7 * scale)),
                 "concave": bool(np.all(np.diff(sl_t) <= 1e-7 * scale)),
                 "o_of_t": bool(dec and r[-1] <= 0.5 * np.max(r)),
                 "non_quasianalytic": nonqa}
        return flags, {"doubling_C": c_dbl, "linear_C": c_lin, "o_of_t_final_ratio": float(r[-1]),
                       "tail_integral_exponent": q_fit, "tail_integral_estimate": tail}

    def __repr__(self):
        return f"WeightFunction({self.label!r})"


# -- presets -----------------------------------------------------------------

def power(alpha: float, normalized: bool = True) -> WeightFunction:
    """omega(t) = t^alpha, shifted to vanish on [0, 1] when normalized, with
    its exact conjugates: phi*(t) = (t/a)(log(t/a) - 1) + 1 for t > a = alpha,
    else 0 (both 1 less when raw), and omega*(s) at t = (a/s)^{1/(1-a)}."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    shift = 1.0 if normalized else 0.0

    def young(t):  # argmax log(t/a)/a of s t - phi(s), at s = 0 for t <= a
        r = np.maximum(t, alpha) / alpha
        return r * (np.log(r) - 1.0) + shift

    def omega_star(s, t_hi):  # at the stationary point, clamped to the scan [1e-9, t_hi]
        t = np.exp(np.clip((log(alpha) - np.log(s)) / (1.0 - alpha), log(1e-9), log(t_hi)))
        return np.maximum(t ** alpha - shift - s * t, 0.0)

    def fn(t):  # expm1 keeps t^alpha - 1 accurate for tiny alpha
        if not normalized:
            return t ** alpha
        with np.errstate(divide="ignore"):
            return np.maximum(0.0, np.expm1(alpha * np.log(t)))

    return WeightFunction(fn, f"power({alpha:g}{'' if normalized else ',raw'})",
                          conjugates=(young, omega_star))


def gevrey_dual(s: float, normalized: bool = True) -> WeightFunction:
    """The weight whose matrix rows grow like (k!)^{1+s}: power(1/(1+s))."""
    if s <= 0:
        raise ValueError("gevrey index must be positive")
    fn = power(1.0 / (1.0 + s), normalized=normalized)
    fn.label = f"gevrey_dual({s:g})"
    return fn


def log_power(b: float, scale: float = 1.0) -> WeightFunction:
    """omega(t) = scale * t / (log t)^b beyond e^{b+1}, bridged by
    c * log t on [1, e^{b+1}] and zero on [0, 1].  The bridge point makes
    omega(e^s) convex with a continuous derivative, and omega concave on
    [1, inf), so each conjugate is taken at the one root of a derivative.
    Quasianalytic for b <= 1."""
    if b <= 0:
        raise ValueError("log exponent must be positive")
    s1 = b + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = np.exp(s1)
        try:
            w1 = scale * t1 / s1 ** b
        except OverflowError:  # s1 ** b as a Python float
            w1 = float("inf")
    c = w1 / s1  # phi'(s) on the bridge (0, s1), and omega'(1+)
    if not 0.0 < c < float("inf"):
        raise ValueError(f"log_power({b:g}, {scale:g}): omega'(1+) = {c:g} is not a positive float")

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        mid = (t > 1.0) & (t < t1)
        out[mid] = w1 * np.log(t[mid]) / s1
        hi = t >= t1
        with np.errstate(over="ignore"):
            out[hi] = scale * t[hi] / np.log(t[hi]) ** b
        far = hi & (out == 0.0)  # omega >= w1 > 0 there, so (log t)^b overflowed
        if far.any():
            out[far] = np.exp(log(scale) + np.log(t[far]) - b * np.log(np.log(t[far])))
        return out

    def young(t):  # 0 up to phi'(0+) = c; beyond, phi'(s) = t on [s1, s_cap]
        out = np.zeros_like(t)
        up = t > c
        tu = t[up]
        log_t = np.log(tu / scale)  # Newton on log(phi'/scale) = s - s1 log s + log(s - b)
        s = np.clip(log_t + b * np.log(np.maximum(log_t, s1)), s1, _S_CAP)
        for _ in range(6):
            s = np.clip(s - (s - s1 * np.log(s) + np.log(s - b) - log_t)
                        / (1.0 - s1 / s + 1.0 / (s - b)), s1, _S_CAP)
        s = _bisect(lambda s: scale * np.exp(s) * s ** -b * (1.0 - b / s) - tu, s1, _S_CAP, s)
        out[up] = s * tu - fn(np.exp(s))
        return out

    def omega_star(s, t_hi):  # 0 from s = omega'(1+) = c on; below, omega'(e^u) = s
        out = np.zeros_like(s)
        low = s < c
        sl = s[low]

        def gap(u):  # s - omega'(e^u), increasing in u
            v = np.maximum(u, s1)
            return sl - np.where(u < s1, c * np.exp(-u), scale * v ** -b * (1.0 - b / v))

        u = log(c) - np.log(sl)  # the root where it lies on the bridge, below s1
        past, top = u > s1, max(log(t_hi), s1 + 1.0)  # above s1 even when t_hi < e^s1
        # beyond s1, log omega'(e^u) - log s = w + log(u - b) - s1 log(u/s1) falls, and
        # is at least w - (u - s1) and w - b (u - s1)^2 / (2 s1): Newton from their larger root
        w = u[past] - s1
        v = lo = np.minimum(np.maximum(u[past], s1 + np.sqrt(2.0 * s1 / b * w)), top)
        for _ in range(6):
            v = np.clip(v - (w + np.log(v - b) - s1 * np.log(v / s1))
                        / (1.0 / (v - b) - s1 / v), lo, top)
        u[past] = v
        t = np.minimum(np.exp(_bisect(gap, 0.0, log(t_hi), u)), t_hi)
        out[low] = np.maximum(fn(t) - sl * t, 0.0)
        return out

    return WeightFunction(fn, label=f"log_power({b:g})", conjugates=(young, omega_star))


def omega_of_sequence(seq: WeightSequence) -> WeightFunction:
    """Growth profile sup_k (k log t - log M_k) of a weight sequence, as an
    evaluable weight function (valid while the supremum stays in range).

    Its conjugates are exact on the hull vertices k of log M: phi(s) is
    max_k (k s - log M_k), so phi* interpolates log M between the vertices
    (from the least one on, as s >= 0), and omega* is the largest of the
    concave k log t - log M_k - s t, each at t = k/s clamped to the range."""
    env = seq.view("M").envelope  # the hull omega_assoc reads
    t_valid = float(np.exp(env.slopes[-1])) if len(env.slopes) else float("inf")
    if 0.45 * t_valid <= GRID_LO:  # the certification grid would end before GRID_LO
        raise ValueError(f"growth profile valid only up to t = {t_valid:g}, too small to certify")
    k, log_m = env.vertices.astype(float), seq.logM[env.vertices]
    least = int(np.argmin(log_m))

    def fn(t):
        t = np.asarray(t, dtype=float)
        logt = np.log(np.maximum(t, 1e-300))
        val, _, _ = env.query(-logt)
        out = np.maximum(0.0, -val)
        return np.where(t <= 0.0, 0.0, out)

    def omega_star(s, t_hi):
        t = np.clip(k / s[:, None], 1e-9, t_hi)
        return np.maximum(np.max(k * np.log(t) - log_m - s[:, None] * t, axis=1), 0.0)

    return WeightFunction(fn, label=f"omega[{seq.label}]", t_valid_max=t_valid,
                          conjugates=(lambda t: np.interp(t, k[least:], log_m[least:]),
                                      omega_star))


def tabulated(ts, values, label: str = "tabulated") -> WeightFunction:
    """Piecewise-linear weight through (t_i, w_i), extended linearly with the
    final slope beyond the table.

    omega* peaks at a breakpoint or an end of the range.  In s = log t each
    piece is a + b e^s, so s t - phi(s) peaks on it at e^s = t/b, clamped to
    the piece (at an end when b <= 0): phi* is the best of those points, the
    breakpoints, 0 and the s cap."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(ts) <= 0) or np.any(np.diff(values) < 0):
        raise ValueError("table must be strictly increasing in t, non-decreasing in w")
    slope = (values[-1] - values[-2]) / (ts[-1] - ts[-2])
    left_slope = values[0] / ts[0] if ts[0] > 0 else 0.0
    edges = np.clip(np.log(np.maximum(ts, 1e-300)), 0.0, _S_CAP)
    lo, hi = np.r_[0.0, edges], np.r_[edges, _S_CAP]  # the pieces in s
    with np.errstate(divide="ignore"):
        log_b = np.log(np.maximum(np.r_[left_slope, np.diff(values) / np.diff(ts), slope], 0.0))

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, ts, values)
        out = np.where(t > ts[-1], values[-1] + slope * (t - ts[-1]), out)
        return np.where(t < ts[0], left_slope * t, out)

    def young(t):
        peak = np.clip(np.log(np.maximum(t, 1e-300))[:, None] - log_b, lo, hi)
        s = np.c_[np.broadcast_to(np.r_[lo, _S_CAP], (len(t), len(lo) + 1)), peak]
        return np.max(s * t[:, None] - fn(np.exp(s)), axis=1)

    def omega_star(s, t_hi):
        t = np.r_[1e-9, ts[(ts > 1e-9) & (ts < t_hi)], t_hi]
        return np.maximum(np.max(fn(t) - s[:, None] * t, axis=1), 0.0)

    return WeightFunction(fn, label=label, conjugates=(young, omega_star))


# -- conjugates ------------------------------------------------------------------

_S_CAP = 600.0  # exp(s) stays finite in doubles well past any grid query


def _bisect(f, lo, hi, near):
    """Where the increasing array function ``f`` crosses 0 between ``lo``
    and ``hi`` (clamped to them), per entry: bisection until no float is
    left inside any bracket.  With ``near`` an estimate of each root, the
    bracket is near -+ (1e-13 |near| + 1e-14) within [lo, hi] where f changes
    sign across it: about 10 passes, not 60.  Ends lo and hi are never evaluated."""
    x = np.clip(near, lo, hi)
    h = 1e-13 * np.abs(x) + 1e-14
    a, b = np.maximum(x - h, lo), np.minimum(x + h, hi)
    ok = ((a == lo) | (f(a) < 0.0)) & ((b == hi) | (f(b) >= 0.0))
    lo, hi = np.where(ok, a, lo), np.where(ok, b, hi)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not np.any(live):
            return mid
        below = f(mid) < 0.0
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)


def _conjugates(fn: WeightFunction):
    if fn.conjugates is None:
        raise ValueError(f"{fn.label}: no exact conjugates; build the weight with a preset")
    return fn.conjugates


def young_conjugate_grid(fn: WeightFunction, ts) -> np.ndarray:
    """Convex conjugate ``sup_{0 <= s <= s_cap} (s t - omega(e^s))`` of the
    log-reparametrized weight at every ``t`` of an array of any shape, by
    the weight's exact conjugate (ValueError for a weight without one).

    ``s_cap = min(600, log t_valid_max)``; GridExhausted, naming the first
    such ``t``, where the objective still rises there (``g(s_cap) >=
    g(s_cap / 2)``), so the supremum lies beyond the cap.  For normalized
    weights the result is a nonnegative increasing convex function
    vanishing at 0.
    """
    t = np.asarray(ts, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    young = _conjugates(fn)[0]
    shape, t = t.shape, t.ravel()
    s_cap = min(_S_CAP, log(fn.t_valid_max) if isfinite(fn.t_valid_max) else _S_CAP)
    # at t = 0 the supremum is -phi(0): phi does not decrease
    stuck = (t > 0) & (s_cap * t - fn.phi(s_cap) >= 0.5 * s_cap * t - fn.phi(0.5 * s_cap))
    if np.any(stuck):
        raise GridExhausted(f"conjugate argmax of {fn.label} still rising at "
                            f"s={s_cap:g} (t={t[stuck][0]:g})")
    return young(t).reshape(shape)


# -- weight matrix ------------------------------------------------------------

MATRIX_TOL = 1e-7  # slack of the structural row inequalities


def splitting_ok(a: np.ndarray, b: np.ndarray):
    """Index splitting on log tables, a_{j+k} <= b_j + b_k for j + k <= K: a bool,
    or one per pair of stacked tables.  Blocks of rows j meet their columns k <= K - j,
    at most INCIDENCE_BLOCK entries per block, so memory is linear in K and the pairs."""
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    k_max, ok, lo = a2.shape[-1] - 1, np.ones(len(a2), dtype=bool), 0
    while lo <= k_max and ok.any():
        width = k_max - lo + 1  # the columns of row lo
        j = np.arange(lo, min(lo + max(1, jets.INCIDENCE_BLOCK // (width * len(a2))), k_max + 1))
        jk = j[:, None] + np.arange(width)
        inside = jk <= k_max
        over = np.take(a2, np.where(inside, jk, k_max), axis=1) - b2[:, j, None]
        over -= b2[:, None, :width]  # (a_{j+k} - b_j) - b_k
        ok &= ~((over > MATRIX_TOL) & inside).reshape(len(a2), -1).any(axis=1)
        lo = j[-1] + 1
    return bool(ok[0]) if np.ndim(a) == 1 else ok


class WeightMatrix:
    """Finite family of weight sequences indexed by positive parameters.

    Generated matrices store ``log W^x_k = phi*(x k)/x`` per row; hand-built
    matrices may carry arbitrary rows.  Structural facts checked at build
    time for a matrix with a ``source``: rows are log-convex weight sequences,
    quotients are monotone in the parameter, doubling the parameter absorbs
    index splitting, and quadrupling absorbs index doubling.
    """

    def __init__(self, x_grid, rows: dict[float, WeightSequence],
                 source: WeightFunction | None = None):
        self.x_grid = tuple(sorted(float(x) for x in x_grid))
        self.rows = {float(x): rows[x] for x in self.x_grid}
        k_max = [len(self.rows[x].logM) - 1 for x in self.x_grid]
        for x, k in zip(self.x_grid, k_max):
            if k != k_max[0]:
                raise ValueError(f"row {x:g} has K_max {k}, row {self.x_grid[0]:g} has {k_max[0]}")
        self.source = source
        if source is not None:
            self._validate()

    def row(self, x: float) -> WeightSequence:
        return self.rows[float(x)]

    @property
    def K_max(self) -> int:
        return next(iter(self.rows.values())).K_max

    def stack(self, table: str) -> np.ndarray:
        """The rows' "logM", "log_mu" or "log_m" tables, shape (rows, K_max + 1)."""
        return np.array([getattr(self.rows[x], table) for x in self.x_grid])

    def _validate(self):
        xs = self.x_grid
        log_M, log_mu = self.stack("logM"), self.stack("log_mu")
        w0_off = np.abs(log_M[:, 0]) > 1e-9
        bad = w0_off | ~_log_convex(log_M)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvariantViolation(f"row {xs[i]:g}: " + ("W_0 != 1" if w0_off[i]
                                                          else "not log-convex"))
        falls = np.any(log_mu[:-1] > log_mu[1:] + MATRIX_TOL, axis=1)
        if np.any(falls):
            i = int(np.argmax(falls))
            raise InvariantViolation(f"quotients not monotone {xs[i]:g} -> {xs[i + 1]:g}")
        # each pair (x, 2x) and each pair (x, 4x) of the grid in one pass
        at = {x: i for i, x in enumerate(xs)}
        (i2, j2), (i4, j4) = (np.array([(i, at[c * x]) for i, x in enumerate(xs) if c * x in at],
                                       dtype=int).reshape(-1, 2).T for c in (2.0, 4.0))
        split, double = np.zeros((2, len(xs)), dtype=bool)
        split[i2] = ~splitting_ok(log_M[i2], log_M[j2])
        ks = np.arange(2, self.K_max // 2 + 1)
        double[i4] = np.any(log_mu[i4][:, 2 * ks] > log_mu[j4][:, ks] + MATRIX_TOL, axis=1)
        if np.any(split | double):
            i = int(np.argmax(split | double))
            raise InvariantViolation(f"{'splitting' if split[i] else 'index-doubling'} bound "
                                     f"fails at x={xs[i]:g}")


def weight_matrix(fn: WeightFunction, x_grid=DEFAULT_X_GRID,
                  K_max: int = DEFAULT_K_MAX) -> WeightMatrix:
    """Matrix of weight sequences exp(phi*(x k)/x) spanned by ``fn``.

    The parameter grid must be closed under doubling below its maximum so
    the splitting and index-doubling bounds are checkable in-grid.
    """
    if not fn.normalized:
        raise ValueError(f"{fn.label}: weight must vanish on [0,1] to span a matrix")
    xs = sorted(float(x) for x in x_grid)
    for x in xs:
        if 2.0 * x <= xs[-1] and not any(abs(2.0 * x - y) < 1e-12 * y for y in xs):
            raise ValueError(f"x_grid not closed under doubling at x={x:g}")
    x_col = np.asarray(x_grid, dtype=float)[:, None]
    table = young_conjugate_grid(fn, x_col * np.arange(K_max + 1)) / x_col
    table[:, 0] = 0.0
    rows = {x: WeightSequence(logw, label=f"{fn.label}@x={x:g}", _flags=flags)
            for x, logw, flags in zip(x_col[:, 0].tolist(), table, _row_flags(table))}
    return WeightMatrix(x_grid, rows, source=fn)


# -- decreasing conjugate ------------------------------------------------------

def omega_conjugate_grid(fn: WeightFunction, ss) -> np.ndarray:
    """Decreasing conjugate ``sup (omega(t) - s t)`` over the scan range
    ``[1e-9, t_hi]``, ``t_hi = min(0.45 t_valid_max, 1e12)``, floored at 0,
    at every ``s`` of an array of any shape, by the weight's exact conjugate
    (ValueError for a weight without one).

    Finite exactly because omega is certified o(t) on the range (NotLittleO
    otherwise); decreasing and convex in s.
    """
    s = np.asarray(ss, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    if not fn.flags["o_of_t"]:
        raise NotLittleO(f"{fn.label}: o(t) certificate absent")
    omega_star = _conjugates(fn)[1]
    t_hi = min(fn.t_valid_max * 0.45, GRID_HI * 1e3)
    return omega_star(s.ravel(), t_hi).reshape(s.shape)


# -- decaying tail integrals ---------------------------------------------------

def _simpson_log(g, lo: np.ndarray, ratio, n: int = 32) -> np.ndarray:
    """Integral of g over [lo, lo*ratio] in log coordinates by the composite
    Simpson rule on n panels, per entry of lo (any shape; ratio broadcasts)."""
    h = np.log(np.asarray(ratio, dtype=float))[..., None] / n
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    u = lo[..., None] * np.exp(h * np.arange(n + 1))
    vals = g(u) * u  # d(u) = u d(log u)
    return (h / 3.0) * vals @ w


def _tail_remainder(last4: np.ndarray, n_dec: int, what: str) -> np.ndarray:
    """Integral past the last of n_dec decades per row of the last four decade
    sums: geometric if their last ratio is at most 0.95, else a fitted power
    of the decade index (QuasianalyticInput at the first unsummable row)."""
    last = last4[:, -1]
    r = last / np.maximum(last4[:, -2], 1e-300)
    geo = r <= 0.95
    rem = np.where(geo, last * r / (1.0 - np.where(geo, r, 0.0)), np.nan)
    q = _decay_exponent(last4[~geo], n_dec)
    if np.any(q <= 1.05):
        raise QuasianalyticInput(
            f"{what}: decade sums decay like d^-{q[q <= 1.05][0]:.2f}, not summable")
    rem[~geo] = last[~geo] * n_dec / (q - 1.0)
    return rem


def _decade_tail_integral(g, t0: float, max_decades: int = 60, what: str = "integral",
                          t_cap: float = float("inf")):
    """``int_{t0}^inf g(u) du`` as (decade total, remainder, decade sums), the
    decades in one pass, up to the first d >= 3 whose running sum is positive
    and gains at most 1e-12 of it (remainder 0), else to ``max_decades`` or
    ``t_cap``, the certified range of g (remainder None: the caller fits it;
    under four decades QuasianalyticInput)."""
    if isfinite(t_cap):
        avail = int(np.floor(np.log10(t_cap / t0))) if t_cap > 0 else 0
        if avail < 4:
            raise QuasianalyticInput(
                f"{what}: only {avail} certified decades above t0, cannot certify tail")
        max_decades = min(max_decades, avail)
    sums = _simpson_log(g, np.cumprod(np.r_[t0, np.full(max_decades - 1, 10.0)]), 10.0)
    acc = np.cumsum(sums)
    stop = np.flatnonzero((np.arange(max_decades) >= 3) & (acc > 0) & (sums <= 1e-12 * acc))
    if len(stop):
        return float(acc[stop[0]]), 0.0, sums[:stop[0] + 1]
    return float(acc[-1]), None, sums


def kappa(fn: WeightFunction, t):
    """Averaged tail transform ``t * int_t^inf omega(u)/u^2 du``.

    Always at least omega(t) for increasing omega; concave; o(t) at
    infinity.  Requires a non-quasianalytic weight.

    One pass for all t: the gaps of the sorted distinct t (Simpson, 128 panels
    per decade of the widest, at least 8) summed from the top, plus the decades
    above the largest t; if those do not settle, each t takes ``[t, t 10^N]``
    (less the gaps of t 10^N) plus a remainder fitted to its last four decades.
    """
    if not fn.flags["non_quasianalytic"]:
        raise QuasianalyticInput(f"{fn.label}: tail integral not certified finite")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError("t must be positive and finite")
    if ts.size == 0:
        return ts

    def g(u):
        return fn(u) / u ** 2

    u, inv = np.unique(ts, return_inverse=True)
    what = f"kappa[{fn.label}]"
    acc, rem, top = _decade_tail_integral(g, u[-1], what=what, t_cap=0.45 * fn.t_valid_max)
    n_dec, ratio = len(top), u[1:] / u[:-1]
    panels = 2 * max(4, ceil(64.0 * log10(ratio.max(initial=1.0))))
    lo = np.outer([1.0] if rem is not None else [1.0, 10.0 ** n_dec], u[:-1])
    gaps = _simpson_log(g, lo, ratio, panels)
    above = np.cumsum(np.pad(gaps, ((0, 0), (0, 1)))[:, ::-1], axis=1)[:, ::-1]
    head = above[0] + acc
    if rem is None:
        # decade starts t 10 10 ... as the top decades take them: near a zero
        # of omega, t 10^k one ulp off changes a decade sum more than its size
        starts = np.cumprod(np.column_stack([u, np.full((len(u), n_dec - 1), 10.0)]), axis=1)
        last4 = _simpson_log(g, starts[:, -4:], 10.0)
        head, rem = head - above[1], _tail_remainder(last4[inv], n_dec, what)
    out = ts * (head[inv] + rem)
    return out if np.ndim(t) else float(out[0])


def _tail_integrability(fn: WeightFunction):
    """Certificate for ``int_0^inf omega(t)/(1+t^2) dt < inf`` with a decade
    trend analysis; returns (ok, fitted exponent, tail estimate)."""
    what = f"tail[{fn.label}]"
    try:
        acc, rem, sums = _decade_tail_integral(lambda u: fn(u) / (1.0 + u ** 2), 1.0,
                                               max_decades=24, what=what,
                                               t_cap=0.45 * fn.t_valid_max)
        rem = _tail_remainder(sums[None, -4:], len(sums), what)[0] if rem is None else rem
    except QuasianalyticInput:
        return False, 0.0, float("inf")
    xs = np.linspace(0.0, 1.0, 257)
    head = float(np.trapezoid(fn(xs) / (1.0 + xs ** 2), xs))
    return True, float(_decay_exponent(sums[-5:], len(sums))), head + acc + float(rem)

