"""Weight functions and their transforms.

A weight function is an increasing continuous ``omega: [0, inf) -> [0, inf)``
with ``omega(0) = 0`` used to regulate derivative growth.  This module
provides the preset families, the convex conjugate of ``phi(s) = omega(e^s)``,
the decreasing conjugate ``sup_s (omega(s) - t s)``, the averaged tail
transform ``t * int_t^inf omega(u)/u^2 du``, the Poisson harmonic extension,
and the weight matrix ``W^x_k = exp(phi*(x k)/x)`` spanned by a weight
function.

Both conjugates are array kernels, in closed form for the power presets;
otherwise every argmax is bracketed at once (by doubling for ``phi*``, by a
log-spaced scan for ``omega*``) and refined by one vectorized golden-section
search.  The scalar functions are 1-element calls of the grid ones.  A
weight matrix flags all its rows in one pass.  The averaged tail transform
integrates each gap of its query grid once, not decades per t.

Asymptotic properties (doubling, linear bound, little-o of t, tail
integrability) are certified on a finite log-spaced grid with reported
witness constants; every flag is a finite-range verdict.
"""

from __future__ import annotations

from math import atan, ceil, isfinite, log, log10, pi, sqrt

import numpy as np

from .errors import (
    GridExhausted,
    InvariantViolation,
    NotLittleO,
    QuasianalyticInput,
)
from .jets import INCIDENCE_BLOCK
from .seqcore import WeightSequence, _decay_exponent, _MinAffineEnvelope, _row_flags

LOG_C_CAP = 40.0 * log(2.0)

# default certification grid: 64 points per decade on [1e-6, 1e9]
GRID_LO, GRID_HI, GRID_PER_DECADE = 1e-6, 1e9, 64

# default matrix parameter grid {2^j : -4 <= j <= 6}; closed under doubling
DEFAULT_X_GRID = tuple(2.0 ** j for j in range(-4, 7))

def _log_grid(lo: float, hi: float, per_decade: int = GRID_PER_DECADE) -> np.ndarray:
    n = max(8, int(round(per_decade * np.log10(hi / lo))))
    return np.geomspace(lo, hi, n)


class WeightFunction:
    """Evaluable weight with certification grid, flags, and witnesses.

    ``fn`` must accept numpy arrays of nonnegative reals.  ``t_valid_max``
    bounds the range on which the evaluator is certified (e.g. growth
    profiles of finite sequence tables); grids used by the transforms are
    clamped to it.  ``conjugates`` holds exact ``(phi*(t), omega*(s, t_hi))``
    array functions, if any.  Instances are immutable and thread-safe.
    """

    def __init__(self, fn, label: str, t_valid_max: float = float("inf"),
                 conjugates=None):
        self._fn = fn
        self.label = label
        self.t_valid_max = t_valid_max
        self.conjugates = conjugates
        self.flags: dict[str, bool] = {}
        self.witnesses: dict[str, float] = {}
        hi = min(GRID_HI, 0.45 * t_valid_max)
        self.grid = _log_grid(GRID_LO, hi)
        self._compute_flags()
        self.normalized = bool(np.max(self(np.linspace(1e-9, 1.0, 64))) <= 1e-12)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self._fn(np.maximum(t, 0.0))
        return out if out.ndim else float(out)

    def phi(self, s):
        """Log-reparametrized weight ``omega(e^s)``."""
        return self(np.exp(np.asarray(s, dtype=float)))

    # -- flag certification -------------------------------------------------

    def _compute_flags(self):
        t = self.grid
        w = self(t)
        scale = max(1.0, float(np.max(np.abs(w))))
        self.flags["increasing"] = bool(np.all(np.diff(w) >= -1e-12 * scale))

        w2 = self(2.0 * t)
        c_dbl = float(np.max(w2 / (w + 1.0)))
        self.witnesses["doubling_C"] = c_dbl
        self.flags["doubling"] = bool(log(max(c_dbl, 1.0)) <= LOG_C_CAP)

        c_lin = float(np.max(w / (t + 1.0)))
        self.witnesses["linear_C"] = c_lin
        self.flags["linear_bound"] = bool(log(max(c_lin, 1.0)) <= LOG_C_CAP)

        # log t = o(omega): growth of omega/log t over the last quarter
        mask = t > 10.0
        ratio = w[mask] / np.log(t[mask])
        q3 = (3 * len(ratio)) // 4
        grew = ratio[-1] >= 1.05 * ratio[q3] and ratio[-1] >= 10.0
        self.flags["log_small"] = bool(grew)

        s = np.log(t[t >= 1e-4])
        ph = self.phi(s)
        slopes = np.diff(ph) / np.diff(s)
        self.flags["convex_phi"] = bool(np.all(np.diff(slopes) >= -1e-7 * scale))

        sl_t = np.diff(w) / np.diff(t)
        self.flags["concave"] = bool(np.all(np.diff(sl_t) <= 1e-7 * scale))

        r = w / t
        q3 = (3 * len(r)) // 4
        dec = bool(np.all(np.diff(r[q3:]) <= 1e-15 * scale))
        self.flags["o_of_t"] = bool(dec and r[-1] <= 0.5 * np.max(r))
        self.witnesses["o_of_t_final_ratio"] = float(r[-1])

        nonqa, q_fit, tail = _tail_integrability(self)
        self.flags["non_quasianalytic"] = nonqa
        self.witnesses["tail_integral_exponent"] = q_fit
        self.witnesses["tail_integral_estimate"] = tail

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

    def omega_star(s, t_hi):  # at the stationary point, clamped to the scan top
        t = np.exp(np.minimum((log(alpha) - np.log(s)) / (1.0 - alpha), log(t_hi)))
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
    omega(e^s) convex with a continuous derivative.  Quasianalytic for
    b <= 1."""
    if b <= 0:
        raise ValueError("log exponent must be positive")
    s1 = b + 1.0
    t1 = np.exp(s1)
    w1 = scale * t1 / s1 ** b

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        mid = (t > 1.0) & (t < t1)
        out[mid] = w1 * np.log(t[mid]) / s1
        hi = t >= t1
        out[hi] = scale * t[hi] / np.log(t[hi]) ** b
        return out

    return WeightFunction(fn, label=f"log_power({b:g})")


def omega_of_sequence(seq: WeightSequence) -> WeightFunction:
    """Growth profile sup_k (k log t - log M_k) of a weight sequence, as an
    evaluable weight function (valid while the supremum stays in range)."""
    env = _MinAffineEnvelope(np.asarray(seq.logM))
    t_valid = float(np.exp(env.slopes[-1])) if len(env.slopes) else float("inf")

    def fn(t):
        t = np.asarray(t, dtype=float)
        logt = np.log(np.maximum(t, 1e-300))
        val, _, _ = env.query(-logt)
        out = np.maximum(0.0, -val)
        return np.where(t <= 0.0, 0.0, out)

    return WeightFunction(fn, label=f"omega[{seq.label}]", t_valid_max=t_valid)


def tabulated(ts, values, label: str = "tabulated") -> WeightFunction:
    """Piecewise-linear weight through (t_i, w_i), extended linearly with the
    final slope beyond the table."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(ts) <= 0) or np.any(np.diff(values) < 0):
        raise ValueError("table must be strictly increasing in t, non-decreasing in w")
    slope = (values[-1] - values[-2]) / (ts[-1] - ts[-2])
    left_slope = values[0] / ts[0] if ts[0] > 0 else 0.0

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, ts, values)
        out = np.where(t > ts[-1], values[-1] + slope * (t - ts[-1]), out)
        return np.where(t < ts[0], left_slope * t, out)

    return WeightFunction(fn, label=label)


# -- conjugates ------------------------------------------------------------------

_S_CAP = 600.0  # exp(s) stays finite in doubles well past any grid query
_INV_PHI = (sqrt(5.0) - 1.0) / 2.0  # golden-section shrink factor per step
_SCAN_ROWS = 32  # values of s per block of the omega* scan


def _golden_max(g, lo, hi, xatol):
    """Golden-section search for ``max g`` on every bracket ``[lo, hi]`` at
    once, ``g`` being unimodal on each and evaluated on whole arrays.

    Runs a fixed number of steps, until every bracket is narrower than its
    ``xatol``; each step evaluates ``g`` at one new point per bracket.
    Returns the best values found, lower bounds of the maxima.
    """
    a = np.asarray(lo, dtype=float)
    h = np.asarray(hi, dtype=float) - a
    steps = np.max(np.log(h / xatol) / -log(_INV_PHI), initial=0.0)
    # interior points c = a + r^2 h < d = a + r h, with r = _INV_PHI
    fc, fd = g(a + _INV_PHI ** 2 * h), g(a + _INV_PHI * h)
    for _ in range(int(np.ceil(steps))):
        left = fc >= fd  # keep [a, d], whose new d is the old c; else [c, b]
        f_keep = np.maximum(fc, fd)
        h = _INV_PHI * h
        a = np.where(left, a, a + _INV_PHI * h)
        f_new = g(a + np.where(left, _INV_PHI ** 2, _INV_PHI) * h)
        fc, fd = np.where(left, f_new, f_keep), np.where(left, f_keep, f_new)
    return np.maximum(fc, fd)


def young_conjugate_grid(fn: WeightFunction, ts) -> np.ndarray:
    """Convex conjugate ``sup_{s>=0} (s t - omega(e^s))`` of the
    log-reparametrized weight at every ``t`` of an array of any shape.

    The objective is concave in s.  Every argmax is bracketed at once by
    doubling ``s_hi`` from 1 while the objective still rises, up to
    ``min(600, log t_valid_max)`` (GridExhausted, naming the first such
    ``t``, when it still rises there), then refined by one vectorized
    golden-section search on ``[0, s_hi]`` down to ``1e-10 * s_hi``.  A
    weight with exact conjugates skips the search; the bracket test at the
    cap still decides GridExhausted.  For normalized weights the result is a
    nonnegative increasing convex function vanishing at 0.
    """
    t = np.asarray(ts, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    shape, t = t.shape, t.ravel()
    s_cap = min(_S_CAP, log(fn.t_valid_max) if isfinite(fn.t_valid_max) else _S_CAP)

    def g(s, tt=t):
        return s * tt - fn.phi(s)

    if fn.conjugates is not None:
        # the doubling brackets below reach the cap still rising exactly here
        stuck = g(s_cap) >= g(0.5 * s_cap)
        if np.any(stuck):
            raise GridExhausted(f"conjugate argmax of {fn.label} still rising at "
                                f"s={s_cap:g} (t={t[stuck][0]:g})")
        return fn.conjugates[0](t).reshape(shape)
    s_hi = np.ones_like(t)
    rising = np.ones(t.shape, dtype=bool)
    while np.any(rising):
        s, tt = np.minimum(s_hi[rising], s_cap), t[rising]
        up = g(s, tt) >= g(0.5 * s, tt)
        stuck = up & (s >= s_cap)  # brackets double in step: all reach it at once
        if np.any(stuck):
            raise GridExhausted(f"conjugate argmax of {fn.label} still rising at "
                                f"s={s_cap:g} (t={tt[stuck][0]:g})")
        rising[rising] = up
        s_hi[rising] *= 2.0
    s_hi = np.minimum(s_hi, s_cap)
    best = _golden_max(g, np.zeros_like(t), s_hi, 1e-10 * np.maximum(1.0, s_hi))
    return np.maximum(best, g(np.zeros_like(t))).reshape(shape)


def young_conjugate(fn: WeightFunction, t: float) -> float:
    """Convex conjugate at one ``t``: a 1-element :func:`young_conjugate_grid`."""
    return float(young_conjugate_grid(fn, t))


# -- weight matrix ------------------------------------------------------------

MATRIX_TOL = 1e-7  # slack of the structural row inequalities


def splitting_ok(a: np.ndarray, b: np.ndarray) -> bool:
    """Index splitting on log tables: a_{j+k} <= b_j + b_k for j + k <= K.
    Blocks of rows j meet their columns k <= K - j, at most INCIDENCE_BLOCK
    entries per block, so memory is linear in K."""
    k_max = len(a) - 1
    lo = 0
    while lo <= k_max:
        width = k_max - lo + 1  # the columns of row lo
        j = np.arange(lo, min(lo + max(1, INCIDENCE_BLOCK // width), k_max + 1))
        jk = j[:, None] + np.arange(width)
        inside = jk <= k_max
        if np.any((a[np.where(inside, jk, k_max)] - b[j, None] - b[:width])[inside]
                  > MATRIX_TOL):
            return False
        lo = j[-1] + 1
    return True


class WeightMatrix:
    """Finite family of weight sequences indexed by positive parameters.

    Generated matrices store ``log W^x_k = phi*(x k)/x`` per row; hand-built
    matrices may carry arbitrary rows.  Structural facts checked at build
    time for generated matrices: rows are log-convex weight sequences,
    quotients are monotone in the parameter, doubling the parameter absorbs
    index splitting, and quadrupling absorbs index doubling.
    """

    def __init__(self, x_grid, rows: dict[float, WeightSequence],
                 source: WeightFunction | None = None, validate: bool = True):
        self.x_grid = tuple(sorted(float(x) for x in x_grid))
        self.rows = {float(x): rows[x] for x in self.x_grid}
        self.source = source
        if validate and source is not None:
            self._validate()

    def row(self, x: float) -> WeightSequence:
        return self.rows[float(x)]

    @property
    def K_max(self) -> int:
        return next(iter(self.rows.values())).K_max

    def _validate(self):
        xs = self.x_grid
        rows = [self.rows[x] for x in xs]
        w0_off = np.abs([r.logM[0] for r in rows]) > 1e-9
        bad = w0_off | ~np.array([r.flags["log_convex"] for r in rows])
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvariantViolation(f"row {xs[i]:g}: " + ("W_0 != 1" if w0_off[i]
                                                          else "not log-convex"))
        log_mu = np.array([r.log_mu for r in rows])
        falls = np.any(log_mu[:-1] > log_mu[1:] + MATRIX_TOL, axis=1)
        if np.any(falls):
            i = int(np.argmax(falls))
            raise InvariantViolation(f"quotients not monotone {xs[i]:g} -> {xs[i + 1]:g}")
        ks = np.arange(2, self.K_max // 2 + 1)
        for x in xs:
            if 2.0 * x in self.rows and not splitting_ok(self.rows[x].logM,
                                                         self.rows[2.0 * x].logM):
                raise InvariantViolation(f"splitting bound fails at x={x:g}")
            if 4.0 * x in self.rows and np.any(self.rows[x].log_mu[2 * ks] > self.rows[
                    4.0 * x].log_mu[ks] + MATRIX_TOL):
                raise InvariantViolation(f"index-doubling bound fails at x={x:g}")


def weight_matrix(fn: WeightFunction, x_grid=DEFAULT_X_GRID,
                  K_max: int = 128) -> WeightMatrix:
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
    at every ``s`` of an array of any shape.

    Finite exactly because omega is certified o(t) on the range; decreasing
    and convex in s.  A weight with exact conjugates takes its closed form;
    any other is evaluated once on a 600-point log-spaced scan, each ``s``
    takes its best scan point, and one vectorized golden-section search
    refines every ``s`` over the bracket of the scan points on either side,
    down to ``1e-12`` times the bracket's top.
    """
    s = np.asarray(ss, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    if not fn.flags["o_of_t"]:
        raise NotLittleO(f"{fn.label}: o(t) certificate absent")
    shape, s = s.shape, s.ravel()
    t_hi = min(fn.t_valid_max * 0.45, GRID_HI * 1e3)
    if fn.conjugates is not None:
        return fn.conjugates[1](s, t_hi).reshape(shape)
    # beyond omega(t) <= c t with c < s/2, the objective only decreases
    ts = np.geomspace(1e-9, t_hi, 600)
    w = fn(ts)
    # the scan objective in blocks of rows, so memory stays flat in len(s)
    i = np.concatenate([np.argmax(w - blk[:, None] * ts, axis=1)
                        for blk in np.split(s, range(_SCAN_ROWS, len(s), _SCAN_ROWS))])
    best = w[i] - s * ts[i]
    hi = ts[np.minimum(i + 1, len(ts) - 1)]
    refined = _golden_max(lambda u: fn(u) - s * u, ts[np.maximum(i - 1, 0)], hi,
                          1e-12 * hi)
    return np.maximum(np.maximum(best, refined), 0.0).reshape(shape)


def omega_conjugate(fn: WeightFunction, s: float) -> float:
    """Decreasing conjugate at one ``s``: a 1-element :func:`omega_conjugate_grid`."""
    return float(omega_conjugate_grid(fn, s))


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


def _decade_tail_integral(g, t0: float, rel_tol: float = 1e-12,
                          max_decades: int = 60, what: str = "integral",
                          t_cap: float = float("inf"), fit_remainder: bool = True):
    """``int_{t0}^inf g(u) du`` as (decade total, remainder, decade sums), the
    decades in one pass, up to the first d >= 3 whose running sum is positive
    and gains at most ``rel_tol`` (remainder 0), else to ``max_decades`` or
    ``t_cap``, the certified range of g (remainder :func:`_tail_remainder`,
    None unless ``fit_remainder``; under four decades QuasianalyticInput)."""
    if isfinite(t_cap):
        avail = int(np.floor(np.log10(t_cap / t0))) if t_cap > 0 else 0
        if avail < 4:
            raise QuasianalyticInput(
                f"{what}: only {avail} certified decades above t0, cannot certify tail")
        max_decades = min(max_decades, avail)
    sums = _simpson_log(g, np.cumprod(np.r_[t0, np.full(max_decades - 1, 10.0)]), 10.0)
    acc = np.cumsum(sums)
    stop = np.flatnonzero((np.arange(max_decades) >= 3) & (acc > 0) & (sums <= rel_tol * acc))
    if len(stop):
        return float(acc[stop[0]]), 0.0, sums[:stop[0] + 1]
    rem = _tail_remainder(sums[None, -4:], max_decades, what)[0] if fit_remainder else None
    return float(acc[-1]), rem, sums


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
    acc, rem, top = _decade_tail_integral(g, u[-1], what=what, t_cap=0.45 * fn.t_valid_max,
                                          fit_remainder=False)
    n_dec, ratio = len(top), u[1:] / u[:-1]
    panels = 2 * max(4, ceil(64.0 * log10(ratio.max(initial=1.0))))
    lo = np.outer([1.0] if rem is not None else [1.0, 10.0 ** n_dec], u[:-1])
    gaps = _simpson_log(g, lo, ratio, panels)
    above = np.cumsum(np.pad(gaps, ((0, 0), (0, 1)))[:, ::-1], axis=1)[:, ::-1]
    head = above[0] + acc
    if rem is None:
        last4 = _simpson_log(g, np.outer(u, 10.0 ** np.arange(n_dec - 4, n_dec)), 10.0)
        head, rem = head - above[1], _tail_remainder(last4[inv], n_dec, what)
    out = ts * (head[inv] + rem)
    return out if np.ndim(t) else float(out[0])


def _tail_integrability(fn: WeightFunction):
    """Certificate for ``int_0^inf omega(t)/(1+t^2) dt < inf`` with a decade
    trend analysis; returns (ok, fitted exponent, tail estimate)."""
    try:
        acc, rem, sums = _decade_tail_integral(lambda u: fn(u) / (1.0 + u ** 2), 1.0,
                                               max_decades=24, what=f"tail[{fn.label}]",
                                               t_cap=0.45 * fn.t_valid_max)
    except QuasianalyticInput:
        return False, 0.0, float("inf")
    xs = np.linspace(0.0, 1.0, 257)
    head = float(np.trapezoid(fn(xs) / (1.0 + xs ** 2), xs))
    return True, float(_decay_exponent(sums[-5:], len(sums))), head + acc + float(rem)


# -- harmonic extension ---------------------------------------------------------

def poisson(fn: WeightFunction, x: float, y: float,
            theta_panels: int = 2048) -> float:
    """Harmonic extension of ``t -> omega(|t|)`` at the point x + i y.

    On the real axis this is omega(|x|) by definition; off it,
    ``(|y|/pi) * int omega(|t|) / ((t-x)^2 + y^2) dt`` evaluated by a
    tangent-substituted core plus decaying decade tails.  Requires the
    tail-integrability certificate.
    """
    if y == 0.0:
        return float(fn(abs(x)))
    if not fn.flags["non_quasianalytic"]:
        raise QuasianalyticInput(f"{fn.label}: harmonic extension needs (2.5)")
    ay = abs(y)
    big = max(100.0 * (abs(x) + ay), 100.0)
    th_lo = atan((-big - x) / ay)
    th_hi = atan((big - x) / ay)
    n = theta_panels
    theta = np.linspace(th_lo, th_hi, 2 * n + 1)
    vals = fn(np.abs(x + ay * np.tan(theta)))
    w = np.ones(2 * n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    core = (th_hi - th_lo) / (2 * n) / 3.0 * float(vals @ w) / pi

    def tail_g(u):
        return fn(u) * (1.0 / ((u - x) ** 2 + y ** 2) + 1.0 / ((u + x) ** 2 + y ** 2))

    acc, rem, _ = _decade_tail_integral(tail_g, big, what=f"poisson[{fn.label}]",
                                        t_cap=0.45 * fn.t_valid_max)
    return core + ay / pi * float(acc + rem)
