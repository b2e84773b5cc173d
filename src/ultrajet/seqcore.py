"""Weight sequences and their associated decay/counting functions.

A weight sequence is stored as a finite table of natural logs of M_k,
k = 0..K_max, together with the derived quotient sequence mu_k =
M_k / M_{k-1} and the factorial-stripped sequence m_k = M_k / k!.
All arithmetic happens in the log domain: M_k overflows doubles near
k = 170 already for M_k = k!.

Divergence statements ("M_k^{1/k} -> infinity" and friends) are certified
on the finite range only: the tested quantity must grow by a minimum
factor over the last quarter of the range, optionally on top of an
absolute floor.  Verdict-style consumers must treat these flags as
finite-range statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial, isfinite, log

import numpy as np

from .errors import NotAWeightSequence, QuasianalyticInput, RangeExhausted, TailUnbounded

DEFAULT_K_MAX = 128

# Finite-range divergence certificate: minimum growth factor of the tested
# quantity over the last quarter of the index range, and the absolute floor
# applied to M_{K_max} for the weight-sequence flag.
DIVERGENCE_GROWTH_MIN = 1.05
DIVERGENCE_FLOOR = 1.0e6

# Exponent margin above 1 for a fitted power tail to count as summable.
TAIL_EXPONENT_MARGIN = 0.05

# The cap C <= 2^40 of every finite-range constant, in flags and verdicts alike.
C_CAP = 2.0 ** 40
LOG_C_CAP = 40.0 * log(2.0)

# the structural flags and witnesses of a sequence, in report order
_FLAGS = ("log_convex", "weight_sequence", "strongly_log_convex", "non_quasianalytic",
          "moderate_growth")
_WITNESSES = ("weight_sequence_growth", "nonqa_tail_exponent", "nonqa_tail_estimate",
              "moderate_growth_log_C")

_LOG_FACTORIALS = np.zeros(0)  # log k! for k < len, read-only; grows by doubling


def _diff(a: np.ndarray) -> np.ndarray:
    """``np.diff`` along the last axis: the same subtraction, without its fixed cost."""
    return a[..., 1:] - a[..., :-1]


def _log_factorial(k: int) -> float:
    """log k! = log Gamma(x), x = k + 1, by the float operations of Cephes
    ``lgam`` (S. Moshier), so bit-equal to SciPy's ``gammaln``: the log of the
    exact product below 13, then Stirling's series, shorter from 1000, none past 1e8."""
    x = k + 1.0
    if x < 13.0:
        return log(float(factorial(k)))
    q = (x - 0.5) * log(x) - x + 0.91893853320467274178  # log sqrt(2 pi)
    p = 1.0 / (x * x)
    if x > 1.0e8:
        return q
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                  + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p
                + 8.33333333333331927722e-2) / x


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, a read-only slice of one module table built with
    libm's ``log`` (NumPy's SIMD log may round the last bit otherwise).  It
    needs no lock: every table it ever holds has the same value at each k."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n >= len(table):
        new = range(len(table), max(n + 1, 2 * len(table)))
        table = np.concatenate([table, [_log_factorial(k) for k in new]])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[:n + 1]


def _certify_divergence(values: np.ndarray):
    """Finite-range proxy for ``values -> infinity``, per row.

    ``values`` are logs of the tested quantity, indexed 1..K along the last
    axis; certified if it grows by at least ``DIVERGENCE_GROWTH_MIN`` over
    the last quarter of the range.  Returns (ok, growth_factor) per row.
    """
    k = values.shape[-1]
    if k < 8:
        return np.zeros(values.shape[:-1], dtype=bool), np.zeros(values.shape[:-1])
    with np.errstate(over="ignore"):  # a growth past the float range is inf
        growth = np.exp(values[..., -1] - values[..., (3 * k) // 4 - 1])
    return growth >= DIVERGENCE_GROWTH_MIN, growth


def _fit_quotient_model(mu_tail: np.ndarray) -> np.ndarray:
    """Fit log mu_j = log_c + p log j + q log log j on the last half of the
    range, every row of a (rows, K) table of log mu_1..mu_K in one least
    squares call; returns the (3, rows) coefficients (log_c, p, q).  The
    extra slowly-varying term keeps tail estimates honest for quotients like
    j (log j)^2 where a pure power fit is badly biased."""
    k = mu_tail.shape[1]
    j = np.arange(max(3, k // 2), k + 1, dtype=float)
    lj = np.log(j)
    a = np.array([np.ones_like(lj), lj, np.log(lj)]).T
    return np.linalg.lstsq(a, mu_tail[:, max(3, k // 2) - 1:].T, rcond=None)[0]


def _decay_exponent(sums: np.ndarray, n_dec: int) -> np.ndarray:
    """Per row, minus the least-squares slope of log(sums) on log(last decades <= n_dec)."""
    x = np.log(np.arange(n_dec - sums.shape[-1] + 1, n_dec + 1, dtype=float))
    x -= x.sum() / len(x)  # np.mean's operations, without its fixed cost
    y = np.log(np.maximum(sums, 1e-300))
    return -((y - y.sum(axis=-1, keepdims=True) / y.shape[-1]) @ x) / (x @ x)


def _model_tail_sum(log_c, p, q, k0: float, max_decades: int = 200):
    """``sum_{j > k0} 1/mu_j`` for the fitted models mu_j = c j^p (log j)^q,
    one per entry of ``log_c``, ``p``, ``q``, integrated per decade in log j;
    returns the arrays (converged, tail).

    The decades are integrated in blocks ending at decades 32, 128, 512, ...
    (16-panel Simpson rows), for every model not yet stopped; a sum stops at
    the first decade past the fourth whose increment is below 1e-14 of the
    running sum (converged), or past the eighth not below 0.999 of the one
    before (divergent), else adds a power of the decade index fitted to its
    last four increments.  Each decade is one dot, so blocks move no bit."""
    log_c, p, q = (np.asarray(v, dtype=float)[:, None, None] for v in (log_c, p, q))
    u0 = log(max(k0, 3.0))
    n = 16
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    converged, tail = np.zeros(len(p), dtype=bool), np.full(len(p), float("inf"))
    live, incs, acc = np.arange(len(p)), np.empty((len(p), 0)), np.zeros((len(p), 1))
    # increments fall about 10^(1 - p) a decade and stop 1e-14 below the sum:
    # a first block of 32 decades pays only if a sum may stop in it (p >= 1.5)
    lo, hi = 0, 32 if (p >= 1.5).any() else max_decades
    while len(live) and lo < max_decades:
        d = np.arange(lo, min(hi, max_decades))
        us = u0 + log(10.0) * (d[:, None] + np.arange(n + 1) / n)
        with np.errstate(over="ignore"):
            vals = np.exp((1.0 - p[live]) * us - q[live] * np.log(us) - log_c[live])
        # one dot per decade: a matrix-vector product may sum in another order
        new = log(10.0) / n / 3.0 * np.vecdot(vals, w)
        incs = np.concatenate((incs, new), axis=1)  # every decade so far
        acc = np.concatenate((acc[:, -1:], new), axis=1).cumsum(axis=1)[:, 1:]
        small = (d >= 3) & (new <= 1e-14 * np.maximum(acc, 1e-300))
        stop = small | (d >= 7) & (new >= 0.999 * incs[:, d - 1])
        rows, at = np.arange(len(live)), stop.argmax(axis=1)
        done, ok = stop[rows, at], small[rows, at]
        converged[live[done]] = ok[done]
        tail[live[done]] = np.where(ok, acc[rows, at], float("inf"))[done]
        live, incs, acc = live[~done], incs[~done], acc[~done]
        lo, hi = hi, 4 * hi
    if len(live):
        qq = _decay_exponent(incs[:, -4:], max_decades)
        fit = qq > 1.05
        converged[live[fit]] = True
        tail[live[fit]] = acc[fit, -1] + incs[fit, -1] * max_decades / (qq[fit] - 1.0)
    return converged, tail


def _log_convex(logM: np.ndarray) -> np.ndarray:
    """Per row of a (rows, K+1) log M table: log quotients >= 0 and non-decreasing, to 1e-12."""
    log_mu = _diff(logM)
    return (log_mu >= -1e-12).all(axis=1) & (_diff(log_mu) >= -1e-12).all(axis=1)


def _row_flags(logM: np.ndarray) -> list:
    """Per row of a (rows, K+1) table of log M, a function returning its
    structural (flags, witnesses); one pass, but the tail sums of all rows
    are one :func:`_model_tail_sum` call, made at the first row's read."""
    k = logM.shape[1] - 1
    mu_tail = _diff(logM)
    log_convex = _log_convex(logM)
    roots = logM[:, 1:] / np.arange(1, k + 1)
    weight_seq, growth = _certify_divergence(roots)
    weight_seq &= logM[:, -1] >= log(DIVERGENCE_FLOOR)
    m_quot = _diff(logM - log_factorials(k))
    strongly = log_convex & (_diff(m_quot) >= -1e-12).all(axis=1)

    # summability of sum 1/mu_k, with a fitted slowly-varying power tail
    # beyond K_max: mu_j modelled as c j^p (log j)^q on the last half
    log_c, p_fit, q_fit = _fit_quotient_model(mu_tail)
    fit = p_fit > 1.0 - TAIL_EXPONENT_MARGIN

    # moderate growth via the quotient form mu_k <= C * M_k^{1/k}
    c_mg = (mu_tail - roots).max(axis=1)
    moderate = weight_seq & (c_mg <= LOG_C_CAP)

    @cache
    def pairs():
        nonqa, tail = np.zeros(len(logM), dtype=bool), np.full(len(logM), float("inf"))
        nonqa[fit], tail[fit] = _model_tail_sum(log_c[fit], p_fit[fit], q_fit[fit], k + 0.5)
        flags = np.array([log_convex, weight_seq, strongly, nonqa, moderate]).T.tolist()
        witnesses = np.array([growth, p_fit, tail, c_mg]).T.tolist()
        return [(dict(zip(_FLAGS, f)), dict(zip(_WITNESSES, w)))
                for f, w in zip(flags, witnesses)]

    return [lambda i=i: pairs()[i] for i in range(len(logM))]


class _MinAffineEnvelope:
    """Fast evaluation of ``min_k (y_k + k * theta)`` with smallest argmin.

    Built once from the lower convex hull of the points (k, y_k); a query
    is a binary search over the (increasing) slopes of the hull edges.
    Ties at an edge slope resolve to the left (smaller) vertex, so the
    reported argmin is the smallest attaining index.
    """

    def __init__(self, y: np.ndarray):
        ks = np.arange(len(y), dtype=float)
        # the pop test below on each consecutive triple: if none pops, every index is a vertex
        pops = (y[1:-1] - y[:-2]) * (ks[2:] - ks[:-2]) >= (y[2:] - y[:-2]) * (ks[1:-1] - ks[:-2])
        hull: list[int] = [] if pops.any() else list(range(len(y)))
        for i in range(len(y) - len(hull)):  # every index, unless a triple pops
            # pop while the previous vertex is on or above the new chord
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                if (y[b] - y[a]) * (ks[i] - ks[a]) >= (y[i] - y[a]) * (ks[b] - ks[a]):
                    hull.pop()
                else:
                    break
            hull.append(i)
        self.vertices = np.asarray(hull, dtype=np.int64)
        vy = y[self.vertices]
        vk = ks[self.vertices]
        self.slopes = _diff(vy) / _diff(vk) if len(hull) > 1 else np.empty(0)
        self._y = y

    def query(self, theta):
        """Return (min value, smallest argmin, exhausted) for slope(s) theta."""
        theta = np.asarray(theta, dtype=float)
        idx = self.slopes.searchsorted(-theta, side="left")
        arg = self.vertices[idx]
        val = self._y[arg] + arg * theta
        exhausted = arg == len(self._y) - 1
        return val, arg, exhausted


class WeightSequence:
    """Log-domain table of a positive sequence M with M_0 = 1.

    Exposes the three mutually determined views M, m (factorial-stripped)
    and mu (quotients), plus structural flags computed at construction:
    ``log_convex``, ``weight_sequence``, ``strongly_log_convex``,
    ``non_quasianalytic`` and ``moderate_growth``.  All flags are
    finite-range verdicts; witness constants live in ``witnesses``.  The tail
    certificate (``non_quasianalytic``, ``nonqa_tail_estimate``) comes at the
    first read of either, for all rows of the sequence's table at once (each
    row of a weight matrix); values never change, so instances act as
    immutable and are safe for concurrent use.
    """

    def __init__(self, log_m_table: np.ndarray, label: str = "", _flags=None):
        logM = np.asarray(log_m_table, dtype=float)
        if logM.ndim != 1 or len(logM) < 2:
            raise ValueError("need a 1-d table with at least M_0, M_1")
        if abs(logM[0]) > 1e-12:
            raise ValueError("M_0 must equal 1 (log M_0 = 0)")
        self.logM = logM.copy()
        self.logM.flags.writeable = False
        self.K_max = len(logM) - 1
        self.label = label
        self.log_mu = np.concatenate([[0.0], _diff(self.logM)])
        self.log_mu.flags.writeable = False
        self.log_m = self.logM - log_factorials(self.K_max)
        self.log_m.flags.writeable = False
        self._certificates = _flags or _row_flags(self.logM[None])[0]

    flags = property(lambda self: self._certificates()[0])
    witnesses = property(lambda self: self._certificates()[1])
    # one view per kind, so that each view's envelope is built once
    _views = cached_property(lambda self: {k: SequenceView(k, self) for k in ("M", "m", "mu")})

    def view(self, kind: str) -> "SequenceView":
        return self._views.get(kind) or SequenceView(kind, self)  # an unknown kind raises

    # -- tail machinery ----------------------------------------------------

    def quotient_tail_sums(self) -> np.ndarray:
        """Suffix sums T_k = sum_{j>=k} 1/mu_j for k = 1..K_max, including the
        estimated tail beyond the stored range: the sequence's tail certificate.

        Raises TailUnbounded when no certified tail bound exists.
        """
        p = self.witnesses["nonqa_tail_exponent"]
        if not self.flags["non_quasianalytic"]:
            p_min = 1.0 - TAIL_EXPONENT_MARGIN
            why = (f"fitted quotient exponent {p:.3f} <= {p_min:g}" if p <= p_min
                   else f"model tail sum at fitted exponent {p:.3f} does not converge")
            raise TailUnbounded(f"{self.label or 'sequence'}: {why}, "
                                "tail sum not certified finite")
        inv = np.exp(-self.log_mu[1:])
        suffix = inv[::-1].cumsum()[::-1]
        return suffix + self.witnesses["nonqa_tail_estimate"]

    def __repr__(self):
        return f"WeightSequence(label={self.label!r}, K_max={self.K_max})"


@dataclass(frozen=True)
class SequenceView:
    """One of the three mutually determined faces (M, m, mu) of a sequence,
    with its lower-envelope and quotient running-max tables built at their
    first read."""

    kind: str
    source: WeightSequence

    def __post_init__(self):
        if self.kind not in ("M", "m", "mu"):
            raise ValueError(f"unknown view kind {self.kind!r}")

    def log_values(self) -> np.ndarray:
        s = self.source
        return {"M": s.logM, "m": s.log_m, "mu": s.log_mu}[self.kind]

    @cached_property
    def envelope(self) -> _MinAffineEnvelope:
        return _MinAffineEnvelope(self.log_values())

    @cached_property
    def quotient_running_max(self) -> np.ndarray:
        return np.maximum.accumulate(_diff(self.log_values()))


# -- generators ------------------------------------------------------------

def from_mu(mu_values, label: str = "") -> WeightSequence:
    """Build from the quotient table mu_0..mu_K (prefix products in logs)."""
    mu = np.asarray(mu_values, dtype=float)
    if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
        raise ValueError("quotients must be positive and finite")
    if not len(mu) or abs(mu[0] - 1.0) > 1e-12:  # an empty table has no mu_0
        raise ValueError("mu_0 must equal 1")
    return WeightSequence(np.cumsum(np.log(mu)), label=label)


def gevrey(s: float, K_max: int = DEFAULT_K_MAX) -> WeightSequence:
    """Canonical test family M_k = (k!)^{1+s}; mu_k = k^{1+s}, m_k = (k!)^s."""
    if s <= 0:
        raise ValueError("gevrey index must be positive")
    if not isfinite((1.0 + s) * float(log_factorials(K_max)[-1])):  # as from_mu refuses inf
        raise ValueError(f"gevrey index {s:g}: log M_{K_max} is not a finite float")
    table = (1.0 + s) * log_factorials(K_max)
    return WeightSequence(table, label=f"gevrey({s:g})")


def quotient_power(p: float, K_max: int = DEFAULT_K_MAX, scale: float = 1.0,
                   label: str = "") -> WeightSequence:
    """Sequence with quotients mu_k = scale * k^p for k >= 1 (mu_0 = 1)."""
    mu = np.ones(K_max + 1)
    with np.errstate(over="ignore"):  # from_mu refuses a quotient of inf
        mu[1:] = scale * np.arange(1, K_max + 1, dtype=float) ** p
    return from_mu(mu, label=label or f"mu=k^{p:g}")


# -- associated functions ---------------------------------------------------

def log_h_assoc(view: SequenceView, t) -> np.ndarray:
    """Log of the decay profile ``h(t) = inf_k v_k t^k`` of the sequence
    values v, at every t > 0 of an array; an infimum attained at K_max (range
    exhausted) comes back as -inf."""
    t = np.asarray(t, dtype=float)
    val, _, exhausted = view.envelope.query(np.log(t))
    return np.where(exhausted, -np.inf, val)


def gamma_bar_soft(view: SequenceView, t) -> tuple[np.ndarray, np.ndarray]:
    """Optimal truncation degree: the smallest index attaining the infimum in
    h, at every t > 0 of an array; returns (argmin, exhausted)."""
    t = np.asarray(t, dtype=float)
    _, arg, exhausted = view.envelope.query(np.log(t))
    return arg, exhausted


def gamma_under_soft(view: SequenceView, t) -> tuple[np.ndarray, np.ndarray]:
    """First quotient crossing: the smallest k with v_{k+1}/v_k >= 1/t, at
    every t > 0 of an array; returns (index, exhausted), the index capped at
    K_max - 1 where no stored quotient reaches 1/t."""
    t = np.asarray(t, dtype=float)
    rm = view.quotient_running_max
    idx = rm.searchsorted(-np.log(t), side="left")
    exhausted = idx >= len(rm)
    return np.minimum(idx, len(rm) - 1), exhausted


def omega_assoc(seq: WeightSequence, t):
    """Growth profile ``sup_k (k log t - log M_k)``; zero for small t.  A
    scalar t gives a float, an array of t an array of the same shape;
    RangeExhausted names the first t, in input order, whose supremum sits
    at K_max."""
    t = np.asarray(t, dtype=float)
    if (t <= 0).any():
        raise ValueError("t must be positive")
    if not seq.flags["weight_sequence"]:
        raise NotAWeightSequence(
            f"{seq.label or 'sequence'}: weight_sequence flag not set")
    # sup_k (k*log t - logM_k) = -min_k (logM_k + k*(-log t))
    val, _, exhausted = seq.view("M").envelope.query(-np.log(t))
    if exhausted.any():
        bad = t.reshape(-1)[np.flatnonzero(exhausted)[0]]
        raise RangeExhausted(
            f"growth supremum attained at K_max={seq.K_max} for t={bad:g}")
    return float(-val) if t.ndim == 0 else -val


def counting(seq: WeightSequence, t: float) -> int:
    """Largest index with mu_k <= t (step-counting function)."""
    if t < 1.0:
        raise ValueError("t must be >= mu_0 = 1")
    rev_min = np.minimum.accumulate(seq.log_mu[:0:-1])[::-1]  # min_{j>=k} log mu_j
    idx = int(np.searchsorted(rev_min, log(t), side="right"))
    if idx >= seq.K_max:
        raise RangeExhausted(f"mu_K_max <= t for t={t:g}; count not certified")
    return idx


def counting_integral(seq: WeightSequence, t: float) -> float:
    """Exact stepwise integral of the counting function against du/u from 0
    to t.  Equals the growth profile for log-convex sequences."""
    if t < 1.0:
        raise ValueError("t must be >= mu_0 = 1")
    counting(seq, t)  # certify the count is in range
    logt = log(t)
    mask = seq.log_mu[1:] <= logt
    return float(np.sum(logt - seq.log_mu[1:][mask]))


def descendant(seq: WeightSequence) -> WeightSequence:
    """Largest strongly log-convex minorant-style companion of a
    non-quasianalytic quotient sequence.

    With T_k = sum_{j>=k} 1/mu_j the construction sets
    tau_k = k/mu_k + T_k and returns the sequence with quotients
    sigma_k = tau_1 k / tau_k (sigma_0 = 1).  The output quotients satisfy
    sigma <= C mu, T_k <= C k/sigma_k, and sigma_k/k increasing.
    """
    if not seq.flags["non_quasianalytic"]:
        raise QuasianalyticInput(
            f"{seq.label or 'sequence'}: reciprocal quotients not certified summable")
    suffix = seq.quotient_tail_sums()
    ks = np.arange(1, seq.K_max + 1, dtype=float)
    tau = ks * np.exp(-seq.log_mu[1:]) + suffix
    with np.errstate(divide="ignore", invalid="ignore"):  # from_mu refuses an inf or NaN
        sigma = tau[0] * ks / tau  # of a tau that underflows to 0
    return from_mu(np.concatenate([[1.0], sigma]),
                   label=f"descendant({seq.label})")
