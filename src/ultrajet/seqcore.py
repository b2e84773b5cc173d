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
from math import log

import numpy as np
from scipy.special import gammaln

from .errors import NotAWeightSequence, QuasianalyticInput, RangeExhausted, TailUnbounded

DEFAULT_K_MAX = 128

# Finite-range divergence certificate: minimum growth factor of the tested
# quantity over the last quarter of the index range, and the absolute floor
# applied to M_{K_max} for the weight-sequence flag.
DIVERGENCE_GROWTH_MIN = 1.05
DIVERGENCE_FLOOR = 1.0e6

# Exponent margin above 1 for a fitted power tail to count as summable.
TAIL_EXPONENT_MARGIN = 0.05

# the structural flags and witnesses of a sequence, in report order
_FLAGS = ("log_convex", "weight_sequence", "strongly_log_convex", "non_quasianalytic",
          "moderate_growth")
_WITNESSES = ("weight_sequence_growth", "nonqa_tail_exponent", "nonqa_tail_estimate",
              "moderate_growth_log_C")

def _certify_divergence(values: np.ndarray):
    """Finite-range proxy for ``values -> infinity``, per row.

    ``values`` are logs of the tested quantity, indexed 1..K along the last
    axis; certified if it grows by at least ``DIVERGENCE_GROWTH_MIN`` over
    the last quarter of the range.  Returns (ok, growth_factor) per row.
    """
    k = values.shape[-1]
    if k < 8:
        return np.zeros(values.shape[:-1], dtype=bool), np.zeros(values.shape[:-1])
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
    a = np.vstack([np.ones_like(lj), lj, np.log(lj)]).T
    return np.linalg.lstsq(a, mu_tail[:, max(3, k // 2) - 1:].T, rcond=None)[0]


def _decay_exponent(sums: np.ndarray, n_dec: int) -> np.ndarray:
    """Per row, minus the least-squares slope of log(sums) on log(last decades <= n_dec)."""
    x = np.log(np.arange(n_dec - sums.shape[-1] + 1, n_dec + 1, dtype=float))
    x -= x.mean()
    y = np.log(np.maximum(sums, 1e-300))
    return -((y - y.mean(axis=-1, keepdims=True)) @ x) / (x @ x)


def _model_tail_sum(log_c, p, q, k0: float, max_decades: int = 200):
    """``sum_{j > k0} 1/mu_j`` for the fitted models mu_j = c j^p (log j)^q,
    one per entry of ``log_c``, ``p``, ``q``, integrated per decade in log j;
    returns the arrays (converged, tail).

    Every model's decades are integrated at once (16-panel Simpson rows); a
    sum stops at the first decade past the fourth whose increment is below
    1e-14 of the running sum (converged), or past the eighth that is not
    below 0.999 of the one before (divergent).  A sum that does neither adds
    a power of the decade index fitted to its last four increments."""
    log_c, p, q = (np.asarray(v, dtype=float)[:, None, None] for v in (log_c, p, q))
    u0 = log(max(k0, 3.0))
    n = 16
    us = u0 + log(10.0) * (np.arange(max_decades)[:, None] + np.arange(n + 1) / n)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    with np.errstate(over="ignore"):
        vals = np.exp((1.0 - p) * us - q * np.log(us) - log_c)
    # one dot per decade: a matrix-vector product may sum in another order
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
    return converged, tail


def _row_flags(logM: np.ndarray) -> list[tuple[dict, dict]]:
    """The structural flags and witnesses of every row of a (rows, K+1)
    table of log M, in one pass; one (flags, witnesses) pair per row."""
    tol = 1e-12
    k = logM.shape[1] - 1
    mu_tail = np.diff(logM, axis=1)
    log_convex = np.all(mu_tail >= -tol, axis=1) & np.all(np.diff(mu_tail, axis=1) >= -tol,
                                                          axis=1)
    roots = logM[:, 1:] / np.arange(1, k + 1)
    weight_seq, growth = _certify_divergence(roots)
    weight_seq &= logM[:, -1] >= log(DIVERGENCE_FLOOR)
    m_quot = np.diff(logM - gammaln(np.arange(k + 1) + 1.0), axis=1)
    strongly = log_convex & np.all(np.diff(m_quot, axis=1) >= -tol, axis=1)

    # summability of sum 1/mu_k, with a fitted slowly-varying power tail
    # beyond K_max: mu_j modelled as c j^p (log j)^q on the last half
    log_c, p_fit, q_fit = _fit_quotient_model(mu_tail)
    nonqa, tail = np.zeros(len(logM), dtype=bool), np.full(len(logM), float("inf"))
    fit = p_fit > 1.0 - TAIL_EXPONENT_MARGIN
    nonqa[fit], tail[fit] = _model_tail_sum(log_c[fit], p_fit[fit], q_fit[fit], k + 0.5)

    # moderate growth via the quotient form mu_k <= C * M_k^{1/k}
    c_mg = np.max(mu_tail - roots, axis=1)
    moderate = weight_seq & (c_mg <= 40.0 * log(2.0))
    flags = np.array([log_convex, weight_seq, strongly, nonqa, moderate]).T.tolist()
    witnesses = np.array([growth, p_fit, tail, c_mg]).T.tolist()
    return [(dict(zip(_FLAGS, f)), dict(zip(_WITNESSES, w))) for f, w in zip(flags, witnesses)]


class _MinAffineEnvelope:
    """Fast evaluation of ``min_k (y_k + k * theta)`` with smallest argmin.

    Built once from the lower convex hull of the points (k, y_k); a query
    is a binary search over the (increasing) slopes of the hull edges.
    Ties at an edge slope resolve to the left (smaller) vertex, so the
    reported argmin is the smallest attaining index.
    """

    def __init__(self, y: np.ndarray):
        ks = np.arange(len(y), dtype=float)
        hull: list[int] = []
        for i in range(len(y)):
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
        self.slopes = np.diff(vy) / np.diff(vk) if len(hull) > 1 else np.empty(0)
        self._y = y

    def query(self, theta):
        """Return (min value, smallest argmin, exhausted) for slope(s) theta."""
        theta = np.asarray(theta, dtype=float)
        idx = np.searchsorted(self.slopes, -theta, side="left")
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
    finite-range verdicts; witness constants live in ``witnesses``.

    Instances are immutable after construction and safe for concurrent use.
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
        self.log_mu = np.concatenate([[0.0], np.diff(self.logM)])
        self.log_mu.flags.writeable = False
        self.log_m = self.logM - gammaln(np.arange(self.K_max + 1) + 1.0)
        self.log_m.flags.writeable = False
        self.flags, self.witnesses = _flags or _row_flags(self.logM[None])[0]
        self._envelopes: dict[str, _MinAffineEnvelope] = {}
        self._quot_runmax: dict[str, np.ndarray] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_mu(cls, mu_values, K_max: int | None = None, label: str = "",
                require_weight_sequence: bool = False) -> "WeightSequence":
        """Build from the quotient table mu_0..mu_K (prefix products in logs)."""
        mu = np.asarray(mu_values, dtype=float)
        if K_max is not None:
            if len(mu) < K_max + 1:
                raise ValueError(f"need {K_max + 1} quotients, got {len(mu)}")
            mu = mu[: K_max + 1]
        if np.any(mu <= 0):
            raise ValueError("quotients must be positive")
        if abs(mu[0] - 1.0) > 1e-12:
            raise ValueError("mu_0 must equal 1")
        seq = cls(np.cumsum(np.log(mu)), label=label)
        if require_weight_sequence and not seq.flags["weight_sequence"]:
            raise NotAWeightSequence(
                f"{label or 'sequence'}: M_k^(1/k) not certified divergent within "
                f"range (growth {seq.witnesses['weight_sequence_growth']:.4g})")
        return seq

    def view(self, kind: str) -> "SequenceView":
        return SequenceView(kind=kind, source=self)

    # -- tail machinery ----------------------------------------------------

    def quotient_tail_sums(self, tail_beyond: float | None = None) -> np.ndarray:
        """Suffix sums T_k = sum_{j>=k} 1/mu_j for k = 1..K_max, including an
        estimated (or caller-supplied) tail beyond the stored range.  The
        estimate is the tail certificate computed at construction.

        Raises TailUnbounded when no certified tail bound exists.
        """
        if tail_beyond is None:
            p = self.witnesses["nonqa_tail_exponent"]
            tail_beyond = self.witnesses["nonqa_tail_estimate"]
            if not self.flags["non_quasianalytic"]:
                p_min = 1.0 - TAIL_EXPONENT_MARGIN
                why = (f"fitted quotient exponent {p:.3f} <= {p_min:g}" if p <= p_min
                       else f"model tail sum at fitted exponent {p:.3f} does not converge")
                raise TailUnbounded(f"{self.label or 'sequence'}: {why}, "
                                    "tail sum not certified finite")
        inv = np.exp(-self.log_mu[1:])
        suffix = np.cumsum(inv[::-1])[::-1]
        return suffix + tail_beyond

    def __repr__(self):
        return f"WeightSequence(label={self.label!r}, K_max={self.K_max})"


@dataclass(frozen=True)
class SequenceView:
    """One of the three mutually determined faces (M, m, mu) of a sequence."""

    kind: str
    source: WeightSequence

    def __post_init__(self):
        if self.kind not in ("M", "m", "mu"):
            raise ValueError(f"unknown view kind {self.kind!r}")

    def log_values(self) -> np.ndarray:
        s = self.source
        return {"M": s.logM, "m": s.log_m, "mu": s.log_mu}[self.kind]

    def divergent_in_range(self) -> bool:
        """Finite-range certificate that values^{1/k} -> infinity."""
        y = self.log_values()
        roots = y[1:] / np.arange(1, len(y))
        return bool(_certify_divergence(roots)[0])

    def quotients_divergent_in_range(self) -> bool:
        """Finite-range certificate that values_{k+1}/values_k -> infinity."""
        rm = _quotient_running_max(self)
        return bool(_certify_divergence(rm)[0])


def _envelope(view: SequenceView) -> _MinAffineEnvelope:
    cache = view.source._envelopes
    if view.kind not in cache:
        cache[view.kind] = _MinAffineEnvelope(view.log_values())
    return cache[view.kind]


def _quotient_running_max(view: SequenceView) -> np.ndarray:
    cache = view.source._quot_runmax
    if view.kind not in cache:
        cache[view.kind] = np.maximum.accumulate(np.diff(view.log_values()))
    return cache[view.kind]


# -- generators ------------------------------------------------------------

def from_mu(mu_values, K_max: int | None = None, label: str = "",
            require_weight_sequence: bool = False) -> WeightSequence:
    """Module-level alias of :meth:`WeightSequence.from_mu`."""
    return WeightSequence.from_mu(mu_values, K_max=K_max, label=label,
                                  require_weight_sequence=require_weight_sequence)


def gevrey(s: float, K_max: int = DEFAULT_K_MAX) -> WeightSequence:
    """Canonical test family M_k = (k!)^{1+s}; mu_k = k^{1+s}, m_k = (k!)^s."""
    if s <= 0:
        raise ValueError("gevrey index must be positive")
    table = (1.0 + s) * gammaln(np.arange(K_max + 1) + 1.0)
    return WeightSequence(table, label=f"gevrey({s:g})")


def quotient_power(p: float, K_max: int = DEFAULT_K_MAX, scale: float = 1.0,
                   label: str = "") -> WeightSequence:
    """Sequence with quotients mu_k = scale * k^p for k >= 1 (mu_0 = 1)."""
    mu = np.ones(K_max + 1)
    mu[1:] = scale * np.arange(1, K_max + 1, dtype=float) ** p
    return from_mu(mu, label=label or f"mu=k^{p:g}")


# -- associated functions ---------------------------------------------------

def h_assoc(view: SequenceView, t: float):
    """Decay profile ``h(t) = inf_k v_k t^k`` of the sequence values v.

    Returns (value, argmin) with the smallest attaining index; h(0) = 0 by
    convention.  Requires v_0 = 1 and a finite-range divergence certificate
    for v_k^{1/k}, so the infimum over the stored range is the true one.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0, 0
    y = view.log_values()
    if abs(y[0]) > 1e-12:
        raise ValueError("sequence must start at value 1")
    if not view.divergent_in_range():
        raise NotAWeightSequence(
            f"{view.source.label or 'sequence'} ({view.kind}): values^(1/k) not "
            "certified divergent; infimum would not be attained in range")
    val, arg, exhausted = _envelope(view).query(log(t))
    if exhausted:
        raise RangeExhausted(
            f"h infimum attained at K_max={view.source.K_max} for t={t:g}")
    return float(np.exp(val)), int(arg)


def log_h_assoc(view: SequenceView, t) -> np.ndarray:
    """Vectorized log h(t); range-exhausted entries come back as -inf."""
    t = np.asarray(t, dtype=float)
    val, _, exhausted = _envelope(view).query(np.log(t))
    return np.where(exhausted, -np.inf, val)


def gamma_bar(view: SequenceView, t: float) -> int:
    """Smallest index attaining the infimum in h (optimal truncation degree)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return h_assoc(view, t)[1]


def gamma_bar_soft(view: SequenceView, t) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gamma_bar without raising: returns (argmin, exhausted)."""
    t = np.asarray(t, dtype=float)
    _, arg, exhausted = _envelope(view).query(np.log(t))
    return arg, exhausted


def gamma_under(view: SequenceView, t: float) -> int:
    """Smallest k with v_{k+1}/v_k >= 1/t (first quotient crossing)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not view.quotients_divergent_in_range():
        raise NotAWeightSequence(
            f"{view.source.label or 'sequence'} ({view.kind}): quotients not "
            "certified divergent within range")
    rm = _quotient_running_max(view)
    idx = int(np.searchsorted(rm, -log(t), side="left"))
    if idx >= len(rm):
        raise RangeExhausted(
            f"no quotient >= 1/t within 0..{view.source.K_max - 1} for t={t:g}")
    return idx


def gamma_under_soft(view: SequenceView, t) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gamma_under without raising: returns (index, exhausted)."""
    t = np.asarray(t, dtype=float)
    rm = _quotient_running_max(view)
    idx = np.searchsorted(rm, -np.log(t), side="left")
    exhausted = idx >= len(rm)
    return np.minimum(idx, len(rm) - 1), exhausted


def omega_assoc(seq: WeightSequence, t: float) -> float:
    """Growth profile ``sup_k (k log t - log M_k)``; zero for small t."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not seq.flags["weight_sequence"]:
        raise NotAWeightSequence(
            f"{seq.label or 'sequence'}: weight_sequence flag not set")
    # sup_k (k*log t - logM_k) = -min_k (logM_k + k*(-log t))
    val, arg, exhausted = _envelope(seq.view("M")).query(-log(t))
    if exhausted:
        raise RangeExhausted(
            f"growth supremum attained at K_max={seq.K_max} for t={t:g}")
    return float(-val)


def omega_assoc_grid(seq: WeightSequence, t) -> np.ndarray:
    """Vectorized omega_assoc; raises if any grid point exhausts the range."""
    t = np.asarray(t, dtype=float)
    val, _, exhausted = _envelope(seq.view("M")).query(-np.log(t))
    if np.any(exhausted):
        bad = t[np.asarray(exhausted).nonzero()][0] if t.ndim else float(t)
        raise RangeExhausted(f"growth supremum hit K_max={seq.K_max} at t={bad:g}")
    return -val


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


def descendant(seq: WeightSequence, tail_beyond: float | None = None) -> WeightSequence:
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
    suffix = seq.quotient_tail_sums(tail_beyond=tail_beyond)
    ks = np.arange(1, seq.K_max + 1, dtype=float)
    tau = ks * np.exp(-seq.log_mu[1:]) + suffix
    sigma = tau[0] * ks / tau
    return from_mu(np.concatenate([[1.0], sigma]),
                   label=f"descendant({seq.label})")
