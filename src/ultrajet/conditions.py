"""Witness-producing decision procedures for the named structural conditions.

Every check runs over a finite grid (index range and/or log-spaced t range)
and returns a :class:`Verdict`: linear constants are reported exactly as the
realized maximum ratio; constants appearing inside arguments (D, H, scaling
parameters) are searched over the geometric grid {2^i : 0 <= i <= 40}.

A condition can fail in two ways: the needed constant exceeds the cap, or
the pointwise needed constant is *divergence-trending* (essentially monotone
growth over the last half of the grid by at least TREND_GROWTH).  The second
mode is what makes genuinely failing instances detectable at desk scale; a
trend failure reports the grid constant realized on the first half together
with the witness point that violates it by the reported margin.

The row-pair conditions of a weight matrix (goodness, quotient-root
domination, the concave matrix form) share one search for the first y >= x
needing the least constant; they and almost increase share one log-domain
verdict, ``_log_verdict``: log C against LOG_CAP, exponents capped at 700.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache
from math import log
from typing import Optional

import numpy as np

from .errors import BoundOverflow, NotLittleO, QuasianalyticInput, RangeExhausted, TailUnbounded
from .fncore import WeightFunction, WeightMatrix, kappa, splitting_ok
from .seqcore import WeightSequence, descendant, gamma_bar_soft, gamma_under_soft

LOG_CAP = 40.0 * log(2.0)
C_CAP = 2.0 ** 40
TREND_GROWTH = 1.1
GRID_POWERS = tuple(2.0 ** i for i in range(41))
CHAIN_T_RANGE, CHAIN_N_T = (0.05, 1e3), 48  # the chain search's t grid, in its certificate


@dataclass
class Verdict:
    """Outcome of one finite-range check.

    ``witness_constants`` carries the realized constants by name;
    ``counterexample`` is present exactly when ``holds`` is false and can be
    replayed through direct evaluation, violating the inequality with the
    reported reference constant by at least ``margin``.
    """

    name: str
    holds: bool
    witness_constants: dict = field(default_factory=dict)
    counterexample: Optional[dict] = None
    tested_range: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.holds and self.counterexample is not None:
            raise ValueError("a holding verdict cannot carry a counterexample")
        if not self.holds and self.counterexample is None:
            raise ValueError("a failing verdict must carry a counterexample")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness_constants": dict(self.witness_constants),
            "counterexample": self.counterexample,
            "tested_range": dict(self.tested_range),
            "finite_range": True,  # every check runs on a finite grid
            "details": dict(self.details),
        }


@dataclass
class ChainCertificate:
    """Parameters validating the four-step counting-function domination chain."""

    x: float
    y1: float
    y2: float
    y3: float
    D: float
    t_range: tuple[float, float]
    n_t: int

    def to_dict(self) -> dict:
        return {"x": self.x, "y1": self.y1, "y2": self.y2, "y3": self.y3,
                "D": self.D, "t_range": list(self.t_range), "n_t": self.n_t}


def trend_diverging(values: np.ndarray, positions: np.ndarray | None = None):
    """Detect monotone unbounded-looking growth of needed-constant curves.

    Trending means: essentially monotone increase (dips below 0.1%
    tolerated) with total growth >= TREND_GROWTH over the log-scale last half
    of the grid -- the samples whose position exceeds the square root of
    the final position.  ``positions`` defaults to the sample index, which
    is correct for grids that are already log-spaced.
    Returns (trending, growth, argmax_index) along the last axis: scalars
    for one curve, arrays over the leading axes for a stack of curves.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    trending, growth = np.zeros(v.shape[:-1], dtype=bool), np.ones(v.shape[:-1])
    if n >= 8:
        half = v[..., n // 2:]
        if positions is not None:  # the log-scale last half, if it has 4 samples
            late = np.asarray(positions, dtype=float) >= np.sqrt(float(positions[-1]))
            half = v[..., late] if np.count_nonzero(late) >= 4 else half
        monotone = np.all(np.diff(half) >= -1e-3 * np.abs(half[..., :-1]), axis=-1)
        growth = half[..., -1] / np.maximum(half[..., 0], 1e-300)
        trending = monotone & (growth >= TREND_GROWTH)
    if v.ndim == 1:
        return bool(trending), float(growth), int(np.argmax(v))
    return trending, growth, np.argmax(v, axis=-1)


def _linear_verdict(name: str, needed: np.ndarray, positions, pos_key: str,
                    tested_range: dict, details: dict | None = None,
                    trend_positions: np.ndarray | None = None) -> Verdict:
    """Verdict for a condition linear in its constant: the exact smallest
    constant is the max of the pointwise needed values; failure by cap or
    by divergence trend."""
    needed = np.asarray(needed, dtype=float)
    c_exact = float(np.max(needed))
    trending, growth, i_max = trend_diverging(needed, positions=trend_positions)
    details = dict(details or {})
    details["trend_growth"] = growth
    if c_exact <= C_CAP and not trending:
        return Verdict(name, True, {"C": max(c_exact, 1.0)},
                       tested_range=tested_range, details=details)
    c_ref = float(np.max(needed[: len(needed) // 2])) if trending else C_CAP
    pos = positions[i_max]
    counter = {
        pos_key: float(pos) if np.isscalar(pos) or isinstance(pos, (int, float))
        else [float(p) for p in np.atleast_1d(pos)],
        "needed_C": float(needed[i_max]),
        "reference_C": c_ref,
        "margin": float(needed[i_max] / max(c_ref, 1e-300)),
        "mode": "trend" if trending else "cap",
    }
    return Verdict(name, False, {"C_range": c_exact, "C_reference": c_ref},
                   counterexample=counter, tested_range=tested_range,
                   details=details)


def _default_t_grid(*fns: WeightFunction, lo: float = 1e-2, hi: float = 1e9) -> np.ndarray:
    for fn in fns:
        hi = min(hi, 0.04 * fn.t_valid_max)
    n = max(16, int(round(16 * np.log10(hi / lo))))
    return np.geomspace(lo, hi, n)


# -- heirs and strength ---------------------------------------------------------

def check_heir(omega: WeightFunction, sigma: WeightFunction) -> Verdict:
    """Does sigma dominate the averaged tail of omega:
    kappa_omega(t) <= C sigma(t) + C on the grid?"""
    if not omega.flags["non_quasianalytic"]:
        raise QuasianalyticInput(f"{omega.label}: not certified non-quasianalytic")
    if not sigma.flags["o_of_t"]:
        raise NotLittleO(f"{sigma.label}: o(t) certificate absent")
    ts = _default_t_grid(omega, sigma)
    needed = kappa(omega, ts) / (sigma(ts) + 1.0)
    rng = {"t_lo": float(ts[0]), "t_hi": float(ts[-1]), "n": len(ts)}
    return _linear_verdict(f"heir[{omega.label}->{sigma.label}]", needed, ts,
                           "t", rng)


def check_strong(omega: WeightFunction) -> Verdict:
    """A weight is strong when it is its own heir."""
    v = check_heir(omega, omega)
    v.name = f"strong[{omega.label}]"
    return v


# -- matrix goodness --------------------------------------------------------------

def _quotient_over_index(log_mu: np.ndarray) -> np.ndarray:
    return log_mu[..., 1:] - np.log(np.arange(1, log_mu.shape[-1], dtype=float))


def _root(log_table: np.ndarray) -> np.ndarray:
    return log_table[..., 1:] / np.arange(1, log_table.shape[-1])


def _prefix_max(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running max of v along its last axis and, per position, the 1-based
    index of the last entry attaining it."""
    pref = np.maximum.accumulate(v, axis=-1)
    return pref, np.maximum.accumulate(
        np.where(v >= pref, np.arange(1, v.shape[-1] + 1), 1), axis=-1)


def _row_search(matrix: WeightMatrix, left: np.ndarray,
                right: np.ndarray) -> tuple[list, tuple]:
    """For each x of the grid, (log C, y, k): the first y >= x minimising
    max_k (left[x] - right[y])_k over stacked (rows, K) tables, k the 1-based
    first argmax; and, as (log C, x, y, k), the first x with the largest
    log C.  A NaN at y = x, or at the first x, is kept; a later NaN never wins."""
    xs, n, rows = matrix.x_grid, len(matrix.x_grid), np.arange(len(matrix.x_grid))
    upper = np.triu(np.ones((n, n), dtype=bool))  # the pairs y >= x
    need = np.full((n, n, left.shape[-1]), np.nan)  # (x, y, k)
    np.subtract(left[:, None], right[None], out=need, where=upper[..., None])
    top = need.max(axis=-1)
    best = np.nanargmin(np.where(np.eye(n, dtype=bool) & np.isnan(top), -np.inf, top), axis=1)
    c = top[rows, best]
    found = [(float(ci), xs[b], int(k) + 1) for ci, b, k in
             zip(c, best.tolist(), np.argmax(need[rows, best], axis=-1).tolist())]
    i = 0 if np.isnan(c[0]) else int(np.nanargmax(c))
    return found, (found[i][0], xs[i], *found[i][1:])


def _log_verdict(name: str, log_c: float, const: str, locator: dict,
                 tested_range: dict, details: dict | None = None,
                 witnesses: dict | None = None) -> Verdict:
    """Verdict for a condition whose constant is found in the log domain:
    it holds when log C <= LOG_CAP; a failure names where by ``locator``
    and reports the needed constant with its exponent capped at 700."""
    details = details or {}
    if log_c <= LOG_CAP:
        return Verdict(name, True, witnesses or {const: float(np.exp(max(log_c, 0.0)))},
                       tested_range=tested_range, details=details)
    counter = {**locator, "needed_C": float(np.exp(min(log_c, 700.0))),
               "reference_C": C_CAP,
               "margin": float(np.exp(min(log_c - LOG_CAP, 700.0))), "mode": "cap"}
    return Verdict(name, False, witnesses or {f"log_{const}_range": log_c},
                   counterexample=counter, tested_range=tested_range,
                   details=details)


def _matrix_range(matrix: WeightMatrix) -> dict:
    return {"K_max": matrix.K_max, "x_grid": list(matrix.x_grid)}


def check_good(matrix: WeightMatrix) -> Verdict:
    """Almost-increase of quotient-over-index across rows: for every x some
    y >= x in the grid with theta^x_j / j <= C theta^y_k / k for j <= k."""
    la = _quotient_over_index(matrix.stack("log_mu"))
    pref, pref_arg = _prefix_max(la)
    found, (log_c, x, y, k) = _row_search(matrix, pref, la)
    per_x = {f"{xi:g}": {"y": yi, "C": float(np.exp(c)) if c <= 700 else float("inf"),
                         "log_C": c} for xi, (c, yi, _) in zip(matrix.x_grid, found)}
    j = int(pref_arg[matrix.x_grid.index(x), k - 1])
    return _log_verdict("good_matrix", log_c, "C", {"x": x, "y_best": y, "j": j, "k": k},
                        _matrix_range(matrix), {"per_x": per_x})


# -- mixed tail and almost increase -------------------------------------------------

def check_mixed_tail(mu_seq: WeightSequence, nu_seq: WeightSequence) -> Verdict:
    """Reciprocal tail of nu dominated by index over quotient of mu:
    sum_{l>=k} 1/nu_l <= C k/mu_k for all k in range."""
    suffix = nu_seq.quotient_tail_sums()
    k = np.arange(1, nu_seq.K_max + 1, dtype=float)
    kk = min(mu_seq.K_max, nu_seq.K_max)
    with np.errstate(over="ignore"):
        mu = np.exp(mu_seq.log_mu[1:kk + 1])
    if not np.all(np.isfinite(mu)):
        raise BoundOverflow(f"{mu_seq.label}: mu_{np.argmin(np.isfinite(mu)) + 1} overflows")
    needed = suffix[:kk] * mu / k[:kk]
    rng = {"K_max": kk}
    idx = np.arange(1, kk + 1)
    return _linear_verdict(
        f"mixed_tail[{mu_seq.label}|{nu_seq.label}]", needed,
        idx, "k", rng,
        details={"tail_estimate": float(suffix[-1])},
        trend_positions=idx)


def check_almost_increasing(seq: WeightSequence) -> Verdict:
    """Almost increase of mu_k/k, with the root variant m_j^{1/j} <= C m_k^{1/k}
    evaluated alongside and reported in the witnesses."""
    la = _quotient_over_index(seq.log_mu)
    pref, pref_arg = _prefix_max(la)
    need = pref - la
    i_max = int(np.argmax(need))
    log_c = float(need[i_max])
    roots = _root(seq.log_m)
    log_c_root = float(np.max(_prefix_max(roots)[0] - roots))
    wit = {"C": float(np.exp(min(max(log_c, 0.0), 700.0))),
           "C_root_variant": float(np.exp(min(max(log_c_root, 0.0), 700.0)))}
    return _log_verdict(f"almost_increasing[{seq.label}]", log_c, "C",
                        {"j": int(pref_arg[i_max]), "k": i_max + 1},
                        {"K_max": seq.K_max}, witnesses=wit)


def check_descendant(seq: WeightSequence) -> Verdict:
    """The descendant sigma of seq keeps its three promises on the range:
    sigma_k/k increasing, sigma <= C mu and sum_{l>=k} 1/mu_l <= C k/sigma_k."""
    out = descendant(seq)
    k = np.arange(1, out.K_max + 1, dtype=float)
    sig = np.exp(out.log_mu[1:])
    monotone = bool(np.all(np.diff(sig / k) >= -1e-12))
    dominated = float(np.max(sig / np.exp(seq.log_mu[1:out.K_max + 1])))
    mixed_c = float(np.max(seq.quotient_tail_sums()[:out.K_max] * sig / k))
    holds = monotone and dominated <= C_CAP and mixed_c <= C_CAP
    counter = None if holds else {"monotone": monotone, "needed_C": dominated,
                                  "reference_C": C_CAP, "margin": 1.0, "mode": "cap"}
    return Verdict(f"descendant[{seq.label}]", holds,
                   {"C_domination": dominated, "C_mixed_tail": mixed_c},
                   counterexample=counter, tested_range={"K_max": out.K_max})


# -- scaling absorption and concavity-style conditions -------------------------------

def check_doubling_absorption(fn: WeightFunction) -> Verdict:
    """Is doubling absorbed by one scale step: 2 omega(t) <= omega(Ht) + H
    for some grid H?"""
    ts = _default_t_grid(fn)
    rng = {"t_lo": float(ts[0]), "t_hi": float(ts[-1]), "n": len(ts)}
    w = fn(ts)
    for h in GRID_POWERS:
        if ts[-1] * h > fn.t_valid_max:
            break
        gap = 2.0 * w - fn(h * ts)
        if float(np.max(gap)) <= h:
            return Verdict(f"doubling_absorption[{fn.label}]", True, {"H": h},
                           tested_range=rng)
    gap = 2.0 * w - fn(np.minimum(GRID_POWERS[-1] * ts, fn.t_valid_max * 0.45))
    i = int(np.argmax(gap))
    counter = {"t": float(ts[i]), "needed_C": float(gap[i]),
               "reference_C": C_CAP, "margin": float(gap[i] / C_CAP), "mode": "cap"}
    return Verdict(f"doubling_absorption[{fn.label}]", False,
                   {"max_gap_at_cap": float(np.max(gap))},
                   counterexample=counter, tested_range=rng)


def check_quotient_root_domination(matrix: WeightMatrix) -> Verdict:
    """For every x some y with theta^x_k <= C (W^y_k)^{1/k} across the range."""
    found, (log_c, x, y, k) = _row_search(matrix, matrix.stack("log_mu")[:, 1:],
                                          _root(matrix.stack("logM")))
    per_x = {f"{xi:g}": {"y": yi, "log_C": c} for xi, (c, yi, _) in zip(matrix.x_grid, found)}
    return _log_verdict("quotient_root_domination", log_c, "C",
                        {"x": x, "y_best": y, "k": k}, _matrix_range(matrix),
                        {"per_x": per_x})


def check_concavity_equivalence(fn: WeightFunction,
                                matrix: WeightMatrix) -> tuple[Verdict, Verdict]:
    """Two faces of equivalence to the least concave majorant: the scaling
    bound omega(lambda t) <= C lambda omega(t), and root-domination of the
    factorial-stripped rows.  Returns (scaling verdict, matrix verdict);
    agreement of the two is a suite-level assertion."""
    lam = np.array([2.0 ** i for i in range(0, 11)])
    ts = _default_t_grid(fn, lo=10.0, hi=min(1e8, 0.04 * fn.t_valid_max) / lam[-1])
    w = fn(ts)
    mask = w > 0
    needed = np.array([np.max(fn(la * ts[mask]) / (la * w[mask])) for la in lam])
    rng = {"t_lo": float(ts[0]), "t_hi": float(ts[-1]), "lambda_max": float(lam[-1])}
    v_scaling = _linear_verdict(f"concave_scaling[{fn.label}]", needed, lam,
                                "lambda", rng)

    roots = _root(matrix.stack("log_m"))
    found, (log_d, x, y, _) = _row_search(matrix, _prefix_max(roots)[0], roots)
    per_x = {xi: {"y": yi, "log_D": c} for xi, (c, yi, _) in zip(matrix.x_grid, found)}
    return v_scaling, _log_verdict("concave_matrix_form", log_d, "D",
                                   {"x": x, "y_best": y}, _matrix_range(matrix),
                                   {"per_x": per_x})


# -- matrix strength -------------------------------------------------------------------

def check_strong_matrix(matrix: WeightMatrix) -> Verdict:
    """Reciprocal quotient tails across rows: sum_{l>=k} 1/theta^y_l <= C
    k/theta^x_k.  The verdict's ``holds`` is the for-all-x form; the
    exists-form result is reported in ``details``.

    The search runs over y >= x only: quotients increase with the row
    parameter, so the left side is smallest at the largest y and a witness
    with y < x immediately yields one with y = x.  One (x, y, k) table ranks
    every pair by (not holds, C); a failing one replays :func:`check_mixed_tail`."""
    xs, n, k_max = matrix.x_grid, len(matrix.x_grid), matrix.K_max
    rng = _matrix_range(matrix)
    suffix, tailed = np.full((n, k_max), np.nan), np.zeros(n, dtype=bool)
    for i, x in enumerate(xs):  # a row without a certified tail is no y
        with suppress(QuasianalyticInput, TailUnbounded):
            suffix[i], tailed[i] = matrix.row(x).quotient_tail_sums(), True
    if not tailed[-1]:  # the x past the last row with a tail has no y >= x
        counter = {"x": xs[max(np.flatnonzero(tailed), default=-1) + 1], "needed_C": float("inf"),
                   "reference_C": C_CAP, "margin": float("inf"), "mode": "tail"}
        return Verdict("strong_matrix", False, {}, counter, rng, details={"exists_holds": False})
    pairs = np.triu(np.ones((n, n), dtype=bool)) & tailed  # (x, y) with y >= x
    k = np.arange(1, k_max + 1, dtype=float)
    needed = np.full((n, n, k_max), np.nan)
    np.multiply(suffix, np.exp(matrix.stack("log_mu")[:, None, 1:]), out=needed,
                where=pairs[..., None])
    needed /= k
    c = needed.max(axis=-1)
    holds = (c <= C_CAP) & ~trend_diverging(needed, positions=k)[0]
    const = np.maximum(c, 1.0)  # holding pairs first by C <= C_CAP, then failing
    best = np.argmin(np.where(pairs, np.where(holds, const, 2.0 * C_CAP), np.inf), axis=1)
    held, c_best = holds[np.arange(n), best], const[np.arange(n), best]
    details = {"exists_holds": bool(held.any()), "exists_x": [x for x, h in zip(xs, held) if h],
               "per_x": {f"{x:g}": {"y": xs[b], "holds": bool(h), "C": float(cb) if h else None}
                         for x, b, h, cb in zip(xs, best.tolist(), held, c_best)}}
    if held.all():
        return Verdict("strong_matrix", True, {"C": float(c_best.max())}, tested_range=rng,
                       details=details)
    i = int(np.argmin(held))
    v = check_mixed_tail(matrix.row(xs[i]), matrix.row(xs[best[i]]))
    return Verdict("strong_matrix", False, v.witness_constants,
                   counterexample={**v.counterexample, "x": xs[i], "y_best": xs[best[i]]},
                   tested_range=rng, details=details)


# -- the chain -----------------------------------------------------------------------

def _chain_test(matrix: WeightMatrix, x: float, d: np.ndarray, ts: np.ndarray):
    """The counting-function chain from row x at each D of the column d
    against the grid ts: a function of (y1, y2, y3) giving one bool per D,
    or None when x's own indices run out on ts (no chain holds).  Each
    row's counting indices are taken once, at D^j t for every D and t (j
    its place in the chain)."""
    g_x, ex0 = gamma_under_soft(matrix.row(x).view("m"), ts)
    if np.any(ex0):
        return None

    @cache
    def at(y, j, gamma):  # (index, exhausted) of row y at D^j t, a row per D
        return gamma(matrix.row(y).view("m"), d ** j * ts)

    def holds(y1, y2, y3) -> np.ndarray:
        (g1, ex1), (g2u, ex2) = at(y1, 1, gamma_under_soft), at(y2, 2, gamma_under_soft)
        (g2b, ex3), (g3, ex4) = at(y2, 2, gamma_bar_soft), at(y3, 3, gamma_bar_soft)
        return np.all(~(ex1 | ex2 | ex3 | ex4) & (g3 <= g2u) & (g2u <= g2b)
                      & (g2b <= g1) & (2 * g1 <= g_x), axis=1)
    return holds


def resolve_chain(matrix: WeightMatrix, x: float) -> ChainCertificate:
    """Search the parameter grid for (y1 >= 2x, y2 >= 2y1, y3 >= y2, D) so the
    counting-function chain holds at CHAIN_N_T log-spaced t of CHAIN_T_RANGE,
    with the splitting bounds w^x against w^{y1} and w^{y1} against w^{y2}.

    Deterministic search order: (y1, y2, y3) ascending lexicographically,
    then D ascending over the geometric grid; the first full success wins.
    Every triple tests all D in one :func:`_chain_test` pass.
    Raises RangeExhausted when x is off the grid or the grid offers no
    certificate.
    """
    good = check_good(matrix)
    if not good.holds:
        raise RangeExhausted("chain needs a good matrix; goodness verdict failed")
    if matrix.source is not None and not matrix.source.flags["o_of_t"]:
        raise NotLittleO(f"{matrix.source.label}: o(t) certificate absent")
    x = float(x)
    if x not in matrix.rows:
        raise RangeExhausted(f"x={x:g} is not a point of the matrix grid")
    ts = np.geomspace(*CHAIN_T_RANGE, CHAIN_N_T)
    holds = _chain_test(matrix, x, np.array(GRID_POWERS[:14])[:, None], ts)
    xs = () if holds is None else matrix.x_grid
    for y1 in (y for y in xs if y >= 2.0 * x):
        if not splitting_ok(matrix.row(x).log_m, matrix.row(y1).log_m):
            continue
        for y2 in (y for y in xs if y >= 2.0 * y1):
            if not splitting_ok(matrix.row(y1).log_m, matrix.row(y2).log_m):
                continue
            for y3 in (y for y in xs if y >= y2):
                at_d = holds(y1, y2, y3)
                if at_d.any():  # the first D that holds
                    return ChainCertificate(x, y1, y2, y3, GRID_POWERS[int(np.argmax(at_d))],
                                            (float(ts[0]), float(ts[-1])), CHAIN_N_T)
    raise RangeExhausted(f"no in-grid chain certificate for x={x:g}")


def verify_chain(matrix: WeightMatrix, cert: ChainCertificate,
                 refine: int = 1) -> bool:
    """Re-verify a certificate on a ``refine`` times denser t grid."""
    ts = np.geomspace(cert.t_range[0], cert.t_range[1], cert.n_t * refine)
    holds = _chain_test(matrix, cert.x, np.array([[cert.D]]), ts)
    return holds is not None and bool(holds(cert.y1, cert.y2, cert.y3)[0])
