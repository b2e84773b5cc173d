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

from dataclasses import dataclass, field
from functools import cache
from math import log
from typing import Optional

import numpy as np

from .errors import NotLittleO, QuasianalyticInput, RangeExhausted, TailUnbounded
from .fncore import WeightFunction, WeightMatrix, kappa, splitting_ok, young_conjugate_grid
from .seqcore import WeightSequence, descendant, gamma_bar_soft, gamma_under_soft

LOG_CAP = 40.0 * log(2.0)
C_CAP = 2.0 ** 40
TREND_GROWTH = 1.1
GRID_POWERS = tuple(2.0 ** i for i in range(41))


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
    finite_range: bool = True
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
            "finite_range": self.finite_range,
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


def trend_diverging(values: np.ndarray, growth_min: float = TREND_GROWTH,
                    positions: np.ndarray | None = None):
    """Detect monotone unbounded-looking growth of a needed-constant curve.

    Trending means: essentially monotone increase (dips below 0.1%
    tolerated) with total growth >= growth_min over the log-scale last half
    of the grid -- the samples whose position exceeds the square root of
    the final position.  ``positions`` defaults to the sample index, which
    is correct for grids that are already log-spaced.
    Returns (trending, growth, argmax_index).
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 8:
        return False, 1.0, int(np.argmax(v))
    if positions is None:
        half = v[n // 2:]
    else:
        pos = np.asarray(positions, dtype=float)
        half = v[pos >= np.sqrt(pos[-1])]
        if len(half) < 4:
            half = v[n // 2:]
    monotone = bool(np.all(np.diff(half) >= -1e-3 * np.abs(half[:-1])))
    growth = float(half[-1] / max(half[0], 1e-300))
    return bool(monotone and growth >= growth_min), growth, int(np.argmax(v))


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


def _default_t_grid(*fns: WeightFunction, lo: float = 1e-2, hi: float = 1e9,
                    per_decade: int = 16) -> np.ndarray:
    for fn in fns:
        hi = min(hi, 0.04 * fn.t_valid_max)
    n = max(16, int(round(per_decade * np.log10(hi / lo))))
    return np.geomspace(lo, hi, n)


# -- heirs and strength ---------------------------------------------------------

def check_heir(omega: WeightFunction, sigma: WeightFunction,
               t_grid: np.ndarray | None = None) -> Verdict:
    """Does sigma dominate the averaged tail of omega:
    kappa_omega(t) <= C sigma(t) + C on the grid?"""
    if not omega.flags["non_quasianalytic"]:
        raise QuasianalyticInput(f"{omega.label}: not certified non-quasianalytic")
    if not sigma.flags["o_of_t"]:
        raise NotLittleO(f"{sigma.label}: o(t) certificate absent")
    ts = _default_t_grid(omega, sigma) if t_grid is None else np.asarray(t_grid)
    needed = kappa(omega, ts) / (sigma(ts) + 1.0)
    rng = {"t_lo": float(ts[0]), "t_hi": float(ts[-1]), "n": len(ts)}
    return _linear_verdict(f"heir[{omega.label}->{sigma.label}]", needed, ts,
                           "t", rng)


def check_strong(omega: WeightFunction, t_grid: np.ndarray | None = None) -> Verdict:
    """A weight is strong when it is its own heir."""
    v = check_heir(omega, omega, t_grid=t_grid)
    v.name = f"strong[{omega.label}]"
    return v


# -- matrix goodness --------------------------------------------------------------

def _quotient_over_index(row: WeightSequence) -> np.ndarray:
    k = np.arange(1, row.K_max + 1, dtype=float)
    return row.log_mu[1:] - np.log(k)


def _root(row: WeightSequence) -> np.ndarray:
    return row.log_m[1:] / np.arange(1, row.K_max + 1)


def _prefix_max(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running max of v and, per position, the 1-based index of the last
    entry attaining it."""
    pref = np.maximum.accumulate(v)
    return pref, np.maximum.accumulate(np.where(v >= pref, np.arange(1, len(v) + 1), 1))


def _first_best(values, nan_arg) -> int:
    """Index a scan keeping the earlier value on ties picks: a NaN in front
    is never displaced and a later NaN never wins."""
    values = np.asarray(values, dtype=float)
    return 0 if np.isnan(values[0]) else int(nan_arg(values))


def _row_search(matrix: WeightMatrix, lhs, rhs) -> tuple[list, tuple]:
    """For each x of the grid, (log C, y, k): the first y >= x minimising
    max_k (lhs(W^x) - rhs(W^y))_k, with k the 1-based first argmax; and,
    as (log C, x, y, k), the first x with the largest log C."""
    xs = matrix.x_grid
    right = np.array([rhs(matrix.row(y)) for y in xs])
    found = []
    for i, x in enumerate(xs):
        need = lhs(matrix.row(x)) - right[i:]
        top = need.max(axis=1)
        b = _first_best(top, np.nanargmin)
        found.append((float(top[b]), xs[i + b], int(np.argmax(need[b])) + 1))
    i = _first_best([c for c, _, _ in found], np.nanargmax)
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
    found, (log_c, x, y, k) = _row_search(
        matrix, lambda r: _prefix_max(_quotient_over_index(r))[0], _quotient_over_index)
    per_x = {f"{xi:g}": {"y": yi, "C": float(np.exp(c)) if c <= 700 else float("inf"),
                         "log_C": c} for xi, (c, yi, _) in zip(matrix.x_grid, found)}
    j = int(_prefix_max(_quotient_over_index(matrix.row(x)))[1][k - 1])
    return _log_verdict("good_matrix", log_c, "C", {"x": x, "y_best": y, "j": j, "k": k},
                        _matrix_range(matrix), {"per_x": per_x})


def good_via_conjugate_secants(matrix: WeightMatrix) -> Verdict:
    """Cross-check of :func:`check_good` recomputing the quotients from the
    conjugate secants of the generating weight rather than the stored rows."""
    if matrix.source is None:
        raise ValueError("secant cross-check needs a generated matrix")
    x_col = np.asarray(matrix.x_grid)[:, None]
    vals = young_conjugate_grid(matrix.source, x_col * np.arange(matrix.K_max + 1))
    secants = np.diff(vals, axis=1) / x_col  # log theta^x_k, k = 1..K
    rows = np.concatenate([np.zeros_like(x_col), np.cumsum(secants, axis=1)], axis=1)
    shadow = WeightMatrix(matrix.x_grid,
                          {x: WeightSequence(row, label=f"secant@{x:g}")
                           for x, row in zip(matrix.x_grid, rows)},
                          source=None, validate=False)
    v = check_good(shadow)
    v.name = "good_matrix_secant_form"
    return v


# -- mixed tail and almost increase -------------------------------------------------

def check_mixed_tail(mu_seq: WeightSequence, nu_seq: WeightSequence,
                     tail_beyond: float | None = None) -> Verdict:
    """Reciprocal tail of nu dominated by index over quotient of mu:
    sum_{l>=k} 1/nu_l <= C k/mu_k for all k in range."""
    suffix = nu_seq.quotient_tail_sums(tail_beyond=tail_beyond)
    k = np.arange(1, nu_seq.K_max + 1, dtype=float)
    kk = min(mu_seq.K_max, nu_seq.K_max)
    needed = suffix[:kk] * np.exp(mu_seq.log_mu[1:kk + 1]) / k[:kk]
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
    la = _quotient_over_index(seq)
    pref, pref_arg = _prefix_max(la)
    need = pref - la
    i_max = int(np.argmax(need))
    log_c = float(need[i_max])
    roots = _root(seq)
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

def check_doubling_absorption(fn: WeightFunction,
                              t_grid: np.ndarray | None = None) -> Verdict:
    """Is doubling absorbed by one scale step: 2 omega(t) <= omega(Ht) + H
    for some grid H?"""
    ts = _default_t_grid(fn) if t_grid is None else np.asarray(t_grid)
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
    found, (log_c, x, y, k) = _row_search(
        matrix, lambda r: r.log_mu[1:], lambda r: r.logM[1:] / np.arange(1, r.K_max + 1))
    per_x = {f"{xi:g}": {"y": yi, "log_C": c} for xi, (c, yi, _) in zip(matrix.x_grid, found)}
    return _log_verdict("quotient_root_domination", log_c, "C",
                        {"x": x, "y_best": y, "k": k}, _matrix_range(matrix),
                        {"per_x": per_x})


def check_concavity_equivalence(fn: WeightFunction, matrix: WeightMatrix,
                                t0: float = 10.0) -> tuple[Verdict, Verdict]:
    """Two faces of equivalence to the least concave majorant: the scaling
    bound omega(lambda t) <= C lambda omega(t), and root-domination of the
    factorial-stripped rows.  Returns (scaling verdict, matrix verdict);
    agreement of the two is a suite-level assertion."""
    lam = np.array([2.0 ** i for i in range(0, 11)])
    ts = _default_t_grid(fn, lo=t0, hi=min(1e8, 0.04 * fn.t_valid_max) / lam[-1])
    w = fn(ts)
    mask = w > 0
    needed = np.array([np.max(fn(la * ts[mask]) / (la * w[mask])) for la in lam])
    rng = {"t_lo": float(ts[0]), "t_hi": float(ts[-1]), "lambda_max": float(lam[-1])}
    v_scaling = _linear_verdict(f"concave_scaling[{fn.label}]", needed, lam,
                                "lambda", rng)

    found, (log_d, x, y, _) = _row_search(matrix, lambda r: _prefix_max(_root(r))[0], _root)
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
    with y < x immediately yields one with y = x."""
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
    rng = _matrix_range(matrix)
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


# -- the chain -----------------------------------------------------------------------

def _chain_holds(matrix: WeightMatrix, x, y1, y2, y3, d, ts) -> bool:
    mx = matrix.row(x).view("m")
    m1 = matrix.row(y1).view("m")
    m2 = matrix.row(y2).view("m")
    m3 = matrix.row(y3).view("m")
    g_x, ex0 = gamma_under_soft(mx, ts)
    g1, ex1 = gamma_under_soft(m1, d * ts)
    g2u, ex2 = gamma_under_soft(m2, d * d * ts)
    g2b, ex3 = gamma_bar_soft(m2, d * d * ts)
    g3, ex4 = gamma_bar_soft(m3, d ** 3 * ts)
    if np.any(ex0 | ex1 | ex2 | ex3 | ex4):
        return False
    return bool(np.all(g3 <= g2u) and np.all(g2u <= g2b)
                and np.all(g2b <= g1) and np.all(2 * g1 <= g_x))


def resolve_chain(matrix: WeightMatrix, x: float,
                  t_range: tuple[float, float] = (0.05, 1e3),
                  n_t: int = 48) -> ChainCertificate:
    """Search the parameter grid for (y1 >= 2x, y2 >= 2y1, y3 >= y2, D) so the
    counting-function chain holds at every sampled t, together with the
    splitting bounds w^x against w^{y1} and w^{y1} against w^{y2}.

    Deterministic search order: (y1, y2, y3) ascending lexicographically,
    then D ascending over the geometric grid; the first full success wins.
    Each row's counting indices are taken once, at D^j t for every D and t
    (j its place in the chain), and every triple tests all D in one pass.
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
    ts = np.geomspace(t_range[0], t_range[1], n_t)
    g_x, ex0 = gamma_under_soft(matrix.row(x).view("m"), ts)
    d = np.array(GRID_POWERS[:14])[:, None]

    @cache
    def at(y, j, gamma):  # (index, exhausted) of row y at D^j t, a row per D
        return gamma(matrix.row(y).view("m"), d ** j * ts)

    xs = () if np.any(ex0) else matrix.x_grid  # exhausted at x: no chain holds
    for y1 in (y for y in xs if y >= 2.0 * x):
        if not splitting_ok(matrix.row(x).log_m, matrix.row(y1).log_m):
            continue
        g1, ex1 = at(y1, 1, gamma_under_soft)
        for y2 in (y for y in xs if y >= 2.0 * y1):
            if not splitting_ok(matrix.row(y1).log_m, matrix.row(y2).log_m):
                continue
            (g2u, ex2), (g2b, ex3) = at(y2, 2, gamma_under_soft), at(y2, 2, gamma_bar_soft)
            for y3 in (y for y in xs if y >= y2):
                g3, ex4 = at(y3, 3, gamma_bar_soft)
                holds = np.all(~(ex1 | ex2 | ex3 | ex4) & (g3 <= g2u) & (g2u <= g2b)
                               & (g2b <= g1) & (2 * g1 <= g_x), axis=1)
                if holds.any():  # the first D that holds
                    return ChainCertificate(x, y1, y2, y3, GRID_POWERS[int(np.argmax(holds))],
                                            (float(ts[0]), float(ts[-1])), n_t)
    raise RangeExhausted(f"no in-grid chain certificate for x={x:g}")


def verify_chain(matrix: WeightMatrix, cert: ChainCertificate,
                 refine: int = 1) -> bool:
    """Re-verify a certificate on a ``refine`` times denser t grid."""
    ts = np.geomspace(cert.t_range[0], cert.t_range[1], cert.n_t * refine)
    return _chain_holds(matrix, cert.x, cert.y1, cert.y2, cert.y3, cert.D, ts)
