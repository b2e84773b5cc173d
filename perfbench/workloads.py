"""Seeded job generators for the three benchmark workloads.

A job is one config taken through one or two ``ultrajet`` commands to its
``report.json``.  Each workload makes a different package module do most of
the work, so a change to one layer shows on its mechanism workload and not
on the others.

Jobs come in cycles.  Within a cycle the draws that set a job's cost are
balanced: the weight kinds, table sizes, set sizes, depths and parameter
strata all appear equally often, and each check is drawn for four of the
nine jobs of each weight kind.  So every seed sees the same mix of job shapes and
only the continuous parameters move.  That keeps the spread between seeds
low without choosing draws by their outcome.  No draw is filtered by what
the program does with it: a draw that hits a known defect counts as it
falls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CHECKS = (
    {"check": "heir", "omega": "omega", "sigma": "omega"},
    {"check": "strong", "weight": "omega"},
    {"check": "good", "weight": "omega"},
    {"check": "mixed_tail", "mu": "S", "nu": "S"},
    {"check": "almost_increasing", "sequence": "S"},
    {"check": "doubling_absorption", "weight": "omega"},
    {"check": "quotient_root_domination", "weight": "omega"},
    {"check": "concavity_equivalence", "weight": "omega"},
    {"check": "strong_matrix", "weight": "omega"},
    {"check": "descendant", "sequence": "S"},
    {"check": "chain", "weight": "omega", "x": 1.0},
)


@dataclass(frozen=True)
class Job:
    """One generated job: the commands to run on one config, in order."""

    index: int
    commands: tuple
    config: dict


def _u(rng: random.Random, lo: float, hi: float, stratum: int = 0,
       n_strata: int = 1) -> float:
    """Uniform draw from the ``stratum``-th of ``n_strata`` equal parts of [lo, hi]."""
    width = (hi - lo) / n_strata
    return round(lo + width * (stratum + rng.random()), 6)


_KINDS = {"power": ("alpha", 0.3, 0.9), "log_power": ("b", 1.5, 4.0),
          "gevrey_dual": ("s", 0.5, 3.0)}
_K_MAX = (32, 48, 64)


def calculus(rng: random.Random, first: int) -> list[Job]:
    """Weight calculus: ``fn`` then ``check`` on one drawn weight.

    Why: ``fncore.young_conjugate`` dominates (thousands of scalar
    minimisations per ``weight_matrix``), with ``conditions`` second.  The
    matrix-based checks in a job share one weight matrix, so how much work
    is shared varies from job to job.  The ``fn`` stage uses ``fncore``
    through the scalar ``omega_conjugate`` and ``kappa`` curves instead.
    It never touches ``jets``, ``geometry``, ``pou`` or ``extend``: it is
    the no-change control for certify and point-cube work.

    A cycle is three 3x3 Latin squares of weight kind x ``K_max``, with a
    third of the kind's parameter range as the symbol: 27 jobs that hold
    every (kind, ``K_max``, third) once.  Each kind's nine jobs draw their
    parameter from the nine ninths of its range, one each.
    """
    kinds = list(_KINDS)
    slots = [(kinds[r % 3], _K_MAX[r // 3], (r % 3 + r // 3 + square) % 3)
             for square in range(3) for r in range(9)]
    # each check goes to four of each kind's nine jobs
    chosen = [[] for _ in slots]
    for kind in kinds:
        mine = [i for i, s in enumerate(slots) if s[0] == kind]
        for check in CHECKS:
            for i in rng.sample(mine, len(mine) // 2):
                chosen[i].append(dict(check))
    # each third of a kind's range is split in ninths, one per K_max
    ninth = {(kind, third): rng.sample(range(3), 3)
             for kind in kinds for third in range(3)}
    jobs = []
    for i, (kind, k_max, third) in enumerate(slots):
        name, lo, hi = _KINDS[kind]
        sub = ninth[kind, third][_K_MAX.index(k_max)]
        checks = chosen[i] or [dict(rng.choice(CHECKS))]
        config = {
            "schema_version": 1,
            "seed": rng.randrange(1000),
            "K_max": k_max,
            "weights": [{"name": "omega", "preset": kind,
                         "params": {name: _u(rng, lo, hi, 3 * third + sub, 9)}}],
            "sequences": [{"name": "S", "generator": "gevrey",
                           "params": {"s": _u(rng, 0.5, 2.0)}}],
            "checks": checks,
        }
        jobs.append(Job(first + i, ("fn", "check"), config))
    return jobs


def certify_1d(rng: random.Random, first: int) -> list[Job]:
    """Certified 1D extension: ``extend`` on 6-12 distinct points in [-2, 2].

    Why: this workload builds more than it queries.  ``jets.certify`` is
    quadratic in the number of points and dominates; the deep cover and
    ``cube_diagnostics`` come second.  The field is sampled at only 400
    points, so ``pou``/``extend`` take a small share: it is the mechanism
    workload for the vectorised certify and the control for the point-cube
    incidence.
    """
    jobs = []
    slots = [(n, depth) for depth in (8, 10) for n in (6, 8, 10, 12)]
    for i, (n, depth) in enumerate(slots):
        # one point per equal cell of [-2, 2] keeps them distinct
        step = 4.0 / n
        points = [[round(-2.0 + step * (j + 0.1 + 0.8 * rng.random()), 6)]
                  for j in range(n)]
        config = {
            "schema_version": 1,
            "seed": rng.randrange(1000),
            "sequences": [{"name": "S", "generator": "gevrey",
                           "params": {"s": 1.0}}],
            "compact_set": {"points": points, "box": [[-3.0, 3.0]]},
            "jet": {"preset": {"kind": "sin", "a": _u(rng, 0.5, 1.5),
                               "b": _u(rng, 0.0, math.pi)},
                    "A_max": 12, "P_max": 12, "rho": 1.0,
                    "source_sequence": "S"},
            "decomposition": {"depth_cap": depth},
            "pou": {"order_cap": 4, "sequence": "S"},
        }
        jobs.append(Job(first + i, ("extend",), config))
    return jobs


def verify_2d(rng: random.Random, first: int) -> list[Job]:
    """Verified 2D extension: ``verify`` on 2-4 points in [-1.5, 1.5]^2.

    Why: this workload queries more than it builds.
    ``extend.derivative_grid`` and ``derivative_bounds`` dominate, through
    ``pou.phi_derivs``, ``CanonicalBump.eval`` and ``phi_bound``; a small
    ``certify`` comes second.  It is the mechanism workload for the
    point-cube incidence and the read-heavy user of ``jets.taylor_grid``.
    The number of verified orders (1-3) varies from job to job, so caching
    the partition tables across orders shows up.  Each job verifies one
    first-order derivative, so the growth certificate always samples
    orders up to one.
    """
    jobs = []
    slots = [(n, 1 + (n + k) % 3) for k in (0, 1) for n in (2, 3, 4)]
    for i, (n, n_orders) in enumerate(slots):
        # one point per cell of a 3x3 grid over [-1.5, 1.5]^2 keeps them distinct
        cells = rng.sample(range(9), n)
        points = [[round(-1.5 + c % 3 + 0.1 + 0.8 * rng.random(), 6),
                   round(-1.5 + c // 3 + 0.1 + 0.8 * rng.random(), 6)]
                  for c in cells]
        first_order = rng.choice(([1, 0], [0, 1]))
        others = [o for o in ([0, 0], [1, 0], [0, 1]) if o != first_order]
        orders = [first_order] + rng.sample(others, n_orders - 1)
        k0 = rng.choice((3, 4, 5))
        config = {
            "schema_version": 1,
            "seed": rng.randrange(1000),
            "sequences": [{"name": "S", "generator": "gevrey",
                           "params": {"s": 1.0}}],
            "compact_set": {"points": points,
                            "box": [[-3.0, 3.0], [-3.0, 3.0]]},
            "jet": {"preset": {"kind": "tensor", "axes": [
                        {"kind": "sin", "a": _u(rng, 0.5, 1.5), "b": 0.0},
                        {"kind": "exp", "a": _u(rng, -1.0, 1.0)}]},
                    "A_max": 8, "P_max": 8, "rho": 1.0,
                    "source_sequence": "S"},
            "decomposition": {"depth_cap": 4},
            "pou": {"order_cap": 3, "sequence": "S"},
            "extension": {"orders": orders,
                          "approach_scales": [2.0 ** -k for k in range(k0, k0 + 3)],
                          "grid_points": 400},
        }
        jobs.append(Job(first + i, ("verify",), config))
    return jobs


WORKLOADS = {"calculus": calculus, "certify_1d": certify_1d,
             "verify_2d": verify_2d}


def cycles(workload: str, seed: int):
    """Endless, reproducible stream of job cycles of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    first = 0
    while True:
        cycle = WORKLOADS[workload](rng, first)
        yield cycle
        first += len(cycle)


def jobs(workload: str, seed: int):
    """The same jobs as :func:`cycles`, one at a time."""
    for cycle in cycles(workload, seed):
        yield from cycle
