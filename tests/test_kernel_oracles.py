"""The dimension-generic multi-index kernel of ``jets`` against the earlier
hand-unrolled 1D/2D loops, kept here as reference implementations."""

from math import comb, factorial
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from ultrajet.extend import _taylor_sup_bound
from ultrajet.geometry import EXPANSION
from ultrajet.jets import (
    CompactSet,
    Ultrajet,
    _leibniz_fold,
    multi_indices,
    taylor_grid,
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
