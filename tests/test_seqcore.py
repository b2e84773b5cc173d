import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrajet import seqcore
from ultrajet.errors import QuasianalyticInput, RangeExhausted, TailUnbounded
from ultrajet.seqcore import (
    SequenceView,
    WeightSequence,
    counting,
    counting_integral,
    descendant,
    from_mu,
    gamma_bar_soft,
    gamma_under_soft,
    gevrey,
    log_h_assoc,
    omega_assoc,
    quotient_power,
)


def h_at(view: SequenceView, t: float):
    """(h(t), smallest argmin) at one t > 0 through the array functions; the
    infimum must lie inside the stored range."""
    arg, exhausted = gamma_bar_soft(view, t)
    assert not exhausted
    return math.exp(float(log_h_assoc(view, t))), int(arg)


def gamma_bar_at(view: SequenceView, t: float) -> int:
    return h_at(view, t)[1]


def gamma_under_at(view: SequenceView, t: float) -> int:
    """The first quotient crossing at one t > 0, inside the stored range."""
    idx, exhausted = gamma_under_soft(view, t)
    assert not exhausted
    return int(idx)


# -- independent oracles -----------------------------------------------------

def brute_h(view: SequenceView, t: float, k_cap: int = 64):
    """Direct minimum of v_k t^k over k <= k_cap, in logs."""
    y = view.log_values()[: k_cap + 1]
    vals = y + np.arange(len(y)) * math.log(t)
    k = int(np.argmin(vals))
    return math.exp(vals[k]), k


def brute_omega(seq: WeightSequence, t: float, k_cap: int = 64):
    vals = np.arange(k_cap + 1) * math.log(t) - seq.logM[: k_cap + 1]
    return float(np.max(vals))


def brute_omega_star(seq: WeightSequence, s: float):
    """Discrete conjugate sup_k log(k^k / ((e s)^k M_k)) via the stationary
    point of sup_t (k log t - log M_k - s t) at t = k/s."""
    k = np.arange(1, seq.K_max + 1, dtype=float)
    vals = k * np.log(k) - k * (1.0 + math.log(s)) - seq.logM[1:]
    return max(0.0, float(np.max(vals)))


# -- construction and flags --------------------------------------------------

def test_from_mu_square_quotients():
    seq = quotient_power(2.0)
    assert math.isclose(math.exp(seq.logM[4]), 576.0, rel_tol=1e-12)
    assert seq.flags["log_convex"]
    assert seq.flags["weight_sequence"]
    assert seq.flags["non_quasianalytic"]


def test_constant_mu_is_not_a_weight_sequence():
    mu = np.ones(129)
    seq = from_mu(mu)
    assert not seq.flags["weight_sequence"]


def test_factorials_are_quasianalytic():
    seq = quotient_power(1.0)  # M_k = k!
    assert seq.flags["weight_sequence"]
    assert not seq.flags["non_quasianalytic"]


def test_gevrey_basics():
    seq = gevrey(1.0)
    assert math.isclose(math.exp(seq.logM[3]), 36.0, rel_tol=1e-12)
    # m_k = k!, mu_k = k^2
    assert np.allclose(seq.log_m[:6], [math.lgamma(k + 1) for k in range(6)])
    assert np.allclose(np.exp(seq.log_mu[1:6]), [1.0, 4.0, 9.0, 16.0, 25.0])
    for name in ("log_convex", "weight_sequence", "strongly_log_convex",
                 "non_quasianalytic", "moderate_growth"):
        assert seq.flags[name], name


def test_gevrey_moderate_growth_witness():
    # oracle: mu_k / M_k^{1/k} = k^2 / (k!)^{2/k} -> e^2 by Stirling
    seq = gevrey(1.0)
    k = np.arange(1, seq.K_max + 1)
    ratio = np.exp(seq.log_mu[1:] - seq.logM[1:] / k)
    assert seq.flags["moderate_growth"]
    assert math.isclose(seq.witnesses["moderate_growth_log_C"],
                        math.log(ratio.max()), rel_tol=1e-12)
    assert ratio.max() < math.e ** 2 * 1.05


def test_geometric_mu_fails_moderate_growth():
    mu = np.ones(129)
    mu[1:] = 2.0 ** np.arange(1, 129)
    seq = from_mu(mu)
    assert not seq.flags["moderate_growth"]


# -- h, gamma_bar, gamma_under ----------------------------------------------

def test_one_view_per_kind():
    # a sequence hands out one view per kind, so each envelope is built once
    seq = gevrey(1.0)
    for kind in ("M", "m", "mu"):
        assert seq.view(kind) is seq.view(kind) and seq.view(kind).kind == kind
    with pytest.raises(ValueError, match="unknown view kind 'x'"):
        seq.view("x")


def test_h_of_factorial_m():
    m = gevrey(1.0).view("m")  # m_k = k!
    assert h_at(m, 1.0) == (1.0, 0)
    assert h_at(m, 3.7) == (1.0, 0)
    val, arg = h_at(m, 0.5)
    assert math.isclose(val, 0.5, rel_tol=1e-12)
    assert arg == 1  # k = 1 and k = 2 tie; smallest index wins


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.02, max_value=50.0))
def test_h_matches_brute_force(t):
    m = gevrey(1.0).view("m")
    val, arg = h_at(m, t)
    bval, barg = brute_h(m, t)
    assert math.isclose(val, bval, rel_tol=1e-12, abs_tol=1e-300)
    if arg != barg:
        # mathematical tie: both indices must attain the minimum to 1e-12
        y = m.log_values()
        va = y[arg] + arg * math.log(t)
        vb = y[barg] + barg * math.log(t)
        assert math.isclose(va, vb, rel_tol=1e-12, abs_tol=1e-12)


def test_gamma_bar_examples():
    m = gevrey(1.0).view("m")
    assert gamma_bar_at(m, 0.5) == 1
    assert gamma_bar_at(m, 2.0) == 0
    assert gamma_bar_at(m, 0.1) == brute_h(m, 0.1)[1]


def test_gamma_under_examples():
    m = gevrey(1.0).view("m")
    assert gamma_under_at(m, 1.0) == 0
    assert gamma_under_at(m, 5.0) == 0
    # smallest k with (k+1) >= 1/0.3
    assert gamma_under_at(m, 0.3) == 3


def test_gamma_under_equals_gamma_bar_for_log_convex_m():
    m = gevrey(1.0).view("m")  # k! is log-convex
    for t in np.geomspace(0.02, 5.0, 25):
        assert gamma_under_at(m, t) == gamma_bar_at(m, t)


def test_gamma_under_le_gamma_bar_general():
    # quotients mu_k = k^2 with a mild multiplicative wiggle keeps M a weight
    # sequence but makes m non-log-convex
    k = np.arange(1, 129, dtype=float)
    mu = np.ones(129)
    mu[1:] = k ** 2 * np.exp(0.35 * np.sin(k))
    seq = from_mu(mu)
    m = seq.view("m")
    assert not seq.flags["strongly_log_convex"]
    for t in np.geomspace(0.05, 3.0, 20):
        assert gamma_under_at(m, t) <= gamma_bar_at(m, t)


def test_gamma_monotone_decreasing_in_t():
    m = gevrey(1.0).view("m")
    ts = np.geomspace(0.02, 4.0, 40)
    gu = [gamma_under_at(m, t) for t in ts]
    assert all(a >= b for a, b in zip(gu, gu[1:]))


def test_range_exhaustion():
    m = gevrey(1.0, K_max=16).view("m")
    assert log_h_assoc(m, 1e-30) == -np.inf
    assert gamma_bar_soft(m, 1e-30)[1]
    assert gamma_under_soft(m, 1e-30)[1]


def test_mk_tk_decreasing_up_to_gamma_under():
    rng = np.random.default_rng(7)
    seq = gevrey(1.0)
    logm = seq.log_m
    m = seq.view("m")
    for t in rng.uniform(0.02, 2.0, size=20):
        g = gamma_under_at(m, float(t))
        vals = logm[: g + 1] + np.arange(g + 1) * math.log(t)
        assert np.all(np.diff(vals) <= 1e-12)


# -- omega_assoc and counting -------------------------------------------------

def test_omega_assoc_factorial():
    seq = quotient_power(1.0)  # M_k = k!
    assert math.isclose(omega_assoc(seq, 2.0), math.log(2.0), rel_tol=1e-12)
    assert omega_assoc(seq, 0.5) == 0.0
    assert omega_assoc(seq, 1.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e4))
def test_omega_assoc_matches_brute_force(t):
    seq = gevrey(1.0)
    assert math.isclose(omega_assoc(seq, t), brute_omega(seq, t, k_cap=128),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_omega_assoc_convex_increasing_in_log_t():
    seq = gevrey(1.0)
    ts = np.geomspace(0.5, 1e4, 120)
    vals = omega_assoc(seq, ts)
    assert np.all(np.diff(vals) >= -1e-12)
    d2 = np.diff(vals, 2)
    assert np.all(d2 >= -1e-9)


def test_omega_assoc_array_equals_scalar_calls():
    seq = gevrey(0.5)
    ts = np.geomspace(0.05, 500.0, 60).reshape(3, 20)
    vals = omega_assoc(seq, ts)
    assert vals.shape == ts.shape
    want = [omega_assoc(seq, t) for t in ts.ravel().tolist()]
    assert all(isinstance(w, float) for w in want)
    assert vals.ravel().tolist() == want


def test_omega_assoc_names_first_exhausted_t_in_input_order():
    seq = gevrey(1.0, K_max=16)  # the supremum sits at K_max from t ~ 300 on
    with pytest.raises(RangeExhausted, match=r"K_max=16 for t=5000$"):
        omega_assoc(seq, [1.0, 5e3, 2e3, 1e4])
    with pytest.raises(RangeExhausted, match=r"K_max=16 for t=2000$"):
        omega_assoc(seq, 2e3)


@pytest.mark.parametrize("t", [0.0, -1.0, [2.0, 0.0], [[1.0], [-3.0]]])
def test_omega_assoc_rejects_nonpositive_t(t):
    with pytest.raises(ValueError, match="t must be positive"):
        omega_assoc(gevrey(1.0), t)


def test_counting_examples():
    seq = quotient_power(2.0)
    assert counting(seq, 10.0) == 3
    assert counting(seq, 1.0) == 1  # mu_1 = 1 qualifies
    scaled = quotient_power(2.0, scale=2.0)  # mu_1 = 2 > 1
    assert counting(scaled, 1.0) == 0
    with pytest.raises(RangeExhausted):
        counting(seq, 1e12)


def test_counting_integral_matches_omega():
    seq = quotient_power(2.0)
    for t in (5.0, 50.0, 500.0):
        lhs = counting_integral(seq, t)
        rhs = omega_assoc(seq, t)
        assert math.isclose(lhs, rhs, rel_tol=1e-6)


# -- structural inequalities ---------------------------------------------------

def test_root_below_quotient_for_log_convex():
    # M_k^{1/k} <= mu_k, exactly in the log domain
    for seq in (gevrey(1.0), gevrey(0.5), quotient_power(2.0)):
        k = np.arange(1, seq.K_max + 1)
        assert np.all(seq.logM[1:] / k <= seq.log_mu[1:] + 1e-12)


def test_supermultiplicativity_log_convex():
    seq = gevrey(1.0)
    for j in range(0, 65, 7):
        for k in range(0, 129 - j, 11):
            assert seq.logM[j] + seq.logM[k] <= seq.logM[j + k] + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=1.05, max_value=3.0), min_size=16, max_size=40))
def test_random_log_convex_roots(ratios):
    # mu built from increasing cumulative maxima stays increasing
    mu = np.ones(len(ratios) + 1)
    mu[1:] = np.maximum.accumulate(np.array(ratios))
    seq = from_mu(mu)
    assert seq.flags["log_convex"]
    k = np.arange(1, seq.K_max + 1)
    roots = seq.logM[1:] / k
    assert np.all(np.diff(roots) >= -1e-12)
    assert np.all(roots <= seq.log_mu[1:] + 1e-12)


def test_comparison_of_counting_indices():
    # mu_j/j <= C nu_k/k for j <= k forces the optimal degree of the larger
    # sequence at C t below the quotient crossing of the smaller one
    m_seq, n_seq = gevrey(1.0), gevrey(2.0)
    mu_over = np.exp(m_seq.log_mu[1:]) / np.arange(1, 129)
    nu_over = np.exp(n_seq.log_mu[1:]) / np.arange(1, 129)
    pref = np.maximum.accumulate(mu_over)
    C = float(np.max(pref / nu_over))
    m, n = m_seq.view("m"), n_seq.view("m")
    for t in np.geomspace(0.05, 2.0, 25):
        assert gamma_bar_at(n, C * t) <= gamma_under_at(m, t)


def test_halving_of_counting_indices():
    # mu_{2k} <= A nu_k plus quotient domination of lambda yields a D with
    # 2 * gamma_under_l(D t) <= gamma_under_m(t)
    m_seq = gevrey(1.0)
    l_seq = gevrey(2.0)
    m, ell = m_seq.view("m"), l_seq.view("m")
    ts = np.geomspace(0.05, 2.0, 30)
    g_m, exhausted_m = gamma_under_soft(m, ts)
    found = None
    for i in range(0, 24):
        D = 2.0 ** i
        g_l, exhausted_l = gamma_under_soft(ell, D * ts)
        if not (exhausted_m.any() or exhausted_l.any()) and np.all(2 * g_l <= g_m):
            found = D
            break
    assert found is not None, "no doubling constant found on the grid"


def test_squared_decay_comparison():
    # supermultiplicative domination M_{j+k} <= C^{j+k} N_j N_k gives
    # h_m(t) <= h_n(D t)^2 for some D, on t in [1e-6, 1e3]
    K = 1 << 20
    m_seq = gevrey(1.0, K_max=K)
    n_seq = gevrey(1.0, K_max=K)
    m, n = m_seq.view("m"), n_seq.view("m")
    ts = np.geomspace(1e-6, 1e3, 60)
    log_hm = seqcore.log_h_assoc(m, ts)
    assert np.all(np.isfinite(log_hm))
    found = None
    for i in range(0, 24):
        D = 2.0 ** i
        log_hn = seqcore.log_h_assoc(n, D * ts)
        if np.all(log_hm <= 2.0 * log_hn + 1e-9):
            found = D
            break
    assert found is not None


# -- descendant ----------------------------------------------------------------

def test_descendant_oracle_value():
    seq = quotient_power(2.0)
    out = descendant(seq)
    tau1 = 1.0 + math.pi ** 2 / 6.0
    tau3 = 1.0 / 3.0 + (math.pi ** 2 / 6.0 - 1.0 - 0.25)
    sigma3 = tau1 * 3.0 / tau3
    got = math.exp(out.logM[3] - out.logM[2])
    assert math.isclose(got, sigma3, rel_tol=1e-4)
    assert math.isclose(sigma3, 10.895, rel_tol=1e-3)


def test_descendant_structure():
    seq = quotient_power(2.0)
    out = descendant(seq)
    sig = np.exp(out.log_mu[1:])
    k = np.arange(1, 129, dtype=float)
    # sigma_1 = 1 and sigma_k/k increasing
    assert math.isclose(sig[0], 1.0, rel_tol=1e-12)
    assert np.all(np.diff(sig / k) >= -1e-12)
    assert out.flags["strongly_log_convex"]
    # sigma <= C mu with a modest constant
    ratio = sig / np.exp(seq.log_mu[1:])
    assert ratio.max() <= 4.0
    # suffix sums of 1/mu dominated by k/sigma
    suffix = seq.quotient_tail_sums()
    assert np.all(suffix <= (1.0 + math.pi ** 2 / 6.0) * k / sig + 1e-12)


def test_descendant_maximality_against_admissible_candidate():
    # any increasing mu' <= mu with sum_{j>=k} 1/mu_j <= C k/mu'_k must sit
    # below a constant multiple of the construction output
    seq = quotient_power(2.0)
    out = descendant(seq)
    k = np.arange(1, 129, dtype=float)
    cand = k ** 1.5
    suffix = seq.quotient_tail_sums()
    assert np.all(suffix <= 2.0 * k / cand)  # candidate is admissible
    sig = np.exp(out.log_mu[1:])
    assert np.all(cand <= 2.0 * sig)


def test_descendant_closed_form_with_certified_tail():
    # the certified tail estimate (sum_{j>=129} 1/j^2 = 0.0077820619, fitted
    # as 0.0077821197) reproduces the zeta closed form to 1e-7
    seq = quotient_power(2.0)
    out = descendant(seq)
    tau1 = 1.0 + math.pi ** 2 / 6.0
    tau3 = 1.0 / 3.0 + (math.pi ** 2 / 6.0 - 1.0 - 0.25)
    got = math.exp(out.logM[3] - out.logM[2])
    assert math.isclose(got, tau1 * 3.0 / tau3, rel_tol=1e-7)


def test_descendant_requires_non_quasianalytic():
    with pytest.raises(QuasianalyticInput):
        descendant(quotient_power(1.0))


def test_tail_unbounded_for_harmonic_quotients():
    seq = quotient_power(1.0)
    with pytest.raises(TailUnbounded):
        seq.quotient_tail_sums()


# -- conjugate sandwich ---------------------------------------------------------

def test_growth_conjugate_sandwich():
    # brute-force conjugate of the growth profile versus the decay profile of
    # the factorial-stripped sequence, checked at 200 log-spaced points
    seq = gevrey(1.0)  # m_k = k!
    m = seq.view("m")
    ts = np.geomspace(5e-2, 50.0, 200)
    bad = 0
    for t in ts:
        left = brute_omega_star(seq, t)
        mid = -math.log(h_at(m, t)[0])  # omega_m(1/t) = -log h_m(t)
        right = brute_omega_star(seq, t / math.e)
        if not (left <= mid + 1e-9 and mid <= right + 1e-9):
            bad += 1
    assert bad == 0
