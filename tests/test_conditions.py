import math
import warnings

import numpy as np
import pytest

from ultrajet import conditions, fncore, seqcore
from ultrajet.conditions import (
    check_almost_increasing,
    check_concavity_equivalence,
    check_doubling_absorption,
    check_good,
    check_heir,
    check_mixed_tail,
    check_quotient_root_domination,
    check_strong,
    check_strong_matrix,
    resolve_chain,
    verify_chain,
)
from ultrajet.errors import QuasianalyticInput, RangeExhausted, TailUnbounded
from ultrajet.fncore import (WeightMatrix, kappa, log_power, omega_of_sequence, power,
                             weight_matrix)
from ultrajet.seqcore import from_mu, gevrey, quotient_power

from test_kernel_oracles import oracle_good_via_conjugate_secants


@pytest.fixture(scope="module")
def sqrt_fn():
    return power(0.5)


@pytest.fixture(scope="module")
def sqrt_matrix(sqrt_fn):
    return weight_matrix(sqrt_fn, K_max=96)


@pytest.fixture(scope="module")
def logpow_fn():
    return log_power(2.0)


# -- heirs -------------------------------------------------------------------

def test_sqrt_is_strong(sqrt_fn):
    v = check_strong(sqrt_fn)
    assert v.holds
    assert 1.5 <= v.witness_constants["C"] <= 2.5


def test_log_power_is_not_strong(logpow_fn):
    v = check_strong(logpow_fn)
    assert not v.holds
    ce = v.counterexample
    assert ce is not None and "t" in ce
    # replay: the inequality with the reference constant fails at the witness
    t = ce["t"]
    c_ref = ce["reference_C"]
    lhs = kappa(logpow_fn, t)
    rhs = c_ref * float(logpow_fn(t)) + c_ref
    assert lhs > rhs
    assert ce["margin"] > 1.2


def test_log_power_has_matching_heir(logpow_fn):
    sigma = log_power(1.0)  # t / log t
    v = check_heir(logpow_fn, sigma)
    assert v.holds


def test_heir_rejects_quasianalytic_omega():
    with pytest.raises(QuasianalyticInput):
        check_heir(log_power(1.0), power(0.5))


def test_kappa_is_its_own_heir(sqrt_fn):
    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = kappa(sqrt_fn, t[pos])
        return out

    kap = fncore.WeightFunction(ev, label=f"kappa[{sqrt_fn.label}]")
    v = check_heir(sqrt_fn, kap)
    assert v.holds
    assert v.witness_constants["C"] <= 1.0 + 1e-9


# -- goodness -----------------------------------------------------------------

def test_sqrt_matrix_is_good(sqrt_matrix):
    v = check_good(sqrt_matrix)
    assert v.holds
    assert v.witness_constants["C"] < 16.0


def test_strongly_log_convex_row_gives_constant_one():
    row = gevrey(1.0, K_max=64)
    assert row.flags["strongly_log_convex"]
    m = WeightMatrix((1.0,), {1.0: row})
    v = check_good(m)
    assert v.holds
    assert v.witness_constants["C"] <= 1.0 + 1e-9


def test_oscillating_row_fails_goodness():
    k = np.arange(1, 65, dtype=float)
    mu = np.ones(65)
    mu[1:] = k * np.exp(30.0 * (1.0 + np.cos(np.pi * k)))
    row = from_mu(mu, label="oscillating")
    v = check_good(WeightMatrix((1.0,), {1.0: row}))
    assert not v.holds
    ce = v.counterexample
    assert ce["mode"] == "cap"
    j, kk = ce["j"], ce["k"]
    la = row.log_mu[j] - math.log(j)
    lb = row.log_mu[kk] - math.log(kk)
    assert la - lb > 40.0 * math.log(2.0)


def test_good_secant_cross_check(sqrt_matrix):
    direct = check_good(sqrt_matrix)
    secant = oracle_good_via_conjugate_secants(sqrt_matrix)
    assert direct.holds == secant.holds


# -- mixed tail ----------------------------------------------------------------

def test_mixed_tail_square_quotients():
    seq = quotient_power(2.0)
    v = check_mixed_tail(seq, seq)
    assert v.holds
    assert v.witness_constants["C"] < 4.0


def test_mixed_tail_harmonic_nu_unbounded():
    with pytest.raises(TailUnbounded):
        check_mixed_tail(quotient_power(2.0), quotient_power(1.0))


def test_mixed_tail_cubic_vs_square_fails():
    v = check_mixed_tail(quotient_power(3.0), quotient_power(2.0))
    assert not v.holds
    assert v.counterexample["mode"] == "trend"
    # replay the witness index against the reference constant
    mu, nu = quotient_power(3.0), quotient_power(2.0)
    k = v.counterexample["k"]
    suffix = nu.quotient_tail_sums()
    lhs = suffix[int(k) - 1]
    c_ref = v.counterexample["reference_C"]
    assert lhs > c_ref * k / math.exp(mu.log_mu[int(k)])


# -- almost increasing -----------------------------------------------------------

def test_almost_increasing_square():
    v = check_almost_increasing(quotient_power(2.0))
    assert v.holds
    assert v.witness_constants["C"] <= 1.0 + 1e-9
    assert v.witness_constants["C_root_variant"] >= 1.0


def test_almost_increasing_blocks():
    k = np.arange(1, 129, dtype=float)
    mu = np.ones(129)
    boost = np.where((np.arange(1, 129) // 8) % 2 == 1, 10.0, 1.0)
    mu[1:] = k ** 2 * boost
    v = check_almost_increasing(from_mu(mu, label="blocks"))
    assert v.holds
    assert 8.5 <= v.witness_constants["C"] <= 10.0 + 1e-9


def test_almost_increasing_deep_dips_fail():
    k = np.arange(1, 129, dtype=float)
    mu = np.ones(129)
    mu[1:] = k * np.exp(21.0 * (1.0 + np.sin(k)))
    seq = from_mu(mu, label="dips")
    v = check_almost_increasing(seq)
    assert not v.holds
    j, kk = v.counterexample["j"], v.counterexample["k"]
    assert (seq.log_mu[j] - math.log(j)) - (seq.log_mu[kk] - math.log(kk)) \
        > 40.0 * math.log(2.0)


def test_almost_increasing_caps_witnesses_past_log_709():
    # a cliff of 800 in log mu: log C and its root variant are about 800,
    # so both witnesses are capped at exp(700), as needed_C is
    seq = seqcore.WeightSequence(np.cumsum([0.0, 800.0, -800.0, 1.0]), label="cliff")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = check_almost_increasing(seq)
    assert not v.holds
    for key in ("C", "C_root_variant"):
        assert v.witness_constants[key] == math.exp(700.0)
    assert v.counterexample["needed_C"] == math.exp(700.0)


# -- scaling conditions ------------------------------------------------------------

def test_doubling_absorption_power(sqrt_fn):
    v = check_doubling_absorption(sqrt_fn)
    assert v.holds
    assert v.witness_constants["H"] <= 4.0


def test_doubling_absorption_stops_its_search_at_the_weight_range():
    # a growth profile is valid up to mu_K only: H = 32 takes the t grid past
    # it, so the search ends there, no H of 1 ... 16 absorbing the doubling
    fn = omega_of_sequence(gevrey(4.0, K_max=64))
    ts = conditions._default_t_grid(fn)
    tried = [h for h in conditions.GRID_POWERS if ts[-1] * h <= fn.t_valid_max]
    assert tried == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert all(np.max(2.0 * fn(ts) - fn(h * ts)) > h for h in tried)
    v = check_doubling_absorption(fn)
    assert v.holds is False
    assert math.isclose(v.witness_constants["max_gap_at_cap"], 51.26, rel_tol=1e-4)
    assert v.counterexample["mode"] == "cap"
    assert v.counterexample["needed_C"] == v.witness_constants["max_gap_at_cap"]


def test_quotient_root_domination(sqrt_matrix):
    v = check_quotient_root_domination(sqrt_matrix)
    assert v.holds


def test_concavity_equivalence_agreement(sqrt_fn, sqrt_matrix):
    v2, v3 = check_concavity_equivalence(sqrt_fn, sqrt_matrix)
    assert v2.holds and v3.holds
    assert v2.holds == v3.holds
    assert v2.witness_constants["C"] <= 4.0


# -- matrix strength -----------------------------------------------------------------

def test_strong_matrix_sqrt(sqrt_matrix, sqrt_fn):
    v = check_strong_matrix(sqrt_matrix)
    assert v.holds
    assert v.details["exists_holds"]
    assert v.holds == check_strong(sqrt_fn).holds


def test_strong_matrix_log_power(logpow_fn):
    m = weight_matrix(logpow_fn, K_max=128)
    v = check_strong_matrix(m)
    assert not v.holds
    assert v.holds == check_strong(logpow_fn).holds
    # the exists-form may survive only through rows whose arguments x*k never
    # leave the normalized zone within range; every developed row must fail
    assert all(x * m.K_max <= 16.0 for x in v.details["exists_x"])


def test_strong_matrix_single_row_forms_coincide():
    row = weight_matrix(power(0.5), x_grid=(1.0,), K_max=96).row(1.0)
    v = check_strong_matrix(WeightMatrix((1.0,), {1.0: row}))
    assert v.holds == v.details["exists_holds"]


def test_strong_matrix_skips_rows_without_certified_tail():
    # row x = 1/16 of this matrix fits a negative quotient exponent, so its
    # tail is unbounded; the check passes over it instead of aborting
    m = weight_matrix(log_power(1.678035), K_max=32)
    with pytest.raises(TailUnbounded):
        m.row(0.0625).quotient_tail_sums()
    v = check_strong_matrix(m)
    assert v.details["per_x"]["0.0625"]["y"] > 0.0625
    # a row with no admissible partner at all fails with a tail counterexample
    rows = {1.0: quotient_power(2.0), 2.0: quotient_power(1.0)}
    v = check_strong_matrix(WeightMatrix((1.0, 2.0), rows))
    assert not v.holds
    assert v.counterexample["mode"] == "tail"
    assert v.counterexample["x"] == 2.0


def test_strong_matrix_replays_only_a_failing_pair(monkeypatch, logpow_fn):
    # one table holds every pair: a holding verdict calls check_mixed_tail
    # never, a failing one once, for the witness of its first failing x
    calls = []
    replay = conditions.check_mixed_tail
    monkeypatch.setattr(conditions, "check_mixed_tail",
                        lambda *args: calls.append(args) or replay(*args))
    assert check_strong_matrix(weight_matrix(power(0.5), K_max=64)).holds
    assert len(calls) == 0
    assert not check_strong_matrix(weight_matrix(logpow_fn, K_max=64)).holds
    assert len(calls) == 1


def test_tail_unbounded_message_names_the_failed_test():
    with pytest.raises(TailUnbounded, match=r"exponent 0\.500 <= 0\.95"):
        quotient_power(0.5).quotient_tail_sums()
    with pytest.raises(TailUnbounded, match="does not converge"):
        quotient_power(1.0).quotient_tail_sums()


# -- chain resolution -----------------------------------------------------------------

def test_resolve_chain_sqrt(sqrt_matrix):
    cert = resolve_chain(sqrt_matrix, 1.0)
    assert cert.y1 >= 2.0 and cert.y2 >= 2.0 * cert.y1 and cert.y3 >= cert.y2
    assert cert.D >= 1.0
    assert verify_chain(sqrt_matrix, cert, refine=10)


def test_resolve_chain_moderate_growth_stays_bounded(sqrt_matrix):
    # rows of a doubling-absorbing weight are pairwise equivalent, so the
    # certificate parameters stay bounded multiples of x
    v = check_doubling_absorption(sqrt_matrix.source)
    assert v.holds
    cert = resolve_chain(sqrt_matrix, 0.25)
    assert cert.y3 <= 64.0 * 0.25
    assert verify_chain(sqrt_matrix, cert, refine=10)


def test_resolve_chain_requires_good():
    k = np.arange(1, 65, dtype=float)
    mu = np.ones(65)
    mu[1:] = k * np.exp(30.0 * (1.0 + np.cos(np.pi * k)))
    bad = WeightMatrix((1.0, 2.0, 4.0),
                       {x: from_mu(mu) for x in (1.0, 2.0, 4.0)})
    with pytest.raises(RangeExhausted):
        resolve_chain(bad, 1.0)


# -- cross-module consequences -----------------------------------------------------

def test_descendant_passes_the_two_downstream_checks():
    # the construction output is almost increasing with constant one and
    # bounds the source's reciprocal tail
    src = quotient_power(2.0)
    out = seqcore.descendant(src)
    v1 = check_almost_increasing(out)
    assert v1.holds and v1.witness_constants["C"] <= 1.0 + 1e-9
    v2 = check_mixed_tail(out, src)
    assert v2.holds


def test_strong_with_root_domination_implies_good(sqrt_fn, sqrt_matrix):
    assert check_strong(sqrt_fn).holds
    assert check_quotient_root_domination(sqrt_matrix).holds
    assert check_good(sqrt_matrix).holds


# -- verdict plumbing ------------------------------------------------------------------

def test_verdict_shape_invariants():
    with pytest.raises(ValueError):
        conditions.Verdict("x", True, counterexample={"t": 1.0})
    with pytest.raises(ValueError):
        conditions.Verdict("x", False)


def test_verdict_serialization(sqrt_fn):
    v = check_strong(sqrt_fn)
    d = v.to_dict()
    assert d["finite_range"] is True
    assert d["holds"] is True
    assert isinstance(d["witness_constants"]["C"], float)
