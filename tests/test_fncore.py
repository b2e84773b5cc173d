import math
import warnings
from contextlib import suppress
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrajet import cli, conditions, fncore, seqcore
from ultrajet.errors import (
    GridExhausted,
    InvariantViolation,
    NotLittleO,
    QuasianalyticInput,
    UltrajetError,
)
from ultrajet.fncore import (
    WeightMatrix,
    gevrey_dual,
    kappa,
    log_power,
    omega_conjugate_grid,
    omega_of_sequence,
    power,
    weight_matrix,
    young_conjugate_grid,
)

from test_config_fuzz import _SMALL as FUZZ_CONFIG


def conj_sup(fun, x, lo, hi, n=4001):
    """Test-side supremum of (x*u - fun(u)) by dense scan plus local refine."""
    us = np.linspace(lo, hi, n)
    vals = x * us - np.array([fun(u) for u in us])
    i = int(np.argmax(vals))
    a, b = us[max(0, i - 1)], us[min(n - 1, i + 1)]
    fine = np.linspace(a, b, 2001)
    fvals = x * fine - np.array([fun(u) for u in fine])
    return float(max(vals[i], np.max(fvals)))


# -- presets and flags ---------------------------------------------------------

def test_power_flags():
    fn = power(0.5)
    assert fn.normalized
    for name in ("increasing", "doubling", "linear_bound", "log_small",
                 "convex_phi", "non_quasianalytic", "o_of_t"):
        assert fn.flags[name], name


def test_power_keeps_relative_accuracy_for_tiny_exponents():
    # t^a - 1 = a log t (1 + a log t / 2 + ...); the subtraction t ** a - 1
    # would leave about 1e-5 relative rounding at a = 1e-12
    alpha = 1e-12
    fn = power(alpha)
    for t in (2.0, 10.0, 1e6):
        x = alpha * math.log(t)
        assert math.isclose(float(fn(t)), x * (1.0 + 0.5 * x), rel_tol=1e-12), t


def test_raw_power_is_unnormalized_and_concave():
    fn = power(0.5, normalized=False)
    assert not fn.normalized
    assert fn.flags["concave"]
    assert fn.flags["non_quasianalytic"]


def test_log_power_flags():
    fn = log_power(2.0)
    assert fn.normalized
    assert fn.flags["increasing"]
    assert fn.flags["o_of_t"]
    assert fn.flags["non_quasianalytic"]
    qa = log_power(1.0)  # int dt/(t log t) diverges
    assert not qa.flags["non_quasianalytic"]


@pytest.mark.parametrize("b, scale", [(150.0, 1.0), (1e300, 1.0), (math.inf, 1.0),
                                      (2.0, 1e308), (100.0, 5e-320), (2.0, 0.0)])
def test_log_power_constants_out_of_range_are_value_errors(b, scale):
    # s1 ** b overflowed as a Python float (OverflowError) and exp(s1) warned;
    # a bridge constant that is not a positive float is now a ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a positive float"):
            log_power(b, scale)


def test_log_power_tail_where_log_power_of_t_overflows():
    # (log t)^120 leaves the float range from log t = e^(709.78/120) = 371 on;
    # omega(e^600) was 0 there instead of about e^-168
    fn = log_power(120.0, 2.0)
    s = np.array([300.0, 371.0, 372.0, 600.0, 700.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(np.exp(s))
    want = [2.0 * math.exp(v - 120.0 * math.log(v)) for v in s.tolist()]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_linear_weight_is_quasianalytic_and_not_o_of_t():
    fn = fncore.WeightFunction(lambda t: np.asarray(t, dtype=float), label="t")
    assert not fn.flags["non_quasianalytic"]
    assert not fn.flags["o_of_t"]


def test_omega_of_sequence_matches_seqcore():
    seq = seqcore.gevrey(1.0, K_max=512)
    fn = omega_of_sequence(seq)
    assert fn.normalized
    for t in (2.0, 17.0, 400.0):
        assert math.isclose(float(fn(t)), seqcore.omega_assoc(seq, t),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_profile_with_four_certified_decades_builds():
    # gevrey(2) at K_max 32 is valid up to 32^3, which leaves four decades
    # for the tail trend: the fitted exponent then uses those four sums
    fn = omega_of_sequence(seqcore.gevrey(2.0, K_max=32))
    assert fn.flags["non_quasianalytic"]
    assert fn.witnesses["tail_integral_exponent"] > 1.0


def test_profile_valid_below_ten_builds():
    # mu_k = k up to 16 leaves no grid point above 10 to certify log t = o(omega)
    fn = omega_of_sequence(seqcore.quotient_power(1.0, K_max=16))
    assert math.isclose(fn.t_valid_max, 16.0) and not fn.flags["log_small"]


def test_tabulated_weight():
    ts = np.array([0.0, 1.0, 2.0, 10.0])
    ws = np.array([0.0, 0.0, 3.0, 9.0])
    fn = fncore.tabulated(ts, ws)
    assert float(fn(2.0)) == 3.0
    assert float(fn(20.0)) == 9.0 + (20.0 - 10.0) * 0.75
    assert fn.normalized


# -- Young conjugate ------------------------------------------------------------

def test_young_conjugate_at_zero_on_a_flat_last_piece():
    # phi never decreases, so at t = 0 the supremum is -phi(0) however flat
    # the last piece; at t > 0 the objective still rises at the cap
    fn = fncore.tabulated([1, 3131.166, 3142.025, 5767.42], [0, 4.858, 8.732, 8.732])
    assert young_conjugate_grid(fn, [0.0]).tolist() == [-fn.phi(0.0)]
    with pytest.raises(GridExhausted, match=r"still rising at s=600 \(t=50\)$"):
        young_conjugate_grid(fn, [0.0, 50.0])


def test_young_conjugate_raw_sqrt_closed_form():
    fn = power(0.5, normalized=False)  # phi(s) = e^{s/2}
    for t in (0.5, 1.0, 3.0, 17.0, 256.0, 5000.0):
        exact = 2.0 * t * math.log(2.0 * t) - 2.0 * t
        got = young_conjugate_grid(fn, t)
        assert math.isclose(got, exact, rel_tol=1e-6), (t, got, exact)


def test_young_conjugate_normalized_properties():
    fn = power(0.5)
    assert young_conjugate_grid(fn, 0.0) == 0.0
    ts = np.linspace(0.0, 40.0, 41)
    vals = fncore.young_conjugate_grid(fn, ts)
    assert np.all(vals >= -1e-12)
    assert np.all(np.diff(vals) >= -1e-9)
    d2 = np.diff(vals, 2)
    assert np.all(d2 >= -1e-7)
    # superlinear growth: t / phi*(t) -> 0
    assert 100.0 / young_conjugate_grid(fn, 100.0) < 0.2
    assert 1000.0 / young_conjugate_grid(fn, 1000.0) < 0.1


def test_young_round_trip():
    # recomputing the conjugate of the conjugate reproduces phi on the grid
    fn = power(0.5)
    for s in (0.25, 0.8, 1.7, 3.0, 4.5, 6.0):
        phi_ss = conj_sup(lambda u: young_conjugate_grid(fn, u), s, 0.0, 60.0, n=1201)
        phi = float(fn.phi(s))
        assert math.isclose(phi_ss, phi, rel_tol=1e-6, abs_tol=1e-9), s


# -- weight matrix ---------------------------------------------------------------

@pytest.fixture(scope="module")
def sqrt_matrix():
    return weight_matrix(power(0.5), K_max=64)


def test_matrix_rows_are_weight_sequences(sqrt_matrix):
    for x, row in sqrt_matrix.rows.items():
        assert row.logM[0] == 0.0
        assert row.flags["log_convex"], x
        assert row.flags["weight_sequence"], x


def test_matrix_gevrey_equivalence(sqrt_matrix):
    row = sqrt_matrix.row(1.0)
    ks = np.arange(4, 65)
    ratio = np.exp(row.logM[4:65] / ks) / ks ** 2
    c = max(ratio.max(), 1.0 / ratio.min())
    assert c <= 10.0


def test_matrix_parameter_absorbs_geometric_factor(sqrt_matrix):
    # some in-grid H with 2^k W^x_k <= C W^{Hx}_k across the range
    x = 0.5
    row_x = sqrt_matrix.row(x).logM
    k = np.arange(65)
    found = None
    for h in (2.0, 4.0, 8.0):
        if h * x in sqrt_matrix.rows:
            target = sqrt_matrix.row(h * x).logM
            need = np.max(k * math.log(2.0) + row_x - target)
            if need <= 40.0 * math.log(2.0):
                found = (h, math.exp(min(need, 700.0)))
                break
    assert found is not None


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.25, max_value=0.9))
def test_matrix_invariants_for_random_exponent(alpha):
    # construction validates monotonicity, splitting, and index doubling
    mat = weight_matrix(power(alpha), x_grid=(0.5, 1.0, 2.0, 4.0), K_max=24)
    assert mat.row(1.0).flags["log_convex"]


def test_matrix_requires_normalized():
    with pytest.raises(ValueError):
        weight_matrix(power(0.5, normalized=False), K_max=16)


def test_matrix_validation_names_the_first_failing_row():
    good = weight_matrix(power(0.5), x_grid=(0.5, 1.0, 2.0), K_max=16)
    lifted = SimpleNamespace(logM=good.row(1.0).logM + 1.0, log_mu=good.row(1.0).log_mu,
                             flags={"log_convex": True})
    wavy = seqcore.from_mu([1.0, 4.0, 2.0] + [8.0] * 14)
    for rows, message in (
            ({1.0: lifted, 2.0: wavy}, "row 1: W_0 != 1"),
            ({1.0: wavy, 2.0: lifted}, "row 1: not log-convex"),
            ({1.0: good.row(2.0), 2.0: good.row(1.0)}, "quotients not monotone 1 -> 2")):
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            WeightMatrix((0.5, 1.0, 2.0), {0.5: good.row(0.5), **rows}, source=good.source)


def test_matrix_rows_of_unequal_length_are_rejected():
    rows = {1.0: seqcore.quotient_power(2.0, K_max=32),
            2.0: seqcore.quotient_power(2.5, K_max=48)}
    with pytest.raises(ValueError, match="^row 2 has K_max 48, row 1 has 32$"):
        WeightMatrix((1.0, 2.0), rows)


def test_handbuilt_matrix_skips_validation():
    rows = {1.0: seqcore.gevrey(1.0, K_max=16)}
    m = WeightMatrix((1.0,), rows)
    assert m.K_max == 16


# -- decreasing conjugate ----------------------------------------------------------

def test_omega_conjugate_raw_sqrt():
    fn = power(0.5, normalized=False)
    for s in (0.01, 0.1, 1.0, 10.0):
        assert math.isclose(omega_conjugate_grid(fn, s), 1.0 / (4.0 * s),
                            rel_tol=1e-6), s


def test_omega_conjugate_normalized_vanishes_for_large_s():
    fn = power(0.5)
    assert omega_conjugate_grid(fn, 1.0) == 0.0
    assert omega_conjugate_grid(fn, 2.5) == 0.0


def test_omega_conjugate_requires_o_of_t():
    fn = fncore.WeightFunction(lambda t: np.asarray(t, dtype=float), label="t")
    with pytest.raises(NotLittleO):
        omega_conjugate_grid(fn, 1.0)


# one parameter set per weight preset of the CLI, which all carry conjugates
PRESET_PARAMS = {
    "power": {"alpha": 0.5},
    "log_power": {"b": 2.0},
    "gevrey_dual": {"s": 1.0},
    "omega_of_sequence": {"sequence": "S"},
    "tabulated": {"ts": [1.0, 2.0, 10.0], "values": [0.0, 3.0, 9.0]},
}


@pytest.mark.parametrize("b", [1.5, 2.5, 3.2, 4.0])
def test_log_power_conjugates_bisect_a_narrow_bracket(monkeypatch, b):
    # a bisection of the whole bracket takes about 60 passes; one from the
    # Newton estimate about 13 (with the two that test its bracket), on a
    # 65 x 11 matrix table and on the fn CSV grid
    evals = []

    def counted(f, lo, hi, near=None):
        def g(x):
            evals[-1] += 1
            return f(x)
        return bisect(g, lo, hi, near)

    bisect = fncore._bisect
    monkeypatch.setattr(fncore, "_bisect", counted)
    fn = log_power(b)
    for call in (lambda: young_conjugate_grid(fn, np.array(fncore.DEFAULT_X_GRID)[:, None]
                                              * np.arange(65)),
                 lambda: fncore.omega_conjugate_grid(fn, np.geomspace(1e-2, 1e8, 200))):
        evals.append(0)
        call()
    assert 0 < max(evals) <= 25, evals


def test_every_preset_carries_exact_conjugates():
    assert set(PRESET_PARAMS) == set(cli._WEIGHT_PRESETS)
    ctx = cli._Context({
        "K_max": 64,
        "sequences": [{"name": "S", "generator": "gevrey", "params": {"s": 1.0}}],
        "weights": [{"name": kind, "preset": kind, "params": params}
                    for kind, params in PRESET_PARAMS.items()]})
    for kind in PRESET_PARAMS:
        assert ctx.weight(kind).conjugates is not None, kind


def test_weight_without_conjugates_has_flags_but_no_conjugate():
    fn = fncore.WeightFunction(lambda t: np.maximum(np.sqrt(t) - 1.0, 0.0), label="bare")
    assert fn.normalized and fn.flags["o_of_t"] and fn.flags["non_quasianalytic"]
    assert kappa(fn, 4.0) > 0.0
    for call in (partial(fncore.young_conjugate_grid, fn, [1.0]),
                 partial(fncore.omega_conjugate_grid, fn, [1.0]),
                 partial(weight_matrix, fn, K_max=8)):
        with pytest.raises(ValueError, match="bare: no exact conjugates"):
            call()


def _fresh_weights() -> list:
    """A new weight of every preset and of every weight of the fuzzed configs."""
    entries = [{"name": kind, "preset": kind, "params": params}
               for kind, params in PRESET_PARAMS.items()]
    entries += [dict(e, name=f"fuzz_{e['name']}") for e in FUZZ_CONFIG["weights"]]
    ctx = cli._Context({
        "K_max": 64, "weights": entries,
        "sequences": [{"name": "S", "generator": "gevrey", "params": {"s": 1.0}}]})
    return [ctx.weight(e["name"]) for e in entries]


def test_building_a_weight_computes_no_certificate(monkeypatch):
    calls = []
    tail = fncore._tail_integrability
    monkeypatch.setattr(fncore, "_tail_integrability", lambda fn: calls.append(fn) or tail(fn))
    weights = _fresh_weights()
    assert calls == []
    for n, fn in enumerate(weights, 1):
        assert fn.flags and len(calls) == n
        assert fn.witnesses and calls == weights[:n]


FIRST_READS = {
    "kappa": lambda fn: kappa(fn, [4.0]),
    "weight_matrix": lambda fn: weight_matrix(fn, K_max=16),
    "conjugates": lambda fn: (young_conjugate_grid(fn, np.array([1.0, 5.0])),
                              omega_conjugate_grid(fn, np.array([0.5]))),
}


@pytest.mark.parametrize("first", FIRST_READS)
def test_weight_certificates_do_not_depend_on_the_first_read(first):
    for want, fn in zip(_fresh_weights(), _fresh_weights()):
        with suppress(UltrajetError, ValueError):  # a quasianalytic weight has no kappa
            FIRST_READS[first](fn)
        assert list(fn.flags.items()) == list(want.flags.items())
        assert list(fn.witnesses) == list(want.witnesses)
        assert (np.array(list(fn.witnesses.values())).tobytes()
                == np.array(list(want.witnesses.values())).tobytes())


def test_omega_conjugate_decreasing_convex():
    fn = power(0.5, normalized=False)
    ss = np.geomspace(0.05, 20.0, 40)
    vals = fncore.omega_conjugate_grid(fn, ss)
    assert np.all(np.diff(vals) <= 1e-9)
    # convexity via chords on the linear grid
    ss = np.linspace(0.05, 5.0, 30)
    vals = fncore.omega_conjugate_grid(fn, ss)
    slopes = np.diff(vals) / np.diff(ss)
    assert np.all(np.diff(slopes) >= -1e-6)


def test_conjugate_inversion_for_concave_weight():
    # omega(t) = inf_s (omega*(s) + s t) when omega is concave increasing
    fn = power(0.5, normalized=False)
    for t in (0.5, 2.0, 40.0, 1e4):
        ss = np.geomspace(1e-6, 50.0, 900)
        vals = fncore.omega_conjugate_grid(fn, ss) + ss * t
        got = float(np.min(vals))
        assert math.isclose(got, math.sqrt(t), rel_tol=2e-4), t


def test_conjugate_domination_for_dominated_weights():
    # sigma = O(omega) forces sigma*(t) <= C omega*(t/C) + C for a grid C
    omega = power(0.5, normalized=False)
    sigma = power(1.0 / 3.0, normalized=False)
    ts = np.geomspace(1e-3, 10.0, 50)
    sig_star = fncore.omega_conjugate_grid(sigma, ts)
    found = None
    for i in range(0, 20):
        c = 2.0 ** i
        om_star = fncore.omega_conjugate_grid(omega, ts / c)
        if np.all(sig_star <= c * om_star + c + 1e-9):
            found = c
            break
    assert found is not None and found <= 16.0


# -- kappa ---------------------------------------------------------------------------

def test_kappa_sqrt_closed_form():
    fn = power(0.5, normalized=False)
    ts = np.geomspace(1.0, 1e6, 60)
    vals = kappa(fn, ts)
    assert np.allclose(vals, 2.0 * np.sqrt(ts), rtol=1e-6)


def test_kappa_dominates_omega():
    for fn in (power(0.5), power(0.5, normalized=False), log_power(2.0)):
        ts = np.geomspace(1.0, 1e6, 40)
        assert np.all(kappa(fn, ts) >= fn(ts) - 1e-9)


def test_kappa_concave():
    fn = power(0.5, normalized=False)
    ts = np.linspace(1.0, 1e4, 200)
    vals = kappa(fn, ts)
    slopes = np.diff(vals) / np.diff(ts)
    assert np.all(np.diff(slopes) <= 1e-9)


def test_kappa_log_power_ratio_grows_like_log():
    fn = log_power(2.0)
    ts = np.geomspace(1e3, 1e9, 30)
    ratio = kappa(fn, ts) / fn(ts)
    assert np.all(ratio / np.log(ts) > 0.8)
    assert np.all(ratio / np.log(ts) < 1.3)


def test_kappa_positive_below_the_normalized_zone():
    # the tail integral sees the region above one even when the query point
    # sits deep inside the flat zone
    fn = power(0.5)
    v = kappa(fn, 1e-8)
    assert v > 0.0
    # closed form: t * int_1^inf (sqrt(u)-1)/u^2 du = t for t <= 1
    assert math.isclose(v, 1e-8, rel_tol=1e-6)


def test_kappa_rejects_non_finite_t():
    # one shared tail makes a single NaN poison every value; the growth
    # profile also has a t cap, whose decade count a NaN cannot give
    for fn in (power(0.5), omega_of_sequence(seqcore.gevrey(1.0, K_max=256))):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="t must be positive and finite"):
                kappa(fn, [1.0, bad, 2.0])


def test_kappa_of_no_points_is_empty():
    for fn in (power(0.5), omega_of_sequence(seqcore.gevrey(1.0, K_max=256))):
        assert kappa(fn, []).shape == (0,)


def kappa_power_closed(alpha, t):
    """kappa of the normalized power(alpha): t^alpha/(1-alpha) - 1 from 1 on,
    t alpha/(1-alpha) below."""
    return np.where(t >= 1.0, t ** alpha / (1.0 - alpha) - 1.0, t * alpha / (1.0 - alpha))


def kappa_log_power_closed(b, scale, t):
    """kappa of log_power(b, scale): t F(t) past the bridge point t1, the
    bridge c log t integrated in closed form on [1, t1], t times the value
    at 1 below 1."""
    s1 = b + 1.0
    t1 = math.exp(s1)
    w1 = scale * t1 / s1 ** b

    def big_f(x):
        return scale * np.log(x) ** (1.0 - b) / (b - 1.0)

    x = np.clip(t, 1.0, t1)
    bridge = big_f(t1) + (w1 / s1) * ((np.log(x) + 1.0) / x - (s1 + 1.0) / t1)
    return t * np.where(t >= t1, big_f(np.maximum(t, t1)), bridge)


KAPPA_CLOSED_FORMS = [
    *[pytest.param(power(a), partial(kappa_power_closed, a), (), id=f"power({a})")
      for a in (0.3, 0.5, 0.9)],
    *[pytest.param(gevrey_dual(s), partial(kappa_power_closed, 1.0 / (1.0 + s)), (),
                   id=f"gevrey_dual({s})") for s in (0.5, 2.0)],
    *[pytest.param(log_power(b, scale), partial(kappa_log_power_closed, b, scale),
                   (math.exp(b + 1.0),), id=f"log_power({b},{scale})")
      for b, scale in ((1.5, 1.0), (2.0, 0.5), (3.0, 2.0), (4.0, 1.0))],
]


@pytest.mark.parametrize("grid", ["fn_csv", "heir"])
@pytest.mark.parametrize("fn, closed, bridge", KAPPA_CLOSED_FORMS)
def test_kappa_no_further_from_closed_form_than_per_t(fn, closed, bridge, grid):
    # a one-point call integrates decades from its own t: the per-t quadrature
    ts = (np.geomspace(1e-2, 1e8, 200) if grid == "fn_csv"
          else conditions._default_t_grid(fn, fn))
    exact = closed(ts)
    err = np.abs(kappa(fn, ts) / exact - 1.0)
    err_per_t = np.abs(np.array([kappa(fn, t) for t in ts]) / exact - 1.0)
    # the per-t quadrature is up to about 1e-6 off at the bridge point of
    # log_power, where the second derivative of omega(e^s) jumps, and of
    # either sign, so there it may offset part of the fitted remainder's bias
    slack = 2e-6 if bridge else 0.0
    edges = (0.0, 1.0, *bridge, np.inf)
    for lo, hi in zip(edges, edges[1:]):
        region = (ts >= lo) & (ts < hi)
        assert np.max(err[region]) <= np.max(err_per_t[region]) + slack, (lo, hi)


def test_kappa_requires_non_quasianalytic():
    fn = fncore.WeightFunction(lambda t: np.asarray(t, dtype=float), label="t")
    with pytest.raises(QuasianalyticInput):
        kappa(fn, 1.0)


# -- matrix/row consistency ---------------------------------------------------------

def test_row_profile_equivalent_to_source():
    fn = power(0.5)
    row = weight_matrix(fn, x_grid=(1.0,), K_max=4096).row(1.0)
    prof = omega_of_sequence(row)
    ts = np.geomspace(10.0, 1e6, 40)
    ratio = np.array([float(prof(t)) for t in ts]) / fn(ts)
    c = max(ratio.max(), 1.0 / ratio.min())
    assert c <= 8.0


def test_conjugate_decay_envelope_for_rows():
    # exp(omega*(t)) <= (e / h_m(t/C))^C for every matrix row, C on a grid
    fn = power(0.5)
    mat = weight_matrix(fn, K_max=128)
    ts = np.geomspace(0.05, 10.0, 25)
    omstar = fncore.omega_conjugate_grid(fn, ts)
    for x in (0.25, 1.0, 4.0, 64.0):
        m = mat.row(x).view("m")
        found = None
        for i in range(0, 30):
            c = 2.0 ** i
            log_h = seqcore.log_h_assoc(m, ts / c)
            if np.all(np.isfinite(log_h)) \
                    and np.all(omstar <= c * (1.0 - log_h) + 1e-9):
                found = c
                break
        assert found is not None, x


def test_heir_matrix_row_domination():
    # kappa_omega = O(sigma): rows of sigma's matrix sit below a shifted row
    # of omega's matrix at a grid-multiplied parameter
    om = power(1.0 / 3.0)
    sig = power(0.5)
    k = 48
    wm = weight_matrix(om, K_max=k)
    sm = weight_matrix(sig, K_max=k)
    for x in (0.25, 0.5, 1.0, 2.0):
        ok = False
        for c in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            if c * x in wm.rows:
                if np.all(sm.row(x).logM <= 1.0 / x + wm.row(c * x).logM + 1e-9):
                    ok = True
                    break
        assert ok, x
