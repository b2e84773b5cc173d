import json
import math
from pathlib import Path

import numpy as np
import pytest

from ultrajet.cli import run
from ultrajet.errors import BoundOverflow, IncompatibleGeometry, OrderCapExceeded
from ultrajet.extend import (
    DegreeSchedule,
    ExtensionField,
    _halving_constant,
    default_L,
    extend,
    schedule,
    verify,
)
from ultrajet.geometry import decompose
from ultrajet.jets import CompactSet, Poly, Sin, Ultrajet, certify, jet_from_preset
from ultrajet.pou import build_pou
from ultrajet.seqcore import gamma_bar_soft, gevrey

from test_kernel_oracles import oracle_point_flags, reference_taylor_grid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def pair_setup():
    cs = CompactSet(np.array([[-1.0], [1.0]]), ((-3.0, 3.0),))
    dec = decompose(((-3.0, 3.0),), cs, depth_cap=14)
    seq = gevrey(1.0)
    pou = build_pou(dec, seq, order_cap=4)
    return cs, dec, seq, pou


@pytest.fixture(scope="module")
def sin_field(pair_setup):
    cs, dec, seq, pou = pair_setup
    jet = jet_from_preset(Sin(1.0), cs, A_max=12)
    jet = jet.with_certificate(certify(jet, seq, rho=1.0, P_max=12))
    sched = schedule(dec, seq, L=default_L(jet), A_max=jet.A_max)
    return extend(jet, pou, sched)


# -- schedule ---------------------------------------------------------------------

def test_schedule_far_cubes_have_degree_zero(pair_setup):
    cs, dec, seq, pou = pair_setup
    sched = schedule(dec, seq, L=64.0, A_max=12)
    far = dec.center_dist > 0.5
    assert np.all(sched.degrees[far] == 0)


def test_schedule_matches_pointwise_gamma(pair_setup):
    cs, dec, seq, pou = pair_setup
    sched = schedule(dec, seq, L=1.0, A_max=200)
    m = seq.view("m")
    checked = 0
    for i in range(0, dec.n_cubes, 7):
        d = float(dec.center_dist[i])
        if d < 0.05:
            continue  # optimal index out of the stored range; capped instead
        gamma_bar, exhausted = gamma_bar_soft(m, d)
        assert not exhausted and sched.degrees[i] == min(200, 2 * int(gamma_bar))
        checked += 1
    assert checked >= 3


def test_schedule_monotone_under_L_doubling(pair_setup):
    # the optimal truncation index decreases in its argument, so doubling L
    # can only lower the degrees (reported per fixture)
    cs, dec, seq, pou = pair_setup
    s1 = schedule(dec, seq, L=32.0, A_max=12)
    s2 = schedule(dec, seq, L=64.0, A_max=12)
    assert np.all(s2.degrees <= s1.degrees)


def test_schedule_degrees_monotone_in_distance(pair_setup):
    cs, dec, seq, pou = pair_setup
    sched = schedule(dec, seq, L=64.0, A_max=64)
    order = np.argsort(dec.center_dist)
    degs = sched.degrees[order]
    assert np.all(np.diff(degs) <= 0)


def test_schedule_single_mode_validates(pair_setup):
    cs, dec, seq, pou = pair_setup
    sched = schedule(dec, seq, L=64.0, A_max=12)
    assert sched.mode == "single"
    assert _halving_constant(sched.s_prime) >= 1.0


def test_schedule_rejects_non_moderate_sequence(pair_setup):
    cs, dec, _, _ = pair_setup
    mu = np.ones(129)
    mu[1:] = 2.0 ** np.arange(1, 129)
    from ultrajet.seqcore import from_mu
    with pytest.raises(ValueError):
        schedule(dec, from_mu(mu), L=64.0, A_max=12)


def test_schedule_degree_cap_near_set(pair_setup):
    cs, dec, seq, pou = pair_setup
    sched = schedule(dec, seq, L=64.0, A_max=12)
    close = dec.center_dist < 1.0 / (7.0 * 64.0)
    assert np.all(sched.capped[close])


# -- field construction ----------------------------------------------------------------

def test_zero_jet_extends_to_zero(pair_setup):
    cs, dec, seq, pou = pair_setup
    jet = Ultrajet(cs, 8, np.zeros((len(cs.points), 9)))
    jet = jet.with_certificate(certify(jet, seq, rho=1.0))
    sched = schedule(dec, seq, L=64.0, A_max=8)
    fld = extend(jet, pou, sched)
    xs = np.linspace(-2.9, 2.9, 401).reshape(-1, 1)
    for alpha in ((0,), (1,), (3,)):
        assert np.all(fld.derivative_grid(xs, alpha) == 0.0)
    rep = verify(fld, seq, orders=[0, 1], approach_scales=[0.1, 0.01],
                 grid_points=50)
    assert all(r["residual"] == 0.0 for r in rep["residuals"])


def test_extension_in_two_dimensions():
    from ultrajet.jets import Exp, Tensor
    cs = CompactSet(np.array([[0.0, 0.0]]), ((-1.0, 1.0), (-1.0, 1.0)))
    dec = decompose(cs.box, cs, depth_cap=6)
    seq = gevrey(1.0)
    pu = build_pou(dec, seq, order_cap=2)
    jet = jet_from_preset(Tensor(Exp(1.0), Sin(1.0)), cs, A_max=8)
    jet = jet.with_certificate(certify(jet, seq, rho=2.0, P_max=8))
    sched = schedule(dec, seq, L=default_L(jet), A_max=8)
    fld = extend(jet, pu, sched)
    # the set point returns the stored jet values exactly
    for alpha in ((0, 0), (1, 0), (0, 1), (1, 1)):
        got = fld.derivative_grid(np.array([[0.0, 0.0]]), alpha)[0]
        assert got == jet.values[0, jet.rank(alpha)]
    # approach residuals shrink toward the set
    rep = verify(fld, seq, orders=[(0, 0), (1, 0), (0, 1)],
                 approach_scales=[0.25, 0.125, 0.0625, 0.03125],
                 grid_points=100)
    assert rep["fit"] is not None
    by_alpha = {}
    for r in rep["residuals"]:
        by_alpha.setdefault(tuple(r["alpha"]), []).append((r["d"], r["residual"]))
    for alpha, rows in by_alpha.items():
        rows.sort(reverse=True)
        assert rows[-1][1] <= rows[0][1] * 1.1 + 1e-12, (alpha, rows)
    # mixed-derivative Leibniz path against a centered difference in x of
    # the y-derivative
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.9, 0.9, size=(40, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05][:12]
    vals = fld.derivative_grid(pts, (1, 1))
    h = 2e-6
    plus = fld.derivative_grid(pts + np.array([h, 0.0]), (0, 1))
    minus = fld.derivative_grid(pts - np.array([h, 0.0]), (0, 1))
    fd = (plus - minus) / (2.0 * h)
    scale = float(np.max(np.abs(vals))) + 1.0
    assert float(np.max(np.abs(vals - fd))) / scale < 1e-4


def test_extension_in_three_dimensions():
    from ultrajet.jets import Exp, Tensor
    cs = CompactSet.from_points([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    dec = decompose(cs.box, cs, depth_cap=3)
    seq = gevrey(1.0)
    pu = build_pou(dec, seq, order_cap=2)
    rng = np.random.default_rng(3)
    lo, hi = np.array(cs.box).T
    xs = rng.uniform(lo, hi, size=(1000, 3))
    covered = pu.covered(xs)
    assert covered.sum() > 500
    # the ordered product telescopes to one; the sum of its factors is one
    # up to a few rounding steps
    assert np.max(np.abs(pu.sum_phi(xs[covered]) - 1.0)) <= 1e-15
    jet = jet_from_preset(Tensor(Sin(1.0), Exp(0.5), Poly([1.0, 0.0, 1.0])),
                          cs, A_max=6)
    jet = jet.with_certificate(certify(jet, seq, rho=2.0))
    fld = extend(jet, pu, schedule(dec, seq, L=default_L(jet), A_max=6))
    assert np.array_equal(fld.value(cs.points), jet.values[:, 0])


def test_polynomial_reproduction_near_set(pair_setup):
    cs, dec, seq, pou = pair_setup
    coeffs = [0.5, -1.0, 0.75]
    jet = jet_from_preset(Poly(coeffs), cs, A_max=12)
    jet = jet.with_certificate(certify(jet, seq, rho=1.0, P_max=12))
    sched = schedule(dec, seq, L=64.0, A_max=12)
    fld = extend(jet, pou, sched)
    # region: full coverage and every contributing degree >= 2
    xs = np.concatenate([np.linspace(-1.0 - 1e-3, -1.0 + 1e-3, 101),
                         np.linspace(1.0 - 1e-3, 1.0 + 1e-3, 101)])
    xs = xs[np.abs(np.abs(xs) - 1.0) > 1e-12].reshape(-1, 1)
    good = []
    for x in xs:
        idx = dec.cubes_containing(x)
        if len(idx) and np.all(sched.degrees[idx] >= 2) \
                and pou.covered(x.reshape(1, -1))[0]:
            good.append(x)
    assert len(good) > 50
    good = np.asarray(good).reshape(-1, 1)
    vals = fld.value(good)
    exact = np.polynomial.polynomial.polyval(good[:, 0], coeffs)
    assert np.max(np.abs(vals - exact)) < 1e-12


def test_field_matches_jet_on_set(sin_field):
    for row, a in enumerate((-1.0, 1.0)):
        for alpha in ((0,), (1,), (2,)):
            got = sin_field.derivative_grid(np.array([[a]]), alpha)[0]
            want = sin_field.jet.values[row, sin_field.jet.rank(alpha)]
            assert got == want


def test_field_overflow_is_bound_overflow(pair_setup):
    # the Leibniz sums of d/dx overflow on a constant jet of 1e306, the
    # values themselves do not
    cs, dec, seq, pou = pair_setup
    jet = jet_from_preset(Poly([1e306]), cs, A_max=12)
    jet = jet.with_certificate(certify(jet, seq, rho=1.0, P_max=12))
    fld = extend(jet, pou, schedule(dec, seq, L=default_L(jet), A_max=jet.A_max))
    x = np.linspace(-3.0, 3.0, 401).reshape(-1, 1)
    assert np.isfinite(fld.value(x)).all()
    with pytest.raises(BoundOverflow, match="not all finite"):
        fld.derivative_grid(x, (1,))


def test_field_equals_taylor_inside_plateau(sin_field):
    dec = sin_field.pou.dec
    sched = sin_field.sched
    # pick a cube, a point deep in its plateau with no earlier overlap
    hits = 0
    for i in range(dec.n_cubes):
        x = dec.centers[i].reshape(1, -1)
        if sin_field.pou.phi(i, x)[0] == 1.0 and len(dec.cubes_containing(x[0])) == 1:
            v = sin_field.value(x)[0]
            t = reference_taylor_grid(sin_field.jet, int(dec.nearest_idx[i]),
                            int(sched.degrees[i]), (0,), x)[0]
            assert v == t
            hits += 1
    assert hits >= 1


def test_locality(pair_setup, sin_field):
    cs, dec, seq, pou = pair_setup
    x = np.array([[1.03]])
    before = sin_field.derivative_grid(x, (2,))[0]
    # rebuild with degrees permuted on cubes far from x
    degrees = sin_field.sched.degrees.copy()
    far = np.abs(dec.centers[:, 0] - 1.03) > 0.5
    degrees[far] = 0
    hacked = DegreeSchedule(dec=dec, degrees=degrees,
                            capped=sin_field.sched.capped, L=sin_field.sched.L,
                            mode="single", s_prime=sin_field.sched.s_prime)
    fld2 = ExtensionField(jet=sin_field.jet, pou=pou, sched=hacked)
    after = fld2.derivative_grid(x, (2,))[0]
    assert before == after


def test_extend_refuses_scheduled_degree_above_jet_order():
    # a schedule capped above the jet's stored order gives cubes a degree
    # the jet has no derivatives for: refused here, not an IndexError at
    # the first evaluation
    cs = CompactSet(np.array([[-1.0], [1.0]]), ((-3.0, 3.0),))
    dec = decompose(cs.box, cs, depth_cap=10)
    seq = gevrey(1.0)
    pou = build_pou(dec, seq, order_cap=2)
    jet = jet_from_preset(Sin(1.0), cs, A_max=1)
    jet = jet.with_certificate(certify(jet, seq, rho=1.0))
    sched = schedule(dec, seq, L=default_L(jet), A_max=2)
    assert np.count_nonzero(sched.degrees == 2) == 4
    with pytest.raises(OrderCapExceeded, match="scheduled degree 2 exceeds stored order 1"):
        extend(jet, pou, sched)
    fld = extend(jet, pou, schedule(dec, seq, L=default_L(jet), A_max=jet.A_max))
    assert fld.sched.degrees.max() == 1


def test_incompatible_geometry(pair_setup):
    cs, dec, seq, pou = pair_setup
    other = decompose(((-3.0, 3.0),), cs, depth_cap=6)
    jet = jet_from_preset(Sin(1.0), cs, A_max=8)
    jet = jet.with_certificate(certify(jet, seq, rho=1.0))
    sched = schedule(other, seq, L=64.0, A_max=8)
    with pytest.raises(IncompatibleGeometry):
        extend(jet, pou, sched)


# -- derivatives and residuals ------------------------------------------------------------

def test_leibniz_derivative_matches_finite_differences(sin_field):
    rng = np.random.default_rng(12)
    xs = rng.uniform(-2.5, 2.5, 60)
    xs = xs[np.min(np.abs(xs[:, None] - np.array([[-1.0, 1.0]])), axis=1) > 0.05]
    xs = xs.reshape(-1, 1)
    dec = sin_field.pou.dec
    for alpha in (1, 2):
        vals = sin_field.derivative_grid(xs, (alpha,))
        fd_vals = np.empty(len(xs))
        for k, x in enumerate(xs):
            idx = dec.cubes_containing(x)
            r_loc = (np.min(dec.sides[idx]) / 2.0 if len(idx) else 0.05)
            h = r_loc * sin_field.pou.canonical.radii[-1] * 0.02
            h = max(h, 1e-7)
            fd_vals[k] = (sin_field.derivative_grid(x[None, :] + h, (alpha - 1,))[0]
                          - sin_field.derivative_grid(x[None, :] - h, (alpha - 1,))[0]) / (2 * h)
        scale = np.max(np.abs(vals)) + 1.0
        assert np.max(np.abs(vals - fd_vals)) / scale < 1e-4


def test_residuals_decrease_toward_the_set(sin_field):
    ds = [2.0 ** -k for k in range(3, 9)]
    rep = verify(sin_field, gevrey(1.0), orders=[0, 1, 2],
                 approach_scales=ds, grid_points=200)
    by_alpha = {}
    for r in rep["residuals"]:
        by_alpha.setdefault(tuple(r["alpha"]), []).append((r["d"], r["residual"]))
    for alpha, rows in by_alpha.items():
        rows.sort(reverse=True)
        vals = [v for _, v in rows]
        drops = sum(1 for a, b in zip(vals, vals[1:]) if b <= a * 1.1)
        assert drops >= len(vals) - 2, (alpha, vals)
    assert rep["fit"] is not None
    for r in rep["residuals"]:
        if not r["capped"]:
            K, Cp = rep["fit"]["K"], rep["fit"]["C_prime"]
            from ultrajet.seqcore import log_h_assoc
            h = float(np.exp(log_h_assoc(sin_field.sched.s_prime,
                                         np.array([K * r["d"]]))[0]))
            assert r["residual"] <= Cp * (h + r["d"]) * (1.0 + 1e-9)


def test_growth_certificate_stability(sin_field):
    rep1 = verify(sin_field, gevrey(1.0), orders=[0, 1, 2],
                  approach_scales=[0.05], grid_points=400)
    rep2 = verify(sin_field, gevrey(1.0), orders=[0, 1, 2],
                  approach_scales=[0.05], grid_points=800)
    m1, m2 = rep1["growth"]["M1"], rep2["growth"]["M1"]
    assert abs(m1 - m2) / m1 < 0.05
    c1, c2 = rep1["growth"]["C"], rep2["growth"]["C"]
    assert abs(c1 - c2) / max(c1, 1e-300) < 0.05


def test_taylor_field_bounds(sin_field):
    rep = verify(sin_field, gevrey(1.0), orders=[0, 1],
                 approach_scales=[0.1, 0.02], grid_points=100)
    cert_c = sin_field.jet.certificate.C
    assert rep["taylor_bounds"]["field_bound_C"] <= cert_c * (1.0 + 1e-9)
    assert rep["taylor_bounds"]["increment_bound_C"] <= cert_c * (1.0 + 1e-9)


def test_matrix_mode_schedule_and_field(pair_setup):
    from ultrajet.conditions import resolve_chain
    from ultrajet.fncore import power, weight_matrix
    cs, dec, seq, pou = pair_setup
    mat = weight_matrix(power(0.5), K_max=128)
    cert = resolve_chain(mat, 1.0)
    jet = jet_from_preset(Sin(1.0), cs, A_max=12)
    jet = jet.with_certificate(certify(jet, mat.row(1.0), rho=1.0, P_max=12))
    sched = schedule(dec, (mat, cert), L=default_L(jet), A_max=12)
    assert sched.mode == "matrix"
    assert sched.s_prime.source is mat.row(cert.y2)
    fld = extend(jet, pou, sched)
    rep = verify(fld, mat.row(1.0), orders=[0, 1, 2],
                 approach_scales=[2.0 ** -k for k in range(3, 9)],
                 grid_points=150)
    assert fld.sched.mode == "matrix"
    assert rep["fit"] is not None
    by_alpha = {}
    for r in rep["residuals"]:
        by_alpha.setdefault(tuple(r["alpha"]), []).append((r["d"], r["residual"]))
    for alpha, rows in by_alpha.items():
        rows.sort(reverse=True)
        assert rows[-1][1] <= rows[0][1] + 1e-12


def test_approach_points_that_round_onto_the_set_are_dropped(sin_field):
    # 1 +- 1e-17 rounds to 1 and 1 +- 1e-13 is read as the set point: both
    # would give residual 0 and a vacuous fit
    for tiny in (1e-17, 1e-13):
        rep = verify(sin_field, gevrey(1.0), orders=[0, 1],
                     approach_scales=[tiny], grid_points=50)
        assert rep["residuals"] == []
        assert rep["fit"] is None
        rep = verify(sin_field, gevrey(1.0), orders=[0, 1],
                     approach_scales=[tiny, 0.125], grid_points=50)
        assert [r["d"] for r in rep["residuals"]] == [0.125, 0.125]
        assert all(r["n_points"] == 4 for r in rep["residuals"])


@pytest.mark.parametrize("x0", [30000.3, 3e6 + 0.3])
def test_approach_points_of_a_set_far_from_the_origin_are_kept(x0):
    # x0 +- d rounds to the ulp of x0, far more than 1e-12 for such x0
    scales = [0.1, 0.05, 0.03, 0.01]
    cs = CompactSet.from_points([[x0]])
    seq = gevrey(1.0)
    dec = decompose(cs.box, cs, depth_cap=10)
    jet = jet_from_preset(Sin(1.0), cs, A_max=8)
    jet = jet.with_certificate(certify(jet, seq, rho=1.0))
    fld = extend(jet, build_pou(dec, seq, order_cap=2),
                 schedule(dec, seq, L=default_L(jet), A_max=8))
    rep = verify(fld, seq, orders=[0, 1], approach_scales=scales, grid_points=50)
    assert [(r["d"], r["n_points"]) for r in rep["residuals"]] == [(d, 2) for d in scales] * 2
    assert rep["fit"] is not None


def test_approach_scale_on_the_set_fails_the_fit_through_the_cli(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["approach_scales"] = [1e-17]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 1
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [e["kind"] for e in rep["errors"]] == ["residual_fit"]
    assert rep["residual_tables"] == [[]]


def test_point_flags_mark_set_and_collar(sin_field):
    dec = sin_field.pou.dec
    assert dec.collar_radius > 0
    pts = np.array([[1.0], [1.0 + dec.collar_radius / 2.0], [2.5]])
    flags = oracle_point_flags(sin_field, pts)
    assert flags["on_set"].tolist() == [True, False, False]
    assert flags["collar"].tolist() == [False, True, False]
    # collar points evaluate through the sum (finite, no exception)
    v = sin_field.value(pts)
    assert np.all(np.isfinite(v))
    assert v[0] == math.sin(1.0)
