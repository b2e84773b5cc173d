import math

import numpy as np
import pytest

from ultrajet.jets import (
    CompactSet,
    Exp,
    Poly,
    Product1D,
    Runge,
    Sin,
    Sum1D,
    Tensor,
    Ultrajet,
    _certify_plan,
    _degree_plans,
    _norms,
    _taylor_plan,
    certify,
    certify_orders,
    jet_from_preset,
    multi_indices,
)
from ultrajet.seqcore import gevrey

from test_kernel_oracles import kernel_taylor_grid, oracle_certify


def fd_derivative(f, x, order, h=0.15, levels=5):
    """Richardson-extrapolated central difference of the given order."""
    def d(hh):
        ks = np.arange(-order, order + 1)
        # iterated central first differences
        vals = np.array([f(x + k * hh) for k in ks], dtype=float)
        for _ in range(order):
            vals = (vals[2:] - vals[:-2]) / (2.0 * hh)
        return vals[0]
    ds = [d(h / 2 ** i) for i in range(levels)]
    for lev in range(1, levels):
        fac = 4.0 ** lev
        ds = [(fac * ds[i + 1] - ds[i]) / (fac - 1.0) for i in range(len(ds) - 1)]
    return ds[0]


@pytest.fixture
def pair_1d():
    return CompactSet.from_points([[-1.0], [1.0]])


def test_multi_index_order():
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert multi_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_multi_index_order_3d():
    assert multi_indices(3, 1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for p in range(0, 7):
        multi = multi_indices(3, p)
        assert len(multi) == math.comb(p + 3, 3)
        assert multi == sorted(set(multi), key=lambda m: (sum(m), m))
        assert max(map(sum, multi)) == p


def test_compact_set_validation():
    with pytest.raises(ValueError):
        CompactSet.from_points([[0.0], [0.0]])
    cs = CompactSet.from_points([[0.0, 0.0], [1.0, 0.5]])
    assert cs.dim == 2
    assert cs.points[1].tolist() == [1.0, 0.5]
    assert CompactSet.from_points([[0.0, 0.0, 0.0]]).dim == 3
    with pytest.raises(ValueError):
        CompactSet(np.zeros((1, 3)), ((-1.0, 1.0),) * 2)


def test_from_points_box_is_a_cube_around_the_longest_axis():
    assert CompactSet.from_points([[0.0, 0.0], [1.0, 2.0]]).box == (
        (-2.5, 3.5), (-2.0, 4.0))
    assert CompactSet.from_points([[-1.0], [1.0]]).box == ((-3.0, 3.0),)


# -- presets ------------------------------------------------------------------

def test_exp_jet_at_origin():
    cs = CompactSet.from_points([[0.0]])
    jet = jet_from_preset(Exp(1.0), cs, A_max=8)
    assert np.allclose(jet.values[0], 1.0)


def test_sin_jet_second_derivative_zero():
    cs = CompactSet.from_points([[0.0]])
    jet = jet_from_preset(Sin(1.0, 0.0), cs, A_max=4)
    assert abs(jet.values[0, jet.rank((2,))]) < 1e-15


def test_runge_derivatives_match_finite_differences():
    cs = CompactSet.from_points([[1.0]])
    jet = jet_from_preset(Runge(1.0), cs, A_max=6)
    f = lambda x: 1.0 / (1.0 + x * x)
    for order in range(0, 7):
        fd = fd_derivative(f, 1.0, order)
        exact = jet.values[0, jet.rank((order,))]
        assert math.isclose(exact, fd, rel_tol=1e-6, abs_tol=1e-6), order


def test_product_and_sum_presets():
    cs = CompactSet.from_points([[0.5]])
    prod = Product1D(Sin(2.0, 0.3), Exp(0.7))
    jet = jet_from_preset(prod, cs, A_max=5)
    f = lambda x: math.sin(2.0 * x + 0.3) * math.exp(0.7 * x)
    for order in range(0, 5):
        fd = fd_derivative(f, 0.5, order)
        assert math.isclose(jet.values[0, jet.rank((order,))], fd, rel_tol=1e-6, abs_tol=1e-6)
    tot = Sum1D(Sin(1.0), Poly([1.0, 0.0, 3.0]))
    jet2 = jet_from_preset(tot, cs, A_max=3)
    assert math.isclose(jet2.values[0, jet2.rank((2,))], -math.sin(0.5) + 6.0, rel_tol=1e-12)


def test_tensor_preset_2d():
    cs = CompactSet.from_points([[0.3, -0.2]])
    jet = jet_from_preset(Tensor(Exp(1.0), Sin(1.0)), cs, A_max=4)
    val = jet.values[0, jet.rank((1, 2))]
    exact = math.exp(0.3) * (-math.sin(-0.2))
    assert math.isclose(val, exact, rel_tol=1e-12)


def test_preset_dimension_must_match_set():
    with pytest.raises(ValueError):
        jet_from_preset(Tensor(Exp(1.0), Sin(1.0)), CompactSet.from_points([[0.0]]))
    with pytest.raises(ValueError):
        jet_from_preset(Sin(1.0), CompactSet.from_points([[0.0, 0.0]]))


# -- Taylor fields ---------------------------------------------------------------

def test_taylor_exp_degree_one():
    cs = CompactSet.from_points([[0.0]])
    jet = jet_from_preset(Exp(1.0), cs, A_max=4)
    for x in (-0.5, 0.2, 2.0):
        assert math.isclose(kernel_taylor_grid(jet, 0, 1, (0,), [x])[0], 1.0 + x, rel_tol=1e-15)


def test_taylor_top_order_constant(pair_1d):
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=6)
    for x in (-2.0, 0.0, 3.0):
        v = kernel_taylor_grid(jet, 0, 4, (4,), [x])[0]
        assert math.isclose(v, jet.values[0, jet.rank((4,))], rel_tol=1e-15)


def test_taylor_reproduces_polynomial(pair_1d):
    rng = np.random.default_rng(3)
    coeffs = [2.0, -1.0, 0.5, 0.25]
    jet = jet_from_preset(Poly(coeffs), pair_1d, A_max=6)
    for x in rng.uniform(-3.0, 3.0, size=10):
        exact = float(np.polynomial.polynomial.polyval(x, coeffs))
        for p in (3, 4, 6):
            got = kernel_taylor_grid(jet, 1, p, (0,), [x])[0]
            assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-12)


# -- remainders -------------------------------------------------------------------

def whitney_remainder(jet, a, p, alpha, b):
    """F^alpha at the set point of row b minus the degree-(p-|alpha|) Taylor
    field of F^alpha from the set point of row a."""
    taylor = kernel_taylor_grid(jet, a, p, alpha, jet.cset.points[b])[0]
    return jet.values[b, jet.rank(alpha)] - taylor


def test_remainder_zero_for_low_degree_poly(pair_1d):
    jet = jet_from_preset(Poly([1.0, 2.0, -0.5]), pair_1d, A_max=6)
    for a in (0, 1):
        for b in (0, 1):
            assert abs(whitney_remainder(jet, a, 3, (0,), b)) < 1e-12


def test_remainder_vanishes_at_base_point(pair_1d):
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=8)
    for p in range(0, 8):
        assert whitney_remainder(jet, 1, p, (0,), 1) == 0.0


def test_remainder_matches_lagrange_band(pair_1d):
    # |R| = |f^{(p+1)}(xi)| 2^{p+1}/(p+1)! for some xi in (-1, 1)
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=10)
    for p in range(3, 9):
        r = abs(whitney_remainder(jet, 0, p, (0,), 1))
        scale = 2.0 ** (p + 1) / math.factorial(p + 1)
        xs = np.linspace(-1.0, 1.0, 2001)
        dvals = np.abs(np.sin(xs + (p + 1) * np.pi / 2.0))
        assert r <= scale * dvals.max() * (1.0 + 1e-12)
        assert r >= scale * dvals.min() / 2.0


def test_taylor_grid_matches_scalar(pair_1d):
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=6)
    xs = np.linspace(-2.0, 2.0, 7).reshape(-1, 1)
    grid = kernel_taylor_grid(jet, 0, 5, (1,), xs)
    for x, g in zip(xs, grid):
        assert math.isclose(g, kernel_taylor_grid(jet, 0, 5, (1,), x)[0],
                            rel_tol=1e-14)


# -- certificates ------------------------------------------------------------------

def test_certify_zero_jet(pair_1d):
    jet = Ultrajet(pair_1d, 6, np.zeros((2, 7)))
    cert = certify(jet, gevrey(1.0), rho=1.0)
    assert cert.C == 0.0


def test_certify_exp_on_singleton():
    cs = CompactSet.from_points([[0.0]])
    jet = jet_from_preset(Exp(1.0), cs, A_max=10)
    cert = certify(jet, gevrey(1.0), rho=1.0)
    assert math.isclose(cert.C, 1.0, rel_tol=1e-12)
    assert cert.binding[0] == "value"
    assert cert.binding[2] == (0,)


def test_certify_sin_pair_finite(pair_1d):
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=12)
    cert = certify(jet, gevrey(1.0), rho=1.0, P_max=12)
    assert np.isfinite(cert.C) and cert.C > 0


def test_negative_remainder_degree_is_rejected(pair_1d):
    # a negative P_max once skipped every remainder and certified the values alone
    with pytest.raises(ValueError, match="P_max -3"):
        certify_orders(gevrey(1.0), 4, -3)
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=4)
    with pytest.raises(ValueError, match="P_max -3"):
        certify(jet, gevrey(1.0), 1.0, P_max=-3)
    assert certify_orders(gevrey(1.0), 4, 0) == (0, 4)


def test_certify_points_closer_than_1e_154_keeps_a_finite_constant():
    # |b - a|^2 = 4e-600 underflows to 0, so |b - a|^q was 0 and every
    # remainder ratio inf; the norm of b - a scaled by its largest coordinate
    # keeps 2e-300, and the constant is the value bound, as per term (where
    # |b - a|^q underflows, a remainder of 0 over it is NaN, which never counts)
    cs = CompactSet.from_points([[-1e-300], [1e-300]])
    jet = jet_from_preset(Sin(1.0), cs, A_max=12)
    cert = certify(jet, gevrey(1.0), rho=1.0, P_max=12)
    assert (cert.C, cert.binding) == (1.0, ("value", 0, (1,)))
    with np.errstate(invalid="ignore"):
        assert (cert.C, cert.binding) == oracle_certify(jet, gevrey(1.0), 1.0, 12)


def test_norms_scale_only_vectors_whose_square_is_subnormal():
    v = np.array([[3e-300, 4e-300], [3e-160, -4e-160], [1e-154, 1e-154],
                  [0.0, 0.0], [3.0, 4.0], [2e-154, 2e-154], [np.nan, 0.0], [1.0, 2.0]])
    got = _norms(v)
    assert got[:3].tolist() == [5e-300, 5e-160, 1.4142135623730951e-154]
    for row, norm in zip(v[3:], got[3:]):  # any other row: np.linalg.norm's bits
        assert np.array_equal(norm, np.linalg.norm(row), equal_nan=True)
    assert np.array_equal(_norms(v.reshape(4, 2, 2)), got.reshape(4, 2), equal_nan=True)


def test_certificates_monotone_in_rho(pair_1d):
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=12)
    seq = gevrey(1.0)
    cs = [certify(jet, seq, rho=r, P_max=10).C for r in (1.0, 2.0, 4.0)]
    assert cs[0] >= cs[1] >= cs[2]


def test_certificate_forms_consistent(pair_1d):
    # the factored scaling is smaller by a binomial factor, so its constant
    # can only be larger
    jet = jet_from_preset(Sin(1.0), pair_1d, A_max=10)
    seq = gevrey(1.0)
    c_pw = certify(jet, seq, rho=1.0, P_max=10)
    assert (c_pw.C, c_pw.binding) == oracle_certify(jet, seq, 1.0, 10)
    c_fa, _ = oracle_certify(jet, seq, 1.0, 10, "factored")
    assert c_fa >= c_pw.C - 1e-12
    # report schema 1 keeps the keys of the two-form certificate
    assert {k: c_pw.to_dict()[k] for k in ("ok", "form")} == {"ok": True, "form": "pointwise"}


def test_taylor_reproduces_tensor_of_cubics_3d():
    # the product of three cubics has total degree 9, so its degree-9 Taylor
    # field from any point is the product itself, with every derivative
    coeffs = ([1.0, -2.0, 0.5, 0.25], [0.0, 1.0, 0.0, -1.0], [2.0, 0.0, 1.0, 0.5])
    cs = CompactSet.from_points([[0.2, -0.4, 0.1], [1.0, 0.5, -0.3]])
    jet = jet_from_preset(Tensor(*map(Poly, coeffs)), cs, A_max=9)
    xs = np.random.default_rng(5).uniform(-2.0, 2.0, size=(20, 3))
    for alpha in ((0, 0, 0), (1, 0, 2), (3, 3, 0)):
        exact = np.ones(len(xs))
        for d, c in enumerate(coeffs):
            c = np.polynomial.polynomial.polyder(c, alpha[d])
            exact *= np.polynomial.polynomial.polyval(xs[:, d], c)
        for a_index in (0, 1):
            got = kernel_taylor_grid(jet, a_index, 9, alpha, xs)
            assert np.allclose(got, exact, rtol=1e-12, atol=1e-12)


def test_certify_3d_tensor():
    cs = CompactSet.from_points([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    jet = jet_from_preset(Tensor(Sin(1.0), Exp(0.5), Runge(1.0)), cs, A_max=5)
    cert = certify(jet, gevrey(1.0), rho=2.0)
    assert np.isfinite(cert.C) and cert.C > 0


def test_certify_2d_tensor():
    cs = CompactSet.from_points([[0.0, 0.0], [1.0, -1.0]])
    jet = jet_from_preset(Tensor(Sin(1.0), Exp(0.5)), cs, A_max=6)
    cert = certify(jet, gevrey(1.0), rho=2.0, P_max=6)
    assert np.isfinite(cert.C)


def test_cached_plans_are_read_only():
    """Every caller shares a cached plan, so a write into one raises."""
    ranks, exponents, inv_fact, order = _taylor_plan(2, ((0, 1), (1, 0)), 2)
    p_of, alpha_of, _, q_of, fact = _certify_plan(2, 3)
    masks = [rows for _, rows, _, _ in _degree_plans(1, ((0,), (1,)), (0, 1))]
    for plan in (ranks, *exponents, inv_fact, order, p_of, alpha_of, q_of, fact, *masks):
        with pytest.raises(ValueError):
            plan[(0,) * plan.ndim] = 1
