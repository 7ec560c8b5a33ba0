"""Closed-form solutions: boundary behavior, asymptotics, connection formula,
Wronskian, and ODE residuals against finite differences and the integrator."""

import warnings

import numpy as np
import pytest

from conftest import fd_first, fd_second, mp_regular, ode_residual
from halfscatter.errors import DomainError, IllConditionedError, InvalidCError, PoleError
from halfscatter.model import ModelParams
from halfscatter.oracle import integrate_decaying, integrate_regular
from halfscatter.solutions import (
    SpectralPoint,
    connection_coefficients,
    eval_derivative,
    eval_L,
    eval_M,
    eval_N,
    wronskian,
)
from halfscatter.specfun import gauss_2f1

FREE = ModelParams(0.5, 0.5)
GENERIC = ModelParams(1.0, 2.0)


def test_spectral_point_validation():
    with pytest.raises(Exception):
        SpectralPoint.interior(-1.0 + 2j)
    with pytest.raises(Exception):
        SpectralPoint.boundary(0.0, +1)
    pt = SpectralPoint.boundary(2.0, "+")
    assert pt.zeta == -2j and pt.side == 1
    assert SpectralPoint.boundary(2.0, "-").zeta == 2j


@pytest.mark.parametrize("side", ["x", 0, 2.0])
def test_bad_side_raises_domain_error(side):
    with pytest.raises(DomainError):
        SpectralPoint.parse_side(side)
    with pytest.raises(DomainError):
        SpectralPoint.boundary(1.0, side)


def test_solution_out_of_double_range_raises():
    # (tanh 20)^(1/2) (cosh 20)^(50+10i) F overflows, and |M| is about 4e394 at
    # (50, 3), x = 1e-8: a typed error, with no RuntimeWarning
    cases = [
        (eval_L, ModelParams(0, 3), 20.0, 50 + 10j),
        (eval_M, ModelParams(50, 3), 1e-8, 1.5 + 0.5j),
    ]
    for evaluate, p, x, zeta in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError):
                evaluate(p, x, SpectralPoint.interior(zeta))


def test_free_boundary_solution_is_sine():
    k = 1.3
    pt = SpectralPoint.boundary(k, +1)
    x = np.linspace(0.05, 12, 120)
    L = eval_L(FREE, x, pt)
    assert np.max(np.abs(L - np.sin(k * x) / k)) < 1e-12
    # regular data: u ~ x near the origin
    assert abs(eval_L(FREE, 1e-4, pt) / 1e-4 - 1) < 1e-8


def test_regular_solution_leading_power(standard_params):
    pt = SpectralPoint.interior(1.2 + 0.7j)
    x = 1e-4
    lead = x ** (0.5 + standard_params.mu)
    assert abs(eval_L(standard_params, x, pt) / lead - 1) < 1e-6


@pytest.mark.parametrize("which", ["L", "M", "N"])
@pytest.mark.parametrize("zeta", [1.0, 2 + 1j, "boundary"])
def test_ode_residual(which, zeta):
    evaluator = {"L": eval_L, "M": eval_M, "N": eval_N}[which]
    if zeta == "boundary":
        pt = SpectralPoint.boundary(1.3, +1)
    elif which == "N" and zeta == 1.0:
        # 1 - zeta is a gamma pole for N; perturb as documented
        pt = SpectralPoint.interior(1.0 + 1e-8)
    else:
        pt = SpectralPoint.interior(zeta)
    z2 = pt.zeta**2
    for params in (FREE, GENERIC, ModelParams(0.0, 3.0)):
        fn = lambda t: evaluator(params, t, pt)
        for x in (0.1, 0.5, 1.5, 4.0, 8.0):
            res = ode_residual(params, fn, x, pt.zeta)
            assert res <= 1e-7 * (abs(z2) + 1) * max(abs(fn(x)), 1e-12), (params, x)


def test_M_exponential_normalization(standard_params):
    for zeta in (0.8, 2 + 1j):
        pt = SpectralPoint.interior(zeta)
        ref = 2.0**pt.zeta * np.exp(-pt.zeta * 10.0)
        val = eval_M(standard_params, 10.0, pt)
        assert abs(val - ref) / abs(ref) < 1e-6


def test_N_exponential_normalization(standard_params):
    for zeta in (0.8, 2 + 1j):
        pt = SpectralPoint.interior(zeta)
        ref = 2.0**-pt.zeta * np.exp(pt.zeta * 10.0)
        val = eval_N(standard_params, 10.0, pt)
        assert abs(val - ref) / abs(ref) < 1e-6


def test_free_M_is_exact_exponential():
    # unique decaying solution of u'' = zeta^2 u: the series collapses exactly
    for zeta in (0.5, 1.7, 2.4):
        pt = SpectralPoint.interior(zeta)
        x = np.linspace(0.2, 8, 40)
        val = eval_M(FREE, x, pt)
        ref = 2.0**zeta * np.exp(-zeta * x)
        assert np.max(np.abs(val - ref) / ref) < 1e-12


def test_N_invalid_c_at_integer_zeta():
    with pytest.raises(InvalidCError):
        eval_N(GENERIC, 1.0, SpectralPoint.interior(1.0))


def test_boundary_relations(standard_params):
    k = 0.9
    plus = SpectralPoint.boundary(k, +1)
    minus = SpectralPoint.boundary(k, -1)
    for x in (0.3, 1.0, 4.0):
        m_p = eval_M(standard_params, x, plus)
        m_m = eval_M(standard_params, x, minus)
        assert abs(m_p - np.conj(m_m)) < 1e-12 * abs(m_p)
        # M^{+/-} coincides with N^{-/+}
        n_m = eval_N(standard_params, x, minus)
        assert abs(m_p - n_m) < 1e-12 * abs(m_p)
        # boundary regular solution is real
        l_p = eval_L(standard_params, x, plus)
        assert abs(l_p.imag) < 1e-12 * max(abs(l_p), 1e-30)


def test_boundary_wronskian_conjugation(standard_params):
    for k in (0.4, 1.1, 3.0):
        wp = wronskian(standard_params, SpectralPoint.boundary(k, +1))
        wm = wronskian(standard_params, SpectralPoint.boundary(k, -1))
        assert abs(wp - np.conj(wm)) < 1e-12 * abs(wp)
        assert abs(wp) > 1e-8


def test_wronskian_free_value():
    assert abs(wronskian(FREE, SpectralPoint.interior(1.0)) - (-2.0)) < 1e-14


def test_wronskian_zero_at_bound_state():
    assert wronskian(ModelParams(0.0, 3.0), SpectralPoint.interior(2.0)) == 0


def test_wronskian_matches_integrated_solutions():
    # numerical Wronskian of two independently integrated solutions, rescaled
    # by the fitted normalizations, against the gamma closed form
    params = ModelParams(1.0, 2.0)
    zeta = 1.5 + 0.5j
    pt = SpectralPoint.interior(zeta)
    xs = np.array([0.5, 1.0, 2.0, 4.0])
    ur, dur = integrate_regular(params, -(zeta**2), xs, tol=1e-11)
    ud, dud = integrate_decaying(params, pt, xs)
    vals = ur * dud - dur * ud
    spread = np.max(np.abs(vals - vals.mean())) / abs(vals.mean())
    assert spread < 1e-8
    # normalizations: reg = cr * L, dec = cd * M
    cr = ur[2] / eval_L(params, 2.0, pt)
    cd = ud[2] / eval_M(params, 2.0, pt)
    w_closed = wronskian(params, pt)
    assert abs(vals.mean() - cr * cd * w_closed) / abs(vals.mean()) < 1e-7


def _mp_solution(params, zeta, which, x):
    """L, M or N at x and its derivative, from mpmath's 2F1 at 40 digits (skips without mpmath)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        m, a, b, z = mp.mpf(params.mu), mp.mpf(params.alpha), mp.mpf(params.beta), mp.mpc(zeta)
        s = 1 if which == "M" else -1
        c = {"L": 1 + m, "M": 1 + z, "N": 1 - z}[which]
        w = (lambda t: mp.tanh(t) ** 2) if which == "L" else (lambda t: mp.sech(t) ** 2)

        def f(t):
            return mp.tanh(t) ** (m + 0.5) * mp.cosh(t) ** (-s * z) * mp.hyp2f1(a + s * z / 2, b + s * z / 2, c, w(t))

        return complex(f(mp.mpf(x))), complex(mp.diff(f, mp.mpf(x)))


@pytest.mark.parametrize("mu, nu, zeta", [(1.10, 1.03, 2.08 + 0.46j), (0.02, 2.09, 1.50 + 0.53j), (1.0, 2.1, 1.6 + 0.5j)])
def test_derivative_against_mpmath(mu, nu, zeta):
    # a central difference of eval_M with h = 1e-5 was off by 4.7e-11 to 8.0e-11 at x = 2
    p, pt = ModelParams(mu, nu), SpectralPoint.interior(zeta)
    for which in "LMN":
        for x in (0.3, 2.0, 7.0):
            ref = _mp_solution(p, zeta, which, x)[1]
            assert abs(eval_derivative(p, x, pt, which) - ref) < 1e-13 * abs(ref), (which, x)
    ref = _mp_solution(p, zeta, "M", 2.0)[1]
    assert abs(eval_derivative(p, 2.0, pt, "M") - ref) < 1e-15 * abs(ref)


@pytest.mark.parametrize("mu, nu, zeta", [(0.0, 5.0, 4.0), (0.0, 5.0, 2.0), (1.0, 6.0, 1.0), (0.5, 7.5, 2.0)])
def test_derivative_at_a_bound_state_against_mpmath(mu, nu, zeta):
    # beta + zeta/2 = -n with n = 0, 1, 2 and 2: M' differentiates the Jacobi polynomial
    p, pt = ModelParams(mu, nu), SpectralPoint.interior(zeta)
    for x in (0.01, 0.5, 2.0):
        ref = _mp_solution(p, zeta, "M", x)[1]
        assert abs(eval_derivative(p, x, pt, "M") - ref) < 1e-13 * abs(ref), x


def test_derivative_on_a_boundary_grid_against_mpmath():
    # measured against the solution's own size too: at k = 0.7, x = 1.5, near a maximum of L,
    # L' is 0.016 and its two terms cancel; the error there, 2.9e-15, is 4e-15 of |L|
    p, ks, xs = GENERIC, np.array([0.7, 1.9]), np.array([0.4, 1.5, 3.0])
    for which in "LMN":
        grid = eval_derivative(p, xs, SpectralPoint.boundary(ks[:, None], -1), which)
        assert grid.shape == (2, 3)
        for i, k in enumerate(ks):
            for j, x in enumerate(xs):
                value, ref = _mp_solution(p, 1j * k, which, x)  # side -1: zeta = ik
                assert abs(grid[i, j] - ref) < 1e-13 * max(abs(ref), abs(value)), (which, k, x)


@pytest.mark.parametrize("mu, nu, k, z_low", [(0, 3, 50, 0.2), (0.6, 2.1, 50, 0.2), (1, 1, 50, 0.2), (0, 3, 100, 0.55)])
def test_boundary_L_past_its_turning_point_against_mpmath(mu, nu, k, z_low):
    # tanh^2 x in [z_low, 0.6], where the raw series' terms grow like e^(k tanh x) before they
    # cancel: the connection formula serves these points.  The raw series was off by up to 5.5,
    # 38 and 120 times |L| at k = 50, and 2.3e21 times at k = 100.  At k = 100 the points below
    # z = 0.45 are left to the Taylor walk (ROADMAP item 4)
    p, pt = ModelParams(mu, nu), SpectralPoint.boundary(k, +1)
    x = np.arctanh(np.sqrt(np.linspace(z_low, 0.6, 9)))
    ref = mp_regular(p, pt.zeta, x)
    assert np.all(np.abs(eval_L(p, x, pt) - ref) <= 1e-10 * np.abs(ref))


@pytest.mark.parametrize("which", ["l", "W", None])
def test_derivative_of_an_unknown_solution_raises(which):
    with pytest.raises(DomainError):
        eval_derivative(GENERIC, 1.0, SpectralPoint.interior(1.5), which)


def test_connection_formula_pointwise(standard_params):
    for pt in (SpectralPoint.interior(1.3 + 0.6j), SpectralPoint.boundary(0.8, +1)):
        cc = connection_coefficients(standard_params, pt)
        for x in (0.3, 1.0, 2.5, 6.0):
            lhs = eval_L(standard_params, x, pt)
            rhs = cc.c_M * eval_M(standard_params, x, pt) + cc.c_N * eval_N(
                standard_params, x, pt
            )
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_connection_wronskian_identity():
    pt = SpectralPoint.interior(0.9 + 1.4j)
    cc = connection_coefficients(GENERIC, pt)
    assert abs(cc.c_N * (-2 * pt.zeta) - wronskian(GENERIC, pt)) < 1e-12


def test_connection_pole_and_perturbation():
    with pytest.raises(PoleError):
        connection_coefficients(FREE, SpectralPoint.interior(1.0))
    cc = connection_coefficients(FREE, SpectralPoint.interior(1.0 + 1e-6))
    assert np.isfinite(cc.c_M) and np.isfinite(cc.c_N)


def test_hypergeometric_equation_residual():
    # the series solution must satisfy z(1-z)v'' + (c-(a+b+1)z)v' - ab v = 0,
    # which is what turns the radial equation into closed forms
    a, b, c = 1.25 - 0.6j, 0.25 - 0.6j, 2.0
    v = lambda z: gauss_2f1(a, b, c, z)
    for z in (0.1, 0.3, 0.5):
        vpp = fd_second(v, z, h=3e-3)
        vp = fd_first(v, z, h=3e-3)
        resid = z * (1 - z) * vpp + (c - (a + b + 1) * z) * vp - a * b * v(z)
        assert abs(resid) < 1e-8 * (abs(a * b) + 1) * max(abs(v(z)), 1.0)
