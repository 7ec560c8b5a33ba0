"""Closed-form solutions: boundary behavior, asymptotics, connection formula,
Wronskian, and ODE residuals against finite differences and the integrator."""

import warnings

import numpy as np
import pytest

from conftest import fd_first, fd_second, ode_residual
from halfscatter.errors import DomainError, IllConditionedError, InvalidCError, PoleError
from halfscatter.model import ModelParams
from halfscatter.oracle import integrate_decaying, integrate_regular
from halfscatter.solutions import (
    SpectralPoint,
    connection_coefficients,
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
    reg = integrate_regular(params, energy=-(zeta**2), x1=6.0, tol=1e-11)
    dec = integrate_decaying(params, pt, x_low=0.4)
    vals = []
    for x in (0.5, 1.0, 2.0, 4.0):
        ur, dur = reg(x)
        ud, dud = dec(x)
        vals.append(ur * dud - dur * ud)
    vals = np.array(vals)
    spread = np.max(np.abs(vals - vals.mean())) / abs(vals.mean())
    assert spread < 1e-8
    # normalizations: reg = cr * L, dec = cd * M
    cr = reg(2.0)[0] / eval_L(params, 2.0, pt)
    cd = dec(2.0)[0] / eval_M(params, 2.0, pt)
    w_closed = wronskian(params, pt)
    assert abs(vals.mean() - cr * cd * w_closed) / abs(vals.mean()) < 1e-7


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
