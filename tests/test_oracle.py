"""ODE integration engine: free-case exactness, convergence, scattering-phase
extraction, node counting, and the rebuilt Green function."""

import cmath

import numpy as np
import pytest

from halfscatter.errors import IllConditionedError
from halfscatter.model import ModelParams
from halfscatter.oracle import (
    count_bound_states_shooting,
    extract_sigma,
    greens_function_oracle,
    integrate_decaying,
    integrate_regular,
)
from halfscatter.scattering import sigma
from halfscatter.solutions import SpectralPoint, eval_L
from halfscatter.spectral import resolvent_kernel

FREE = ModelParams(0.5, 0.5)


def test_free_case_is_sine():
    k = 1.1
    sol = integrate_regular(FREE, energy=k * k, x0=1e-3, x1=10.0)
    xs = np.linspace(0.1, 10, 60)
    u, _ = sol(xs)
    ref = np.sin(k * xs) / k
    c = np.vdot(ref, u) / np.vdot(ref, ref)
    assert np.max(np.abs(u - c * ref)) / np.max(np.abs(u)) < 1e-8


def test_convergence_with_tolerance():
    # halving the tolerance must reduce the free-case error accordingly
    k = 1.0
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        sol = integrate_regular(FREE, energy=k * k, x0=1e-3, x1=10.0, tol=tol)
        xs = np.linspace(1, 10, 30)
        u, _ = sol(xs)
        ref = np.sin(k * xs) / k
        c = np.vdot(ref, u) / np.vdot(ref, ref)
        errs.append(np.max(np.abs(u - c * ref)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_matches_regular_closed_form():
    params = ModelParams(0.0, 3.0)
    zeta = 2 + 1j
    sol = integrate_regular(params, energy=-(zeta**2), x0=1e-5, x1=6.0, tol=1e-11)
    xs = np.linspace(0.1, 6, 40)
    u, _ = sol(xs)
    lv = eval_L(params, xs, SpectralPoint.interior(zeta))
    c = np.vdot(lv, u) / np.vdot(lv, lv)
    assert np.max(np.abs(u - c * lv) / np.abs(u)) < 1e-7


def test_integrated_wronskian_constant():
    params = ModelParams(1.0, 4.0)
    zeta = 1.2 + 0.8j
    pt = SpectralPoint.interior(zeta)
    reg = integrate_regular(params, energy=-(zeta**2), x0=1e-4, x1=8.0)
    dec = integrate_decaying(params, pt, x_low=0.3, x_far=30.0)
    ws = []
    for x in np.linspace(0.5, 7.5, 15):
        ur, dur = reg(x)
        ud, dud = dec(x)
        ws.append(ur * dud - dur * ud)
    ws = np.array(ws)
    assert np.max(np.abs(ws - ws.mean())) / abs(ws.mean()) < 1e-8


def test_extract_sigma_free():
    val = extract_sigma(FREE, 1.0)
    assert abs(val - 1.0) < 1e-8


def test_extract_sigma_vs_gamma_product():
    params = ModelParams(0.0, 3.0)
    s_ode = extract_sigma(params, 1.0)
    s_cf = complex(sigma(params, 1.0))
    assert abs(cmath.phase(s_ode / s_cf)) < 1e-6
    assert abs(abs(s_ode) - 1.0) < 1e-6  # flux conservation


def test_extract_sigma_ill_conditioned_window():
    # window far too short for the wavelength: plane-wave columns collinear
    with pytest.raises(IllConditionedError):
        extract_sigma(FREE, 1e-6, fit_window=(8.0, 8.02))


@pytest.mark.parametrize(
    "mu,nu,count",
    [(2.0, 0.0, 0), (0.0, 3.0, 1), (0.0, 5.0, 2), (0.0, 2.5, 1), (1.0, 4.0, 1)]
    # weakly bound levels, whose node lies beyond x_max
    + [(0.0, 1.01, 1), (0.0, 1.001, 1), (0.0, 1.0001, 1), (1.0, 4.01, 2), (0.0, 3.001, 2), (2.0, 3.02, 1)],
)
def test_node_counting(mu, nu, count):
    assert count_bound_states_shooting(ModelParams(mu, nu)) == count


def test_greens_free_case():
    g = greens_function_oracle(FREE, SpectralPoint.interior(1.0), 1.0, 2.0)
    assert abs(g - np.sinh(1.0) * np.exp(-2.0)) < 1e-9


def test_greens_matches_resolvent():
    params = ModelParams(1.0, 2.0)
    pt = SpectralPoint.interior(1.5 + 0.5j)
    g = greens_function_oracle(params, pt, 1.0, 2.0)
    r = resolvent_kernel(params, pt, 1.0, 2.0)
    assert abs(g - r) / abs(r) < 1e-6


def test_greens_symmetry():
    params = ModelParams(0.0, 2.5)
    pt = SpectralPoint.interior(1.1 + 0.3j)
    g1 = greens_function_oracle(params, pt, 0.7, 2.2)
    g2 = greens_function_oracle(params, pt, 2.2, 0.7)
    assert abs(g1 - g2) / abs(g1) < 1e-8


def test_every_closed_form_has_an_oracle_counterpart():
    # the full standard set: regular solution, Wronskian, scattering function,
    # resolvent kernel, and bound count each against their integration oracle
    from halfscatter.solutions import eval_M, wronskian
    from halfscatter.spectral import bound_states

    zeta = 1.3 + 0.4j
    for mu, nu in [(0, 0), (0, 3), (0, 2.5), (1, 1), (1, 4), (2, 0), (0.5, 0.5), (3, 0.5)]:
        p = ModelParams(mu, nu)
        pt = SpectralPoint.interior(zeta)
        sol = integrate_regular(p, energy=-(zeta**2), x0=1e-5, x1=6.0, tol=1e-11)
        xs = np.linspace(0.3, 6.0, 25)
        u, _ = sol(xs)
        lv = eval_L(p, xs, pt)
        const = np.vdot(lv, u) / np.vdot(lv, lv)
        assert np.max(np.abs(u - const * lv) / np.abs(u)) < 1e-7, (mu, nu)

        u1, du1 = sol(2.0)
        h = 1e-4
        m_at = eval_M(p, 2.0, pt)
        dm = (eval_M(p, 2.0 + h, pt) - eval_M(p, 2.0 - h, pt)) / (2 * h)
        w_num = (u1 * dm - du1 * m_at) / const
        assert abs(w_num - wronskian(p, pt)) / abs(w_num) < 1e-7, (mu, nu)

        s_ode = extract_sigma(p, 1.2)
        assert abs(cmath.phase(s_ode / complex(sigma(p, 1.2)))) < 1e-6, (mu, nu)

        g = greens_function_oracle(p, pt, 0.9, 1.8)
        r = resolvent_kernel(p, pt, 0.9, 1.8)
        assert abs(g - r) / abs(r) < 1e-6, (mu, nu)

        assert count_bound_states_shooting(p) == bound_states(p).count, (mu, nu)
