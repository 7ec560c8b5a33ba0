"""ODE integration engine: free-case exactness, convergence, scattering-phase
extraction, node counting, and the rebuilt Green function."""

import cmath

import numpy as np
import pytest

import halfscatter.oracle as oracle_mod
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
from halfscatter.spectral import bound_states, resolvent_kernel

FREE = ModelParams(0.5, 0.5)


def test_free_case_is_sine():
    k = 1.1
    sol = integrate_regular(FREE, energy=k * k, x1=10.0)
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
        sol = integrate_regular(FREE, energy=k * k, x1=10.0, tol=tol)
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
    sol = integrate_regular(params, energy=-(zeta**2), x1=6.0, tol=1e-11)
    xs = np.linspace(0.1, 6, 40)
    u, _ = sol(xs)
    lv = eval_L(params, xs, SpectralPoint.interior(zeta))
    c = np.vdot(lv, u) / np.vdot(lv, lv)
    assert np.max(np.abs(u - c * lv) / np.abs(u)) < 1e-7


def test_integrated_wronskian_constant():
    params = ModelParams(1.0, 4.0)
    zeta = 1.2 + 0.8j
    pt = SpectralPoint.interior(zeta)
    reg = integrate_regular(params, energy=-(zeta**2), x1=8.0)
    dec = integrate_decaying(params, pt, x_low=0.3)
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


@pytest.mark.parametrize("mu,nu", [(5.0, 9.5), (0.3, 12.7)])
def test_extract_sigma_fits_the_e_minus_2x_correction(mu, nu):
    # a plane-wave-only fit on (8, 12) is off by 1.6e-6 and 2.8e-6 at these pairs
    params = ModelParams(mu, nu)
    assert abs(extract_sigma(params, 1.0) - complex(sigma(params, 1.0))) < 1e-7


def test_extract_sigma_ill_conditioned_window():
    # the window (8, 12) is far too short for the wavelength at k = 1e-7: the plane-wave
    # columns are nearly collinear, condition number 3.15e8 (1e-6 gives 3.15e7)
    with pytest.raises(IllConditionedError):
        extract_sigma(FREE, 1e-7)


@pytest.mark.parametrize(
    "mu,nu,count",
    [(2.0, 0.0, 0), (0.0, 3.0, 1), (0.0, 5.0, 2), (0.0, 2.5, 1), (1.0, 4.0, 1)]
    # weakly bound levels, whose node lies beyond x_max
    + [(0.0, 1.01, 1), (0.0, 1.001, 1), (0.0, 1.0001, 1), (1.0, 4.01, 2), (0.0, 3.001, 2), (2.0, 3.02, 1)],
)
def test_node_counting(mu, nu, count):
    assert count_bound_states_shooting(ModelParams(mu, nu)) == count


def test_node_counting_on_a_wide_grid():
    # an 8th-order step is long: it must not step over two nodes of the shooting solution
    grid = [(mu, nu) for mu in range(0, 51, 10) for nu in range(0, 51, 10)]
    rng = np.random.default_rng(6)
    for mu, nu in grid + [tuple(pair) for pair in rng.uniform(0.0, 50.0, (8, 2))]:
        p = ModelParams(float(mu), float(nu))
        assert count_bound_states_shooting(p) == bound_states(p).count, (mu, nu)


def test_greens_free_case():
    g = greens_function_oracle(FREE, SpectralPoint.interior(1.0), 1.0, 2.0)
    assert abs(g - np.sinh(1.0) * np.exp(-2.0)) < 1e-9


def test_greens_matches_resolvent():
    params = ModelParams(1.0, 2.0)
    pt = SpectralPoint.interior(1.5 + 0.5j)
    g = greens_function_oracle(params, pt, 1.0, 2.0)
    r = resolvent_kernel(params, pt, 1.0, 2.0)
    assert abs(g - r) / abs(r) < 1e-6


def test_greens_matches_resolvent_at_large_zeta():
    params = ModelParams(1.0, 2.0)
    pt = SpectralPoint.interior(20 + 1j)
    g = greens_function_oracle(params, pt, 1.0, 2.0)
    r = resolvent_kernel(params, pt, 1.0, 2.0)
    assert abs(g - r) / abs(r) < 1e-6


@pytest.mark.parametrize("zeta", [25 + 1j, 40.0])
def test_greens_out_of_double_range_raises(zeta):
    # the decaying solution grows by e^(Re zeta (x_far - x)) on the way in
    with pytest.raises(IllConditionedError):
        greens_function_oracle(ModelParams(1.0, 2.0), SpectralPoint.interior(zeta), 1.0, 2.0)


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
        sol = integrate_regular(p, energy=-(zeta**2), x1=6.0, tol=1e-11)
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


def test_every_solve_goes_through_the_module_solve_ivp(monkeypatch):
    # the benchmark's tracer counts solves and rhs calls by wrapping oracle.solve_ivp
    calls = []
    solve = oracle_mod.solve_ivp

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append(result.nfev)
        return result

    monkeypatch.setattr(oracle_mod, "solve_ivp", counting)
    integrate_regular(FREE, energy=1.0, x1=5.0)
    assert len(calls) == 1
    assert count_bound_states_shooting(ModelParams(0.0, 3.0)) == 1
    assert len(calls) == 2 and min(calls) > 0
