"""ODE integration engine: free-case exactness, convergence, scattering-phase
extraction, node counting, and the rebuilt Green function."""

import cmath
import warnings

import numpy as np
import pytest

import halfscatter.oracle as oracle_mod
from conftest import mp_regular, mp_resolvent
from halfscatter.cli import main
from halfscatter.errors import DomainError, HalfScatterError, IllConditionedError
from halfscatter.model import ModelParams, potential
from halfscatter.oracle import (
    count_bound_states_shooting,
    extract_sigma,
    greens_function_oracle,
    integrate_decaying,
    integrate_regular,
)
from halfscatter.scattering import sigma
from halfscatter.solutions import SpectralPoint, eval_derivative, eval_L, eval_M
from halfscatter.spectral import bound_states, resolvent_kernel

FREE = ModelParams(0.5, 0.5)


def test_free_case_is_sine():
    k = 1.1
    xs = np.linspace(0.1, 10, 60)
    u, _ = integrate_regular(FREE, k * k, xs)
    ref = np.sin(k * xs) / k
    c = np.vdot(ref, u) / np.vdot(ref, ref)
    assert np.max(np.abs(u - c * ref)) / np.max(np.abs(u)) < 1e-8


def test_convergence_with_tolerance():
    # halving the tolerance must reduce the free-case error accordingly
    k = 1.0
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        xs = np.linspace(1, 10, 30)
        u, _ = integrate_regular(FREE, k * k, xs, tol=tol)
        ref = np.sin(k * xs) / k
        c = np.vdot(ref, u) / np.vdot(ref, ref)
        errs.append(np.max(np.abs(u - c * ref)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_matches_regular_closed_form():
    params = ModelParams(0.0, 3.0)
    zeta = 2 + 1j
    xs = np.linspace(0.1, 6, 40)
    u, _ = integrate_regular(params, -(zeta**2), xs, tol=1e-11)
    lv = eval_L(params, xs, SpectralPoint.interior(zeta))
    c = np.vdot(lv, u) / np.vdot(lv, lv)
    assert np.max(np.abs(u - c * lv) / np.abs(u)) < 1e-7


def test_integrated_wronskian_constant():
    params = ModelParams(1.0, 4.0)
    zeta = 1.2 + 0.8j
    pt = SpectralPoint.interior(zeta)
    xs = np.linspace(0.5, 7.5, 15)
    ur, dur = integrate_regular(params, -(zeta**2), xs)
    ud, dud = integrate_decaying(params, pt, xs)
    ws = ur * dud - dur * ud
    assert np.max(np.abs(ws - ws.mean())) / abs(ws.mean()) < 1e-8


@pytest.mark.parametrize(
    "which, xs", [("regular", [2.0, 4.0, 8.0]), ("decaying", [1.0, 0.5, 15.0])], ids=["regular", "decaying"]
)
def test_points_beyond_a_fixed_span_match_the_closed_form(which, xs):
    # a dense evaluator solved to x = 2 (regular) or inward to x = 1 (decaying) extrapolated
    # with no error: off by 5.4 % and 103 % at x = 4 and 8, and by 9e-4 and 179x at x = 0.5 and 15
    p, pt = ModelParams(1.0, 2.0), SpectralPoint.interior(1.5 + 0.5j)
    xs = np.array(xs)
    if which == "regular":
        ratio = integrate_regular(p, -(pt.zeta**2), xs)[0] / eval_L(p, xs, pt)
    else:
        ratio = integrate_decaying(p, pt, xs)[0] / eval_M(p, xs, pt)
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


def test_points_come_in_any_order_and_shape():
    # each value is the one the sorted, distinct points give, in the shape of xs
    p, pt = ModelParams(1.0, 2.0), SpectralPoint.interior(1.5 + 0.5j)
    xs = np.array([[3.0, 0.5], [3.0, 1.25]])
    solves = [lambda x: integrate_regular(p, -(pt.zeta**2), x), lambda x: integrate_decaying(p, pt, x)]
    for solve in solves:
        u, du = solve(xs)
        us, dus = solve([0.5, 1.25, 3.0])
        assert u.shape == du.shape == xs.shape
        assert np.array_equal(u, us[[[2, 0], [2, 1]]]) and np.array_equal(du, dus[[[2, 0], [2, 1]]])
        u1, du1 = solve(1.25)
        assert np.shape(u1) == np.shape(du1) == ()


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
def test_greens_at_large_zeta_against_mpmath(zeta):
    # a decaying solve from x = 30 grew past e^700 here; one from the start rule's x = 11.5 does not
    p = ModelParams(1.0, 2.0)
    g = greens_function_oracle(p, SpectralPoint.interior(zeta), 1.0, 2.0)
    ref = mp_resolvent(p, zeta, 1.0, 2.0)
    assert abs(g - ref) < 1e-8 * abs(ref)


def test_greens_in_the_deep_well_against_mpmath():
    # regular data from the leading power alone, which drops a term of size nu^2 x0^2,
    # left the oracle off by 3.1e-6 here
    p, zeta = ModelParams(0.0, 50.0), 1.5 + 0.5j
    g = greens_function_oracle(p, SpectralPoint.interior(zeta), 1.0, 2.0)
    ref = mp_resolvent(p, zeta, 1.0, 2.0)
    assert abs(g - ref) < 1e-6 * abs(ref)


@pytest.mark.parametrize("energy, kind", [(1.44, "f"), (-1e-8, "f"), (-(1.5 + 0.5j) ** 2, "c")])
def test_regular_solution_follows_the_dtype_of_its_energy(energy, kind):
    u, du = integrate_regular(ModelParams(1.0, 2.0), energy, np.linspace(0.5, 3.0, 5))
    assert u.dtype.kind == du.dtype.kind == kind


def test_greens_out_of_double_range_raises():
    # the decaying solution grows by e^(100 (11.5 - 2)) from its start down to x = 2
    with pytest.raises(IllConditionedError):
        greens_function_oracle(ModelParams(1.0, 2.0), SpectralPoint.interior(100.0), 1.0, 2.0)


@pytest.mark.parametrize("x, y", [(1.0, 31.0), (1.0, 35.0), (20.0, 40.0)])
def test_greens_beyond_x_30_against_mpmath(x, y):
    # a decaying solve started at x = 30 was off here by 3.0e-4, 3.9e-2 and 2.5e-2
    p, zeta = ModelParams(1.0, 2.0), 1.5 + 0.5j
    g = greens_function_oracle(p, SpectralPoint.interior(zeta), x, y)
    ref = mp_resolvent(p, zeta, x, y)
    assert abs(g - ref) < 1e-8 * abs(ref)


@pytest.mark.parametrize("mu, nu", [(1.0, 2.0), (3.0, 5.0), (20.0, 24.0), (1.0, 12.0)])
@pytest.mark.parametrize("zeta", [1.5 + 0.5j, 23.7, 40.0, 63.0, 100.0])
def test_greens_agrees_or_refuses_without_overflow(mu, nu, zeta):
    # where a solve would leave double range the oracle refuses; a product of two
    # large solutions, or a solution past e^700, overflowed with a RuntimeWarning
    p = ModelParams(mu, nu)
    served = 0
    for x, y in [(1.0, 2.0), (0.5, 5.0), (3.0, 12.0), (20.0, 40.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                g = greens_function_oracle(p, SpectralPoint.interior(zeta), x, y)
            except IllConditionedError:
                continue
        ref = mp_resolvent(p, zeta, x, y)
        assert abs(g - ref) < 1e-8 * abs(ref), (x, y)
        served += 1
    assert served >= 1


@pytest.mark.parametrize("mu, nu", [(0.0, 50.0), (50.0, 0.0), (20.0, 45.0), (1.0, 2.0), (2.0, 2.0)])
@pytest.mark.parametrize("zeta", [1 + 0.3j, 3 + 1j])
def test_decaying_start_agrees_with_a_far_start(mu, nu, zeta):
    # the start rule's data (1, -zeta) is good to the solve tolerance: the solution
    # equals the same equation started at x = 30, up to one constant
    p = ModelParams(mu, nu)
    xs = np.linspace(0.5, 11.0, 43)
    dec, _ = integrate_decaying(p, SpectralPoint.interior(zeta), xs)
    far, _ = oracle_mod._at_points(p, -(zeta**2), 30.0, xs, 1.0, -zeta, 1e-10, 1e-10)
    ratio = dec / far
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


@pytest.mark.parametrize(
    "mu, nu, energy",
    [(0.0, 2.0, -((1.5 + 0.5j) ** 2)), (1.0, 1.0, -((2.0 + 0.4j) ** 2)), (0.5, 4.5, -((1.2 + 0.3j) ** 2))]
    + [(2.0, 2.5, -((2.5 + 0.8j) ** 2)), (0.0, 50.0, -((1.5 + 0.5j) ** 2)), (50.0, 50.0, -((1.5 + 0.5j) ** 2))]
    # zeta = 300; and E = +-sqrt(1.6) at (1, 0), where the signed c2 is 0: a start taken from it
    # (x = 0.1) drops an x^6 term and is off by 3e-9
    + [(1.0, 2.0, -(300.0**2)), (1.0, 0.0, 1.6**0.5), (1.0, 0.0, -(1.6**0.5))],
    ids=["verify0", "verify1", "verify2", "verify3", "deep_well", "mu50_nu50", "zeta300", "c2_zero+", "c2_zero-"],
)
def test_regular_start_agrees_with_a_near_start(mu, nu, energy):
    # the start rule's two-term data is good to the solve tolerance: the solution equals
    # the same equation started at x = 1e-6, up to one constant; the data is scaled to
    # u = 1 at each start, so the absolute tolerance is relative to u, not to u' ~ x^(p-1)
    p = ModelParams(mu, nu)
    xs = np.linspace(0.2, 1.0, 9)

    def solve(x_max):
        x0, u0, du0 = oracle_mod._regular_data(p, energy, 1e-10, x_max)
        return oracle_mod._at_points(p, energy, x0, xs, 1.0, du0 / u0, 1e-12, 1e-12)[0]

    ratio = solve(oracle_mod.X0_MAX) / solve(1e-6)
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9


def test_regular_solution_at_mu_65_against_mpmath():
    # refused at a start of 1e-5, where 1e-5^65.5 underflows; the start rule's x = 9e-4 serves it
    p, xs = ModelParams(65.0, 2.0), np.array([0.5, 1.5, 3.0])
    ratio = integrate_regular(p, -1.0, xs)[0] / mp_regular(p, 1.0, xs)
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_regular(ModelParams(97.0, 2.0), -1.0, 2.0),
        lambda: count_bound_states_shooting(ModelParams(114.0, 0.0)),
    ],
    ids=["integrate_regular(mu=97)", "count_bound_states_shooting(mu=114)"],
)
def test_regular_data_below_double_range_raises(call):
    # x0^(1/2+mu) underflows to 0 here, even at the start rule's x0; from zero data the
    # solve warned "divide by zero" and then never returned
    with pytest.raises(IllConditionedError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_regular(ModelParams(1.0, 2.0), 1.0, 400.0),
        lambda: greens_function_oracle(ModelParams(1.0, 2.0), SpectralPoint.interior(0.01 + 1j), 1.0, 400.0),
    ],
    ids=["integrate_regular", "greens_function_oracle"],
)
def test_far_points_give_a_value_or_refuse_without_overflow(call):
    # (sinh x cosh x)^2 left double range past x = 177 in V: overflow warnings, then a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except HalfScatterError:
            return
    assert np.isfinite(value).all()


@pytest.mark.parametrize("mu", [1.0, 0.3])
@pytest.mark.parametrize("x", [1e-160, 1e-200])
def test_decaying_solve_below_the_range_of_v_refuses_without_overflow(mu, x):
    # V near the origin, about (mu^2 - 1/4)/x^2, is past double range here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError):
            integrate_decaying(ModelParams(mu, 2.0), SpectralPoint.interior(1.5), x)


@pytest.mark.parametrize("mu", [0.5, 0.500001])
@pytest.mark.parametrize("x", [1e-20, 1e-40, 1e-150, 1e-300])
def test_solves_near_mu_one_half_match_the_closed_form_or_refuse(mu, x):
    # V's singular term is 0 or tiny here, so no growth check refuses: a DOP853 stage that
    # rounded to x = 0 divided by expm1(0) = 0, and near x = 1e-150 scipy's error norm overflowed.
    # At mu = 1/2 V is finite down to the origin, and the decaying solve serves every x.
    p, pt = ModelParams(mu, 2.0), SpectralPoint.interior(1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            u, _ = integrate_decaying(p, pt, [x, 1.0])
        except HalfScatterError:
            assert mu != 0.5
        else:
            assert abs(u[0] / u[1] / (eval_M(p, x, pt) / eval_M(p, 1.0, pt)) - 1.0) < 1e-9
        try:
            g = greens_function_oracle(p, pt, x, x)
        except HalfScatterError:
            pass  # the regular solve serves points above X0_FINE alone
        else:
            assert abs(g / resolvent_kernel(p, pt, x, x) - 1.0) < 1e-6


@pytest.mark.parametrize("x", [1e-320, 5e-324])
def test_decaying_solve_at_mu_one_half_serves_the_smallest_doubles(x):
    # V's singular term is 0 at mu = 1/2; 0 times its factor, inf below x ~ 1e-308, was nan
    p, pt = ModelParams(0.5, 2.0), SpectralPoint.interior(1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, du = integrate_decaying(p, pt, [x, 1.0])
    assert np.isfinite(u).all() and np.isfinite(du).all()
    assert abs(u[0] / u[1] / (eval_M(p, 1e-300, pt) / eval_M(p, 1.0, pt)) - 1.0) < 1e-9


@pytest.mark.parametrize("x, y", [(1e-20, 1e-20), (1.0, oracle_mod.X0_FINE), (oracle_mod.X0_FINE / 2, 2.0)])
def test_greens_refuses_points_at_the_regular_floor_before_any_solve(monkeypatch, x, y):
    # the decaying solve ran first, then the regular solve refused with a message naming xs
    calls = []
    monkeypatch.setattr(oracle_mod, "solve_ivp", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(DomainError, match=f"x - X0_FINE and y - X0_FINE \\(x = {x}, y = {y}\\)"):
        greens_function_oracle(ModelParams(0.5, 2.0), SpectralPoint.interior(1.5), x, y)
    assert calls == []


@pytest.mark.parametrize("mu, x", [(0.5 + 1e-12, 1e-8), (3.0, 1e-8), (3.0, 0.7)])
def test_rhs_potential_equals_model_potential(mu, x):
    # the rhs forms mu^2 - 1/4 as (mu - 1/2)(mu + 1/2), as potential does: near mu = 1/2,
    # where the singular term dominates, 16 (mu^2 - 1/4) was off by |mu - 1/2| relative
    p = ModelParams(mu, 2.0)
    _, v = oracle_mod._rhs(p, 0.0, x)(x, (1.0, 0.0))  # u'' = (V - E) u at u = 1, E = 0
    assert v == potential(p, x)


def test_greens_symmetry():
    params = ModelParams(0.0, 2.5)
    pt = SpectralPoint.interior(1.1 + 0.3j)
    g1 = greens_function_oracle(params, pt, 0.7, 2.2)
    g2 = greens_function_oracle(params, pt, 2.2, 0.7)
    assert abs(g1 - g2) / abs(g1) < 1e-8


def test_every_closed_form_has_an_oracle_counterpart():
    # the full standard set: regular solution, Wronskian, scattering function,
    # resolvent kernel, and bound count each against their integration oracle
    from halfscatter.solutions import wronskian
    from halfscatter.spectral import bound_states

    zeta = 1.3 + 0.4j
    for mu, nu in [(0, 0), (0, 3), (0, 2.5), (1, 1), (1, 4), (2, 0), (0.5, 0.5), (3, 0.5)]:
        p = ModelParams(mu, nu)
        pt = SpectralPoint.interior(zeta)
        xs = np.linspace(0.3, 6.0, 25)
        u, du = integrate_regular(p, -(zeta**2), np.append(xs, 2.0), tol=1e-11)
        u, u1, du1 = u[:-1], u[-1], du[-1]
        lv = eval_L(p, xs, pt)
        const = np.vdot(lv, u) / np.vdot(lv, lv)
        assert np.max(np.abs(u - const * lv) / np.abs(u)) < 1e-7, (mu, nu)

        w_num = (u1 * eval_derivative(p, 2.0, pt, "M") - du1 * eval_M(p, 2.0, pt)) / const
        assert abs(w_num - wronskian(p, pt)) / abs(w_num) < 1e-9, (mu, nu)

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
    integrate_regular(FREE, 1.0, 5.0)
    assert len(calls) == 1
    assert count_bound_states_shooting(ModelParams(0.0, 3.0)) == 1
    assert len(calls) == 2 and min(calls) > 0


def test_an_oracle_check_table_makes_six_solves_and_no_dense_output(monkeypatch, capsys):
    # callers read the solution at a few points: no solve asks for dense output, and the DOP853
    # port interpolates only on a step that holds a point; regular solves start where their
    # Frobenius data holds (4,890 rhs calls)
    seen, nfev = [], []
    solve = oracle_mod.solve_ivp

    def recording(*args, **kwargs):
        seen.append(kwargs)
        result = solve(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(oracle_mod, "solve_ivp", recording)
    assert main(["oracle-check", "--mu", "1", "--nu", "2", "--zeta", "1.5+0.5j"]) == 0
    assert "fail" not in capsys.readouterr().out
    assert len(seen) == 6
    assert not any(kwargs.get("dense_output") for kwargs in seen)
    assert not any("events" in kwargs for kwargs in seen)
    assert sum(nfev) <= 5000


# The four oracle-check tables of the verify benchmark workload at seed 1, and one in the deep well.
_REFERENCE_TABLES = [
    ("0.020928104261778546", "2.0905002570818128", "1.5016827284680212+0.53035089265995106j"),
    ("1.0999025882323938", "1.026214679618999", "2.0849044521859272+0.46056831486557048j"),
    ("0.58060357075271241", "4.5630317755443475", "1.2362696857057849+0.37607887845834825j"),
    ("2.0026484548903971", "2.544681295173445", "2.5371854569870105+0.84770740056373495j"),
    ("0", "50", "1.5+0.5j"),
]


@pytest.mark.parametrize("mu, nu, zeta", _REFERENCE_TABLES)
def test_solve_ivp_takes_scipy_dop853_steps_on_oracle_tables(monkeypatch, capsys, mu, nu, zeta):
    # scipy's DOP853 is the reference the port follows; it is imported here only
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    solve, calls = oracle_mod.solve_ivp, []

    def recording(fun, t_span, y0, **kwargs):
        calls.append((fun, t_span, y0, kwargs, solve(fun, t_span, y0, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(oracle_mod, "solve_ivp", recording)
    main(["oracle-check", "--mu", mu, "--nu", nu, "--zeta", zeta])
    capsys.readouterr()
    assert len(calls) == 6
    for fun, t_span, y0, kwargs, res in calls:
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)
        assert res.success and ref.success and res.y.dtype == ref.y.dtype
        if kwargs["t_eval"] is None:
            # the shooting solve: rounding moves its step times (by up to ~2e-6), not its steps or nodes
            (u, du), (u_ref, du_ref) = res.y, ref.y
            assert res.t.size == ref.t.size
            assert np.count_nonzero(np.diff(np.signbit(u))) == np.count_nonzero(np.diff(np.signbit(u_ref)))
            assert (u[-1] * du[-1] < 0) == (u_ref[-1] * du_ref[-1] < 0)
        else:
            assert res.nfev == ref.nfev
            scale = np.maximum(np.abs(res.y), np.abs(ref.y)).max(axis=1, keepdims=True)
            assert np.all(np.abs(res.y - ref.y) <= 1e-13 * scale)


@pytest.mark.parametrize("energy, span", [(-1e6, (0.1, 10.0)), (1.0, (1e-160, 1.0))], ids=["growth", "origin"])
def test_a_solve_that_leaves_double_range_raises_without_warning(energy, span):
    # the state grows like e^(1000 x) in the first case; in the second V ~ 3/(4 x^2) is past double
    # range at the start, so the initial-step rule divides by a zero trial step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="leaves double range"):
            oracle_mod._integrate(ModelParams(1.0, 2.0), energy, span, 1.0, 0.0, 1e-10)
