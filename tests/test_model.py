"""Parameter map, potential forms, beta classification, and the argument rule."""

import signal
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfscatter import index, oracle, scattering, spectral
from halfscatter.errors import DomainError, IllConditionedError, ParityError
from halfscatter.model import ModelParams, classify_beta, potential, reduce_group_indices
from halfscatter.phase import refine_path
from halfscatter.solutions import SpectralPoint, eval_derivative, eval_L, eval_M, eval_N
from halfscatter.specfun import bessel_script_J, beta_fn, digamma, hyp2f1_values, log_gamma, pochhammer


def integer_pair_potential(m, n, x):
    """Independent potential form for integer pairs (the reduction target)."""
    return (m * m + n * n - 1 - 2 * m * n * np.cosh(2 * x)) / np.sinh(2 * x) ** 2


def test_free_case_zero_potential():
    p = ModelParams(0.5, 0.5)
    x = np.linspace(0.01, 10, 100)
    assert np.max(np.abs(potential(p, x))) < 1e-14


def test_potential_1_1_closed_form():
    p = ModelParams(1.0, 1.0)
    x = np.linspace(0.05, 8, 60)
    assert np.max(np.abs(potential(p, x) - 3.0 / np.sinh(2 * x) ** 2)) < 1e-12


def test_potential_decays_exponentially():
    p = ModelParams(1.3, 2.7)
    assert abs(potential(p, 20.0)) < 1e-15
    assert abs(potential(p, 10.0)) < 1e-7


@pytest.mark.parametrize("mu, nu", [(1.0, 2.0), (0.0, 3.0), (0.0, 50.0), (3.0, 0.5), (50.0, 0.0), (0.7, 0.3)])
def test_potential_matches_the_sinh_cosh_form(mu, nu):
    # the form in e^(-2x) against the textbook one, to a few ulps of the larger term
    x = np.geomspace(1e-8, 40.0, 2000)
    sh, ch = np.sinh(x), np.cosh(x)
    t0, t1 = (mu**2 - 0.25) / (sh * ch) ** 2, (mu**2 - nu**2) / ch**2
    err = np.abs(potential(ModelParams(mu, nu), x) - (t0 + t1))
    assert np.all(err <= 8 * np.finfo(float).eps * (np.abs(t0) + np.abs(t1)))


def test_potential_is_finite_far_out():
    # sinh x cosh x leaves double range past x = 355, its square past x = 177
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = potential(ModelParams(1.0, 2.0), np.array([400.0, 1e4]))
    assert np.all(np.isfinite(v)) and np.all(np.abs(v) < 1e-300)


@pytest.mark.parametrize("mu", [1.0, 0.5])
@pytest.mark.parametrize("x", [1e-150, 1e-160, 1e-200, 1e-320])
def test_potential_near_the_origin_is_finite_or_refuses(mu, x):
    # V ~ (mu^2 - 1/4)/x^2 left double range with overflow warnings at mu = 1, and at
    # mu = 1/2, where that term is 0 and V -> -3.75, came out nan
    p = ModelParams(mu, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if mu == 1.0 and x < 1e-154:
            with pytest.raises(IllConditionedError):
                potential(p, x)
            return
        v = potential(p, x)
    assert v == pytest.approx(-3.75 if mu == 0.5 else 0.75 / x / x, rel=1e-12)


@pytest.mark.parametrize("mu, x", [(0.5 + 1.2e-16, 2e-162), (0.5 + 1e-12, 1e-158)])
def test_potential_where_expm1_squared_is_subnormal_against_mpmath(mu, x):
    # expm1(-4x)^2 is subnormal below x ~ 3.7e-155: dividing by it lost 3.6e-3 and 9e-10 here
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        m, t = mp.mpf(mu), mp.mpf(x)
        ref = (m * m - mp.mpf(0.25)) / (mp.sinh(t) * mp.cosh(t)) ** 2 + (m * m - 4) / mp.cosh(t) ** 2
        assert abs((potential(ModelParams(mu, 2.0), x) - ref) / ref) < 1e-14


def test_potential_domain():
    with pytest.raises(DomainError):
        potential(ModelParams(1, 1), 0.0)
    with pytest.raises(DomainError):
        potential(ModelParams(1, 1), -2.0)


def test_reduce_group_indices_examples():
    assert reduce_group_indices(0, 0) == ModelParams(0.0, 0.0)
    assert reduce_group_indices(2, 0) == ModelParams(1.0, 1.0)
    assert reduce_group_indices(3, 1) == ModelParams(1.0, 2.0)


def test_reduce_group_indices_parity():
    with pytest.raises(ParityError):
        reduce_group_indices(2, 1)


def test_reduction_potential_identity_all_pairs():
    # sup norm scaled by the local magnitude: the potential reaches ~1e5 near
    # x = 0.01, where an absolute 1e-10 would be below double resolution
    x = np.linspace(0.01, 10, 400)
    for m in range(-6, 7):
        for n in range(-6, 7):
            if (m - n) % 2:
                continue
            p = reduce_group_indices(m, n)
            v = potential(p, x)
            diff = np.abs(v - integer_pair_potential(m, n, x))
            assert np.max(diff / np.maximum(1.0, np.abs(v))) < 1e-10, (m, n)


def test_alpha_beta_relations():
    p = ModelParams(1.25, 0.75)
    assert abs(p.alpha + p.beta - (1 + p.mu)) < 1e-15
    assert abs(p.alpha - p.beta - p.nu) < 1e-15
    assert p.alpha - p.beta >= 0  # nu >= 0 by construction


def test_params_reject_negative():
    with pytest.raises(DomainError):
        ModelParams(-0.1, 1.0)
    with pytest.raises(DomainError):
        ModelParams(0.0, -2.0)


@pytest.mark.parametrize("mu, nu", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (0.0, float("inf"))])
def test_params_reject_non_finite(mu, nu):
    with pytest.raises(DomainError):
        ModelParams(mu, nu)


P = ModelParams(1.0, 2.0)
PT = SpectralPoint.interior(1.5)
NOT_POSITIVE = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]
NOT_FINITE = [float("nan"), float("inf")]
NOT_FINITE_REAL = [*NOT_FINITE, -float("inf")]
# each public entry point that takes a real argument that must be finite and > 0
POSITIVE_ARGS = {
    "potential(x)": lambda v: potential(P, v),
    "eval_L(x)": lambda v: eval_L(P, v, PT),
    "eval_M(x)": lambda v: eval_M(P, v, PT),
    "eval_N(x)": lambda v: eval_N(P, np.array([1.0, v]), PT),
    "boundary(k)": lambda v: SpectralPoint.boundary(v, 1),
    "bessel_script_J(x)": lambda v: bessel_script_J(1.0, v),
    "sigma(k)": lambda v: scattering.sigma(P, np.array([1.0, v])),
    "log_sigma(k)": lambda v: scattering.log_sigma(P, v),
    "b_factor(k)": lambda v: scattering.b_factor(P, v),
    "dilation_scaled_kernel(eps)": lambda v: scattering.dilation_scaled_kernel(P, v, 1.0, 1.0),
    "quadrature_panels(b)": lambda v: scattering.quadrature_panels(0.0, v, 1.0, 4),
    "quadrature_panels(panel_width)": lambda v: scattering.quadrature_panels(0.0, 1.0, v, 4),
    "extract_sigma(k)": lambda v: oracle.extract_sigma(P, v),
    "integrate_regular(x1)": lambda v: oracle.integrate_regular(P, 1.0, v),
    "integrate_regular(tol)": lambda v: oracle.integrate_regular(P, 1.0, 2.0, v),
    "integrate_decaying(x_low)": lambda v: oracle.integrate_decaying(P, PT, v),
    # one bad point among good ones
    "integrate_regular(xs)": lambda v: oracle.integrate_regular(P, 1.0, [1.0, v, 2.0]),
    "integrate_decaying(xs)": lambda v: oracle.integrate_decaying(P, PT, [[1.0, v], [2.0, 3.0]]),
    "eval_derivative(x)": lambda v: eval_derivative(P, v, PT, "M"),
    "greens_function_oracle(x)": lambda v: oracle.greens_function_oracle(P, PT, 1.0, v),
    "greens_function_oracle(y)": lambda v: oracle.greens_function_oracle(P, PT, v, 1.0),
}
# arguments with a rule of their own, refused when not finite
FINITE_ARGS = {
    "interior(zeta)": SpectralPoint.interior,
    "interior(Im zeta)": lambda v: SpectralPoint.interior(complex(1.0, v)),
    "integrate_regular(energy)": lambda v: oracle.integrate_regular(P, v, 2.0),
    "integrate_regular(Im energy)": lambda v: oracle.integrate_regular(P, complex(1.0, v), 2.0),
    "SampledFunction(grid)": lambda v: scattering.SampledFunction(grid=[v], values=[0.0], weights=[1.0]),
    "SampledFunction(weights)": lambda v: scattering.SampledFunction(grid=[1.0, 2.0], values=[0, 0], weights=[1, v]),
    "pochhammer(n)": lambda v: pochhammer(1.0, v),
    "pochhammer(q)": lambda v: pochhammer(v, 3),
    "log_gamma(z)": log_gamma,
    "digamma(z)": digamma,
    "beta_fn(a)": lambda v: beta_fn(v, 1.0),
    "beta_fn(b)": lambda v: beta_fn(1.0, v),
    "bessel_script_J(mu)": lambda v: bessel_script_J(v, 1.0),
}
# real arguments valid at every finite value
REAL_ARGS = {
    "lambda1(s)": lambda v: index.lambda1(ModelParams(0.0, 3.0), v),
    "lambda3_theta(s)": lambda v: index.lambda3_theta(1.0, v),
}
OTHER_CASES = {
    "hyp2f1_values(z=nan)": lambda: hyp2f1_values(1, 1, 2, float("nan")),
    "interior(complex('inf'))": lambda: SpectralPoint.interior(complex("inf")),
    "boundary(nan, 1)": lambda: SpectralPoint.boundary(float("nan"), 1),
    "quadrature_panels(b < a)": lambda: scattering.quadrature_panels(1.0, 0.0, 1.0, 4),
    "quadrature_panels(0 nodes)": lambda: scattering.quadrature_panels(0.0, 1.0, 1.0, 0),
    # a width that passes the rule, but (b - a)/panel_width overflows to inf
    "quadrature_panels(panel_width=1e-320)": lambda: scattering.quadrature_panels(0.0, 1.0, 1e-320, 4),
    # a finite panel count, 1e300, that would take endless panels
    "quadrature_panels(panel_width=1e-300)": lambda: scattering.quadrature_panels(0.0, 1.0, 1e-300, 4),
    # a regular point at the start of the solve, or below it
    "integrate_regular(xs=X0_FINE)": lambda: oracle.integrate_regular(P, 1.0, [1.0, oracle.X0_FINE]),
    "integrate_regular(xs=X0_FINE/2)": lambda: oracle.integrate_regular(P, 1.0, [oracle.X0_FINE / 2, 1.0]),
    "integrate_regular(xs=[])": lambda: oracle.integrate_regular(P, 1.0, []),
    "integrate_decaying(xs=[])": lambda: oracle.integrate_decaying(P, PT, []),
    "pochhammer(n=-1)": lambda: pochhammer(1.0, -1),
    "pochhammer(n=0.5)": lambda: pochhammer(1.0, 0.5),
    "bessel_script_J(mu=-1.5)": lambda: bessel_script_J(-1.5, 1.0),
    "eigenfunction(n=1.5)": lambda: spectral.eigenfunction(ModelParams(0.0, 5.0), 1.5),
    "quadrature_panels(nodes_per_panel=2.5)": lambda: scattering.quadrature_panels(0.0, 1.0, 1.0, 2.5),
    "refine_path(one node)": lambda: refine_path(np.exp, [0.0]),
}
ARGUMENT_CASES = [
    *(pytest.param(call, v, id=f"{name}={v}") for name, call in POSITIVE_ARGS.items() for v in NOT_POSITIVE),
    *(pytest.param(call, v, id=f"{name}={v}") for name, call in FINITE_ARGS.items() for v in NOT_FINITE),
    *(pytest.param(call, v, id=f"{name}={v}") for name, call in REAL_ARGS.items() for v in NOT_FINITE_REAL),
    *(pytest.param(lambda v, call=call: call(), None, id=name) for name, call in OTHER_CASES.items()),
]


def _hung(signum, frame):
    raise TimeoutError("call did not return within 5 s")


@pytest.mark.parametrize("call, value", ARGUMENT_CASES)
def test_argument_outside_domain_raises_domain_error(call, value):
    # an alarm turns a hang (the ODE step loop on a NaN step) into a failure
    old = signal.signal(signal.SIGALRM, _hung)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError):
                call(value)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def test_classify_beta_examples():
    assert classify_beta(ModelParams(2.0, 0.0)).kind == "positive"  # beta = 1.5
    bc = classify_beta(ModelParams(0.0, 3.0))  # beta = -1
    assert bc.kind == "negative_integer" and bc.n == 1
    bc = classify_beta(ModelParams(0.0, 2.5))  # beta = -0.75 = -1 + 0.25
    assert bc.kind == "negative_noninteger" and bc.n == 1
    assert abs(bc.epsilon - 0.25) < 1e-12


def test_classify_beta_zero_counts_as_integer():
    bc = classify_beta(ModelParams(1.0, 2.0))  # beta = 0
    assert bc.kind == "negative_integer" and bc.n == 0


def test_classify_beta_integer_tolerance():
    # float noise within 1e-12 of an integer must classify as that integer
    bc = classify_beta(ModelParams(0.0, 3.0 + 1e-13))
    assert bc.kind == "negative_integer" and bc.n == 1


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_classify_beta_roundtrip(mu, n, eps):
    # build nu so that beta = -n + eps exactly in the parameter arithmetic
    nu = mu + 1.0 + 2 * n - 2 * eps
    assume(nu >= 0)
    p = ModelParams(mu, nu)
    bc = classify_beta(p)
    if bc.kind == "negative_noninteger":
        assert abs(-bc.n + bc.epsilon - p.beta) < 1e-12
    elif bc.kind == "negative_integer":
        # eps rounded onto an integer boundary within tolerance
        assert abs(p.beta - round(p.beta)) < 1e-12
    else:
        assert p.beta > 0
