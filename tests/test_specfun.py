"""Special-function checks: frozen closed forms, independent series oracles,
and hypothesis property sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfscatter.errors import InvalidCError, NoConvergenceError, PoleError
from halfscatter.specfun import (
    _linear_transform,
    _raw_series,
    bessel_script_J,
    beta_fn,
    digamma,
    gamma_ratio,
    gauss_2f1,
    hyp2f1_values,
    log_gamma,
    pochhammer,
)

# ---------------------------------------------------------------------------
# log-gamma / digamma


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_log_gamma_recurrence_and_reflection_at_1_plus_i():
    z = 1 + 1j
    # recurrence: log G(z+1) = log z + log G(z)
    assert abs(log_gamma(z + 1) - (np.log(z) + log_gamma(z))) < 1e-13
    # reflection: G(z) G(1-z) = pi / sin(pi z)
    lhs = log_gamma(z) + log_gamma(1 - z)
    rhs = np.log(np.pi / np.sin(np.pi * z))
    assert abs(np.exp(lhs) - np.exp(rhs)) < 1e-13


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)


def test_gamma_recurrence_on_grid():
    rng = np.random.default_rng(7)
    count = 0
    while count < 200:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if z.real <= 0 and abs(z.imag) < 0.2:
            continue  # stay away from the pole line
        ratio = np.exp(log_gamma(z + 1) - log_gamma(z))
        assert abs(ratio - z) < 1e-12 * max(1.0, abs(z))
        count += 1


def test_digamma_recurrence():
    for z in (0.3 + 0.9j, 2.5, 4 - 3j):
        assert abs(digamma(z + 1) - (digamma(z) + 1 / z)) < 1e-13


def test_gamma_ratio_zero_at_denominator_pole():
    assert gamma_ratio((1.0,), (-2.0,)) == 0


def test_gamma_ratio_broadcasts_with_pole_rules_per_lane():
    num = np.array([0.5 + 1j, 2.5, 3.0 - 0.5j, 3.0 - 0.5j])
    den = np.array([[1.5], [-2.0]])  # second row: a denominator pole in every lane
    out = gamma_ratio((num,), (den, 1.0 + 0.25j))
    assert out.shape == (2, 4)
    for i, v in enumerate(num):
        assert out[0, i] == pytest.approx(gamma_ratio((v,), (1.5, 1.0 + 0.25j)), rel=1e-15)
    assert np.all(out[1] == 0)
    # a numerator pole raises unless that lane's denominator is at a pole too
    assert np.all(gamma_ratio((np.array([-1.0, 2.0]),), (np.array([-3.0, -1.0]),)) == 0)
    with pytest.raises(PoleError):
        gamma_ratio((np.array([2.0, -1.0]),), (np.array([-3.0, 1.5]),))


# ---------------------------------------------------------------------------
# Pochhammer / Beta


def test_pochhammer():
    assert pochhammer(0.3 + 2j, 0) == 1
    assert pochhammer(1, 4) == 24
    assert abs(pochhammer(0.5, 3) - 0.5 * 1.5 * 2.5) < 1e-15


def test_beta_values():
    assert abs(beta_fn(1, 1) - 1) < 1e-15
    assert abs(beta_fn(0.5, 0.5) - math.pi) < 1e-14
    # factorial identity: B(2,3) = 1!2!/4! = 1/12
    assert abs(beta_fn(2, 3) - 1 / 12) < 1e-15


def test_beta_pole():
    with pytest.raises(PoleError):
        beta_fn(-1.0, 0.5)


# ---------------------------------------------------------------------------
# Gauss 2F1


def test_2f1_at_zero_is_one():
    assert gauss_2f1(0.3 + 1j, -0.7, 1.2 - 0.1j, 0.0) == 1.0


def test_2f1_log_closed_form():
    # F(1,1;2;z) = -log(1-z)/z; at z = 1/2 this is 2 log 2
    val = gauss_2f1(1, 1, 2, 0.5)
    assert abs(val - 2 * math.log(2)) < 1e-14
    # independent oracle: direct series summation
    acc, term = 0.0, 1.0
    for n in range(200):
        acc += term / (n + 1)
        term *= 0.5
    assert abs(val - acc) < 1e-14


def test_2f1_transformation_consistency_near_one():
    # value at z = 0.99 must equal the raw defining series summed directly
    a, b, c = 0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j
    z = 0.99
    term = 1.0 + 0j
    acc = 1.0 + 0j
    for n in range(120000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    val = gauss_2f1(a, b, c, z)
    assert abs(val - acc) / abs(acc) < 1e-12


def test_2f1_overlap_band_series_vs_transform():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = complex(rng.uniform(-1.5, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-1.5, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        if abs((c - a - b).imag) < 0.05:
            c += 0.21j  # keep c-a-b safely off the integers
        z = np.array([rng.uniform(0.4, 0.6)])
        s = _raw_series(a, b, c, z)[0]
        t = _linear_transform(a, b, c, 1.0 - z, np.log1p(-z))[0]
        assert abs(s - t) / abs(s) < 1e-10


def test_2f1_terminating_polynomial():
    # F(-3, b; c; z) is a cubic; compare against the explicit sum
    b, c, z = 1.7 - 0.4j, 2.2, 0.83
    val = gauss_2f1(-3, b, c, z)
    expect = sum(
        pochhammer(-3, n) * pochhammer(b, n) / pochhammer(c, n) * z**n / math.factorial(n)
        for n in range(4)
    )
    assert abs(val - expect) < 1e-14


def test_2f1_integer_gap_against_series():
    # c - a - b an integer takes the digamma route; the raw series is the oracle
    a, b = 0.45 - 0.6j, 0.9 + 0.35j
    for m in (0, 1, 3, -2):
        c = a + b + m
        z = 0.93
        term, acc = 1.0 + 0j, 1.0 + 0j
        for n in range(60000):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            acc += term
            if abs(term) < 1e-19 * abs(acc):
                break
        val = gauss_2f1(a, b, c, z)
        assert abs(val - acc) / abs(acc) < 5e-11


def test_2f1_invalid_c():
    with pytest.raises(InvalidCError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)


def test_2f1_rejects_bad_argument():
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, 1.0, -0.2)


def test_series_no_convergence_cap():
    with pytest.raises(NoConvergenceError):
        _raw_series(0.5, 0.5, 1.0, np.array([0.999999]), max_terms=60)


def test_log_w_pathway_matches_direct():
    # saturated z with an analytic log(1-z) must agree with a well-conditioned call
    a, b, c = 0.5 - 0.65j, 0.5 + 0.1j, 1.0 - 1.3j
    x = 8.0
    z = np.tanh(x) ** 2
    lw = -2.0 * (x - np.log(2.0) + np.log1p(np.exp(-2 * x)))
    v1 = complex(hyp2f1_values(a, b, c, np.array([z]), log_w=np.array([lw]))[0])
    v2 = gauss_2f1(a, b, c, z)
    assert abs(v1 - v2) < 1e-7 * abs(v1)  # direct path loses digits in 1-z


# One lane per branch of hyp2f1_values, each at moderate |a*b|.
_A, _B = 0.45 - 0.6j, 0.9 + 0.35j
BRANCH_CASES = {
    "terminating": (-3.0, 1.7 - 0.4j, 2.2, 0.83),
    "series": (0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j, 0.45),
    "transform": (0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j, 0.93),
    "log_m0": (_A, _B, _A + _B, 0.93),
    "log_m1": (_A, _B, _A + _B + 1.0, 0.88),
    "log_m3": (_A, _B, _A + _B + 3.0, 0.97),
    "log_m_neg2": (_A, _B, _A + _B - 2.0, 0.93),
}


@pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
def test_2f1_branch_lane_matches_one_lane_call(branch):
    # the lane sits among lanes of every other branch, twice, in both orders
    names = sorted(BRANCH_CASES)
    order = names + names[::-1]
    a, b, c, z = (np.array([BRANCH_CASES[n][i] for n in order]) for i in range(4))
    vals = hyp2f1_values(a, b, c, z.real)
    alone = gauss_2f1(*BRANCH_CASES[branch])
    for i, n in enumerate(order):
        if n == branch:
            assert abs(vals[i] - alone) <= 1e-14 * abs(alone)


def test_2f1_broadcast_shapes():
    a, b, c, z = BRANCH_CASES["transform"]
    val = hyp2f1_values(a, b, c, z)
    assert np.ndim(val) == 0 and val == gauss_2f1(a, b, c, z)
    k = np.array([[0.5], [1.5], [3.0]])
    zs = np.array([[0.1, 0.5, 0.7, 0.95]])
    grid = hyp2f1_values(a - 0.5j * k, b - 0.5j * k, c, zs)
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            one = gauss_2f1(a - 0.5j * k[i, 0], b - 0.5j * k[i, 0], c, zs[0, j])
            assert abs(grid[i, j] - one) <= 1e-14 * abs(one)


def test_2f1_errors_per_lane():
    a, b = np.array([0.5, 0.5]), np.array([0.5, 0.5])
    with pytest.raises(InvalidCError):
        hyp2f1_values(a, b, np.array([1.5, -2.0]), 0.3)
    with pytest.raises(ValueError):
        hyp2f1_values(a, b, 1.5, np.array([0.3, 1.0]))
    with pytest.raises(ValueError):
        hyp2f1_values(a, b, 1.5, np.array([0.3, -0.1]))
    with pytest.raises(NoConvergenceError):
        _raw_series(a, b, 1.0, np.array([0.1, 0.999999]), max_terms=60)


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=0.85),
)
def test_2f1_contiguous_relation(a, b, z):
    # Gauss relation: c F(a,b) - c F(a+1,b) + b z F(a+1,b+1;c+1) = 0
    c = 1.4 + 0.3j
    f0 = gauss_2f1(a, b, c, z)
    f1 = gauss_2f1(a + 1, b, c, z)
    f2 = gauss_2f1(a + 1, b + 1, c + 1, z)
    resid = c * f0 - c * f1 + b * z * f2
    scale = max(abs(c * f0), abs(c * f1), abs(b * z * f2), 1.0)
    assert abs(resid) < 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_2f1_conjugation_symmetry(a, b, z):
    c = 1.6 - 0.7j
    lhs = gauss_2f1(np.conj(a), np.conj(b), np.conj(c), z)
    rhs = np.conj(gauss_2f1(a, b, c, z))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Bessel kernel


def test_bessel_half_order_is_sine():
    x = np.linspace(0.1, 20, 50)
    assert np.max(np.abs(bessel_script_J(0.5, x) - np.sin(x))) < 1e-13


def test_bessel_j0_series_oracle():
    # ascending series for J0(1), frozen through 12 terms
    acc, term = 0.0, 1.0
    for m in range(12):
        acc += term
        term *= -0.25 / ((m + 1) ** 2)
    expect = math.sqrt(math.pi / 2.0) * acc
    assert abs(bessel_script_J(0.0, 1.0) - expect) < 1e-13


def test_bessel_small_argument_power():
    # order 1: sqrt(pi x/2) J_1(x) ~ x^(3/2) sqrt(pi/8), vanishing at 0+
    x = np.array([1e-4, 2e-4])
    vals = bessel_script_J(1.0, x)
    ratio = vals / (np.sqrt(np.pi / 8.0) * x**1.5)
    assert np.all(np.abs(ratio - 1) < 1e-6)
    assert vals[0] < 1e-5
