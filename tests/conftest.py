"""Shared numerical helpers for the test suite."""

import numpy as np
import pytest

from halfscatter.model import ModelParams, potential


# (mu, nu) pairs exercised by most cross-checks: free case, integer and
# noninteger beta classes, with and without bound states
STANDARD_PAIRS = [
    (0.0, 0.0),
    (0.0, 3.0),
    (0.0, 2.5),
    (1.0, 1.0),
    (1.0, 4.0),
    (2.0, 0.0),
    (0.5, 0.5),
    (3.0, 0.5),
]


@pytest.fixture(params=STANDARD_PAIRS, ids=lambda p: f"mu{p[0]}_nu{p[1]}")
def standard_params(request):
    return ModelParams(*request.param)


def fd_second(fn, x, h=5e-3):
    """Five-point central second derivative."""
    return (
        -fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x) + 16 * fn(x - h) - fn(x - 2 * h)
    ) / (12 * h * h)


def fd_first(fn, x, h=1e-3):
    """Five-point central first derivative."""
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


def ode_residual(params, fn, x, zeta, h=None):
    """|-u'' + (V + zeta^2) u| at x for a closed-form solution callable.

    The step shrinks near the origin where high derivatives of x^(1/2+mu)
    dominate the finite-difference error.
    """
    if h is None:
        h = min(5e-3, x / 200.0)
    upp = fd_second(fn, x, h)
    return abs(-upp + (potential(params, x) + zeta**2) * fn(x))


def smooth_bump(x, a=1.0, b=3.0):
    """C-infinity bump supported on [a, b]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = (x > a) & (x < b)
    t = (x[m] - a) / (b - a)
    out[m] = np.exp(-1.0 / (t * (1.0 - t)))
    return out


def _mp_regular(mp, params, z, x):
    """L(x) = tanh^(1/2+mu) cosh^zeta 2F1(alpha - zeta/2, beta - zeta/2; 1+mu; tanh^2 x) in mpmath."""
    m, a, b = mp.mpf(params.mu), mp.mpf(params.alpha), mp.mpf(params.beta)
    return mp.tanh(x) ** (m + 0.5) * mp.cosh(x) ** z * mp.hyp2f1(a - z / 2, b - z / 2, 1 + m, mp.tanh(x) ** 2)


def mp_regular(params, zeta, xs):
    """L at the points xs from mpmath's 2F1 at 40 digits, complex (skips without mpmath)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return np.array([complex(_mp_regular(mp, params, mp.mpc(zeta), x)) for x in xs])


def mp_resolvent(params, zeta, x, y):
    """-L(min) M(max) / W from mpmath's 2F1 and gamma at 40 digits (skips without mpmath)."""
    mp = pytest.importorskip("mpmath")
    lo, hi = min(x, y), max(x, y)
    with mp.workdps(40):
        m, a, b, z = mp.mpf(params.mu), mp.mpf(params.alpha), mp.mpf(params.beta), mp.mpc(zeta)
        reg = _mp_regular(mp, params, z, lo)
        dec = mp.tanh(hi) ** (m + 0.5) * mp.cosh(hi) ** -z * mp.hyp2f1(a + z / 2, b + z / 2, 1 + z, mp.sech(hi) ** 2)
        w = -2 * mp.gamma(1 + m) * mp.gamma(1 + z) / (mp.gamma(a + z / 2) * mp.gamma(b + z / 2))
        return complex(-reg * dec / w)
