"""Independent verification engine based on adaptive ODE integration.

Everything here validates the closed forms without touching hypergeometric
functions: the radial equation is integrated with an embedded Runge-Kutta
5(4) pair, the scattering function is extracted from a plane-wave fit on an
asymptotic window, bound states are counted by Sturm node counting, and the
resolvent is rebuilt from two independently integrated solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IllConditionedError, StepFailureError
from .model import ModelParams
from .solutions import SpectralPoint

__all__ = [
    "OdeSolution",
    "integrate_regular",
    "extract_sigma",
    "count_bound_states_shooting",
    "greens_function_oracle",
]

_DEFAULT_TOL = 1e-10


@dataclass
class OdeSolution:
    """Sampled solution with derivative values and a dense evaluator."""

    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    tol: float
    _dense: Callable
    _events: list | None = None

    def __call__(self, x):
        """Evaluate (u, u') at x from the dense interpolant."""
        y = self._dense(x)
        return y[0] + 1j * y[1], y[2] + 1j * y[3]


def _rhs_complex(params: ModelParams, energy: complex):
    mu2 = params.mu**2
    c0 = mu2 - 0.25
    c1 = mu2 - params.nu**2
    er, ei = energy.real, energy.imag

    # y = (Re u, Im u, Re u', Im u'); u'' = (V - E) u split into real parts
    def rhs(x, y):
        sh = math.sinh(x)
        ch = math.cosh(x)
        v = c0 / (sh * ch) ** 2 + c1 / ch**2
        ar = v - er
        return (y[2], y[3], ar * y[0] + ei * y[1], ar * y[1] - ei * y[0])

    return rhs


def _integrate(params, energy, span, u0, du0, tol, atol=None, events=None, n_samples=200) -> OdeSolution:
    """Integrate -u'' + V u = E u over span, forward or backward, from (u0, du0)
    at span[0]; sampled on n_samples points spanning it in increasing order.

    atol defaults to tol times the larger initial magnitude.
    """
    if atol is None:
        atol = tol * max(abs(u0), abs(du0))
    u0, du0 = complex(u0), complex(du0)
    sol = solve_ivp(
        _rhs_complex(params, complex(energy)),
        span,
        (u0.real, u0.imag, du0.real, du0.imag),
        method="RK45",
        rtol=tol,
        atol=atol,
        dense_output=True,
        events=events,
    )
    if not sol.success:
        raise StepFailureError(f"integration over {span} failed: {sol.message}")
    xs = np.linspace(min(span), max(span), n_samples)
    ys = sol.sol(xs)
    return OdeSolution(xs, ys[0] + 1j * ys[1], ys[2] + 1j * ys[3], tol, sol.sol, sol.t_events)


def _regular_data(params: ModelParams, x0: float):
    """(u, u') = (x0^(1/2+mu), its derivative): the leading power at the origin."""
    p = 0.5 + params.mu
    return x0**p, p * x0 ** (p - 1.0)


def integrate_regular(
    params: ModelParams,
    energy,
    x0: float = 1e-3,
    x1: float = 12.0,
    tol: float = _DEFAULT_TOL,
    n_samples: int = 200,
) -> OdeSolution:
    """Integrate -u'' + V u = E u outward from regular data u(x0) = x0^(1/2+mu).

    Only the leading power feeds the initial data; its O(x0^2) relative error
    is controlled by tightening x0, so pass a smaller x0 when agreement beyond
    about x0^(2+2mu) is needed.
    """
    if x0 <= 0 or x1 <= x0:
        raise DomainError("need 0 < x0 < x1")
    u0, du0 = _regular_data(params, x0)
    return _integrate(params, energy, (x0, x1), u0, du0, tol, n_samples=n_samples)


def integrate_decaying(
    params: ModelParams,
    pt: SpectralPoint,
    x_low: float,
    x_far: float = 30.0,
    tol: float = _DEFAULT_TOL,
) -> OdeSolution:
    """Integrate inward from x_far with free decaying data e^(-zeta x).

    Backward integration keeps the decaying solution clean: the unwanted
    growing mode dies in the reversed direction.
    """
    zeta = complex(pt.zeta)
    scale = np.exp(-zeta * x_far)
    return _integrate(params, -(zeta**2), (x_far, x_low), scale, -zeta * scale, tol, tol * abs(scale))


def extract_sigma(
    params: ModelParams,
    k: float,
    fit_window: tuple[float, float] = (8.0, 12.0),
    n_fit: int = 64,
    x0: float = 1e-5,
    tol: float = _DEFAULT_TOL,
) -> complex:
    """Scattering function from a least-squares plane-wave fit of the regular solution.

    On the window the integrated solution is A e^(ikx) + B e^(-ikx) up to
    e^(-2x) corrections; the outgoing/incoming ratio -A/B is the scattering
    function.  The window must sit far enough out that those corrections are
    below the target accuracy.
    """
    if k <= 0:
        raise DomainError("extract_sigma requires k > 0")
    lo, hi = fit_window
    sol = integrate_regular(params, energy=k * k, x0=x0, x1=hi, tol=tol)
    xs = np.linspace(lo, hi, n_fit)
    u, _ = sol(xs)
    design = np.column_stack([np.exp(1j * k * xs), np.exp(-1j * k * xs)])
    cond = np.linalg.cond(design)
    if cond > 1e8:
        raise IllConditionedError(
            f"plane-wave fit condition number {cond:.3g} (window too short for k={k})"
        )
    coef, *_ = np.linalg.lstsq(design, u, rcond=None)
    a_out, b_in = coef
    return complex(-a_out / b_in)


def count_bound_states_shooting(
    params: ModelParams,
    x0: float = 1e-3,
    x_max: float = 25.0,
    tol: float = 1e-8,
) -> int:
    """Number of nodes of the regular solution at energy just below zero.

    By Sturm oscillation this equals the number of eigenvalues.
    """

    def node(x, y):
        return y[0]

    u0, du0 = _regular_data(params, x0)
    sol = _integrate(params, -1e-8, (x0, x_max), u0, du0, tol, events=node)
    return len(sol._events[0])


def greens_function_oracle(
    params: ModelParams,
    pt: SpectralPoint,
    x: float,
    y: float,
    x0: float = 1e-5,
    x_far: float = 30.0,
    tol: float = _DEFAULT_TOL,
) -> complex:
    """Resolvent kernel rebuilt from two integrated solutions.

    -(regular at min)(decaying at max) / numerical Wronskian; the arbitrary
    normalizations of the two integrations cancel.
    """
    lo, hi = min(x, y), max(x, y)
    zeta = complex(pt.zeta)
    reg = integrate_regular(params, energy=-(zeta**2), x0=x0, x1=hi, tol=tol)
    dec = integrate_decaying(params, pt, x_low=lo * 0.5, x_far=x_far, tol=tol)
    u_r, du_r = reg(hi)
    u_d, du_d = dec(hi)
    u_r_lo, _ = reg(lo)
    return complex(-(u_r_lo * u_d) / (u_r * du_d - du_r * u_d))
