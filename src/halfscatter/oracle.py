"""Independent verification engine based on adaptive ODE integration.

Everything here validates the closed forms without touching hypergeometric
functions: the radial equation is integrated with the Dormand-Prince 8(5,3)
pair, the scattering function is extracted from a plane-wave fit on an
asymptotic window, bound states are counted by Sturm node counting, and the
resolvent is rebuilt from two independently integrated solutions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, IllConditionedError, StepFailureError
from .model import ModelParams, _positive, potential
from .solutions import SpectralPoint

__all__ = [
    "integrate_regular",
    "extract_sigma",
    "count_bound_states_shooting",
    "greens_function_oracle",
]

_DEFAULT_TOL = 1e-10
_MAX_LOG_GROWTH = 700.0  # log of the largest growth an integration may carry in double range
X0_FINE = 1e-5  # smallest point integrate_regular serves: every point lies above it
# Largest start of a regular solve, well inside pi/2, the radius of V's series at the
# origin (V is singular at x = i pi/2), so the terms the data drops are small there.
X0_MAX = 0.1
FIT_WINDOW = (8.0, 12.0)  # extract_sigma's plane-wave fit window
SHOOT_X_MAX = 25.0  # the shooting count counts nodes up to here
SHOOT_TOL = 1e-8


def _rhs(params: ModelParams, energy, x_low: float):
    mu2 = params.mu**2
    c0 = 16.0 * (params.mu - 0.5) * (params.mu + 0.5)  # model.potential's form, which keeps the digits of mu - 1/2
    c1 = 4.0 * (mu2 - params.nu**2)

    # y = (u, u'); u'' = (V - E) u, with V in q = e^(-2x) as in model.potential: finite at every x.
    # A stage below the solve's low end comes only from rounding t + c h; it reads V at x_low,
    # for at the origin V is singular (expm1(-4x) = 0).
    def rhs(x, y):
        x = max(x, x_low)
        q = math.exp(-2.0 * x)
        r = q / math.expm1(-4.0 * x)
        v = c0 * r * r + c1 * q / ((1.0 + q) * (1.0 + q))
        return (y[1], (v - energy) * y[0])

    # at mu = 1/2 the singular term is 0, and 0 times r = inf (x below ~1e-308) would be nan
    def smooth(x, y):
        q = math.exp(-2.0 * x)
        return (y[1], (c1 * q / ((1.0 + q) * (1.0 + q)) - energy) * y[0])

    return rhs if c0 else smooth


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first solve: only the oracle
    needs scipy's ODE stack, so importing halfscatter leaves it unloaded."""
    import scipy.integrate

    return scipy.integrate.solve_ivp(*args, **kwargs)


def _integrate(params, energy, span, u0, du0, tol, atol=None, t_eval=None):
    """Integrate -u'' + V u = E u over span, forward or backward, from (u0, du0)
    at span[0]; scipy's result.  Its y holds (u, u') at t_eval, or at each step when
    t_eval is None.  scipy builds a step's interpolant only where that step holds a
    point of t_eval.

    The state is real where energy and data are real, else complex.
    atol defaults to tol times the larger initial magnitude.  IllConditionedError where
    the solver's arithmetic overflows or makes a nan: near the origin, where u''/u' ~ 1/x,
    scipy's error norm squares about 1/(x tol), which leaves double range below x ~ 1e-147
    at tol 1e-10.
    """
    if atol is None:
        atol = tol * max(abs(u0), abs(du0))
    y0 = np.array([u0, du0], dtype=np.result_type(u0, du0, energy))
    rhs = _rhs(params, energy, min(span))
    try:
        with np.errstate(over="raise", invalid="raise"):
            res = solve_ivp(rhs, span, y0, method="DOP853", t_eval=t_eval, rtol=tol, atol=atol)
    except FloatingPointError as exc:
        raise IllConditionedError(f"integration over ({span[0]:g}, {span[1]:g}) leaves double range: {exc}") from None
    if not res.success:
        raise StepFailureError(f"integration over {span} failed: {res.message}")
    return res


def _at_points(params, energy, x_from, xs, u0, du0, tol, atol=None):
    """(u, u') at the points xs, each in the shape of xs, from one solve that starts at
    x_from with (u0, du0) and ends at the point of xs farthest from it.  Every point
    lies on one side of x_from; points may come in any order and may repeat."""
    grid, inv = np.unique(xs, return_inverse=True)
    if grid[0] < x_from:  # inward: scipy wants t_eval in the direction of the solve
        grid, inv = grid[::-1], grid.size - 1 - inv
    res = _integrate(params, energy, (x_from, grid[-1]), u0, du0, tol, atol, t_eval=grid)
    u, du = res.y[:, inv.reshape(np.shape(xs))]
    return u, du


def _points(what: str, xs, floor: float):
    """xs as a float array of at least one point, each finite and > floor, else DomainError."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise DomainError(f"{what} must hold at least one point")
    _positive(what, xs - floor)
    return xs


def _regular_data(params: ModelParams, energy, tol: float, x_max: float):
    """(x0, u(x0), u'(x0)) of a regular solve, from two Frobenius terms u = x^p (1 + c x^2),
    p = 1/2 + mu.  With V = (mu^2 - 1/4)/x^2 + V0 + V1 x^2 + ... (4/sinh^2 2x = 1/x^2 - 4/3
    + 16x^2/15 - ..., 1/cosh^2 x = 1 - x^2 + ...), c = (V0 - E)/(4p + 2) and the first dropped
    term is c2 x^4, c2 = ((V0 - E) c + V1)/(4(2p + 3)); in u' it is (1 + 4/p) times that.

    x0 is the smallest of x_max, X0_MAX and the x where that term is a tenth of tol, with |c2|
    bounded by its majorant: an accidental zero of the signed sum would push the start out to
    where the later terms are not small.  IllConditionedError when u would underflow: from
    zero data scipy's step loop never ends.
    """
    mu2, d = params.mu**2, params.mu**2 - params.nu**2
    p, dv, v1 = 0.5 + params.mu, d - (4.0 / 3.0) * (mu2 - 0.25) - energy, (16.0 / 15.0) * (mu2 - 0.25) - d
    bound = (1.0 + 4.0 / p) * (abs(dv) ** 2 / (4.0 * p + 2.0) + abs(v1)) / (4.0 * (2.0 * p + 3.0))
    x0 = min(x_max, X0_MAX, (0.1 * tol / bound) ** 0.25 if bound > 0.0 else X0_MAX)
    if p * math.log(x0) < -_MAX_LOG_GROWTH:
        raise IllConditionedError(f"regular data {x0:g}^(1/2+mu) underflows at mu = {params.mu:g}")
    cx2 = dv / (4.0 * p + 2.0) * x0**2
    return x0, x0**p * (1.0 + cx2), x0 ** (p - 1.0) * (p + (p + 2.0) * cx2)


def _check_growth(what: str, params: ModelParams, energy: complex, log_growth: float, x_from: float, x_to: float):
    """IllConditionedError when a solution that grows by e^log_growth from x_from to x_to,
    or its second derivative there, |V(x_to) - E| times as large, would leave double range."""
    log_peak = log_growth + math.log1p(abs(potential(params, x_to) - energy))
    if not log_peak <= _MAX_LOG_GROWTH:
        raise IllConditionedError(
            f"{what} with its second derivative grows to e^{log_peak:.4g} from x = {x_from:g} to {x_to:g}"
        )


def integrate_regular(params: ModelParams, energy, xs, tol: float = _DEFAULT_TOL):
    """(u(x), u'(x)) at the points xs of the regular solution of -u'' + V u = E u,
    integrated outward to max(xs) from the data u(x0) = x0^(1/2+mu) (1 + c x0^2),
    two Frobenius terms, at x0 = min(xs) or nearer the origin, where the terms the
    data drops are a tenth of tol (_regular_data).

    Each of u and u' has the shape of xs; points may come in any order and may
    repeat.  The values are real at a real energy and complex otherwise.
    DomainError unless energy and tol > 0 are finite and every point of xs is
    finite and > X0_FINE.  The solution grows like e^(Re sqrt(-E) x); raises
    IllConditionedError when it or its second derivative would leave double
    range by max(xs).
    """
    if not np.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")
    _positive("tol", tol)
    xs = _points("xs - X0_FINE", xs, X0_FINE)
    x0, u0, du0 = _regular_data(params, energy, tol, xs.min())
    x1 = xs.max()
    _check_growth("regular solution", params, energy, cmath.sqrt(-complex(energy)).real * x1, x0, x1)
    return _at_points(params, energy, x0, xs, u0, du0, tol)


def integrate_decaying(params: ModelParams, pt: SpectralPoint, xs):
    """(u(x), u'(x)) at the points xs of the decaying solution, complex, integrated
    inward to min(xs) from the data (1, -zeta), unit scale, at the start X: the
    larger of max(xs) and the x where that data is good to the solve tolerance, at
    least min(xs) + 1.

    Each of u and u' has the shape of xs; points may come in any order and may
    repeat.  Backward integration keeps the decaying solution clean: the unwanted
    growing mode dies in the reversed direction.  The solution grows like
    e^(Re zeta (X - x)) on the way in, and like tanh(x)^(1/2 - mu) near the
    origin; raises IllConditionedError when it or its second derivative would
    leave double range.  Every point of xs must be finite and > 0 (DomainError).
    """
    xs = _points("xs", xs, 0.0)
    x_low = xs.min()
    zeta = complex(pt.zeta)
    # The decaying solution is e^(-zeta x) (1 + a e^(-2x) + ...), a = (mu^2 - nu^2)/(zeta + 1), from
    # V ~ 4 (mu^2 - nu^2) e^(-2x).  Start where the term the data drops is below the tolerance in u
    # and, as a (1 + 2/zeta) e^(-2x), in u'/zeta; |a| floored at 1 (X >= 11.5) keeps e^(-4x) below it too.
    lead = abs(params.mu**2 - params.nu**2) / abs(zeta + 1.0) * max(1.0, abs(1.0 + 2.0 / zeta))
    x_start = max(x_low + 1.0, 0.5 * math.log(max(lead, 1.0) / _DEFAULT_TOL), xs.max())
    # e^(zeta (X - x)) far out, times tanh(x)^(1/2 - mu) near the origin
    log_growth = zeta.real * (x_start - x_low) + max(params.mu - 0.5, 0.0) * -math.log(math.tanh(x_low))
    _check_growth("decaying solution", params, -(zeta**2), log_growth, x_start, x_low)
    return _at_points(params, -(zeta**2), x_start, xs, 1.0, -zeta, _DEFAULT_TOL, _DEFAULT_TOL)


def extract_sigma(params: ModelParams, k: float) -> complex:
    """Scattering function from a least-squares plane-wave fit of the regular solution.

    On the window the integrated solution is A e^(ikx) + B e^(-ikx) up to
    corrections of relative order e^(-2x); the outgoing/incoming ratio -A/B
    is the scattering function.  The fit carries each wave's first
    correction, e^(+/-ikx) e^(-2(x-lo)), as a column of its own, so what is
    left on the window is of order e^(-4x).  k must be finite and > 0 (DomainError).
    """
    _positive("k", k)
    lo, hi = FIT_WINDOW
    xs = np.linspace(lo, hi, 64)
    u, _ = integrate_regular(params, k * k, xs)
    waves = np.column_stack([np.exp(1j * k * xs), np.exp(-1j * k * xs)])
    design = np.hstack([waves, waves * np.exp(-2.0 * (xs - lo))[:, None]])
    cond = np.linalg.cond(design)
    if cond > 1e8:
        raise IllConditionedError(
            f"plane-wave fit condition number {cond:.3g} (window too short for k={k})"
        )
    coef, *_ = np.linalg.lstsq(design, u, rcond=None)
    a_out, b_in = coef[:2]
    return complex(-a_out / b_in)


def count_bound_states_shooting(params: ModelParams) -> int:
    """Number of nodes of the regular solution at energy just below zero.

    By Sturm oscillation this equals the number of eigenvalues.  The solve starts
    from two Frobenius terms where they hold to a tenth of SHOOT_TOL (_regular_data),
    and a node is a change of sign of u between two of its steps.  Past SHOOT_X_MAX
    u is close to linear, so a node beyond it shows as u u' < 0 at SHOOT_X_MAX.
    """
    energy = -1e-8
    x0, u0, du0 = _regular_data(params, energy, SHOOT_TOL, SHOOT_X_MAX)
    u, du = _integrate(params, energy, (x0, SHOOT_X_MAX), u0, du0, SHOOT_TOL).y
    return int(np.count_nonzero(np.diff(np.signbit(u)))) + int(u[-1] * du[-1] < 0)


def greens_function_oracle(params: ModelParams, pt: SpectralPoint, x: float, y: float) -> complex:
    """Resolvent kernel rebuilt from two integrated solutions.

    -(regular at min)(decaying at max) / numerical Wronskian, formed from ratios as
    -(u_r(lo)/u_r(hi)) / (u_d'/u_d - u_r'/u_r)(hi): the arbitrary normalizations of the
    two integrations cancel, and no product of two large solutions is formed.  The
    regular solve reads both points; the decaying solve reads max(x, y) alone.  Raises
    IllConditionedError where either solve would leave double range.  x and y must be
    finite and > X0_FINE, the regular solve's floor (DomainError, before any solve).
    """
    lo, hi = sorted(_points(f"x - X0_FINE and y - X0_FINE (x = {x}, y = {y})", [x, y], X0_FINE))
    zeta = complex(pt.zeta)
    u_d, du_d = integrate_decaying(params, pt, hi)
    (u_r_lo, u_r), (_, du_r) = integrate_regular(params, -(zeta**2), [lo, hi])
    return complex(-(u_r_lo / u_r) / (du_d / u_d - du_r / u_r))
