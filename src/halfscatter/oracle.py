"""Independent verification engine based on adaptive ODE integration.

Everything here validates the closed forms without touching hypergeometric
functions: the radial equation is integrated with the Dormand-Prince 8(5,3)
pair (solve_ivp, a port of DOP853 on Python scalars), the scattering function
is extracted from a plane-wave fit on an asymptotic window, bound states are
counted by Sturm node counting, and the resolvent is rebuilt from two
independently integrated solutions.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import mul
from types import SimpleNamespace

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
_FINISHED = "The solver successfully reached the end of the integration interval."
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rhs(params: ModelParams, energy, x_low: float):
    mu, nu = float(params.mu), float(params.nu)  # Python floats, as solve_ivp's state
    c0 = 16.0 * (mu - 0.5) * (mu + 0.5)  # model.potential's form, which keeps the digits of mu - 1/2
    c1 = 4.0 * (mu**2 - nu**2)

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


# DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, II.4 and II.10), with scipy's coefficients to the double: (c, row of a) per stage
# after the first; a row weighs the stages before it, from stage 0.
_STAGES = (
    (0.05260015195876773, (0.05260015195876773,)),
    (0.0789002279381516, (0.0197250569845379, 0.0591751709536137)),
    (0.1183503419072274, (0.02958758547680685, 0.0, 0.08876275643042054)),
    (0.2816496580927726, (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792)),
    (0.3333333333333333, (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242)),
    (0.25, (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125)),
    (0.3076923076923077, (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
                          -0.015319437748624402, 0.008273789163814023)),
    (0.6512820512820513, (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
                          27.59209969944671, 20.154067550477894, -43.48988418106996)),
    (0.6, (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
           15.279233632882423, -33.28821096898486, -0.020331201708508627)),
    (0.8571428571428571, (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
                          -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
                          -3.0467644718982196)),
    (1.0, (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
           27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636)),
)
# the 8th-order weights, and the 5th- and 3rd-order error estimates (DOP853's combined norm)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
      0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
# the three stages of the 7th-order dense output; stage 12 is f at the step's end
_DENSE_STAGES = (
    (0.1, (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
           -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298)),
    (0.2, (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
           -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
           -0.00034046500868740456, 0.1413124436746325)),
    (0.7777777777777778, (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
                          4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
                          2.9475147891527724, -9.15095847217987)),
)
# the interpolant's last four coefficients, per stage of the 16
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0  # scipy's step control; the error exponent is -1/8


def _stages(fun, t, h, u, v, ku, kv, tableau):
    """Append to ku and kv fun's two components at each stage of tableau, of the step h from (t, u, v)."""
    for c, a in tableau:
        du, dv = fun(t + c * h, (u + sum(map(mul, a, ku)) * h, v + sum(map(mul, a, kv)) * h))
        ku.append(du)
        kv.append(dv)


def _rms(a, b):
    """scipy's RMS norm of a two-component vector."""
    return math.hypot(abs(a), abs(b)) / math.sqrt(2.0)


def _interpolate(dy, h, f_old, f_new, k, y_old):
    """The step's 7th-order interpolant of one component, as a function of x = (t - t_old)/h:
    Horner in x and 1 - x by turns, from the top coefficient, as scipy evaluates it."""
    f6, f5, f4, f3 = (h * sum(map(mul, d, k)) for d in reversed(_D))
    f2, f1, f0 = 2 * dy - h * (f_new + f_old), h * f_old - dy, dy
    return lambda x: ((((((f6 * x + f5) * (1 - x) + f4) * x + f3) * (1 - x) + f2) * x + f1) * (1 - x) + f0) * x + y_old


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol):
    """Integrate the state y = (u, u') of y' = fun(t, y) from y0 at t_span[0] to t_span[1] with
    DOP853, as scipy.integrate.solve_ivp(method="DOP853") does: its initial-step rule, step
    control and error norm, and its dense output, built only for a step that holds a point of
    t_eval.  The arithmetic runs on Python scalars of y0's dtype, real or complex.

    The result has t, y, nfev, success and message.  Its y holds (u, u') at t_eval, points
    ordered in the direction of the solve, or at each step when t_eval is None.  A non-finite
    state or error norm raises FloatingPointError; a step below ten spacings of t ends the solve
    with success False.
    """
    t, t_end, atol = float(t_span[0]), float(t_span[1]), float(atol)
    rtol = max(float(rtol), 100 * sys.float_info.epsilon)
    direction = 1.0 if t_end >= t else -1.0
    u, v = y0.tolist()
    fu, fv = fun(t, (u, v))
    nfev, points, served = 1, [] if t_eval is None else t_eval.tolist(), 0
    ts, us, vs = ([t], [u], [v]) if t_eval is None else (points, [], [])
    if t != t_end:  # the initial step (Hairer, Norsett & Wanner, II.4)
        su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
        d0, d1, interval = _rms(u / su, v / sv), _rms(fu / su, fv / sv), abs(t_end - t)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
        gu, gv = fun(t + h0 * direction, (u + h0 * direction * fu, v + h0 * direction * fv))
        nfev += 1
        d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        h_abs = min(100 * h0, h1, interval)
    while direction * (t_end - t) > 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                y = np.array([us, vs])
                return SimpleNamespace(t=np.array(ts), y=y, nfev=nfev, success=False, message=_TOO_SMALL_STEP)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            ku, kv = [fu], [fv]
            _stages(fun, t, h, u, v, ku, kv, _STAGES)
            u_new, v_new = u + h * sum(map(mul, _B, ku)), v + h * sum(map(mul, _B, kv))
            fu_new, fv_new = fun(t + h, (u_new, v_new))
            nfev += 12
            au, av = abs(u_new), abs(v_new)
            su, sv = atol + max(abs(u), au) * rtol, atol + max(abs(v), av) * rtol
            e5 = abs(sum(map(mul, _E5, ku)) / su) ** 2 + abs(sum(map(mul, _E5, kv)) / sv) ** 2
            e3 = abs(sum(map(mul, _E3, ku)) / su) ** 2 + abs(sum(map(mul, _E3, kv)) / sv) ** 2
            err = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 2) if e5 or e3 else 0.0
            if not au + av + err < math.inf:
                raise FloatingPointError(f"non-finite state or error norm in the step from t = {t:g}")
            if err < 1:
                factor = min(_MAX_FACTOR, _SAFETY * err**-0.125) if err else _MAX_FACTOR
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.125)
            rejected = True
        if t_eval is None:
            ts.append(t_new)
            us.append(u_new)
            vs.append(v_new)
        elif served < len(points) and direction * (points[served] - t_new) <= 0:  # the step holds a point
            ku.append(fu_new)
            kv.append(fv_new)
            _stages(fun, t, h, u, v, ku, kv, _DENSE_STAGES)
            nfev += 3
            pu = _interpolate(u_new - u, h, fu, fu_new, ku, u)
            pv = _interpolate(v_new - v, h, fv, fv_new, kv, v)
            while served < len(points) and direction * (points[served] - t_new) <= 0:
                x = (points[served] - t) / h
                us.append(pu(x))
                vs.append(pv(x))
                served += 1
        t, u, v, fu, fv = t_new, u_new, v_new, fu_new, fv_new
    us += [u] * (len(points) - served)  # a solve of zero length takes no step: its points take y0
    vs += [v] * (len(points) - served)
    return SimpleNamespace(t=np.array(ts), y=np.array([us, vs]), nfev=nfev, success=True, message=_FINISHED)


def _integrate(params, energy, span, u0, du0, tol, atol=None, t_eval=None):
    """Integrate -u'' + V u = E u over span, forward or backward, from (u0, du0)
    at span[0], with solve_ivp; its result.  Its y holds (u, u') at t_eval, or at each
    step when t_eval is None.

    The state is real where energy and data are real, else complex.
    atol defaults to tol times the larger initial magnitude.  IllConditionedError where
    the arithmetic overflows, divides by zero or makes a nan: near the origin, where
    u''/u' ~ 1/x, the error norm squares about 1/(x tol), which leaves double range below
    x ~ 1e-147 at tol 1e-10.
    """
    if atol is None:
        atol = tol * max(abs(u0), abs(du0))
    y0 = np.array([u0, du0], dtype=np.result_type(u0, du0, energy))
    rhs = _rhs(params, y0.dtype.type(energy).item(), float(min(span)))
    try:
        res = solve_ivp(rhs, span, y0, t_eval=t_eval, rtol=tol, atol=atol)
    except ArithmeticError as exc:  # FloatingPointError, OverflowError, ZeroDivisionError
        raise IllConditionedError(f"integration over ({span[0]:g}, {span[1]:g}) leaves double range: {exc}") from None
    if not res.success:
        raise StepFailureError(f"integration over {span} failed: {res.message}")
    return res


def _at_points(params, energy, x_from, xs, u0, du0, tol, atol=None):
    """(u, u') at the points xs, each in the shape of xs, from one solve that starts at
    x_from with (u0, du0) and ends at the point of xs farthest from it.  Every point
    lies on one side of x_from; points may come in any order and may repeat."""
    grid, inv = np.unique(xs, return_inverse=True)
    if grid[0] < x_from:  # inward: solve_ivp takes t_eval in the direction of the solve
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
    where the later terms are not small.  IllConditionedError when u would underflow: zero
    data gives the step control no scale.
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
