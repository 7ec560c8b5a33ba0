"""Resolvent kernel, boundary kernels, spectral density, and bound-state data."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AtEigenvalueError, DomainError, IllConditionedError, NoConvergenceError
from .model import ModelParams, _integer, classify_beta
from .solutions import SpectralPoint, _bound_state, _solution, _wronskian_gammas, eval_L, eval_M, wronskian
from .specfun import gamma_ratio, log_gamma_ratio

__all__ = [
    "BoundStateLevel",
    "BoundStateReport",
    "resolvent_kernel",
    "resolvent_boundary_kernel",
    "spectral_density_kernel",
    "bound_states",
    "wronskian_roots",
    "eigenfunction",
]

ROOT_SCAN_START = 1e-9  # first node of wronskian_roots' scan, just above the edge zeta = 0
# Brent's stop rule and step cap, scipy.optimize.brentq's at xtol = 1e-12
_XTOL, _RTOL, _MAXITER = 1e-12, 4 * sys.float_info.epsilon, 100


@dataclass(frozen=True)
class BoundStateLevel:
    n: int
    zeta: float
    energy: float


@dataclass(frozen=True)
class BoundStateReport:
    count: int
    levels: tuple[BoundStateLevel, ...]


def _union(x, y):
    """Sorted union of the points of x and y (broadcast together), the index
    of each x and y point in it, and the broadcast shape."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    pts, inv = np.unique(np.concatenate([x.ravel(), y.ravel()]), return_inverse=True)
    return pts, inv[: x.size], inv[x.size :], x.shape


def _used(pts, at):
    """The points of pts that the indices at use, in order, then each index's place among them."""
    used = np.zeros(pts.size, dtype=bool)
    used[at] = True
    return pts[used], (np.cumsum(used) - 1)[at]


def _shaped(out, shape):
    out = out.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def resolvent_kernel(params: ModelParams, pt: SpectralPoint, x, y):
    """Kernel of (H + zeta^2)^(-1): -(1/W) L(min) M(max), symmetric in (x, y).

    x and y broadcast against each other; L is evaluated once at each point
    that is some min(x, y), M once at each point that is some max(x, y), as
    the lanes of one 2F1 call (L's lanes, then M's), each equal bit for bit
    to eval_L or eval_M at that point.  An interior point at an eigenvalue
    raises AtEigenvalueError; the boundary Wronskian never vanishes for k > 0.
    A boundary point with an array of k raises DomainError.
    """
    if np.ndim(pt.zeta):
        raise DomainError("resolvent_kernel takes one spectral point, not an array of k")
    w = wronskian(params, pt)
    if not pt.is_boundary and _bound_state(params, pt.zeta) >= 0:
        raise AtEigenvalueError(f"Wronskian vanishes at zeta = {pt.zeta}")
    pts, ix, iy, shape = _union(x, y)
    lo, lo_at = _used(pts, np.minimum(ix, iy))  # the points that are some min, in order
    hi, hi_at = _used(pts, np.maximum(ix, iy))
    sign = np.repeat([-1, 1], [lo.size, hi.size])  # L (sign -1, regular), then M (sign +1)
    lm = _solution(params, np.concatenate([lo, hi]), pt.zeta, sign, sign < 0)
    return _shaped(-lm[lo_at] * lm[lo.size + hi_at] / w, shape)


def resolvent_boundary_kernel(params: ModelParams, k: float, side, x, y):
    """Limiting-absorption boundary value of the resolvent kernel at k^2 +/- i0."""
    return resolvent_kernel(params, SpectralPoint.boundary(k, side), x, y)


def spectral_density_kernel(params: ModelParams, k: float, x, y):
    """Spectral density p(k^2; x, y) = (k/pi) L(x,k) L(y,k) / |W^+(k)|^2.

    Real, symmetric, and nonnegative on the diagonal; equals the resolvent
    jump across the continuous spectrum divided by 2*pi*i.  x and y broadcast
    against each other, and L is evaluated once on the union of their points.
    An array of k raises DomainError.
    """
    if np.ndim(k):
        raise DomainError("spectral_density_kernel takes one k, not an array")
    pt = SpectralPoint.boundary(k, +1)
    w = wronskian(params, pt)
    pts, ix, iy, shape = _union(x, y)
    lv = eval_L(params, pts, pt)
    return _shaped((k / np.pi) * lv[ix] * lv[iy] / (abs(w) ** 2), shape)


def bound_states(params: ModelParams) -> BoundStateReport:
    """Closed-form point spectrum: levels -(nu-mu-1-2n)^2 for n below the n of
    classify_beta (none when beta > 0), the count the index theorem equates
    with the winding."""
    t = params.nu - params.mu - 1.0
    count = classify_beta(params).n or 0
    levels = tuple(BoundStateLevel(n=n, zeta=t - 2.0 * n, energy=-((t - 2.0 * n) ** 2)) for n in range(count))
    return BoundStateReport(count=count, levels=levels)


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Zero of f in the bracket [a, b], whose end values fa = f(a) and fb = f(b) are nonzero
    and of opposite sign, by Brent's method as scipy's brentq.c takes it: inverse quadratic
    or secant steps, bisection where they stall, to |step| below (_XTOL + _RTOL |x|)/2.
    NoConvergenceError after _MAXITER evaluations of f."""
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur takes the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            stry = num / den if den else math.inf  # brentq.c's x/0 is inf or nan, which bisects
            spre, scur = (scur, stry) if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta) else (sbis, sbis)
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergenceError(f"Brent's method left [{a:g}, {b:g}] unresolved after {_MAXITER} steps")


def wronskian_roots(params: ModelParams) -> list[float]:
    """Zeros of the real Wronskian on [s, nu-mu-1+s], s = ROOT_SCAN_START, by
    Brent's method on each bracket of the scan (_brent).

    The zeros are simple, so a scan grid finer than their spacing (which is 2)
    brackets each one in a sign change, tested by sign, since the product of
    two end values can underflow; a zero that lands on a node is taken once,
    as the node.  Returned in decreasing order, matching the level ordering
    of bound_states.  Served while every scanned W is a normal double: at
    mu = 0 up to nu = 1,437, at mu = 49 up to nu = 1,107.  Past that, W
    underflows on the scan and IllConditionedError is raised.
    """
    t = params.nu - params.mu - 1.0
    if t <= 0:
        return []

    def w_real(zeta):
        return float(wronskian(params, SpectralPoint.interior(zeta)).real)

    n_seg = max(4, int(np.ceil(t / 0.25)) + 1)  # scan step 0.25
    grid = np.linspace(ROOT_SCAN_START, t + ROOT_SCAN_START, n_seg).tolist()
    vals = [w_real(g) for g in grid]
    for g, v in zip(grid, vals):
        # W is 0 at a level on a node, where a denominator gamma sits at its pole (log W = -inf);
        # anywhere else a W that is 0, subnormal or inf has left double range
        if not sys.float_info.min <= abs(v) < math.inf:
            if log_gamma_ratio(*_wronskian_gammas(params, g)).real > -np.inf:
                raise IllConditionedError(f"Wronskian W({g:.6g}) = {v:g} is not a normal double; the scan cannot bracket")
    roots = [g for g, v in zip(grid, vals) if v == 0.0]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa != 0 and fb != 0 and (fa < 0) != (fb < 0):  # by sign: fa * fb can underflow to -0
            roots.append(_brent(w_real, a, b, fa, fb))
    return sorted(roots, reverse=True)


def eigenfunction(params: ModelParams, n: int, normalized: bool = False):
    """Bound-state profile as a callable x -> real value, decaying like e^(-zeta_n x).

    The profile is M at zeta_n (eval_M), whose 2F1 terminates as a Jacobi
    polynomial.  Unnormalized by default (no normalization is canonical
    here); pass normalized=True for unit L2 norm, from the closed form
    ||M||^2 = n! Gamma(1+zeta_n)^2 Gamma(n+mu+1) / (2 zeta_n Gamma(n+zeta_n+1) Gamma(n+zeta_n+mu+1)).
    """
    n, report = _integer("eigenfunction index n", n), bound_states(params)
    if not 0 <= n < report.count:
        raise IndexError(f"eigenfunction index {n} out of range (count = {report.count})")
    zeta_n, mu = report.levels[n].zeta, params.mu
    pt, scale = SpectralPoint.interior(zeta_n), 1.0
    if normalized:
        num, den = (n + 1.0, 1.0 + zeta_n, 1.0 + zeta_n, n + mu + 1.0), (n + zeta_n + 1.0, n + zeta_n + mu + 1.0)
        scale = 1.0 / np.sqrt(gamma_ratio(num, den).real / (2.0 * zeta_n))
    return lambda x: scale * eval_M(params, x, pt).real
