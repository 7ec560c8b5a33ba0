"""Resolvent kernel, boundary kernels, spectral density, and bound-state data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_jacobi

from .errors import AtEigenvalueError
from .model import ModelParams
from .solutions import SpectralPoint, eval_L, eval_M, wronskian
from .specfun import _nonpos_int, hyp2f1_values

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


def _shaped(out, shape):
    out = out.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def resolvent_kernel(params: ModelParams, pt: SpectralPoint, x, y):
    """Kernel of (H + zeta^2)^(-1): -(1/W) L(min) M(max), symmetric in (x, y).

    x and y broadcast against each other; L is evaluated once at each point
    that is some min(x, y), M once at each point that is some max(x, y).  An
    interior point at an eigenvalue raises AtEigenvalueError; the boundary
    Wronskian never vanishes for k > 0.
    """
    w = wronskian(params, pt)
    if not pt.is_boundary and _nonpos_int(params.beta + pt.zeta / 2.0):
        raise AtEigenvalueError(f"Wronskian vanishes at zeta = {pt.zeta}")
    pts, ix, iy, shape = _union(x, y)
    lo, lo_at = np.unique(np.minimum(ix, iy), return_inverse=True)
    hi, hi_at = np.unique(np.maximum(ix, iy), return_inverse=True)
    return _shaped(-eval_L(params, pts[lo], pt)[lo_at] * eval_M(params, pts[hi], pt)[hi_at] / w, shape)


def resolvent_boundary_kernel(params: ModelParams, k: float, side, x, y):
    """Limiting-absorption boundary value of the resolvent kernel at k^2 +/- i0."""
    return resolvent_kernel(params, SpectralPoint.boundary(k, side), x, y)


def spectral_density_kernel(params: ModelParams, k: float, x, y):
    """Spectral density p(k^2; x, y) = (k/pi) L(x,k) L(y,k) / |W^+(k)|^2.

    Real, symmetric, and nonnegative on the diagonal; equals the resolvent
    jump across the continuous spectrum divided by 2*pi*i.  x and y broadcast
    against each other, and L is evaluated once on the union of their points.
    """
    pt = SpectralPoint.boundary(k, +1)
    w = wronskian(params, pt)
    pts, ix, iy, shape = _union(x, y)
    lv = eval_L(params, pts, pt)
    return _shaped((k / np.pi) * lv[ix] * lv[iy] / (abs(w) ** 2), shape)


def bound_states(params: ModelParams) -> BoundStateReport:
    """Closed-form point spectrum: levels -(nu-mu-1-2n)^2 while the root stays positive."""
    t = params.nu - params.mu - 1.0
    half = t / 2.0
    r = round(half)
    if abs(half - r) < 1e-12:
        count = max(int(r), 0)
    else:
        count = max(int(np.ceil(half)), 0)
    levels = []
    for n in range(count):
        zeta_n = t - 2.0 * n
        levels.append(BoundStateLevel(n=n, zeta=zeta_n, energy=-(zeta_n**2)))
    return BoundStateReport(count=count, levels=tuple(levels))


def wronskian_roots(
    params: ModelParams,
    scan_step: float = 0.25,
    delta: float = 1e-9,
    xtol: float = 1e-12,
) -> list[float]:
    """Zeros of the real Wronskian on (delta, nu-mu-1+delta] by Brent's method.

    The zeros are simple, so a scan grid finer than their spacing (which is 2)
    brackets each one in a sign change; a zero that lands on a node is taken
    once, as the node.  Returned in decreasing order, matching the level
    ordering of bound_states.
    """
    t = params.nu - params.mu - 1.0
    if t <= 0:
        return []

    def w_real(zeta):
        return wronskian(params, SpectralPoint.interior(zeta)).real

    n_seg = max(4, int(np.ceil(t / scan_step)) + 1)
    grid = np.linspace(delta, t + delta, n_seg)
    vals = [w_real(g) for g in grid]
    roots = [float(g) for g, v in zip(grid, vals) if v == 0.0]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            roots.append(brentq(w_real, a, b, xtol=xtol))
    return sorted(roots, reverse=True)


def eigenfunction(params: ModelParams, n: int, normalized: bool = False):
    """Bound-state profile as a callable x -> real value, decaying like e^(-zeta_n x).

    Unnormalized by default (no normalization is canonical here); pass
    normalized=True for unit L2 norm by Gauss-Jacobi quadrature.
    """
    report = bound_states(params)
    if not 0 <= n < report.count:
        raise IndexError(f"eigenfunction index {n} out of range (count = {report.count})")
    zeta_n = report.levels[n].zeta
    pt = SpectralPoint.interior(zeta_n)

    def profile(x):
        val = eval_M(params, x, pt)
        return val.real if np.isscalar(val) or np.ndim(val) == 0 else np.real(val)

    if not normalized:
        return profile
    # with t = sech^2 x the squared norm is (1/2) int_0^1 (1-t)^mu t^(zeta_n-1) F(t)^2 dt,
    # F the degree-n terminating 2F1 of M, which n+2 Gauss-Jacobi nodes integrate exactly
    u, w = roots_jacobi(n + 2, params.mu, zeta_n - 1.0)
    f = hyp2f1_values(params.alpha + zeta_n / 2.0, params.beta + zeta_n / 2.0, 1.0 + zeta_n, (1.0 + u) / 2.0)
    scale = 1.0 / np.sqrt(2.0 ** (-1.0 - params.mu - zeta_n) * np.sum(w * f.real**2))

    def normalized_profile(x):
        return scale * profile(x)

    return normalized_profile
