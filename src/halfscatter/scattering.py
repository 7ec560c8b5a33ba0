"""Generalized Fourier kernels, the scattering function, and transform quadrature.

The scattering function is a product of four gamma factors against their
conjugates, hence exactly unimodular; the kernels are unimodular gamma
prefactors times the real regular boundary solution.  Transforms are realized
as composite Gauss-Legendre panel quadratures: the kernels are smooth in x
and exponentially flat at infinity, so fixed-width panels converge fast.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureWarning
from .model import ModelParams, classify_beta
from .solutions import SpectralPoint, eval_L, eval_N, wronskian
from .specfun import beta_fn, log_gamma_ratio

__all__ = [
    "ScatteringSample",
    "SampledFunction",
    "log_sigma",
    "sigma",
    "sigma_at_zero",
    "sigma_samples",
    "fourier_kernel",
    "script_F",
    "b_factor",
    "dilation_scaled_kernel",
    "quadrature_panels",
    "sine_transform",
    "forward_transform",
    "adjoint_transform",
    "fourier_kernel_matrix",
    "wave_operator_apply",
]

X_MAX_DEFAULT = 30.0
K_CUTOFF_DEFAULT = 40.0  # k-integration cutoff of the transforms


def log_sigma(params: ModelParams, k):
    """Log of sigma(k), k > 0: 2i Im of its numerator gammas' log sum, as the
    denominator gammas are their conjugates.  No gamma argument meets the
    negative real axis, so the phase is continuous in k."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise DomainError("sigma requires k > 0 (use sigma_at_zero for the endpoint)")
    ik2 = 0.5j * k
    return 2j * log_gamma_ratio((params.alpha - ik2, params.beta - ik2, 1.0 + ik2, 0.5 + ik2), ()).imag


def sigma(params: ModelParams, k):
    """Unimodular scattering function, a four-gamma product ratio; k > 0."""
    out = np.exp(log_sigma(params, k))
    return complex(out) if out.ndim == 0 else out


def sigma_at_zero(params: ModelParams) -> float:
    """Case value at k = 0: -1 iff beta is a nonpositive integer, else +1."""
    return -1.0 if classify_beta(params).kind == "negative_integer" else 1.0


@dataclass(frozen=True)
class ScatteringSample:
    k: float
    sigma: complex
    phase: float


def sigma_samples(params: ModelParams, k_nodes) -> list[ScatteringSample]:
    """Scattering samples on a k-grid; the phase is the principal argument at
    the first node plus the change of Im log_sigma, which cannot alias."""
    logs = np.atleast_1d(log_sigma(params, k_nodes))
    values = np.exp(logs)
    phases = np.angle(values[0]) + (logs - logs[0]).imag
    return [
        ScatteringSample(k=float(kk), sigma=complex(vv), phase=float(ph))
        for kk, vv, ph in zip(np.atleast_1d(k_nodes), values, phases)
    ]


def fourier_kernel(params: ModelParams, side, x, k: float):
    """Generalized Fourier kernel at one k: the one-row case of fourier_kernel_matrix."""
    out = fourier_kernel_matrix(params, side, x, [float(k)])[0]
    return complex(out) if np.ndim(out) == 0 else out


def script_F(params: ModelParams, x, k: float):
    """Outgoing building block 2^(ik) N(x; zeta=+ik) / sqrt(2 pi); the minus
    kernel is -i (script_F sigma - conj script_F)."""
    pt = SpectralPoint.boundary(float(k), -1)
    out = np.exp(1j * pt.k * np.log(2.0)) * eval_N(params, x, pt) / np.sqrt(2.0 * np.pi)
    return complex(out) if np.ndim(out) == 0 else out


def b_factor(params: ModelParams, k: float) -> complex:
    """High-energy normalization factor; tends to 1 as k grows."""
    if k <= 0:
        raise DomainError("b_factor requires k > 0")
    bb = beta_fn(params.beta - 0.5j * k, params.alpha - params.mu - 0.5j * k)
    return complex(
        np.sqrt(k) * bb / (np.exp(0.25j * np.pi) * np.exp(1j * k * np.log(2.0)) * np.sqrt(2.0 * np.pi))
    )


def dilation_scaled_kernel(params: ModelParams, eps: float, x, k: float):
    """Rescaled minus kernel at (eps*x, k/eps), interpolating Bessel and plane-wave limits."""
    if eps <= 0:
        raise DomainError("dilation scale eps must be positive")
    return fourier_kernel(params, -1, np.asarray(x, dtype=float) * eps, k / eps)


# ---------------------------------------------------------------------------
# Quadrature carrier and the generalized Fourier transforms.


@dataclass
class SampledFunction:
    """Function samples on a strictly increasing grid with quadrature weights."""

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        self.weights = np.asarray(self.weights, dtype=float)
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))

    def inner(self, other: "SampledFunction") -> complex:
        return complex(np.sum(self.weights * np.conj(self.values) * other.values))


def quadrature_panels(
    a: float = 0.0,
    b: float = X_MAX_DEFAULT,
    panel_width: float = 1.0,
    nodes_per_panel: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on (a, b]."""
    n_panels = int(np.ceil((b - a) / panel_width))
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes, weights = [], []
    for j in range(n_panels):
        lo = a + j * panel_width
        hi = min(lo + panel_width, b)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def sample_on_panels(fn, a=0.0, b=X_MAX_DEFAULT, panel_width=1.0, nodes_per_panel=32) -> SampledFunction:
    """Sample a callable on a composite Gauss-Legendre grid."""
    x, w = quadrature_panels(a, b, panel_width, nodes_per_panel)
    return SampledFunction(grid=x, values=np.asarray(fn(x)), weights=w)


def _as_k_grid(k_grid) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(k_grid, SampledFunction):
        return k_grid.grid, k_grid.weights
    k = np.asarray(k_grid, dtype=float)
    if k.size < 2:
        return k, np.ones_like(k)
    # plain node array: trapezoid weights
    w = np.empty_like(k)
    w[1:-1] = 0.5 * (k[2:] - k[:-2])
    w[0] = 0.5 * (k[1] - k[0])
    w[-1] = 0.5 * (k[-1] - k[-2])
    return k, w


def _check_tail(f: SampledFunction, label: str):
    norm = f.norm()
    if norm == 0:
        return
    tail = float(np.sqrt(np.sum(f.weights[-32:] * np.abs(f.values[-32:]) ** 2)))
    if tail > 1e-4 * norm:
        warnings.warn(
            f"{label}: last-32-node tail/norm = {tail / norm:.3g} exceeds 1e-4",
            QuadratureWarning,
            stacklevel=3,
        )


def sine_transform(f: SampledFunction, k_grid) -> SampledFunction:
    """Unitary sine transform sqrt(2/pi) integral sin(kx) f(x) dx by panel quadrature."""
    k, kw = _as_k_grid(k_grid)
    kernel = np.sin(np.outer(k, f.grid))
    vals = np.sqrt(2.0 / np.pi) * kernel @ (f.weights * f.values)
    return SampledFunction(grid=k, values=vals, weights=kw)


def fourier_kernel_matrix(params: ModelParams, side, x_nodes, k_nodes) -> np.ndarray:
    """Matrix K[j, ...] = kernel_side(x, k_j), one broadcast evaluation over (k, x).

    kernel_side(x, k) = -(2^(+/-ik)) sqrt(2/pi) k L(x,k) / W^(-/+)(k).  The
    regular boundary solution is real, so its stray imaginary rounding noise
    is dropped before scaling.
    """
    side = SpectralPoint.parse_side(side)
    x = np.asarray(x_nodes, dtype=float)
    k = np.asarray(k_nodes, dtype=float).reshape((-1,) + (1,) * x.ndim)
    w_opp = wronskian(params, SpectralPoint.boundary(k, -side))
    pref = -np.exp(1j * side * k * np.log(2.0)) * np.sqrt(2.0 / np.pi) * k / w_opp
    kernel = eval_L(params, x, SpectralPoint.boundary(k, +1))
    kernel.imag = 0.0
    kernel *= pref
    return kernel


def forward_transform(params: ModelParams, side, f: SampledFunction, k_grid, kernel_matrix=None) -> SampledFunction:
    """Generalized Fourier transform: (F^side f)(k) = integral kernel^(-side)(x,k) f(x) dx."""
    side = SpectralPoint.parse_side(side)
    k, kw = _as_k_grid(k_grid)
    _check_tail(f, "forward_transform")
    if kernel_matrix is None:
        kernel_matrix = fourier_kernel_matrix(params, -side, f.grid, k)
    vals = kernel_matrix @ (f.weights * f.values)
    return SampledFunction(grid=k, values=vals, weights=kw)


def adjoint_transform(params: ModelParams, side, g: SampledFunction, x_grid, kernel_matrix=None) -> SampledFunction:
    """Adjoint transform: ((F^side)* g)(x) = integral kernel^side(x,k) g(k) dk."""
    side = SpectralPoint.parse_side(side)
    if isinstance(x_grid, SampledFunction):
        x, xw = x_grid.grid, x_grid.weights
    else:
        x, xw = _as_k_grid(np.asarray(x_grid, dtype=float))
    _check_tail(g, "adjoint_transform")
    if kernel_matrix is None:
        kernel_matrix = fourier_kernel_matrix(params, side, x, g.grid)
    vals = kernel_matrix.T @ (g.weights * g.values)
    return SampledFunction(grid=x, values=vals, weights=xw)


def wave_operator_apply(
    params: ModelParams,
    side,
    f: SampledFunction,
    k_max: float = K_CUTOFF_DEFAULT,
    nodes_per_panel: int = 16,
) -> SampledFunction:
    """Stationary wave operator action W_side f = (F^side)* (sine transform of f).

    The k-integration is truncated at k_max; for smooth compactly supported f
    the sine transform decays rapidly, so the truncation error is negligible
    well before the documented O(1/k_max) bound.
    """
    kk, kw = quadrature_panels(0.0, k_max, 1.0, nodes_per_panel)
    g = sine_transform(f, SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw))
    return adjoint_transform(params, side, g, f)
