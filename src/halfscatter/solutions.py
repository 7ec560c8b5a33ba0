"""Closed-form solutions of -u'' + V u = -zeta^2 u and their connection data.

Three solutions are evaluated from hypergeometric representations in
z = tanh(x)^2 (regular solution, selected by the x^(1/2+mu) behavior at the
origin) or sech(x)^2 (the exponentially normalized pair at infinity).  For
small x the sech^2 argument sits near 1 and the value is produced through the
z -> 1-z machinery inside the 2F1 core, including the digamma representation
when mu is an integer.  Boundary values on the continuous spectrum are direct
substitutions zeta = -/+ i k, no epsilon limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidCError, PoleError
from .model import ModelParams
from .specfun import _near_int, _nonpos_int, gamma_ratio, hyp2f1_values, log_gamma

__all__ = [
    "SpectralPoint",
    "ConnectionCoefficients",
    "eval_L",
    "eval_M",
    "eval_N",
    "wronskian",
    "connection_coefficients",
]


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter: interior zeta with Re zeta > 0, or boundary -/+ ik.

    Sign convention: side +1 is the limit from the upper spectral half-plane
    and corresponds to zeta = -ik; side -1 to zeta = +ik.  A boundary point
    may carry an array of k, a grid of points on one side: the solutions and
    Wronskians then broadcast over it.
    """

    zeta: complex
    k: float | None = None
    side: int | None = None

    @property
    def is_boundary(self) -> bool:
        return self.k is not None

    @classmethod
    def interior(cls, zeta) -> "SpectralPoint":
        zeta = complex(zeta)
        if zeta.real <= 0:
            raise DomainError(f"interior spectral point needs Re(zeta) > 0, got {zeta}")
        return cls(zeta=zeta)

    @staticmethod
    def parse_side(side) -> int:
        """Side as +1 or -1; the strings "+" and "-" are accepted."""
        if isinstance(side, str):
            side = {"+": 1, "-": -1}[side]
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        return side

    @classmethod
    def boundary(cls, k, side) -> "SpectralPoint":
        side = cls.parse_side(side)
        k = float(k) if np.ndim(k) == 0 else np.asarray(k, dtype=float)
        if np.any(k <= 0):
            raise DomainError(f"boundary spectral point needs k > 0, got {k}")
        return cls(zeta=-1j * side * k, k=k, side=side)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Coefficients in the decomposition of the regular solution over M and N."""

    c_M: complex
    c_N: complex


def _log_cosh(x):
    # stable for large x: log cosh x = x - log 2 + log1p(e^{-2x})
    return x - np.log(2.0) + np.log1p(np.exp(-2.0 * x))


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("solutions are defined for x > 0")
    return x


def _solution(params: ModelParams, x, zeta, sign: int, regular: bool):
    """Shared closed form (tanh x)^(1/2+mu) (cosh x)^(-sign zeta) F(alpha + sign zeta/2,
    beta + sign zeta/2; c; .), with F in tanh^2 x (regular: c = 1+mu) or in
    sech^2 x (c = 1 + sign zeta).  x and zeta broadcast against each other.
    """
    x = _check_x(x)
    scalar = x.ndim == 0 and np.ndim(zeta) == 0
    x = np.atleast_1d(x)
    a = params.alpha + sign * zeta / 2.0
    b = params.beta + sign * zeta / 2.0
    th = np.tanh(x)
    lc = _log_cosh(x)
    if regular:
        F = hyp2f1_values(a, b, 1.0 + params.mu, th**2, log_w=-2.0 * lc)
    else:
        if np.any(_nonpos_int(1.0 + sign * zeta)):
            raise InvalidCError(f"c = 1 + {sign} zeta is a nonpositive integer at zeta = {zeta}; perturb zeta")
        F = hyp2f1_values(a, b, 1.0 + sign * zeta, np.exp(-2.0 * lc), log_w=2.0 * np.log(th))
    # in place: on a (k, x) grid these are the largest arrays in the package
    pref = np.asarray(-sign * zeta, dtype=complex) * lc
    pref += (0.5 + params.mu) * np.log(th)
    F *= np.exp(pref, out=pref)
    return complex(F[0]) if scalar else F


def eval_L(params: ModelParams, x, pt: SpectralPoint):
    """Regular solution, L(x) = x^(1/2+mu) (1 + O(x^2)) near the origin."""
    return _solution(params, x, pt.zeta, -1, regular=True)


def eval_M(params: ModelParams, x, pt: SpectralPoint):
    """Decaying solution, M(x) = 2^zeta e^(-zeta x) (1 + O(e^(-2x))) at infinity."""
    return _solution(params, x, pt.zeta, +1, regular=False)


def eval_N(params: ModelParams, x, pt: SpectralPoint):
    """Growing solution, N(x) = 2^(-zeta) e^(zeta x) (1 + O(e^(-2x))) at infinity."""
    return _solution(params, x, pt.zeta, -1, regular=False)


def wronskian(params: ModelParams, pt: SpectralPoint) -> complex:
    """Wronskian of (L, M): -2 Gamma(1+mu) Gamma(1+zeta) / (Gamma(alpha+zeta/2) Gamma(beta+zeta/2)).

    Returns an exact 0 when beta + zeta/2 sits at a pole of the denominator
    gamma, which is precisely the bound-state condition.
    """
    zeta = pt.zeta
    return -2.0 * gamma_ratio(
        (1.0 + params.mu, 1.0 + zeta),
        (params.alpha + zeta / 2.0, params.beta + zeta / 2.0),
    )


def connection_coefficients(params: ModelParams, pt: SpectralPoint) -> ConnectionCoefficients:
    """Coefficients with L = c_M * M + c_N * N; PoleError at integer interior zeta."""
    zeta = pt.zeta
    if not pt.is_boundary and _near_int(zeta)[0]:
        raise PoleError(f"Gamma(+/-zeta) pole at integer zeta = {zeta}")
    c_M = gamma_ratio(
        (1.0 + params.mu, -zeta),
        (params.alpha - zeta / 2.0, params.beta - zeta / 2.0),
    )
    c_N = gamma_ratio(
        (1.0 + params.mu, zeta),
        (params.alpha + zeta / 2.0, params.beta + zeta / 2.0),
    )
    return ConnectionCoefficients(c_M=c_M, c_N=c_N)


def wronskian_scale(params: ModelParams, pt: SpectralPoint) -> float:
    """Magnitude of the Wronskian numerator, the natural near-zero scale."""
    return float(
        2.0 * np.exp((log_gamma(1.0 + params.mu) + log_gamma(1.0 + pt.zeta)).real)
    )
