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
from scipy.special import eval_jacobi

from .errors import DomainError, IllConditionedError, InvalidCError, PoleError
from .model import BETA_INT_TOL, ModelParams, _positive
from .specfun import BLOCK_LANES, _near_int, gamma_ratio, hyp2f1_values, log_gamma_ratio

__all__ = [
    "SpectralPoint",
    "ConnectionCoefficients",
    "eval_L",
    "eval_M",
    "eval_N",
    "eval_derivative",
    "wronskian",
    "connection_coefficients",
]


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter: interior zeta (finite, Re zeta > 0), or boundary -/+ ik (finite k > 0).

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
        if not np.isfinite(zeta):
            raise DomainError(f"interior spectral point needs a finite zeta, got {zeta}")
        if zeta.real <= 0:
            raise DomainError(f"interior spectral point needs Re(zeta) > 0, got {zeta}")
        return cls(zeta=zeta)

    @staticmethod
    def parse_side(side) -> int:
        """Side as +1 or -1; the strings "+" and "-" are accepted.  Anything
        else raises DomainError."""
        if isinstance(side, str):
            side = {"+": 1, "-": -1}.get(side, side)
        if side not in (1, -1):
            raise DomainError(f"side must be +1 or -1, got {side!r}")
        return side

    @classmethod
    def boundary(cls, k, side) -> "SpectralPoint":
        side = cls.parse_side(side)
        k = _positive("k", k)
        return cls(zeta=-1j * side * k, k=k, side=side)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Coefficients in the decomposition of the regular solution over M and N."""

    c_M: complex
    c_N: complex


def _log_cosh(x):
    # stable for large x: log cosh x = x - log 2 + log1p(e^{-2x})
    return x - np.log(2.0) + np.log1p(np.exp(-2.0 * x))


def _bound_state(params: ModelParams, zeta) -> int:
    """n >= 0 if beta + zeta/2 = -n within BETA_INT_TOL at a scalar zeta (a bound state), else -1."""
    b = params.beta + zeta / 2.0
    n = -round(b.real) if np.ndim(b) == 0 and abs(b.real) < np.inf else -1
    return n if n >= 0 and abs(b.imag) <= BETA_INT_TOL and abs(b.real + n) <= BETA_INT_TOL else -1


def _not_finite(zeta):
    return IllConditionedError(f"solution not finite in double precision (|zeta| up to {np.max(np.abs(zeta)):.6g})")


def _kind(params: ModelParams, zeta, sign: int, regular: bool):
    """One kind's 2F1 parameters a, b, c and its exponent -sign zeta, formed from Python scalars."""
    a = params.alpha + sign * zeta / 2.0
    b = params.beta + sign * zeta / 2.0
    c = 1.0 + params.mu if regular else 1.0 + sign * zeta
    return a, b, c, -sign * zeta


def _solution(params: ModelParams, x, zeta, sign, regular, derivative: bool = False):
    """Shared closed form (tanh x)^(1/2+mu) (cosh x)^(-sign zeta) F(alpha + sign zeta/2,
    beta + sign zeta/2; c; w), with F in w = tanh^2 x (regular: c = 1+mu) or in
    w = sech^2 x (c = 1 + sign zeta).  x and zeta broadcast against each other.
    sign and regular choose the kind (L, M or N).  At a scalar zeta they may
    be arrays that broadcast against x, one kind per lane, so that one
    hyp2f1_values call serves several kinds: each kind's a, b, c and
    -sign zeta are formed as for that kind alone and then placed on its
    lanes, and w and log(1-w) are chosen per lane from whole-array results,
    so each lane's value equals its point evaluated with its kind alone, bit
    for bit (a derivative's ab/c is then formed per lane, in numpy).
    For M at a scalar zeta where b = beta + zeta/2 = -n, F is
    n!/(1+zeta)_n P_n^(zeta, mu)(1 - 2 sech^2 x) (DLMF 15.9.1): the Jacobi
    polynomial does not cancel near x = 0 as the sum in sech^2 x does.  Only
    a scalar kind takes that form; resolvent_kernel, the caller with one kind
    per lane, refuses a bound state first.
    With derivative, d/dx of the same: F'(w) = (ab/c) F(a+1, b+1; c+1; w)
    (DLMF 15.5.1), the shifted row of the same hyp2f1_values call, or at a
    bound state dP_n^(p, q)/dt = (n+p+q+1)/2 P_(n-1)^(p+1, q+1) (DLMF 18.9.15).
    An x that is not finite and > 0 raises DomainError; a value that is not finite, IllConditionedError.
    """
    x = _positive("x", x)
    scalar = np.ndim(x) == 0 and np.ndim(zeta) == 0
    x = np.atleast_1d(x)
    th = np.tanh(x)
    lc = _log_cosh(x)
    if np.ndim(sign) == np.ndim(regular) == 0:
        a, b, c, exponent = _kind(params, zeta, sign, regular)
        w, log_w = (th**2, -2.0 * lc) if regular else (np.exp(-2.0 * lc), 2.0 * np.log(th))
        n = _bound_state(params, zeta) if sign > 0 and not regular else -1  # M at a bound state
    else:
        kinds = [_kind(params, zeta, s, r) for r in (False, True) for s in (-1, 1)]  # at (sign > 0) + 2 regular
        a, b, c, exponent = np.array(kinds).T.take((np.asarray(sign) > 0) + 2 * np.asarray(regular), axis=1)
        w, log_w = np.where(regular, th**2, np.exp(-2.0 * lc)), np.where(regular, -2.0 * lc, 2.0 * np.log(th))
        n = -1
    try:
        if n >= 0:
            scale = gamma_ratio((n + 1.0, 1.0 + zeta), (n + 1.0 + zeta,))  # n!/(1+zeta)_n
            zr, t = complex(zeta).real, 1.0 - 2.0 * w
            F = scale * eval_jacobi(n, zr, params.mu, t)
            if derivative:  # dt/dw = -2; scipy's P_(-1) is 0, the derivative of P_0
                dF = -scale * (n + zr + params.mu + 1.0) * eval_jacobi(n - 1, zr + 1.0, params.mu + 1.0, t)
        elif derivative:  # F and the shifted F as two rows, on a new axis ahead of every lane axis
            nd = np.broadcast(a, b, c, w).ndim
            rows = (np.reshape([v, v + 1.0], (2,) + (1,) * (nd - np.ndim(v)) + np.shape(v)) for v in (a, b, c))
            F, dF = hyp2f1_values(*rows, w, log_w=log_w)
            dF = a * b / c * dF
        else:
            F = hyp2f1_values(a, b, c, w, log_w=log_w)
    except InvalidCError:  # only c = 1 + sign zeta can be a nonpositive integer; the error names zeta
        msg = f"c = 1 + {sign} zeta is a nonpositive integer at zeta = {zeta}; perturb zeta"
        raise InvalidCError(msg) from None
    except IllConditionedError:
        raise _not_finite(zeta) from None
    # in place: on a (k, x) grid these are the largest arrays in the package
    with np.errstate(over="ignore", invalid="ignore"):
        pref = np.asarray(exponent, dtype=complex) * lc
        pref += (0.5 + params.mu) * np.log(th)
        np.exp(pref, out=pref)
        if derivative:
            # (log pref)' = (1/2+mu) sech^2 x / tanh x - sign zeta tanh x; w' = +/-2 tanh x sech^2 x
            sech2 = np.exp(-2.0 * lc)
            dw = np.where(regular, 2.0, -2.0) * th * sech2
            F = pref * (F * ((0.5 + params.mu) * sech2 / th - sign * zeta * th) + dw * dF)
        else:
            # F e^pref piece by piece into new arrays: in place, a one-element complex
            # product rounds differently, and a point would differ from its grid lane
            out, e = F.reshape(-1), pref.reshape(-1)
            for s in range(0, out.size, BLOCK_LANES):
                out[s : s + BLOCK_LANES] = out[s : s + BLOCK_LANES] * e[s : s + BLOCK_LANES]
            F = out.reshape(F.shape)
    if not np.isfinite(F).all():
        raise _not_finite(zeta)
    return complex(F[0]) if scalar else F


def eval_L(params: ModelParams, x, pt: SpectralPoint):
    """Regular solution, L(x) = x^(1/2+mu) (1 + O(x^2)) near the origin."""
    return _solution(params, x, pt.zeta, -1, regular=True)


def eval_M(params: ModelParams, x, pt: SpectralPoint):
    """Decaying solution, M(x) = 2^zeta e^(-zeta x) (1 + O(e^(-2x))) at infinity.

    At a bound state zeta_n its 2F1 is a Jacobi polynomial in 1 - 2 sech^2 x.
    """
    return _solution(params, x, pt.zeta, +1, regular=False)


def eval_N(params: ModelParams, x, pt: SpectralPoint):
    """Growing solution, N(x) = 2^(-zeta) e^(zeta x) (1 + O(e^(-2x))) at infinity."""
    return _solution(params, x, pt.zeta, -1, regular=False)


_SOLUTIONS = {"L": (-1, True), "M": (1, False), "N": (-1, False)}  # which -> (sign, regular)


def eval_derivative(params: ModelParams, x, pt: SpectralPoint, which: str):
    """d/dx of eval_L, eval_M or eval_N (which = "L", "M" or "N") at x, in the same shape.

    The closed form's 2F1 F(a, b; c; w) contributes F'(w) = (ab/c) F(a+1, b+1; c+1; w)
    (DLMF 15.5.1), one more hyp2f1_values row with shifted parameters; M at a bound
    state differentiates its Jacobi polynomial instead (DLMF 18.9.15).  The shifted
    2F1 has the conditioning of the unshifted one: where eval_L, eval_M or eval_N
    lose digits to cancellation, this loses as many.  An x that is not finite and
    > 0, or another which, raises DomainError.
    """
    if which not in _SOLUTIONS:
        raise DomainError(f"which must be 'L', 'M' or 'N', got {which!r}")
    sign, regular = _SOLUTIONS[which]
    return _solution(params, x, pt.zeta, sign, regular, derivative=True)


def wronskian(params: ModelParams, pt: SpectralPoint) -> complex:
    """Wronskian of (L, M): -2 Gamma(1+mu) Gamma(1+zeta) / (Gamma(alpha+zeta/2) Gamma(beta+zeta/2)).

    Returns an exact 0 when beta + zeta/2 sits at a pole of the denominator
    gamma, which is precisely the bound-state condition.
    """
    return -2.0 * gamma_ratio(*_wronskian_gammas(params, pt.zeta))


def _wronskian_gammas(params: ModelParams, zeta):
    """The Wronskian's gamma arguments: numerators (1+mu, 1+zeta), denominators (alpha+zeta/2, beta+zeta/2)."""
    return (1.0 + params.mu, 1.0 + zeta), (params.alpha + zeta / 2.0, params.beta + zeta / 2.0)


def connection_coefficients(params: ModelParams, pt: SpectralPoint) -> ConnectionCoefficients:
    """Coefficients with L = c_M * M + c_N * N; PoleError at integer interior zeta."""
    zeta = pt.zeta
    if not pt.is_boundary and _near_int(zeta)[0]:
        raise PoleError(f"Gamma(+/-zeta) pole at integer zeta = {zeta}")
    z = np.stack([-zeta, zeta])  # c_M, then c_N, from one broadcast gamma product
    c_M, c_N = gamma_ratio((1.0 + params.mu, z), (params.alpha + z / 2.0, params.beta + z / 2.0))
    return ConnectionCoefficients(c_M=c_M, c_N=c_N)


def wronskian_scale(params: ModelParams, pt: SpectralPoint) -> float:
    """Magnitude of the Wronskian numerator, the natural near-zero scale."""
    return float(2.0 * np.exp(log_gamma_ratio((1.0 + params.mu, 1.0 + pt.zeta), ()).real))
