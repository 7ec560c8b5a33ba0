"""Model parameters, the hyperbolic-well potential, and the integer-pair reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError, ParityError

__all__ = ["ModelParams", "BetaClass", "potential", "reduce_group_indices", "classify_beta"]

#: |v - round(v)| below this counts as an exact integer (beta, the 2F1 parameters,
#: the bound-state test): user-supplied integers survive float noise.
BETA_INT_TOL = 1e-12


def _positive(what: str, v):
    """v as a float (or float array) if every entry is finite and > 0, else DomainError naming what."""
    v = np.asarray(v, dtype=float)
    if not ((v > 0) & (v < np.inf)).all():
        raise DomainError(f"{what} must be finite and > 0")
    return float(v) if v.ndim == 0 else v


def _integer(what: str, v) -> int:
    """v as an int if it is a finite integer value (2 or 2.0), else DomainError naming what."""
    if not float(v).is_integer():
        raise DomainError(f"{what} must be an integer, got {v}")
    return int(v)


def _finite(what: str, v):
    """v as a float (or float array) if every entry is finite, else DomainError naming what."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise DomainError(f"{what} must be finite")
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class ModelParams:
    """Parameter pair (mu, nu) >= 0 with the derived exponents alpha, beta."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (0 <= self.mu < math.inf and 0 <= self.nu < math.inf):
            raise DomainError(f"parameters must be finite with mu, nu >= 0, got ({self.mu}, {self.nu})")

    @property
    def alpha(self) -> float:
        return (1.0 + self.mu + self.nu) / 2.0

    @property
    def beta(self) -> float:
        return (1.0 + self.mu - self.nu) / 2.0


@dataclass(frozen=True)
class BetaClass:
    """Arithmetic type of beta: positive, -n, or -n+eps with n in N, eps in (0,1)."""

    kind: str  # "positive" | "negative_integer" | "negative_noninteger"
    n: int | None = None
    epsilon: float | None = None

    def __str__(self) -> str:
        if self.kind == "positive":
            return "positive"
        if self.kind == "negative_integer":
            return f"negative_integer({self.n})"
        return f"negative_noninteger({self.n},{self.epsilon:.12g})"


def classify_beta(params: ModelParams) -> BetaClass:
    """Classify beta = (1+mu-nu)/2; the integer test wins within BETA_INT_TOL."""
    beta = params.beta
    r = round(beta)
    if abs(beta - r) < BETA_INT_TOL and r <= 0:
        return BetaClass("negative_integer", n=-r)
    if beta > 0:
        return BetaClass("positive")
    n = math.ceil(-beta)
    return BetaClass("negative_noninteger", n=n, epsilon=beta + n)


def potential(params: ModelParams, x):
    """Potential value (mu^2-1/4)/(sinh^2 x cosh^2 x) + (mu^2-nu^2)/cosh^2 x, finite x > 0.

    Written in q = e^(-2x) as (mu^2-1/4) 16 (q/expm1(-4x))^2 + (mu^2-nu^2) 4 q/(1+q)^2, which
    stays finite where sinh x cosh x leaves double range (x > 177); oracle._rhs uses the same form.
    mu^2-1/4 is formed as (mu-1/2)(mu+1/2), which keeps its digits near mu = 1/2.
    Near the origin V ~ (mu^2-1/4)/x^2: IllConditionedError where that term is within a factor 4
    of double range.  At mu = 1/2 it is 0, and V is finite down to x -> 0.
    """
    x = _positive("x", x)
    mu2, c = params.mu**2, (params.mu - 0.5) * (params.mu + 0.5)
    if np.min(x) <= 2.0 * math.sqrt(abs(c) / np.finfo(float).max):
        raise IllConditionedError(f"potential leaves double range at x = {np.min(x):g}, mu = {params.mu:g}")
    q = np.exp(-2.0 * x)
    out = (mu2 - params.nu**2) * 4.0 * q / (1.0 + q) ** 2
    if c:  # at c = 0 the term is 0, and r is inf below x ~ 1e-308
        r = q / np.expm1(-4.0 * x)  # squared as a product: expm1(-4x)^2 is subnormal below x ~ 3.7e-155
        out = c * 16.0 * r * r + out
    return float(out) if out.ndim == 0 else out


def reduce_group_indices(m: int, n: int) -> ModelParams:
    """Map an even-difference integer pair (m, n) to (mu, nu) = (|m-n|/2, |m+n|/2)."""
    if (m - n) % 2 != 0:
        raise ParityError(f"(m, n) = ({m}, {n}) has odd difference; subspace is trivial")
    return ModelParams(mu=abs(m - n) / 2.0, nu=abs(m + n) / 2.0)
