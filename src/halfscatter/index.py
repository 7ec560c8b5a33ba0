"""Edge functions on the spectral square and the winding-number index identity.

The unitary edge function has four pieces: a dilation-symbol arc at zero
energy, the scattering function at the top, a gamma-ratio symbol at infinite
energy, and the constant 1 at the bottom.  Traversed clockwise with the
convention value = exp(-2*pi*i*phase), its total winding equals the number of
bound states.  The numeric winding follows truncated edges with adaptively
unwrapped phases and adds the analytic tail corrections, which converge like
1/k and would otherwise pollute the integer at the 1e-2 level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import loggamma

from .model import BetaClass, ModelParams, classify_beta
from .phase import edge_phase_change
from .scattering import sigma, sigma_at_zero
from .spectral import bound_states

__all__ = [
    "EdgeFunction",
    "IndexReport",
    "lambda1",
    "lambda3_theta",
    "square_edges",
    "winding_contributions",
    "winding_numeric",
    "verify_index",
]

K_EDGE_DEFAULT = 200.0  # truncation of the scattering edge of the square
S_MAX_DEFAULT = 50.0


def lambda1(params: ModelParams, s):
    """Left edge (zero energy): -tanh(pi s) + i sech(pi s) when beta is a
    nonpositive integer, constant 1 otherwise."""
    s = np.asarray(s, dtype=float)
    if classify_beta(params).kind == "negative_integer":
        out = -np.tanh(np.pi * s) + 1j / np.cosh(np.pi * s)
    else:
        out = np.ones(s.shape, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def lambda3_theta(mu: float, s):
    """Right edge (infinite energy): phase-shifted gamma-ratio dilation symbol."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    is2 = 0.5j * np.atleast_1d(s)
    a = (mu + 1.0) / 2.0
    ratio = np.exp(
        loggamma(a - is2) + loggamma(0.75 + is2) - loggamma(a + is2) - loggamma(0.75 - is2)
    )
    out = np.exp(-0.5j * np.pi * (mu - 0.5)) * ratio
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class EdgeFunction:
    """One oriented edge of the square with its analytic endpoint limits."""

    edge: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    t_start: float
    t_end: float
    start_limit: complex
    end_limit: complex


def square_edges(params: ModelParams, k_max: float = K_EDGE_DEFAULT, s_max: float = S_MAX_DEFAULT):
    """The four truncated edges in clockwise traversal order."""
    mu = params.mu
    sig0 = complex(sigma_at_zero(params))
    sig_inf = complex(np.exp(-1j * np.pi * (mu - 0.5)))
    lam1_start = 1.0 + 0.0j  # analytic limit at s = -inf, both beta classes
    lam1_end = sig0  # corner continuity: Lambda1(+inf) = sigma(0)
    return (
        EdgeFunction(1, lambda s: lambda1(params, s), -s_max, s_max, lam1_start, lam1_end),
        EdgeFunction(2, lambda k: sigma(params, k), 0.0, k_max, sig0, sig_inf),
        EdgeFunction(3, lambda s: lambda3_theta(mu, s), s_max, -s_max, sig_inf, 1.0 + 0.0j),
        EdgeFunction(4, lambda k: np.ones(np.asarray(k).shape, dtype=complex), k_max, 0.0, 1.0 + 0.0j, 1.0 + 0.0j),
    )


def winding_contributions(params: ModelParams):
    """Closed-form partial windings (w1, w2, w3, w4)."""
    mu = params.mu
    bc = classify_beta(params)
    w3 = -0.5 * (mu - 0.5)
    w4 = 0.0
    if bc.kind == "positive":
        w1 = 0.0
        w2 = 0.5 * (mu - 0.5)
    elif bc.kind == "negative_noninteger":
        w1 = 0.0
        w2 = bc.n + 0.5 * (mu - 0.5)
    else:
        w1 = -0.5
        w2 = bc.n + 0.5 * (mu + 0.5)
    return (w1, w2, w3, w4)


def _edge_grid(edge: EdgeFunction) -> np.ndarray:
    if edge.edge == 2:
        k_max = edge.t_end
        lo = np.geomspace(1e-6, min(1.0, k_max), 80)
        hi = np.linspace(min(1.0, k_max), k_max, 240)
        return np.unique(np.concatenate([lo, hi]))
    # dilation edges: phase moves on an O(1) scale around s = 0
    return np.linspace(edge.t_start, edge.t_end, 401)


def winding_numeric(params: ModelParams, k_max: float = K_EDGE_DEFAULT, s_max: float = S_MAX_DEFAULT) -> float:
    """Winding number from unwrapped truncated edges plus analytic tails.

    Matches the closed-form contributions to machine precision when the
    truncations are generous enough that the leftover tail phase is below pi
    (k_max >= 200, s_max >= 50 is ample for the tested parameter ranges).
    """
    total = 0.0
    for edge in square_edges(params, k_max, s_max):
        if edge.edge == 4:
            continue  # constant edge
        if edge.edge == 1 and classify_beta(params).kind != "negative_integer":
            continue  # constant edge in this class
        delta = edge_phase_change(
            edge.evaluator,
            edge.t_start,
            edge.t_end,
            edge.start_limit,
            edge.end_limit,
            _edge_grid(edge),
        )
        total += -delta / (2.0 * np.pi)
    return total


@dataclass(frozen=True)
class IndexReport:
    mu: float
    nu: float
    beta_class: BetaClass
    omega: tuple[float, float, float, float]
    winding_closed: float
    winding_numeric: float
    bound_count: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "nu": self.nu,
            "beta_class": {
                "kind": self.beta_class.kind,
                "n": self.beta_class.n,
                "epsilon": self.beta_class.epsilon,
            },
            "omega": list(self.omega),
            "winding_closed": self.winding_closed,
            "winding_numeric": self.winding_numeric,
            "bound_count": self.bound_count,
            "pass": self.passed,
        }


def verify_index(
    params: ModelParams, k_max: float = K_EDGE_DEFAULT, s_max: float = S_MAX_DEFAULT, tol: float = 1e-6
) -> IndexReport:
    """Check closed-form winding, numeric winding, and bound-state count agree."""
    omega = winding_contributions(params)
    closed = float(sum(omega))
    numeric = winding_numeric(params, k_max, s_max)
    count = bound_states(params).count
    passed = abs(closed - count) < tol and abs(numeric - count) < tol
    return IndexReport(
        mu=params.mu,
        nu=params.nu,
        beta_class=classify_beta(params),
        omega=omega,
        winding_closed=closed,
        winding_numeric=numeric,
        bound_count=count,
        passed=bool(passed),
    )
