"""Edge functions on the spectral square and the winding-number index identity.

The unitary edge function has four pieces: a dilation-symbol arc at zero
energy, the scattering function at the top, a gamma-ratio symbol at infinite
energy, and the constant 1 at the bottom.  Traversed clockwise with the
convention value = exp(-2*pi*i*phase), its total winding equals the number of
bound states.  The numeric winding takes the scattering and infinite-energy
edges' phase from their log-gamma sums, which no sampling can alias, unwraps
the elementary zero-energy edge, and adds analytic tail corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import BetaClass, ModelParams, classify_beta
from .phase import edge_phase_change
from .scattering import log_sigma, sigma, sigma_at_zero
from .specfun import log_gamma_ratio
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

# Edge truncations: there each tail phase left for mu, nu <= 50 is below 0.05
# rad, far inside the pi a principal tail correction resolves.
K_EDGE_DEFAULT = 1e6
S_MAX_DEFAULT = 1e6
_K_START = 1e-9  # start of the scattering edge, where sigma is near sigma_at_zero


def lambda1(params: ModelParams, s):
    """Left edge (zero energy): -tanh(pi s) + i sech(pi s) when beta is a
    nonpositive integer, constant 1 otherwise."""
    s = np.asarray(s, dtype=float)
    if classify_beta(params).kind == "negative_integer":
        # exp(i (pi/2 + gd(pi s))), the Gudermannian gd(x) = 2 arctan(tanh(x/2)) free of overflow
        out = np.exp(1j * (0.5 * np.pi + 2.0 * np.arctan(np.tanh(0.5 * np.pi * s))))
    else:
        out = np.ones(s.shape, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def _log_lambda3_theta(mu: float, s):
    """Log of lambda3_theta, purely imaginary and continuous in s: its
    denominator gammas are the conjugates of its numerator gammas."""
    is2 = 0.5j * np.asarray(s, dtype=float)
    return 1j * (2.0 * log_gamma_ratio(((mu + 1.0) / 2.0 - is2, 0.75 + is2), ()).imag - 0.5 * np.pi * (mu - 0.5))


def lambda3_theta(mu: float, s):
    """Right edge (infinite energy): phase-shifted gamma-ratio dilation symbol."""
    out = np.exp(_log_lambda3_theta(mu, s))
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EdgeFunction:
    """One oriented edge of the square with its analytic endpoint limits and,
    where its imaginary part is a continuous phase, the log of the evaluator."""

    edge: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    t_start: float
    t_end: float
    start_limit: complex
    end_limit: complex
    log_evaluator: Callable[[np.ndarray], np.ndarray] | None = None


def square_edges(params: ModelParams, k_max: float = K_EDGE_DEFAULT, s_max: float = S_MAX_DEFAULT):
    """The four truncated edges in clockwise traversal order."""
    mu = params.mu
    sig0 = complex(sigma_at_zero(params))
    sig_inf = complex(np.exp(-1j * np.pi * (mu - 0.5)))
    lam1_start = 1.0 + 0.0j  # analytic limit at s = -inf, both beta classes
    lam1_end = sig0  # corner continuity: Lambda1(+inf) = sigma(0)
    return (
        EdgeFunction(1, lambda s: lambda1(params, s), -s_max, s_max, lam1_start, lam1_end),
        EdgeFunction(2, lambda k: sigma(params, k), _K_START, k_max, sig0, sig_inf, lambda k: log_sigma(params, k)),
        EdgeFunction(
            3, lambda s: lambda3_theta(mu, s), s_max, -s_max, sig_inf, 1.0 + 0.0j, lambda s: _log_lambda3_theta(mu, s)
        ),
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


def winding_numeric(params: ModelParams, k_max: float = K_EDGE_DEFAULT, s_max: float = S_MAX_DEFAULT) -> float:
    """Winding number from the truncated edges plus analytic tail corrections.

    An edge with a log takes its phase change from the log's imaginary part,
    with principal tail corrections (right below pi); the zero-energy edge
    turns by pi within |s| < 2 and is unwrapped from its endpoints.
    """
    total = 0.0
    for edge in square_edges(params, k_max, s_max):
        ends = (edge.t_start, edge.t_end)
        if edge.log_evaluator is not None:
            start, end = edge.log_evaluator(np.array(ends))
            tails = np.angle(np.exp(start) / edge.start_limit) + np.angle(edge.end_limit / np.exp(end))
            delta = tails + (end - start).imag
        elif edge.edge == 1 and classify_beta(params).kind == "negative_integer":
            delta = edge_phase_change(edge.evaluator, *ends, edge.start_limit, edge.end_limit, ends)
        else:
            continue  # a constant edge
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
