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

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .model import BetaClass, ModelParams, _finite, classify_beta
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
K_EDGE = 1e6
S_MAX = 1e6
_K_START = 1e-9  # start of the scattering edge, where sigma is near sigma_at_zero
_INDEX_TOL = 1e-6  # largest |winding - count| verify_index passes


def lambda1(params: ModelParams, s):
    """Left edge (zero energy): -tanh(pi s) + i sech(pi s) when beta is a
    nonpositive integer, constant 1 otherwise.  s must be finite (DomainError)."""
    s = _finite("s", s)
    if classify_beta(params).kind == "negative_integer":
        # exp(i (pi/2 + gd(pi s))), the Gudermannian gd(x) = 2 arctan(tanh(x/2)) free of overflow
        out = np.exp(1j * (0.5 * np.pi + 2.0 * np.arctan(np.tanh(0.5 * np.pi * s))))
    else:
        out = np.ones(np.shape(s), dtype=complex)
    return complex(out) if out.ndim == 0 else out


def _log_lambda3_theta(mu: float, s):
    """Log of lambda3_theta, purely imaginary and continuous in s: its
    denominator gammas are the conjugates of its numerator gammas.  s must be finite (DomainError)."""
    is2 = 0.5j * _finite("s", s)
    return 1j * (2.0 * log_gamma_ratio(((mu + 1.0) / 2.0 - is2, 0.75 + is2), ()).imag - 0.5 * np.pi * (mu - 0.5))


def lambda3_theta(mu: float, s):
    """Right edge (infinite energy): phase-shifted gamma-ratio dilation symbol, finite s."""
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


def square_edges(params: ModelParams):
    """The four edges, truncated at K_EDGE and S_MAX, in clockwise traversal order."""
    mu = params.mu
    sig0 = complex(sigma_at_zero(params))
    sig_inf = complex(np.exp(-1j * np.pi * (mu - 0.5)))
    lam1_start = 1.0 + 0.0j  # analytic limit at s = -inf, both beta classes
    lam1_end = sig0  # corner continuity: Lambda1(+inf) = sigma(0)
    return (
        EdgeFunction(1, lambda s: lambda1(params, s), -S_MAX, S_MAX, lam1_start, lam1_end),
        EdgeFunction(2, lambda k: sigma(params, k), _K_START, K_EDGE, sig0, sig_inf, lambda k: log_sigma(params, k)),
        EdgeFunction(
            3, lambda s: lambda3_theta(mu, s), S_MAX, -S_MAX, sig_inf, 1.0 + 0.0j, lambda s: _log_lambda3_theta(mu, s)
        ),
        EdgeFunction(4, lambda k: np.ones(np.asarray(k).shape, dtype=complex), K_EDGE, 0.0, 1.0 + 0.0j, 1.0 + 0.0j),
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


def winding_numeric(params: ModelParams) -> float:
    """Winding number from the truncated edges plus analytic tail corrections.

    An edge with a log takes its phase change from the log's imaginary part,
    with principal tail corrections (right below pi); the zero-energy edge
    turns by pi within |s| < 2 and is unwrapped from its endpoints.
    """
    total = 0.0
    for edge in square_edges(params):
        ends = (edge.t_start, edge.t_end)
        if edge.log_evaluator is not None:
            start, end = edge.log_evaluator(np.array(ends))
            tails = np.angle(np.exp(start) / edge.start_limit) + np.angle(edge.end_limit / np.exp(end))
            delta = tails + (end - start).imag
        elif edge.edge == 1 and classify_beta(params).kind == "negative_integer":
            delta = edge_phase_change(edge.evaluator, edge.start_limit, edge.end_limit, ends)
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
        d = asdict(self) | {"omega": list(self.omega)}  # fields in order; passed is written "pass"
        d["pass"] = d.pop("passed")
        return d


def verify_index(params: ModelParams) -> IndexReport:
    """Check closed-form winding, numeric winding, and bound-state count agree."""
    omega = winding_contributions(params)
    closed = float(sum(omega))
    numeric = winding_numeric(params)
    count = bound_states(params).count
    passed = abs(closed - count) < _INDEX_TOL and abs(numeric - count) < _INDEX_TOL
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
