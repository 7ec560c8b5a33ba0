"""Spectral and scattering theory of a solvable hyperbolic well on the half-line.

Closed forms (solutions, resolvent and density kernels, scattering function,
bound states, winding-number index) plus an independent ODE oracle and a CLI.
"""

from .errors import (
    AtEigenvalueError,
    DomainError,
    HalfScatterError,
    IllConditionedError,
    InvalidCError,
    NoConvergenceError,
    ParityError,
    PoleError,
    QuadratureWarning,
    StepFailureError,
    UnwrapError,
)
from .index import (
    EdgeFunction,
    IndexReport,
    lambda1,
    lambda3_theta,
    verify_index,
    winding_contributions,
    winding_numeric,
)
from .model import BetaClass, ModelParams, classify_beta, potential, reduce_group_indices
from .oracle import (
    count_bound_states_shooting,
    extract_sigma,
    greens_function_oracle,
    integrate_regular,
)
from .scattering import (
    SampledFunction,
    ScatteringSample,
    adjoint_transform,
    b_factor,
    dilation_scaled_kernel,
    forward_transform,
    fourier_kernel,
    script_F,
    sigma,
    sigma_at_zero,
    sigma_samples,
    sine_transform,
    wave_operator_apply,
)
from .solutions import (
    ConnectionCoefficients,
    SpectralPoint,
    connection_coefficients,
    eval_derivative,
    eval_L,
    eval_M,
    eval_N,
    wronskian,
)
from .specfun import bessel_script_J, beta_fn, digamma, gauss_2f1, log_gamma, pochhammer
from .spectral import (
    BoundStateLevel,
    BoundStateReport,
    bound_states,
    eigenfunction,
    resolvent_boundary_kernel,
    resolvent_kernel,
    spectral_density_kernel,
    wronskian_roots,
)

__version__ = "0.1.0"
