"""Complex special functions used by every closed form in the package.

The only nonstandard piece is a Gauss 2F1 for complex parameters and real
argument z in [0, 1).  The defining power series is used below z = 0.6; above
it the value comes from the z -> 1-z linear transformation, switching to the
logarithmic (digamma) representations when c-a-b degenerates to an integer.
Log-gamma, digamma and the Bessel function are delegated to scipy behind the
same call surface.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sc

from .errors import InvalidCError, NoConvergenceError, PoleError

__all__ = [
    "log_gamma",
    "log_gamma_ratio",
    "digamma",
    "pochhammer",
    "beta_fn",
    "gamma_ratio",
    "gauss_2f1",
    "hyp2f1_values",
    "bessel_script_J",
    "SERIES_THRESHOLD",
]

# Raw series below, linear transformation above; both converge comfortably in
# an overlap band used as a self-test.
SERIES_THRESHOLD = 0.6

MAX_TERMS = 20000
# Lanes evaluated together: bounds the series temporaries, so peak memory
# stays flat however large the broadcast lane shape is.
BLOCK_LANES = 8192
_CHUNK_TERMS = 16  # most series terms formed per lane in one pass
_TERM_TOL = 1e-16
_INT_TOL = 1e-12


def _near_int(z, tol=_INT_TOL):
    """Per lane: the mask of z within tol of an integer (complex-aware), and that integer."""
    z = np.asarray(z, dtype=complex)
    r = np.round(z.real)
    return (np.abs(z.imag) <= tol) & (np.abs(z.real - r) <= tol), r


def _nonpos_int(z, tol=_INT_TOL):
    """Per lane: the mask of z within tol of a nonpositive integer."""
    near, r = _near_int(z, tol)
    return near & (r <= 0)


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z); raises PoleError at nonpositive integers."""
    return log_gamma_ratio((z,), ())


def digamma(z) -> complex:
    """Logarithmic derivative of Gamma; raises PoleError at nonpositive integers."""
    if _nonpos_int(z, 1e-14):
        raise PoleError(f"digamma pole at z = {z}")
    return complex(_sc.psi(complex(z)))


def pochhammer(q, n: int) -> complex:
    """Rising factorial (q)_n = q (q+1) ... (q+n-1), with (q)_0 = 1."""
    if n < 0 or n != int(n):
        raise ValueError("pochhammer order must be a nonnegative integer")
    out = 1.0 + 0.0j
    q = complex(q)
    for j in range(int(n)):
        out *= q + j
    return out


def _log_gamma_runs(numerators, denominators):
    """log_gamma_ratio per run of equal lanes: sums, denominator-pole mask, run of each lane, shape."""
    values, n_num = (*numerators, *denominators), len(numerators)
    shape = np.broadcast(*values).shape
    args = np.empty((len(values),) + shape, dtype=complex)
    for i, v in enumerate(values):
        args[i] = v
    args = args.reshape(len(values), -1)
    head = np.ones(args.shape[1], dtype=bool)
    head[1:] = np.any(args[:, 1:] != args[:, :-1], axis=0)
    poles = _nonpos_int(args[:, head], 1e-14)
    zero = poles[n_num:].any(axis=0)
    if np.any(poles[:n_num] & ~zero):
        raise PoleError("gamma ratio: numerator at a pole of Gamma")
    with np.errstate(all="ignore"):
        lg = _sc.loggamma(args[:, head])
        acc = np.zeros(lg.shape[1], dtype=complex)
        for i in range(len(lg)):
            acc = acc + lg[i] if i < n_num else acc - lg[i]
    return acc, zero, np.cumsum(head) - 1, shape


def log_gamma_ratio(numerators, denominators):
    """Sum of principal log Gamma over numerators minus that over denominators.

    The arguments broadcast against each other and the sum is evaluated once
    per run of lanes with equal arguments (a broadcast repeats each parameter
    along its inner axes).  Each term is analytic off the negative real axis,
    so on a path avoiding it the imaginary part is a continuous phase.  A
    denominator pole gives -inf; otherwise a numerator pole raises PoleError.
    """
    acc, zero, run, shape = _log_gamma_runs(numerators, denominators)
    out = np.where(zero, -np.inf, acc)[run].reshape(shape)
    return complex(out) if out.ndim == 0 else out


def gamma_ratio(numerators, denominators):
    """Product of Gamma over numerators divided by Gamma over denominators: the
    exp of log_gamma_ratio, taken once per run, with an exact zero at a pole."""
    acc, zero, run, shape = _log_gamma_runs(numerators, denominators)
    with np.errstate(all="ignore"):
        out = np.where(zero, 0.0, np.exp(acc))[run].reshape(shape)
    return complex(out) if out.ndim == 0 else out


def beta_fn(a, b) -> complex:
    """Beta function Gamma(a)Gamma(b)/Gamma(a+b)."""
    return gamma_ratio((a, b), (complex(a) + complex(b),))


def bessel_script_J(mu: float, x) -> float | np.ndarray:
    """Half-line Bessel kernel sqrt(pi*x/2) * J_mu(x) for mu >= 0, x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("bessel_script_J requires x > 0")
    out = np.sqrt(np.pi * x / 2.0) * _sc.jv(mu, x)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gauss 2F1 core.  Every helper works lane by lane on 1-D arrays of parameters
# and argument (scalars broadcast), and every series stops per lane, so a
# lane's value does not depend on which other lanes share the call.


def _lanes(*arrays):
    arrays = [np.atleast_1d(v) for v in arrays]
    shape = np.broadcast(*arrays).shape
    return [v if v.shape == shape else np.broadcast_to(v, shape) for v in arrays]


def _sum_lanes(ratios, fixed, coef, g, total, max_terms, what):
    """Sum one series per lane, total + sum_n coef_n g_n.

    coef_n = coef_(n-1) rho_n and g_n = g_(n-1) + delta_n, where
    ratios(j, fixed) gives rho and delta (None: g stays 1) for the term
    indices j as arrays of shape (len(j), lanes).  Up to _CHUNK_TERMS ratios
    per lane are formed at once, fewer while many lanes are active, but the
    products and sums run term by term, so a lane's partial sums depend on
    neither the chunking nor the other lanes.  A lane stops at the third
    consecutive term below 1e-16 relative to its partial sum; the hard cap
    guards slow convergence near w -> 1.
    """
    out = np.empty(total.shape, dtype=complex)
    lanes = np.arange(total.size)
    carry = np.zeros((2, total.size), dtype=bool)  # were the last two terms small?
    n = 0
    while lanes.size:
        if n >= max_terms:
            raise NoConvergenceError(f"{what} did not converge within {max_terms} terms")
        j = n + np.arange(min(_CHUNK_TERMS, max(1, BLOCK_LANES // lanes.size), max_terms - n))
        n += j.size
        rho, delta = ratios(j[:, None], fixed)
        term, tot = np.empty((2, j.size, lanes.size), dtype=complex)
        for i in range(j.size):
            if delta is None:
                coef = np.multiply(coef, rho[i], out=term[i])
            else:
                coef, g = coef * rho[i], g + delta[i]
                np.multiply(coef, g, out=term[i])
            total = np.add(total, term[i], out=tot[i])
        small = np.concatenate([carry, np.abs(term) <= _TERM_TOL * np.abs(tot)])
        hit = small[2:] & small[1:-1] & small[:-2]
        carry = small[-2:]
        done = hit.any(axis=0)
        n_done = np.count_nonzero(done)
        if n_done:
            # a stopped lane keeps its sum at the stop and adds exact zeros from
            # then on; stopped lanes leave once they are half of the working set
            total[done] = tot[hit.argmax(axis=0)[done], done]
            coef[done] = 0.0
        if 2 * n_done >= lanes.size:
            out[lanes[done]] = total[done]
            keep = ~done
            lanes, coef, total, carry = lanes[keep], coef[keep], total[keep], carry[:, keep]
            fixed = [v[keep] for v in fixed]
            g = None if g is None else g[keep]
    return out


def _raw_series(a, b, c, w, max_terms=MAX_TERMS):
    """Defining power series of F(a,b;c;w) per lane, real w in [0,1)."""
    a, b, c, w = _lanes(a, b, c, w)

    def ratios(j, fixed):
        a, b, c, w = fixed
        return (a + j) * (b + j) / ((c + j) * (j + 1.0)) * w, None

    one = np.ones(w.shape, dtype=complex)
    return _sum_lanes(ratios, [a, b, c, w], one, None, one, max_terms, "2F1 series")


def _terminating_series(a, b, c, w, n_terms):
    """Exact finite sum when a or b sits at the nonpositive integer -n_terms."""
    w = np.asarray(w, dtype=float)
    term = np.ones(w.shape, dtype=complex)
    total = np.ones(w.shape, dtype=complex)
    for n in range(n_terms):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * w
        total = total + term
    return total


def _linear_transform(a, b, c, w, log_w):
    """z -> 1-z connection formula per lane, valid when c-a-b is not an integer.

    Takes w = 1-z together with its exact logarithm so that the caller can
    supply log(1-z) analytically; forming 1-z in floating point near z = 1
    destroys the phase of the w^(c-a-b) factor.  A term whose gamma
    prefactor vanishes is not summed.
    """
    a, b, c, w, log_w = _lanes(a, b, c, w, log_w)
    d = c - a - b
    p1 = gamma_ratio((c, d), (c - a, c - b))
    p2 = gamma_ratio((c, -d), (a, b))
    s1, s2 = p1 != 0, p2 != 0
    # both series share one set of lanes, so one loop sums them
    f = _raw_series(
        np.concatenate([a[s1], (c - a)[s2]]),
        np.concatenate([b[s1], (c - b)[s2]]),
        np.concatenate([(a + b - c + 1.0)[s1], (d + 1.0)[s2]]),
        np.concatenate([w[s1], w[s2]]),
    )
    n1 = np.count_nonzero(s1)
    out = np.zeros(w.shape, dtype=complex)
    out[s1] += p1[s1] * f[:n1]
    out[s2] += p2[s2] * np.exp(d[s2] * log_w[s2]) * f[n1:]
    return out


def _log_case(a, b, c, w, log_w, m, max_terms=MAX_TERMS):
    """F(a,b;a+b+m;z) per lane for one integer m >= 0 near z = 1 (DLMF 15.8.10).

    A finite sum of m terms plus a logarithmic digamma series; m = 0 is the
    case with no finite part.  The epsilon-perturbation alternative loses
    about half the digits and is not used.
    """
    a, b, c, w, lw = _lanes(a, b, c, w, log_w)
    out = np.zeros(w.shape, dtype=complex)
    if m > 0:
        finite = np.zeros(w.shape, dtype=complex)
        t = np.ones(w.shape, dtype=complex)
        for n in range(m):
            finite = finite + t
            if n < m - 1:
                t = t * ((a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n))) * w
        out = gamma_ratio((float(m), c), (a + m, b + m)) * finite

    pref = gamma_ratio((c,), (a, b))
    s = pref != 0
    am, bm, w, lw = a[s] + m, b[s] + m, w[s], lw[s]
    pref = -((-1.0) ** m) * pref[s] * np.exp(m * lw).astype(complex)
    coef = np.full(w.shape, 1.0 / float(_sc.factorial(m)), dtype=complex)
    g = lw - _sc.psi(1.0) - _sc.psi(m + 1.0) + _sc.psi(am) + _sc.psi(bm)

    def ratios(j, fixed):
        am, bm, w = fixed
        rho = (am + j) * (bm + j) / ((j + 1.0) * (j + m + 1.0)) * w
        return rho, 1.0 / (am + j) + 1.0 / (bm + j) - (1.0 / (j + 1.0) + 1.0 / (j + m + 1.0))

    total = _sum_lanes(ratios, [am, bm, w], coef, g, coef * g, max_terms, f"logarithmic 2F1 series (m={m})")
    out[s] += pref * total
    return out


def _block(a, b, c, z, log_w):
    """One block of lanes, each sent to its branch: the terminating sum when a
    or b is a nonpositive integer, the raw series up to the threshold, and
    above it the connection formula or, grouped by integer gap m = c-a-b, the
    log form (m < 0 reduced by Euler's transformation)."""
    out = np.empty(z.shape, dtype=complex)
    poly = np.zeros(z.shape, dtype=bool)
    ints = _nonpos_int(np.stack([a, b]))
    if ints.any():
        degree = np.where(ints, -np.round(np.stack([a.real, b.real])), np.inf).min(axis=0)
        poly = degree <= MAX_TERMS
        for d in np.unique(degree[poly]):
            s = degree == d
            out[s] = _terminating_series(a[s], b[s], c[s], z[s], int(d))
    low = ~poly & (z <= SERIES_THRESHOLD)
    if low.any():
        out[low] = _raw_series(a[low], b[low], c[low], z[low])
    high = ~poly & ~low
    if not high.any():
        return out
    gap, m = _near_int(c - a - b)
    s = high & ~gap
    if s.any():
        out[s] = _linear_transform(a[s], b[s], c[s], np.exp(log_w[s]), log_w[s])
    for mm in np.unique(m[high & gap]):
        s = high & gap & (m == mm)
        sa, sb, sc, lw = a[s], b[s], c[s], log_w[s]
        if mm >= 0:
            out[s] = _log_case(sa, sb, sc, np.exp(lw), lw, int(mm))
        else:
            out[s] = np.exp((sc - sa - sb) * lw) * _log_case(sc - sa, sc - sb, sc, np.exp(lw), lw, -int(mm))
    return out


def hyp2f1_values(a, b, c, z, log_w=None):
    """F(a,b;c;z) for complex parameters and real z in [0,1), lane by lane.

    a, b, c, z and log_w broadcast to one lane shape, which is the shape of
    the result (a complex scalar when every input is a scalar).  Each lane
    takes its own branch: the terminating sum when a or b is a nonpositive
    integer, the raw series for z up to the threshold, and above it the
    z -> 1-z connection formula or, when c-a-b is an integer, the
    logarithmic representation.  Each lane's series stops on its own terms,
    so its value does not depend on the other lanes.  Lanes are evaluated in
    blocks of BLOCK_LANES, which bounds the temporaries.  ValueError,
    InvalidCError and NoConvergenceError are raised if any lane incurs them.

    log_w, when given, is the exact natural log of 1-z.  Callers whose z comes
    from tanh(x)^2 or sech(x)^2 know log(1-z) analytically; passing it keeps
    the z -> 1-z branch accurate where 1-z would round away (z may then even
    saturate to 1.0 in floating point).
    """
    z = np.asarray(z, dtype=float)
    if log_w is None:
        with np.errstate(divide="ignore"):
            log_w = np.log1p(-z)
    z, log_w = np.broadcast_arrays(z, np.asarray(log_w, dtype=float))
    # log_w only matters on the transformed branch; there it must witness z < 1
    high_bad = (z > SERIES_THRESHOLD) & (~np.isfinite(log_w) | (log_w >= 0.0))
    if np.any(z < 0.0) or np.any(high_bad):
        raise ValueError("hyp2f1 argument must lie in [0, 1)")
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    if np.any(_nonpos_int(c)):
        raise InvalidCError("lower parameter c is a nonpositive integer")

    views = np.broadcast_arrays(a, b, c, z, log_w)
    out = np.empty(views[0].shape, dtype=complex)
    flat = out.reshape(-1)
    for start in range(0, flat.size, BLOCK_LANES):
        flat[start : start + BLOCK_LANES] = _block(*(v.flat[start : start + BLOCK_LANES] for v in views))
    return out[()] if out.ndim == 0 else out


def gauss_2f1(a, b, c, z) -> complex:
    """Scalar Gauss hypergeometric 2F1 for complex a, b, c and real z in [0,1)."""
    return complex(hyp2f1_values(a, b, c, float(z)))
