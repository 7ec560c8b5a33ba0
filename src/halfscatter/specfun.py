"""Complex special functions used by every closed form in the package.

The only nonstandard piece is a Gauss 2F1 for complex parameters and real
argument z in [0, 1).  The defining power series serves every lane with
z <= SERIES_THRESHOLD = 0.6; above it the value comes from the z -> 1-z linear
transformation, switching to the logarithmic (digamma) representations when
c-a-b degenerates to an integer.  Each lane takes one branch: no value is
computed twice or checked against the other branch.
Log-gamma, digamma and the Bessel function are delegated to scipy behind the
same call surface.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sc

from .errors import DomainError, IllConditionedError, InvalidCError, NoConvergenceError, PoleError
from .model import BETA_INT_TOL, _integer, _positive

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

# The switch between the branches: the raw series serves z at most this, the
# linear transformation (or its log case) z above it, where the transformed
# argument 1 - z is below 0.4.  A fixed switch, not a choice by cancellation.
SERIES_THRESHOLD = 0.6

MAX_TERMS = 20000
# Lanes evaluated together: bounds the series temporaries, so peak memory
# stays flat however large the broadcast lane shape is.  A block is a range of
# whole rows, or, on a grid of several blocks whose z is the same in every
# row, a range of rows over the columns of one branch.
BLOCK_LANES = 8192
_CHUNK_TERMS = 16  # series terms per lane between two stop tests
_TERM_TOL = 1e-16
_POLE_TOL = 1e-14  # distance from an integer <= 0 at which a real argument is a pole of Gamma
_MIRROR_TOL = 4 * np.finfo(float).eps  # conjugate-pair test of _linear_transform, relative to |a| + |b|


def _near_int(z):
    """Per lane: the mask of z within BETA_INT_TOL of an integer (complex-aware), and that integer."""
    z = np.asarray(z, dtype=complex)
    r = np.round(z.real)
    return (np.abs(z.imag) <= BETA_INT_TOL) & (np.abs(z.real - r) <= BETA_INT_TOL), r


def _gamma_poles(z):
    """Mask of z at poles of Gamma (real, within _POLE_TOL of an integer <= 0), or None if none can be."""
    poles = (z.imag == 0) & (z.real <= 0.5)
    if not poles.any():
        return None
    return poles & (np.abs(z.real - np.round(z.real)) <= _POLE_TOL)


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z); raises PoleError at nonpositive integers."""
    return log_gamma_ratio((z,), ())


def digamma(z) -> complex:
    """Logarithmic derivative of Gamma; raises PoleError at nonpositive integers."""
    poles = _gamma_poles(np.asarray(z, dtype=complex))
    if poles is not None and poles:
        raise PoleError(f"digamma pole at z = {z}")
    return complex(_sc.psi(complex(z)))


def pochhammer(q, n: int) -> complex:
    """Rising factorial (q)_n = q (q+1) ... (q+n-1), (q)_0 = 1, for an integer n >= 0 (else DomainError)."""
    if _integer("pochhammer order", n) < 0:
        raise DomainError("pochhammer order must be >= 0")
    out = 1.0 + 0.0j
    q = complex(q)
    for j in range(int(n)):
        out *= q + j
    return out


def _log_gamma_sum(numerators, denominators):
    """Per element of the broadcast arguments: the log Gamma sum, added in
    argument order, and the denominator-pole mask, or None when no argument
    can be a pole."""
    values, n_num = (*numerators, *denominators), len(numerators)
    args = np.empty((len(values),) + np.broadcast(*values).shape, dtype=complex)
    for i, v in enumerate(values):
        args[i] = v
    poles, zero = _gamma_poles(args), None
    if poles is not None:
        zero = poles[n_num:].any(axis=0)
        if np.any(poles[:n_num] & ~zero):
            raise PoleError("gamma ratio: numerator at a pole of Gamma")
    with np.errstate(all="ignore"):
        lg = _sc.loggamma(args)
        acc = np.zeros(lg.shape[1:], dtype=complex)
        for i in range(len(lg)):
            acc = acc + lg[i] if i < n_num else acc - lg[i]
    return acc, zero


def log_gamma_ratio(numerators, denominators):
    """Sum of principal log Gamma over numerators minus that over denominators.

    The arguments broadcast against each other and the sum is evaluated per
    element of the broadcast; the 2F1 core passes its parameters once per
    row, so a grid pays once per row.  Each term is analytic off the
    negative real axis, so on a path avoiding it the imaginary part is a
    continuous phase.  A denominator pole gives -inf; otherwise a numerator
    pole raises PoleError.
    """
    acc, zero = _log_gamma_sum(numerators, denominators)
    out = acc if zero is None else np.where(zero, -np.inf, acc)
    return complex(out) if out.ndim == 0 else out


def gamma_ratio(numerators, denominators):
    """Product of Gamma over numerators divided by Gamma over denominators: the
    exp of log_gamma_ratio per element, with an exact zero at a pole."""
    acc, zero = _log_gamma_sum(numerators, denominators)
    with np.errstate(all="ignore"):
        out = np.exp(acc) if zero is None else np.where(zero, 0.0, np.exp(acc))
    return complex(out) if out.ndim == 0 else out


def beta_fn(a, b) -> complex:
    """Beta function Gamma(a)Gamma(b)/Gamma(a+b)."""
    return gamma_ratio((a, b), (complex(a) + complex(b),))


def bessel_script_J(mu: float, x) -> float | np.ndarray:
    """Half-line Bessel kernel sqrt(pi*x/2) * J_mu(x) for mu >= 0, finite x > 0."""
    x = _positive("x", x)
    out = np.sqrt(np.pi * x / 2.0) * _sc.jv(mu, x)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gauss 2F1 core.  Every helper takes a, b, c once per row (1-D arrays) and
# the lanes as sorted runs: counts[i] lanes of row i, then those of row i+1,
# with per lane the argument.  A row is a row of a (k, x) grid's last axis, or,
# when a, b and c vary along it, a run of consecutive lanes whose a, b and c
# are equal bit for bit (_lane_runs), so L and M points laid out kind after
# kind are two rows.  A per-row array reaches its lanes by np.repeat(v, counts),
# an exact copy, so each lane gets the values that its own parameters give.
# The runs stay sorted: hyp2f1_values lays a block out row after row, every
# mask and stop compaction keeps lanes in order, and a block's one series loop
# takes the connection formula's rows after the raw series' lanes.  Branch
# tests, gamma products and series ratios are formed per row; every series
# stops per lane, so a lane's value depends neither on the other lanes nor on
# the block that holds it, and a grid cut per branch (hyp2f1_values) keeps
# each lane's value bit for bit.


def _runs(counts, keep):
    """The run lengths of the lanes that the lane mask keep selects, for runs of counts > 0 lanes."""
    return np.add.reduceat(keep, counts.cumsum() - counts, dtype=np.intp)


def _used_rows(params, counts):
    """The rows of params that hold some lane, then their run lengths."""
    if np.count_nonzero(counts) == counts.size:
        return (*params, counts)
    used = counts > 0
    return (*(p[used] for p in params), counts[used])


def _lane_runs(params):
    """Per-lane a, b, c as rows: each run of consecutive lanes whose (a, b, c)
    are equal bit for bit (so 0.0 and -0.0 differ) becomes one row.  Returns
    the rows' parameters and their run lengths."""
    edge = np.zeros(len(params[0]) + 1, dtype=bool)  # where a run starts, and the end of the last
    edge[0] = edge[-1] = True
    for p in params:
        bits = np.ascontiguousarray(p).view(np.int64)  # real and imaginary parts, alternating
        new = bits[2:] != bits[:-2]
        edge[1:-1] |= new[::2] | new[1::2]
    at = np.flatnonzero(edge)
    return [p[at[:-1]] for p in params], at[1:] - at[:-1]


def _sum_lanes(ratios, params, counts, w, coef, g, total, max_terms, what):
    """Sum one series per lane, total + sum_n coef_n g_n.

    coef_n = coef_(n-1) rho_n w and g_n = g_(n-1) + delta_n, where
    ratios(j, params) gives rho and delta (None: g stays 1) for the term
    indices j as arrays of shape (len(j), rows).  params holds the series
    parameters once per row and counts the length of each row's run of
    lanes; np.repeat spreads each row's rho and delta over its run (no
    spread while every row has one lane).  Rows without an active lane are
    dropped.

    Terms come in chunks of _CHUNK_TERMS, counted from term 0 for every lane.
    A lane stops at the end of the first chunk whose last three terms are
    each at most 1e-16 of its partial sum, and leaves the working set there,
    which keeps the remaining lanes in order and so their runs sorted; the
    hard cap guards slow convergence near w -> 1.  The products and sums
    run term by term, so a lane's partial sums depend on neither the lane
    count nor the other lanes.  rho w is formed for as many terms at once as
    fit in BLOCK_LANES entries: a whole chunk while few lanes are active,
    where the cost per numpy call dominates, one term at a time for a full
    block, which bounds the temporaries.  Every product goes to a new array:
    on a one-element complex array numpy rounds an in-place product
    differently from the same product on a longer array, so a lane alone
    would differ from the same lane in a grid.
    """
    out = np.empty(total.shape, dtype=complex)
    lanes = np.arange(total.size)
    w = w.astype(complex)  # the cast that a product with real w makes, once
    *params, counts = _used_rows(params, counts)
    n = 0
    while lanes.size:
        if n >= max_terms:
            raise NoConvergenceError(f"{what} did not converge within {max_terms} terms")
        j = n + np.arange(min(_CHUNK_TERMS, max_terms - n))
        n += j.size
        rho, delta = ratios(j[:, None], params)
        spread = counts.size < lanes.size  # else every row has one lane: its values are in place
        span = BLOCK_LANES // lanes.size or 1  # terms of rho w per product: a whole chunk unless lanes are many
        small = np.ones(lanes.size, dtype=bool)
        for s in range(0, j.size, span):
            rw, dg = rho[s : s + span], None if delta is None else delta[s : s + span]
            if spread:
                rw, dg = rw.repeat(counts, axis=1), None if dg is None else dg.repeat(counts, axis=1)
            rw = rw * w
            last = j.size - 3 - s
            for i in range(len(rw)):
                coef = coef * rw[i]
                if dg is None:
                    term = coef
                else:
                    g = g + dg[i]
                    term = coef * g
                total = total + term
                if i >= last:
                    small &= np.abs(term) <= _TERM_TOL * np.abs(total)
        n_stop = np.count_nonzero(small)
        if n_stop:
            out[lanes[small]] = total[small]
            if n_stop == lanes.size:  # nothing left to sum
                break
            keep = ~small
            lanes, coef, total, w = lanes[keep], coef[keep], total[keep], w[keep]
            g = None if g is None else g[keep]
            *params, counts = _used_rows(params, _runs(counts, keep))
    return out


def _raw_series(a, b, c, counts, w, max_terms=MAX_TERMS):
    """Defining power series of F(a,b;c;w) per lane, real w in [0,1)."""

    def ratios(j, params):
        a, b, c = params
        return (a + j) * (b + j) / ((c + j) * (j + 1.0)), None

    one = np.ones(w.shape, dtype=complex)
    return _sum_lanes(ratios, [a, b, c], counts, w, one, None, one, max_terms, "2F1 series")


def _terminating_series(a, b, c, counts, w, n_terms):
    """The series of F(a,b;c;w) through its w^n_terms term: the exact sum when
    a or b sits at the nonpositive integer -n_terms."""
    term = np.ones(w.shape, dtype=complex)
    total = np.ones(w.shape, dtype=complex)
    for n in range(n_terms):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))).repeat(counts) * w
        total = total + term
    return total


def _linear_transform(a, b, c, counts, w, log_w):
    """z -> 1-z connection formula per lane, valid when c-a-b is not an integer.

    Takes w = 1-z together with its exact logarithm so that the caller can
    supply log(1-z) analytically; forming 1-z in floating point near z = 1
    destroys the phase of the w^(c-a-b) factor.  A term whose gamma
    prefactor vanishes is not summed: its rows keep runs of no lanes.

    A mirrored row, real c with c-a = conj(b) (the regular solution on the
    boundary), has c-b = conj(a) and c-a-b imaginary, so the second term's
    series and gamma product are the conjugates of the first's: only the
    first is formed.  The test allows a few ulps of |a| + |b|, since c, a
    and b are rounded separately.  Sums nothing: returns the rows of its
    series as _raw_series takes them, the second's after the first's, and
    the function of their sums that gives the lanes' values.
    """
    ca, cb = c - a, c - b
    d = ca - b
    mirror = (c.imag == 0) & (np.abs(ca - np.conj(b)) <= _MIRROR_TOL * (np.abs(a) + np.abs(b)))
    p1 = gamma_ratio((c, d), (ca, cb))
    if np.count_nonzero(mirror) == mirror.size:
        p2 = np.conj(p1)
    else:
        p2 = np.where(mirror, np.conj(p1), gamma_ratio((c, -d), (a, b)))
    terms = p1 != 0, p2 != 0, (p2 != 0) & ~mirror  # per row: the terms formed, the second series summed
    n1, n2, n3 = (counts * t for t in terms)
    s1, s2, sum2 = (t.repeat(counts) for t in terms)
    rows = [np.concatenate(v) for v in ([a, ca], [b, cb], [a + b - c + 1.0, d + 1.0], [n1, n3], [w[s1], w[sum2]])]
    k1 = np.count_nonzero(s1)

    def values(f):
        f2 = np.empty(w.shape, dtype=complex)
        f2[s1] = np.conj(f[:k1])  # the second series of a mirrored lane
        f2[sum2] = f[k1:]
        out = np.zeros(w.shape, dtype=complex)
        out[s1] += p1.repeat(n1) * f[:k1]
        out[s2] += p2.repeat(n2) * np.exp(d.repeat(n2) * log_w[s2]) * f2[s2]
        return out

    return rows, values


def _log_case(a, b, c, counts, w, log_w, m):
    """F(a,b;a+b+m;z) per lane for one integer m >= 0 near z = 1 (DLMF 15.8.10).

    A finite sum of m terms plus a logarithmic digamma series; m = 0 is the
    case with no finite part.  The epsilon-perturbation alternative loses
    about half the digits and is not used.
    """
    out = np.zeros(w.shape, dtype=complex)
    if m > 0:  # the finite part: F(a, b; 1-m; w) cut after m terms
        finite = _terminating_series(a, b, 1.0 - m, counts, w, m - 1)
        out = gamma_ratio((float(m), c), (a + m, b + m)).repeat(counts) * finite

    pref = gamma_ratio((c,), (a, b))
    s, runs = (pref != 0).repeat(counts), counts * (pref != 0)
    am, bm, w, lw = a + m, b + m, w[s], log_w[s]
    pref = -((-1.0) ** m) * pref.repeat(runs) * np.exp(m * lw).astype(complex)
    coef = np.full(w.shape, 1.0 / float(_sc.factorial(m)), dtype=complex)
    g = lw - _sc.psi(1.0) - _sc.psi(m + 1.0) + _sc.psi(am).repeat(runs) + _sc.psi(bm).repeat(runs)

    def ratios(j, params):
        am, bm = params
        rho = (am + j) * (bm + j) / ((j + 1.0) * (j + m + 1.0))
        return rho, 1.0 / (am + j) + 1.0 / (bm + j) - (1.0 / (j + 1.0) + 1.0 / (j + m + 1.0))

    total = _sum_lanes(ratios, [am, bm], runs, w, coef, g, coef * g, MAX_TERMS, f"logarithmic 2F1 series (m={m})")
    out[s] += pref * total
    return out


@np.errstate(over="ignore", invalid="ignore")  # a value past double range is inf or nan in its lane
def _block(a, b, c, counts, z, log_w):
    """One block of lanes, each sent to its branch: the terminating sum when a
    or b is a nonpositive integer, the raw series up to the threshold, and
    above it the connection formula or, grouped by integer gap m = c-a-b, the
    log form (m < 0 reduced by Euler's transformation).  Every test but the
    threshold is made once per row, from one integer test of c, a, b and
    c-a-b; a nonpositive integer c raises InvalidCError.  One loop sums the
    raw series and the connection formula's series, whatever the block's
    size.  The terminating sum and the log form keep their own, as sharing
    it would move bits: the first forms (term rho) w, not term (rho w), which
    moves about half of a seeded sample of polynomial lanes; a log lane's
    term is coef g, and g = 1 would flip signed zeros of the other lanes."""
    near, r = _near_int(np.array([c, a, b, c - a - b]))
    nonpos = near & (r <= 0)
    if np.count_nonzero(nonpos[0]):
        raise InvalidCError("lower parameter c is a nonpositive integer")
    out = np.empty(z.shape, dtype=complex)
    poly = np.zeros(z.shape, dtype=bool)
    if np.count_nonzero(nonpos[1:3]):
        degree = np.where(nonpos[1:3], -r[1:3], np.inf).min(axis=0)
        for d in np.unique(degree[degree <= MAX_TERMS]):
            s = (degree == d).repeat(counts)
            out[s] = _terminating_series(*_used_rows((a, b, c), counts * (degree == d)), z[s], int(d))
        poly = (degree <= MAX_TERMS).repeat(counts)
    low = ~poly & (z <= SERIES_THRESHOLD)
    high = ~poly & ~low
    gap, m = near[3].repeat(counts), r[3].repeat(counts)
    s = high & ~gap
    rows, n_low, n_s = (a, b, c, _runs(counts, low), z[low]), np.count_nonzero(low), np.count_nonzero(s)
    if n_s:  # the connection formula's rows follow the raw series' lanes
        more, values = _linear_transform(*_used_rows((a, b, c), _runs(counts, s)), np.exp(log_w[s]), log_w[s])
        rows = [np.concatenate(v) for v in zip(rows, more)] if n_low else more
    if n_low or n_s:
        f = _raw_series(*rows)
        out[low] = f[:n_low]
        if n_s:
            out[s] = values(f[n_low:])
    for mm in sorted(set(m[high & gap].tolist())):
        s = high & gap & (m == mm)
        ra, rb, rc, n = _used_rows((a, b, c), _runs(counts, s))
        lw = log_w[s]
        if mm >= 0:
            out[s] = _log_case(ra, rb, rc, n, np.exp(lw), lw, int(mm))
        else:
            out[s] = np.exp((rc - ra - rb).repeat(n) * lw) * _log_case(rc - ra, rc - rb, rc, n, np.exp(lw), lw, -int(mm))
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
    blocks of at most BLOCK_LANES, which bounds the temporaries: ranges of
    whole rows of the last axis, or equal pieces of a row longer than that.
    When a, b and c are constant along the last axis, z and log_w are the
    same in every row (a (k, x) grid, z = tanh^2 x or sech^2 x) and the lanes
    span more than one block, the columns with z up to the threshold are cut
    into blocks apart from the rest, so each block holds one branch in full;
    a call that fits in one block keeps its branches in one block.
    When a, b and c are scalars, all lanes are one row; when they are
    constant along the last axis (a (k, x) grid), the core reads them once
    per row of that axis; otherwise once per run of consecutive lanes with
    equal a, b and c.  Raises DomainError (a ValueError) when some z lies
    outside [0, 1), InvalidCError when some c is a nonpositive integer,
    NoConvergenceError when some series does not converge and
    IllConditionedError, with no RuntimeWarning, when some value is not
    finite in double precision.

    log_w, when given, is the exact natural log of 1-z.  Callers whose z comes
    from tanh(x)^2 or sech(x)^2 know log(1-z) analytically; passing it keeps
    the z -> 1-z branch accurate where 1-z would round away (z may then even
    saturate to 1.0 in floating point).
    """
    z = np.asarray(z, dtype=float)
    if log_w is None:
        with np.errstate(divide="ignore", invalid="ignore"):  # z >= 1 fails the test below
            log_w = np.log1p(-z)
    log_w = np.asarray(log_w, dtype=float)
    # log_w only matters on the transformed branch, where it must witness z < 1; NaN fails the test
    if not ((z >= 0.0) & ((z <= SERIES_THRESHOLD) | ((log_w < 0.0) & (log_w > -np.inf)))).all():
        raise DomainError("hyp2f1 argument must lie in [0, 1)")
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    if a.ndim == b.ndim == c.ndim == 0:  # one row of all lanes
        z, log_w = np.broadcast_arrays(z, log_w)
        shape, views = z.shape, [v.reshape(1, -1) for v in (a, b, c, z, log_w)]
    else:
        views = np.broadcast_arrays(a, b, c, z, log_w)
        shape, views = views[0].shape, np.atleast_2d(*views)
    # a row is the last axis when a, b and c are constant along it, else a lane
    by_row = all(v.shape[-1] == 1 or v.strides[-1] == 0 for v in views[:3])
    out = np.empty(views[3].shape, dtype=complex)
    *lead, cols = out.shape
    table = out.reshape(math.prod(lead), cols)
    # the columns cut into blocks: all of them, or, when a by-row call spans
    # several blocks and z and log_w are the same in every row, the columns of
    # each branch apart, so that a block holds one branch for as many rows as fit
    sets = [None]
    if by_row and table.size > BLOCK_LANES and all(st == 0 or n == 1 for v in views[3:] for n, st in zip(lead, v.strides)):
        low = views[3][(0,) * len(lead)] <= SERIES_THRESHOLD
        sets = [np.flatnonzero(low), np.flatnonzero(~low)]
    for idx in sets:
        # only the block is copied out of the broadcast views, never a whole
        # view; a row longer than a block is cut into equal pieces
        n_cols = cols if idx is None else idx.size
        width = max(n_cols, 1)
        step, cut = max(1, BLOCK_LANES // width), -(-width // -(-width // BLOCK_LANES))
        for r in range(0, table.shape[0], step):
            # the rows: a slice of one leading axis (index arrays would cost a
            # one-lane call about 8 us), or index arrays over several
            rows = np.arange(r, min(r + step, table.shape[0]))
            at = (slice(r, r + step),) if len(lead) == 1 else tuple(i[:, None] for i in np.unravel_index(rows, lead))
            for s in range(0, n_cols, cut):
                piece = slice(s, s + cut) if idx is None else idx[s : s + cut]
                lanes = (*at, piece)
                z_part, log_w_part = (v[lanes].reshape(-1) for v in views[3:])
                if by_row:  # the parameters of each row: its first lane; equal runs, row after row
                    params = [v[(*at, slice(0, 1))].reshape(-1) for v in views[:3]]
                    counts = np.full(rows.size, z_part.size // rows.size)
                else:
                    params, counts = _lane_runs([v[lanes].reshape(-1) for v in views[:3]])
                table[r : r + step, piece] = _block(*params, counts, z_part, log_w_part).reshape(rows.size, -1)
    if not np.isfinite(out).all():
        raise IllConditionedError("hyp2f1 value not finite in double precision")
    out = out.reshape(shape)
    return out[()] if out.ndim == 0 else out


def gauss_2f1(a, b, c, z) -> complex:
    """Scalar Gauss hypergeometric 2F1 for complex a, b, c and real z in [0,1)."""
    return complex(hyp2f1_values(a, b, c, float(z)))
