"""Reference values from mpmath at raised precision, computed outside timed rounds.

The formulas restate the paper's closed forms directly in terms of
``mpmath.hyp2f1`` and ``mpmath.loggamma``, which track cancellation and raise
their working precision as needed, so they stay accurate where the package's
double-precision series does not.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _ab(mu, nu):
    return (1 + mp.mpf(mu) + nu) / 2, (1 + mp.mpf(mu) - nu) / 2


def solution_L(mu, nu, x, zeta):
    """Regular solution tanh^(1/2+mu) cosh^zeta 2F1(alpha-zeta/2, beta-zeta/2; 1+mu; tanh^2)."""
    al, be = _ab(mu, nu)
    z = mp.mpc(zeta)
    th, ch = mp.tanh(x), mp.cosh(x)
    return th ** (mp.mpf(0.5) + mu) * ch**z * mp.hyp2f1(al - z / 2, be - z / 2, 1 + mp.mpf(mu), th**2)


def solution_M(mu, nu, x, zeta):
    """Decaying solution tanh^(1/2+mu) cosh^-zeta 2F1(alpha+zeta/2, beta+zeta/2; 1+zeta; sech^2)."""
    al, be = _ab(mu, nu)
    z = mp.mpc(zeta)
    th, ch = mp.tanh(x), mp.cosh(x)
    return th ** (mp.mpf(0.5) + mu) * ch ** (-z) * mp.hyp2f1(al + z / 2, be + z / 2, 1 + z, 1 / ch**2)


def wronskian(mu, nu, zeta):
    al, be = _ab(mu, nu)
    z = mp.mpc(zeta)
    return -2 * mp.gamma(1 + mp.mpf(mu)) * mp.gamma(1 + z) / (mp.gamma(al + z / 2) * mp.gamma(be + z / 2))


def _kernel(mu, nu, zeta, xs, ys):
    """-L(min) M(max) / W on the grid xs x ys, row-major in xs, with L and M shared."""
    w = wronskian(mu, nu, zeta)
    pts = sorted(set(xs) | set(ys))
    lv = {x: solution_L(mu, nu, x, zeta) for x in pts}
    mv = {x: solution_M(mu, nu, x, zeta) for x in pts}
    return [complex(-lv[min(x, y)] * mv[max(x, y)] / w) for x in xs for y in ys]


def resolvent_kernel(mu, nu, zeta, xs, ys):
    with mp.workdps(DPS):
        return _kernel(mu, nu, complex(zeta), xs, ys)


def boundary_kernel(mu, nu, k, side, xs, ys):
    """Limiting-absorption kernel at zeta = -i side k (side +1 is the upper half-plane)."""
    with mp.workdps(DPS):
        return _kernel(mu, nu, -1j * side * k, xs, ys)


def density(mu, nu, ks, xs, ys):
    """(k/pi) L(x) L(y) / |W(-ik)|^2, row-major in (k, x, y); real on the boundary."""
    out = []
    with mp.workdps(DPS):
        for k in ks:
            zeta = -1j * k
            scale = k / mp.pi / abs(wronskian(mu, nu, zeta)) ** 2
            lv = {x: mp.re(solution_L(mu, nu, x, zeta)) for x in set(xs) | set(ys)}
            out.extend(float(scale * lv[x] * lv[y]) for x in xs for y in ys)
    return out


def fourier_kernel(mu, nu, side, entries):
    """Generalized Fourier kernel -(2^(i side k)) sqrt(2/pi) k L(x,k) / W(-i(-side)k) at (x, k) pairs."""
    out = []
    with mp.workdps(DPS):
        for x, k in entries:
            lv = mp.re(solution_L(mu, nu, x, -1j * k))
            w = wronskian(mu, nu, 1j * side * k)
            pref = -mp.expj(side * k * mp.log(2)) * mp.sqrt(2 / mp.pi) * k / w
            out.append(complex(pref * lv))
    return out


def sigma_with_phase(mu, nu, ks):
    """sigma(k) and its continuous phase, anchored at the principal argument at ks[0].

    Each loggamma argument stays off the negative real axis for k > 0, so the
    imaginary part of the loggamma sum is a continuous phase with no sampling.
    """
    vals, logs = [], []
    with mp.workdps(DPS):
        al, be = _ab(mu, nu)
        for k in ks:
            ik2 = mp.mpc(0, k) / 2
            s = (
                mp.loggamma(al - ik2) + mp.loggamma(be - ik2) + mp.loggamma(1 + ik2) + mp.loggamma(0.5 + ik2)
                - mp.loggamma(al + ik2) - mp.loggamma(be + ik2) - mp.loggamma(1 - ik2) - mp.loggamma(0.5 - ik2)
            )
            logs.append(s)
            vals.append(complex(mp.exp(s)))
        anchor = mp.arg(mp.exp(logs[0]))
        phases = [float(anchor + mp.im(s - logs[0])) for s in logs]
    return vals, phases


def bound_count(mu, nu):
    """Number of n >= 0 with nu - mu - 1 - 2n > 0; a level within 1e-12 of zero does not count."""
    t = nu - mu - 1.0
    n = 0
    while t - 2.0 * n > 2e-12:
        n += 1
    return n
