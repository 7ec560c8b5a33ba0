"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np

from conftest import STANDARD_PAIRS, smooth_bump
from halfscatter.index import verify_index, winding_contributions, winding_numeric
from halfscatter.model import ModelParams, potential
from halfscatter.oracle import count_bound_states_shooting, extract_sigma, integrate_regular
from halfscatter.scattering import (
    SampledFunction,
    adjoint_transform,
    dilation_scaled_kernel,
    forward_transform,
    fourier_kernel,
    fourier_kernel_matrix,
    quadrature_panels,
    sample_on_panels,
    sigma,
    sigma_at_zero,
    sine_transform,
)
from halfscatter.solutions import SpectralPoint, eval_derivative, eval_L, eval_M, wronskian
from halfscatter.spectral import (
    bound_states,
    eigenfunction,
    resolvent_boundary_kernel,
    resolvent_kernel,
    spectral_density_kernel,
    wronskian_roots,
)
from halfscatter.specfun import bessel_script_J

FREE = ModelParams(0.5, 0.5)


def _report(num, desc, ok, detail=""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc}  {detail}"


def test_criterion_1_free_case_collapse():
    xs = np.linspace(0.01, 10, 120)
    v_sup = np.max(np.abs(potential(FREE, xs)))
    ks = np.linspace(0.1, 5.0, 60)
    sig_dev = np.max(np.abs(sigma(FREE, ks) - 1.0))
    kern_sup = 0.0
    for k in ks:
        vals = fourier_kernel(FREE, -1, xs, k)
        kern_sup = max(kern_sup, np.max(np.abs(vals - np.sqrt(2 / np.pi) * np.sin(k * xs))))
    wn = winding_numeric(FREE)
    count = bound_states(FREE).count
    ok = v_sup < 1e-14 and sig_dev < 1e-12 and kern_sup < 1e-10 and abs(wn) < 1e-6 and count == 0
    _report(
        1,
        "free-case collapse (V=0, sigma=1, sine kernel, zero winding/count)",
        ok,
        f"V sup {v_sup:.2e}; |sigma-1| {sig_dev:.2e}; kernel sup {kern_sup:.2e}; wn {wn:.2e}",
    )


def test_criterion_2_closed_form_vs_oracle():
    t0 = time.time()
    worst = 0.0
    for mu, nu, zeta in [(0.0, 3.0, 2 + 1j), (1.0, 1.0, 1.0), (2.0, 0.0, 0.5 + 2j)]:
        p = ModelParams(mu, nu)
        xs = np.linspace(0.1, 6.0, 60)
        u, _ = integrate_regular(p, -(complex(zeta) ** 2), xs, tol=1e-11)
        lv = eval_L(p, xs, SpectralPoint.interior(zeta))
        const = np.vdot(lv, u) / np.vdot(lv, lv)
        worst = max(worst, float(np.max(np.abs(u - const * lv) / np.abs(u))))
    elapsed = time.time() - t0
    ok = worst < 1e-7 and elapsed < 10.0
    _report(2, "regular solution matches ODE oracle up to one constant",
            ok, f"worst rel {worst:.2e}; {elapsed:.1f}s")


def test_criterion_3_wronskian():
    zeta = 1.3 + 0.4j
    worst_spread, worst_match = 0.0, 0.0
    for mu, nu in STANDARD_PAIRS:
        p = ModelParams(mu, nu)
        pt = SpectralPoint.interior(zeta)
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        lv, mv = eval_L(p, xs, pt), eval_M(p, xs, pt)
        vals = lv * eval_derivative(p, xs, pt, "M") - eval_derivative(p, xs, pt, "L") * mv
        spread = np.max(np.abs(vals - vals.mean())) / abs(vals.mean())
        match = abs(vals.mean() - wronskian(p, pt)) / abs(vals.mean())
        worst_spread = max(worst_spread, float(spread))
        worst_match = max(worst_match, float(match))
    roots = wronskian_roots(ModelParams(0.0, 3.0))
    root_err = abs(roots[0] - 2.0) if roots else np.inf
    ok = worst_spread < 1e-12 and worst_match < 1e-12 and len(roots) == 1 and root_err < 1e-10
    _report(3, "numerical Wronskian constant and matching the gamma closed form",
            ok, f"spread {worst_spread:.2e}; match {worst_match:.2e}; root |zeta-2| {root_err:.2e}")


def test_criterion_4_scattering_matrix_cross_check():
    worst_phase = 0.0
    for mu, nu in [(0.0, 3.0), (1.0, 2.0), (2.0, 0.5)]:
        p = ModelParams(mu, nu)
        for k in (0.5, 1.0, 2.0, 5.0):
            s_ode = extract_sigma(p, k)
            s_cf = complex(sigma(p, k))
            worst_phase = max(worst_phase, abs(float(np.angle(s_ode / s_cf))))
    ks = np.geomspace(1e-3, 100, 60)
    worst_mod = max(
        float(np.max(np.abs(np.abs(sigma(ModelParams(mu, nu), ks)) - 1.0)))
        for mu, nu in STANDARD_PAIRS
    )
    ok = worst_phase < 1e-6 and worst_mod < 1e-12
    _report(4, "ODE-fit scattering phase vs gamma product; unit modulus",
            ok, f"worst phase {worst_phase:.2e} rad; worst |sigma|-1 {worst_mod:.2e}")


def test_criterion_5_spectral_density_identities():
    worst_fact, worst_jump, worst_lap = 0.0, 0.0, 0.0
    for mu, nu in [(0.0, 3.0), (1.0, 2.0), (0.5, 0.5), (2.0, 0.5)]:
        p = ModelParams(mu, nu)
        for k in (0.6, 1.3, 3.0):
            for x, y in [(0.7, 1.8), (2.2, 0.9)]:
                dens = spectral_density_kernel(p, k, x, y)
                fact = fourier_kernel(p, -1, x, k) * fourier_kernel(p, +1, y, k)
                worst_fact = max(worst_fact, abs(2 * k * dens - fact))
                jump = (
                    resolvent_boundary_kernel(p, k, "+", x, y)
                    - resolvent_boundary_kernel(p, k, "-", x, y)
                ) / (2j * np.pi)
                worst_jump = max(worst_jump, abs(dens - jump))
                zeta = np.sqrt(complex(-(k**2), -1e-6))
                interior = resolvent_kernel(p, SpectralPoint.interior(zeta), x, y)
                worst_lap = max(
                    worst_lap, abs(interior - resolvent_boundary_kernel(p, k, "+", x, y))
                )
    ok = worst_fact < 1e-10 and worst_jump < 1e-10 and worst_lap < 1e-4
    _report(5, "density factorization, resolvent jump, limiting absorption",
            ok, f"fact {worst_fact:.2e}; jump {worst_jump:.2e}; lap {worst_lap:.2e}")


def test_criterion_6_bound_states_three_ways():
    t0 = time.time()
    worst_level, off_node = 0.0, 0
    for mu in np.arange(0.0, 3.0 + 1e-12, 0.5):
        for nu in np.arange(0.0, 6.0 + 1e-12, 0.5):
            p = ModelParams(float(mu), float(nu))
            rep = bound_states(p)
            roots = wronskian_roots(p)
            shots = count_bound_states_shooting(p)
            assert rep.count == len(roots) == shots, (mu, nu, rep.count, len(roots), shots)
            for root, lv in zip(roots, rep.levels):
                worst_level = max(worst_level, abs(-(root**2) - lv.energy))
            # every root above lies 1e-9 from a node of wronskian_roots' scan, which alone would
            # find it; at nu + 0.37 the roots lie inside the scan's brackets (no shooting count)
            p = ModelParams(float(mu), float(nu) + 0.37)
            rep, roots = bound_states(p), wronskian_roots(p)
            assert rep.count == len(roots), (mu, nu + 0.37, rep.count, len(roots))
            off_node += rep.count
            for root, lv in zip(roots, rep.levels):
                worst_level = max(worst_level, abs(-(root**2) - lv.energy))
    ok = worst_level < 1e-10 and off_node > 0
    _report(6, "ceiling formula, Wronskian roots, shooting nodes agree on the 7x13 grid",
            ok, f"worst level deviation {worst_level:.2e} ({off_node} levels off the scan nodes); {time.time()-t0:.1f}s")


def test_criterion_7_index_theorem():
    t0 = time.time()
    rng = np.random.default_rng(42)
    pairs = [(0.0, 3.0), (2.0, 0.0), (0.0, 2.5), (1.0, 4.0), (0.5, 0.5), (1.0, 2.0)]
    for _ in range(9):  # beta > 0
        mu = rng.uniform(0, 4)
        pairs.append((mu, rng.uniform(0, mu + 1)))
    for n in (0, 1, 2):  # beta = -n exactly
        for _ in range(3):
            mu = rng.uniform(0, 4)
            pairs.append((mu, mu + 1 + 2 * n))
    for _ in range(9):  # beta = -n + eps
        mu = rng.uniform(0, 4)
        n = rng.integers(0, 3)
        eps = rng.uniform(0.1, 0.9)
        pairs.append((mu, mu + 1 + 2 * n - 2 * eps))
    assert len(pairs) >= 30
    worst = 0.0
    for mu, nu in pairs:
        rep = verify_index(ModelParams(float(mu), float(nu)))
        assert rep.passed, (mu, nu, rep)
        worst = max(worst, abs(rep.winding_numeric - rep.bound_count))
    assert winding_contributions(ModelParams(0.0, 3.0)) == (-0.5, 1.25, 0.25, 0.0)
    assert winding_contributions(ModelParams(2.0, 0.0)) == (0.0, 0.75, -0.75, 0.0)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _report(7, f"index identity on {len(pairs)} pairs across all beta classes",
            ok, f"worst |wn-count| {worst:.2e}; {elapsed:.1f}s")


def test_criterion_8_dilation_limits():
    worst_ratio = 0.0
    for mu in (0, 1, 2):
        p = ModelParams(float(mu), 1.5)
        for x in (0.5, 1.0, 2.0):
            for k in (0.5, 1.0, 2.0):
                bess = bessel_script_J(mu, x * k)
                lim = np.exp(-0.5j * np.pi * (mu - 0.5)) * np.sqrt(2 / np.pi) * bess
                err = abs(dilation_scaled_kernel(p, 1e-3, x, k) - lim)
                worst_ratio = max(worst_ratio, err / (1e-2 * abs(bess) + 1e-4))
    worst_plane = 0.0
    for mu, nu in [(0.0, 3.0), (2.0, 0.0)]:
        p = ModelParams(mu, nu)
        s0 = sigma_at_zero(p)
        for x, k in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            ref = (-1j / np.sqrt(2 * np.pi)) * (np.exp(1j * k * x) * s0 - np.exp(-1j * k * x))
            worst_plane = max(worst_plane, abs(dilation_scaled_kernel(p, 1e3, x, k) - ref))
    ok = worst_ratio < 1.0 and worst_plane < 1e-2
    _report(8, "Bessel limit at eps=1e-3 and plane-wave limit at eps=1e3",
            ok, f"worst Bessel err/bound {worst_ratio:.2f}; plane-wave err {worst_plane:.2e}")


def test_criterion_9_completeness_and_scattering_operator():
    # round trip (F^-)* F^- f = f - P_p f for a smooth bump in [1, 3], K = 40
    worst_rt = 0.0
    for mu, nu in [(0.0, 3.0), (1.0, 1.0)]:
        p = ModelParams(mu, nu)
        f = sample_on_panels(smooth_bump, 0.0, 12.0, 1.0, 32)
        kk, kw = quadrature_panels(0.0, 40.0, 1.0, 16)
        kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
        km = fourier_kernel_matrix(p, -1, f.grid, kk)
        g = forward_transform(p, -1, f, kgrid, kernel_matrix=np.conj(km))
        back = adjoint_transform(p, -1, g, f, kernel_matrix=km)
        proj = np.zeros_like(f.values)
        for n in range(bound_states(p).count):
            phi = eigenfunction(p, n, normalized=True)
            vals = np.array([phi(t) for t in f.grid])
            proj = proj + vals * np.sum(f.weights * vals * f.values)
        resid = back.values - (f.values - proj)
        worst_rt = max(worst_rt, float(np.sqrt(np.sum(f.weights * np.abs(resid) ** 2)) / f.norm()))

    # scattering-operator identity F_D(W+* W- f) = sigma . (F_D f) at (0, 3):
    # the wave-operator output spreads, so the intermediate window is wide
    p = ModelParams(0.0, 3.0)
    f = sample_on_panels(smooth_bump, 0.0, 30.0, 1.0, 32)
    kk, kw = quadrature_panels(0.0, 40.0, 0.5, 20)
    kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
    km = fourier_kernel_matrix(p, -1, f.grid, kk)
    fd_f = sine_transform(f, kgrid)
    w_minus_f = adjoint_transform(p, -1, fd_f, f, kernel_matrix=km)
    fplus = forward_transform(p, +1, w_minus_f, kgrid, kernel_matrix=km)
    w_plus_star = sine_transform(
        SampledFunction(grid=kk, values=fplus.values, weights=kw), f
    )  # W+* W- f on the x grid
    lhs = sine_transform(w_plus_star, kgrid)
    resid_s = lhs.values - sigma(p, kk) * fd_f.values
    s_err = float(np.sqrt(np.sum(kw * np.abs(resid_s) ** 2)) / f.norm())
    ok = worst_rt < 1e-2 and s_err < 1e-2
    _report(9, "transform completeness and S = sigma(sqrt(H)) identity",
            ok, f"round trip {worst_rt:.2e}; S-identity {s_err:.2e}")
