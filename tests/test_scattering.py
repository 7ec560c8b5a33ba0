"""Scattering function, generalized Fourier kernels, and transform quadrature."""

import numpy as np
import pytest

from conftest import STANDARD_PAIRS, smooth_bump
from halfscatter.errors import DomainError, QuadratureWarning
from halfscatter.model import ModelParams
from halfscatter.scattering import (
    SampledFunction,
    adjoint_transform,
    b_factor,
    dilation_scaled_kernel,
    forward_transform,
    fourier_kernel,
    fourier_kernel_matrix,
    quadrature_panels,
    sample_on_panels,
    script_F,
    sigma,
    sigma_at_zero,
    sigma_samples,
    sine_transform,
    wave_operator_apply,
)
from halfscatter.specfun import bessel_script_J, beta_fn, log_gamma

FREE = ModelParams(0.5, 0.5)
GEN = ModelParams(1.0, 2.0)


def test_sigma_unimodular_everywhere():
    ks = np.array([10.0**j for j in range(-3, 3)])
    for mu, nu in STANDARD_PAIRS:
        vals = sigma(ModelParams(mu, nu), ks)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_sigma_free_is_one():
    ks = np.linspace(0.1, 10, 50)
    assert np.max(np.abs(sigma(FREE, ks) - 1.0)) < 1e-14


def test_sigma_rejects_nonpositive_k():
    with pytest.raises(DomainError):
        sigma(GEN, 0.0)


def test_sigma_high_energy_limit():
    # small parameters settle within 1e-2 of the limit phase already at k=200
    for mu, nu in [(0.5, 0.5), (1.0, 0.5), (0.5, 1.5)]:
        p = ModelParams(mu, nu)
        limit = np.exp(-1j * np.pi * (mu - 0.5))
        assert abs(np.angle(sigma(p, 200.0) / limit)) < 1e-2
    # larger parameters approach like 1/k; the gap halves when k doubles
    for mu, nu in [(0.0, 3.0), (1.0, 2.0), (2.5, 0.5)]:
        p = ModelParams(mu, nu)
        limit = np.exp(-1j * np.pi * (mu - 0.5))
        gaps = [abs(np.angle(sigma(p, k) / limit)) for k in (200.0, 400.0, 2000.0)]
        assert gaps[0] < 5e-2
        assert gaps[1] == pytest.approx(gaps[0] / 2, rel=0.1)
        assert gaps[2] < 5e-3


def test_sigma_zero_energy_cases():
    assert sigma_at_zero(ModelParams(0.0, 3.0)) == -1.0
    assert sigma_at_zero(ModelParams(2.0, 0.0)) == 1.0
    assert sigma_at_zero(ModelParams(0.0, 2.5)) == 1.0
    # continuous approach to the case value
    assert abs(sigma(ModelParams(0.0, 3.0), 1e-4) - (-1.0)) < 1e-3
    assert abs(np.angle(sigma(ModelParams(0.0, 2.5), 1e-4))) < 1e-2


def test_sigma_samples_unwrap():
    # coarse user nodes must land on the same continuous branch a fine
    # reference unwrap picks
    p = ModelParams(0.0, 5.0)  # winds fast enough to need refinement
    nodes = np.linspace(0.01, 20, 41)
    samples = sigma_samples(p, nodes)
    phases = np.array([s.phase for s in samples])
    from halfscatter.phase import unwrap_on_nodes

    ref = unwrap_on_nodes(lambda kk: sigma(p, kk), np.linspace(0.01, 20, 2001))[::50]
    assert np.max(np.abs(phases - ref)) < 1e-9
    assert all(abs(abs(s.sigma) - 1) < 1e-12 for s in samples)
    free = sigma_samples(FREE, np.linspace(0.1, 5, 10))
    assert all(abs(s.phase) < 1e-13 for s in free)


def test_sigma_samples_phase_at_large_parameters():
    # at (30.2, 35.9) sampling aliased the phase by whole turns; the log-gamma
    # phase matches mpmath's continuous loggamma phase on every node
    mp = pytest.importorskip("mpmath")
    p, ks = ModelParams(30.2, 35.9), np.linspace(0.0015, 195.0, 100)
    phases = np.array([s.phase for s in sigma_samples(p, ks)])
    with mp.workdps(30):
        a, b = mp.mpf(p.alpha), mp.mpf(p.beta)

        def log_sigma_mp(k):
            ik2 = mp.mpc(0, k) / 2
            num = mp.loggamma(a - ik2) + mp.loggamma(b - ik2) + mp.loggamma(1 + ik2) + mp.loggamma(0.5 + ik2)
            return num - mp.loggamma(a + ik2) - mp.loggamma(b + ik2) - mp.loggamma(1 - ik2) - mp.loggamma(0.5 - ik2)

        logs = [log_sigma_mp(k) for k in ks]
        ref = np.array([float(mp.arg(mp.exp(logs[0])) + mp.im(s - logs[0])) for s in logs])
    assert np.max(np.abs(phases - ref)) < 1e-8


def test_fourier_kernel_free_case():
    xs = np.linspace(0.01, 10, 80)
    for k in (0.1, 1.0, 5.0):
        vals = fourier_kernel(FREE, -1, xs, k)
        assert np.max(np.abs(vals - np.sqrt(2 / np.pi) * np.sin(k * xs))) < 1e-10


def test_fourier_kernel_conjugation(standard_params):
    for k in (0.4, 1.7):
        for x in (0.3, 2.0, 7.0):
            plus = fourier_kernel(standard_params, +1, x, k)
            minus = fourier_kernel(standard_params, -1, x, k)
            assert abs(plus - np.conj(minus)) < 1e-12 * max(abs(plus), 1e-30)


def test_fourier_kernel_small_x_law():
    k, x = 1.1, 1e-3
    p = GEN
    pref = (
        2.0 ** (-1j * k)
        * k
        * np.sqrt(1 / (2 * np.pi))
        * np.exp(
            log_gamma(p.alpha - 0.5j * k)
            + log_gamma(p.beta - 0.5j * k)
            - log_gamma(1 + p.mu)
            - log_gamma(1 - 1j * k)
        )
    )
    ref = pref * x ** (0.5 + p.mu)
    val = fourier_kernel(p, -1, x, k)
    assert abs(val - ref) / abs(ref) < 1e-5  # 1 + O(x^2) correction


def test_fourier_kernel_large_x_law(standard_params):
    x = 10.0
    for k in (0.9, 2.0):
        val = fourier_kernel(standard_params, -1, x, k)
        ref = (-1j / np.sqrt(2 * np.pi)) * (
            np.exp(1j * k * x) * sigma(standard_params, k) - np.exp(-1j * k * x)
        )
        assert abs(val - ref) < 1e-6


def test_kernel_matrix_equals_stacked_kernel_rows(standard_params):
    # k stays below the 2F1 cancellation zone (k >~ 25), where entries are noise
    x, _ = quadrature_panels(0.0, 12.0, 1.0, 8)
    kk = np.linspace(0.05, 10.0, 23)
    for side in (-1, +1):
        km = fourier_kernel_matrix(standard_params, side, x, kk)
        rows = np.array([fourier_kernel(standard_params, side, x, k) for k in kk])
        assert km.shape == (kk.size, x.size)
        assert np.max(np.abs(km - rows)) <= 1e-13 * np.max(np.abs(rows))


def test_script_F_identity(standard_params):
    for k in (0.7, 2.3):
        s = sigma(standard_params, k)
        for x in (0.4, 1.5, 6.0):
            lhs = fourier_kernel(standard_params, -1, x, k)
            sf = script_F(standard_params, x, k)
            rhs = -1j * (sf * s - np.conj(sf))
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_script_F_plane_wave_at_infinity():
    k = 1.3
    val = script_F(GEN, 18.0, k)
    assert abs(val - np.exp(1j * k * 18.0) / np.sqrt(2 * np.pi)) < 1e-10


def test_script_F_free_case():
    k, x = 0.9, 3.0
    # free case collapses to the outgoing plane wave with its sech correction
    val = script_F(FREE, x, k)
    lhs = -1j * (val * 1.0 - np.conj(val))
    assert abs(lhs - np.sqrt(2 / np.pi) * np.sin(k * x)) < 1e-12


def test_b_factor():
    p = GEN
    assert abs(b_factor(p, 100.0) - 1.0) < 0.05
    vals = [b_factor(p, k) for k in np.geomspace(0.1, 100, 25)]
    assert all(np.isfinite(v) and abs(v) > 1e-3 for v in vals)
    # free-case self-consistency against the Beta-function composition
    k = 2.0
    direct = np.sqrt(k) * beta_fn(0.5 - 0.5j * k, 0.5 - 0.5j * k) / (
        np.exp(0.25j * np.pi) * 2.0 ** (1j * k) * np.sqrt(2 * np.pi)
    )
    assert abs(b_factor(FREE, k) - direct) < 1e-14


def test_dilation_bessel_limit():
    for mu in (0, 1, 2):
        p = ModelParams(mu, 1.5)
        for x, k in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            val = dilation_scaled_kernel(p, 1e-3, x, k)
            ref = np.exp(-0.5j * np.pi * (mu - 0.5)) * np.sqrt(2 / np.pi) * bessel_script_J(mu, x * k)
            assert abs(val - ref) < 1e-2 * abs(bessel_script_J(mu, x * k)) + 1e-4


def test_dilation_plane_wave_limit():
    for mu, nu in [(0.0, 3.0), (2.0, 0.0)]:
        p = ModelParams(mu, nu)
        s0 = sigma_at_zero(p)
        for x, k in [(1.0, 1.0), (0.5, 2.0)]:
            val = dilation_scaled_kernel(p, 1e3, x, k)
            ref = (-1j / np.sqrt(2 * np.pi)) * (np.exp(1j * k * x) * s0 - np.exp(-1j * k * x))
            assert abs(val - ref) < 1e-2


def test_dilation_free_case_scale_invariant():
    x, k = 1.2, 0.8
    vals = [dilation_scaled_kernel(FREE, eps, x, k) for eps in (1e-3, 1.0, 1e3)]
    assert np.max(np.abs(np.diff(vals))) < 1e-10


def test_dilation_monotone_approach_to_limits():
    p = ModelParams(1.0, 2.0)
    x, k = 1.0, 1.0
    bessel = np.exp(-0.5j * np.pi * (p.mu - 0.5)) * np.sqrt(2 / np.pi) * bessel_script_J(p.mu, x * k)
    d_small = [
        abs(dilation_scaled_kernel(p, eps, x, k) - bessel) for eps in (1e-1, 1e-2, 1e-3)
    ]
    assert d_small[0] > d_small[1] > d_small[2]
    plane = (-1j / np.sqrt(2 * np.pi)) * (
        np.exp(1j * k * x) * sigma_at_zero(p) - np.exp(-1j * k * x)
    )
    d_large = [abs(dilation_scaled_kernel(p, eps, x, k) - plane) for eps in (1e1, 1e2, 1e3)]
    assert d_large[0] > d_large[1] > d_large[2]


# ---------------------------------------------------------------------------
# transforms


def test_sampled_function_invariants():
    with pytest.raises(ValueError):
        SampledFunction(grid=[1.0, 0.5], values=[0, 0], weights=[1, 1])
    with pytest.raises(ValueError):
        SampledFunction(grid=[0.5, 1.0], values=[0, 0], weights=[1, -1])


def test_quadrature_panels_integrate_smooth():
    x, w = quadrature_panels(0.0, 30.0, 1.0, 32)
    val = np.sum(w * np.exp(-x) * np.sin(3 * x))
    assert abs(val - 0.3) < 1e-13  # integral of e^-x sin 3x over (0, inf) = 3/10


def test_free_sine_round_trip():
    f = sample_on_panels(smooth_bump, 0.0, 8.0, 1.0, 32)
    kk, kw = quadrature_panels(0.0, 40.0, 1.0, 16)
    kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
    g = forward_transform(FREE, -1, f, kgrid)
    back = adjoint_transform(FREE, -1, g, f)
    err = np.sqrt(np.sum(f.weights * np.abs(back.values - f.values) ** 2)) / f.norm()
    assert err < 1e-3
    # free kernels are exactly the sine kernel: compare against sine_transform
    gs = sine_transform(f, kgrid)
    assert np.max(np.abs(g.values - gs.values)) < 1e-9


def test_completeness_no_bound_states():
    p = ModelParams(1.0, 1.0)  # no point spectrum
    f = sample_on_panels(smooth_bump, 0.0, 12.0, 1.0, 32)
    kk, kw = quadrature_panels(0.0, 40.0, 1.0, 16)
    kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
    km = fourier_kernel_matrix(p, -1, f.grid, kk)
    g = forward_transform(p, -1, f, kgrid, kernel_matrix=np.conj(km))
    back = adjoint_transform(p, -1, g, f, kernel_matrix=km)
    err = np.sqrt(np.sum(f.weights * np.abs(back.values - f.values) ** 2)) / f.norm()
    assert err < 1e-2


def test_intertwining_weak_form():
    # transform of H f equals k^2 times the transform of f, H by finite
    # differences plus potential on an analytic Gaussian packet
    from halfscatter.model import potential

    p = ModelParams(0.0, 3.0)
    f = lambda t: np.exp(-2.0 * (t - 3.0) ** 2)
    x, w = quadrature_panels(0.0, 12.0, 1.0, 32)
    fx = f(x)
    h = 1e-3
    fpp = (-f(x + 2 * h) + 16 * f(x + h) - 30 * fx + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)
    hf = -fpp + potential(p, x) * fx
    kk, kw = quadrature_panels(0.0, 40.0, 1.0, 16)
    kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
    sf = SampledFunction(grid=x, values=fx, weights=w)
    shf = SampledFunction(grid=x, values=hf, weights=w)
    tf = forward_transform(p, -1, sf, kgrid)
    thf = forward_transform(p, -1, shf, kgrid)
    num = np.sqrt(np.sum(kw * np.abs(thf.values - kk**2 * tf.values) ** 2))
    den = np.sqrt(np.sum(w * np.abs(hf) ** 2))
    assert num / den < 1e-3


def test_wave_operator_free_is_identity():
    f = sample_on_panels(smooth_bump, 0.0, 8.0, 1.0, 32)
    wf = wave_operator_apply(FREE, -1, f)
    err = np.sqrt(np.sum(f.weights * np.abs(wf.values - f.values) ** 2)) / f.norm()
    assert err < 1e-3


def test_wave_operator_isometric_on_continuum():
    # synthesize f from a smooth momentum profile supported in [0.5, 5]: then
    # f lies in the continuous subspace and W_- preserves its norm
    p = ModelParams(0.0, 3.0)
    kk, kw = quadrature_panels(0.0, 6.0, 0.5, 24)
    prof = smooth_bump(kk, 0.5, 5.0)
    x, w = quadrature_panels(0.0, 30.0, 1.0, 32)
    fx = np.sqrt(2 / np.pi) * np.sin(np.outer(x, kk)) @ (kw * prof)
    f = SampledFunction(grid=x, values=fx, weights=w)
    wf = wave_operator_apply(p, -1, f, k_max=8.0, nodes_per_panel=24)
    assert abs(wf.norm() / f.norm() - 1.0) < 1e-3


def test_quadrature_warning_on_unsupported_tail():
    # mass leaking past the grid end must trigger the warning
    f = sample_on_panels(lambda t: np.exp(-((t - 7.5) ** 2)), 0.0, 8.0, 1.0, 16)
    kk, kw = quadrature_panels(0.0, 5.0, 1.0, 8)
    kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
    with pytest.warns(QuadratureWarning):
        forward_transform(FREE, -1, f, kgrid)
