"""Resolvent and density kernels, bound-state data, eigenfunctions."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import fd_second
from halfscatter.errors import AtEigenvalueError
from halfscatter.model import ModelParams, potential
from halfscatter.oracle import count_bound_states_shooting, greens_function_oracle
from halfscatter.scattering import fourier_kernel, quadrature_panels
from halfscatter.solutions import SpectralPoint
from halfscatter.spectral import (
    bound_states,
    eigenfunction,
    resolvent_boundary_kernel,
    resolvent_kernel,
    spectral_density_kernel,
    wronskian_roots,
)

FREE = ModelParams(0.5, 0.5)


def test_resolvent_symmetry():
    p = ModelParams(1.0, 2.0)
    pt = SpectralPoint.interior(1.2 + 0.5j)
    assert resolvent_kernel(p, pt, 0.7, 2.1) == resolvent_kernel(p, pt, 2.1, 0.7)


def test_resolvent_free_case_green_function():
    # Dirichlet half-line Green function at zeta = 1: sinh(min) e^(-max)
    pt = SpectralPoint.interior(1.0)
    for x, y in [(0.5, 2.0), (3.0, 1.0), (2.0, 2.0)]:
        val = resolvent_kernel(FREE, pt, x, y)
        ref = np.sinh(min(x, y)) * np.exp(-max(x, y))
        assert abs(val - ref) < 1e-12


def test_resolvent_at_eigenvalue_raises():
    p = ModelParams(0.0, 3.0)
    with pytest.raises(AtEigenvalueError):
        resolvent_kernel(p, SpectralPoint.interior(2.0), 1.0, 2.0)


def test_array_kernels_equal_scalar_calls():
    p = ModelParams(1.0, 2.0)
    pt = SpectralPoint.interior(1.3 + 0.4j)
    xs = np.array([0.3, 0.9, 2.1, 4.0])
    ys = np.array([0.9, 1.7, 3.2])
    grids = [
        (resolvent_kernel(p, pt, xs[:, None], ys), lambda x, y: resolvent_kernel(p, pt, x, y)),
        (
            resolvent_boundary_kernel(p, 1.2, "-", xs[:, None], ys),
            lambda x, y: resolvent_boundary_kernel(p, 1.2, "-", x, y),
        ),
        (spectral_density_kernel(p, 0.8, xs[:, None], ys), lambda x, y: spectral_density_kernel(p, 0.8, x, y)),
    ]
    for grid, scalar in grids:
        assert grid.shape == (xs.size, ys.size)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                one = scalar(float(x), float(y))
                assert isinstance(one, complex)
                assert abs(grid[i, j] - one) <= 1e-14 * abs(one)


def test_resolvent_at_eigenvalue_raises_from_array_path():
    with pytest.raises(AtEigenvalueError):
        resolvent_kernel(ModelParams(0.0, 3.0), SpectralPoint.interior(2.0), np.array([0.5, 1.0]), 2.0)


@pytest.mark.parametrize("zeta", [20.0, 30.0])
def test_resolvent_at_large_zeta_without_bound_states(zeta):
    # (1, 2) has no bound states, so the kernel exists for every zeta > 0
    mp = pytest.importorskip("mpmath")
    p, x, y = ModelParams(1.0, 2.0), 1.0, 2.0
    with mp.workdps(40):
        m, a, b, z = mp.mpf(p.mu), mp.mpf(p.alpha), mp.mpf(p.beta), mp.mpf(zeta)
        reg = mp.tanh(x) ** (m + 0.5) * mp.cosh(x) ** z * mp.hyp2f1(a - z / 2, b - z / 2, 1 + m, mp.tanh(x) ** 2)
        dec = mp.tanh(y) ** (m + 0.5) * mp.cosh(y) ** -z * mp.hyp2f1(a + z / 2, b + z / 2, 1 + z, mp.sech(y) ** 2)
        w = -2 * mp.gamma(1 + m) * mp.gamma(1 + z) / (mp.gamma(a + z / 2) * mp.gamma(b + z / 2))
        ref = complex(-reg * dec / w)
    val = resolvent_kernel(p, SpectralPoint.interior(zeta), x, y)
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_resolvent_decay_estimate():
    # |R| <= C tanh(x)^(1/2) tanh(y)^(1/2) e^(-Re zeta |x-y|), C fitted near
    # the diagonal and checked far from it (mu > 0 branch of the bound)
    p = ModelParams(1.0, 2.0)
    zeta = 1.3 + 0.4j
    pt = SpectralPoint.interior(zeta)

    def shape(x, y):
        return np.sqrt(np.tanh(x) * np.tanh(y)) * np.exp(-zeta.real * abs(x - y))

    near = [(x, x + 0.2) for x in (0.5, 1.0, 2.0)]
    c_fit = max(abs(resolvent_kernel(p, pt, x, y)) / shape(x, y) for x, y in near)
    far = [(0.5, 4.0), (0.3, 6.0), (1.0, 8.0), (0.2, 9.0)]
    for x, y in far:
        assert abs(resolvent_kernel(p, pt, x, y)) <= 1.05 * c_fit * shape(x, y)


def test_boundary_kernel_conjugation_and_symmetry(standard_params):
    k = 1.2
    for x, y in [(0.8, 2.0), (2.0, 0.8)]:
        plus = resolvent_boundary_kernel(standard_params, k, "+", x, y)
        minus = resolvent_boundary_kernel(standard_params, k, "-", x, y)
        assert abs(plus - np.conj(minus)) < 1e-12 * abs(plus)
    assert (
        resolvent_boundary_kernel(standard_params, k, "+", 0.8, 2.0)
        == resolvent_boundary_kernel(standard_params, k, "+", 2.0, 0.8)
    )


def test_limiting_absorption_epsilon_sequence():
    # interior kernel at zeta = sqrt(-(k^2 + i eps)) approaches the boundary
    # value monotonically as eps -> 0, uniformly over a k sample
    p = ModelParams(1.0, 2.0)
    x, y = 0.9, 1.7
    for k in (0.5, 1.0, 2.0, 5.0):
        ref = resolvent_boundary_kernel(p, k, "+", x, y)
        errs = []
        for eps in (1e-2, 1e-4, 1e-6):
            zeta = np.sqrt(complex(-(k**2), -eps))
            val = resolvent_kernel(p, SpectralPoint.interior(zeta), x, y)
            errs.append(abs(val - ref))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4


def test_density_is_resolvent_jump(standard_params):
    k, x, y = 1.1, 0.9, 2.3
    dens = spectral_density_kernel(standard_params, k, x, y)
    jump = (
        resolvent_boundary_kernel(standard_params, k, "+", x, y)
        - resolvent_boundary_kernel(standard_params, k, "-", x, y)
    ) / (2j * np.pi)
    assert abs(dens - jump) < 1e-10 * max(abs(dens), 1e-3)


def test_density_free_case():
    # free density sin(kx) sin(ky) / (pi k)
    k, x, y = 1.4, 0.8, 1.9
    val = spectral_density_kernel(FREE, k, x, y)
    assert abs(val - np.sin(k * x) * np.sin(k * y) / (np.pi * k)) < 1e-12


def test_density_positivity_and_symmetry(standard_params):
    for k in (0.3, 1.0, 4.0):
        for x in (0.2, 1.0, 3.0):
            d = spectral_density_kernel(standard_params, k, x, x)
            assert d.real >= -1e-14 and abs(d.imag) < 1e-12 * max(abs(d), 1e-30)
    a = spectral_density_kernel(standard_params, 1.0, 0.5, 2.5)
    b = spectral_density_kernel(standard_params, 1.0, 2.5, 0.5)
    assert abs(a - b) < 1e-13 * max(abs(a), 1e-30)


def test_density_fourier_factorization(standard_params):
    # 2k p(k^2; x, y) = kernel^-(x,k) kernel^+(y,k)
    k, x, y = 0.9, 1.1, 2.6
    lhs = 2 * k * spectral_density_kernel(standard_params, k, x, y)
    rhs = fourier_kernel(standard_params, -1, x, k) * fourier_kernel(standard_params, +1, y, k)
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1e-12)


def test_bound_state_examples():
    rep = bound_states(ModelParams(0.0, 3.0))
    assert rep.count == 1 and rep.levels[0].zeta == 2.0 and rep.levels[0].energy == -4.0
    assert bound_states(ModelParams(2.0, 0.0)).count == 0
    rep = bound_states(ModelParams(0.0, 2.5))
    assert rep.count == 1
    assert abs(rep.levels[0].zeta - 1.5) < 1e-12 and abs(rep.levels[0].energy + 2.25) < 1e-12
    # threshold case nu = mu + 1 has no bound state
    assert bound_states(ModelParams(1.0, 2.0)).count == 0


def test_wronskian_roots_match_levels_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(30):
        mu = rng.uniform(0, 4)
        nu = rng.uniform(0, 4)
        p = ModelParams(mu, nu)
        rep = bound_states(p)
        roots = wronskian_roots(p)
        assert len(roots) == rep.count, (mu, nu)
        for root, lv in zip(roots, rep.levels):
            assert abs(root - lv.zeta) < 1e-10, (mu, nu)


def test_wronskian_roots_take_a_node_zero_once():
    # delta = 0.25 puts scan nodes exactly on both levels, 4 and 2
    assert wronskian_roots(ModelParams(0.0, 5.0), delta=0.25) == [4.0, 2.0]


def test_shooting_count_matches_report():
    for mu, nu in [(0.0, 3.0), (2.0, 0.0), (0.0, 5.0), (1.5, 4.5)]:
        p = ModelParams(mu, nu)
        assert count_bound_states_shooting(p) == bound_states(p).count


def test_resolvent_matches_oracle_green_function():
    p = ModelParams(0.0, 2.5)
    pt = SpectralPoint.interior(0.9 + 0.7j)
    for x, y in [(0.8, 1.6), (2.5, 1.2)]:
        cf = resolvent_kernel(p, pt, x, y)
        orc = greens_function_oracle(p, pt, x, y)
        assert abs(cf - orc) / abs(cf) < 1e-6


def test_eigenfunction_profile():
    p = ModelParams(0.0, 3.0)
    f = eigenfunction(p, 0)
    # square integrable: quadrature converges, tail below e^(-4x) scale
    norm_sq, err = quad(lambda t: f(t) ** 2, 0.0, np.inf, limit=200)
    assert np.isfinite(norm_sq) and norm_sq > 0 and err < 1e-7
    assert abs(f(10.0)) < 5e-8 * abs(f(1.0))
    # satisfies the radial equation at E = -zeta^2 = -4
    for x in (0.5, 1.0, 2.0):
        res = abs(-fd_second(f, x, h=1e-3) + (potential(p, x) + 4.0) * f(x))
        assert res < 1e-7 * max(abs(f(x)), 1e-6)
    # behaves like x^(1/2+mu) at the origin
    assert abs(f(1e-4)) < 1e-8 or f(1e-4) / f(2e-4) == pytest.approx(
        (0.5) ** (0.5 + p.mu), rel=1e-3
    )


def test_eigenfunction_normalized():
    p = ModelParams(0.0, 5.0)
    f = eigenfunction(p, 1, normalized=True)
    norm_sq, _ = quad(lambda t: f(t) ** 2, 0.0, np.inf, limit=200)
    assert abs(norm_sq - 1.0) < 1e-7


@pytest.mark.parametrize("mu,nu,n", [(0.0, 20.0, 4), (0.0, 20.0, 8), (1.5, 9.2, 2)])
def test_eigenfunction_normalized_against_mpmath(mu, nu, n):
    # adaptive quadrature could not certify these norms; mpmath integrates
    # the squared closed form over x
    mp = pytest.importorskip("mpmath")
    p = ModelParams(mu, nu)
    zeta = bound_states(p).levels[n].zeta
    f, g = eigenfunction(p, n, normalized=True), eigenfunction(p, n)
    with mp.workdps(30):
        a, b, z = mp.mpf(p.alpha) + zeta / 2, mp.mpf(p.beta) + zeta / 2, mp.mpf(zeta)

        def m(x):
            return mp.tanh(x) ** (mp.mpf(0.5) + mu) * mp.cosh(x) ** -z * mp.hyp2f1(a, b, 1 + z, mp.sech(x) ** 2)

        norm_sq = float(mp.quad(lambda x: m(x) ** 2, [0, 0.5, 1, 2, 4, 8, mp.inf]))
    assert abs(norm_sq * (f(1.0) / g(1.0)) ** 2 - 1.0) < 1e-10


def test_eigenfunction_orthogonal_to_continuum():
    p = ModelParams(0.0, 3.0)
    f = eigenfunction(p, 0, normalized=True)
    x, w = quadrature_panels(0.0, 30.0, 1.0, 24)
    fx = np.array([f(t) for t in x])
    for k in (0.6, 1.3, 2.8):
        overlap = np.sum(w * fx * fourier_kernel(p, -1, x, k))
        assert abs(overlap) < 1e-5


def test_eigenfunction_index_error():
    with pytest.raises(IndexError):
        eigenfunction(ModelParams(0.0, 3.0), 1)
    with pytest.raises(IndexError):
        eigenfunction(ModelParams(2.0, 0.0), 0)
