"""Resolvent and density kernels, bound-state data, eigenfunctions."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import fd_second, mp_resolvent
from halfscatter import solutions
from halfscatter import spectral as spectral_mod
from halfscatter.errors import AtEigenvalueError, DomainError, IllConditionedError
from halfscatter.index import verify_index
from halfscatter.model import ModelParams, classify_beta, potential
from halfscatter.oracle import count_bound_states_shooting, greens_function_oracle
from halfscatter.scattering import fourier_kernel, fourier_kernel_matrix, quadrature_panels
from halfscatter.solutions import SpectralPoint, eval_L, eval_M, eval_N, wronskian
from halfscatter.specfun import BLOCK_LANES
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


@pytest.mark.parametrize("mu, nu", [(0.6, 2.1), (1.0, 2.0), (0.0, 3.0)])
def test_one_point_equals_its_grid_lane(mu, nu):
    # bitwise: a point alone takes the arithmetic of its lane in a grid; x spans
    # both sides of the 2F1 series threshold in tanh^2 x and in sech^2 x
    p = ModelParams(mu, nu)
    xs = np.linspace(0.2, 3.0, 12)
    for pt in (SpectralPoint.interior(1.3 + 0.4j), SpectralPoint.boundary(1.4, +1), SpectralPoint.boundary(1.4, -1)):
        for f in (eval_L, eval_M, eval_N):
            grid = f(p, xs, pt)
            assert [f(p, x, pt) for x in xs] == list(grid)
        grid = resolvent_kernel(p, pt, xs[:, None], xs)
        assert [[resolvent_kernel(p, pt, x, y) for y in xs] for x in xs] == grid.tolist()
    grid = spectral_density_kernel(p, 1.4, xs[:, None], xs)
    assert [[spectral_density_kernel(p, 1.4, x, y) for y in xs] for x in xs] == grid.tolist()


@pytest.mark.parametrize(
    "mu, nu, pt",
    [
        (0.6, 2.1, SpectralPoint.interior(1.3 + 0.4j)),
        (0.6, 2.1, SpectralPoint.boundary(1.4, +1)),
        (0.6, 2.1, SpectralPoint.boundary(1.4, -1)),
        (1.0, 2.0, SpectralPoint.interior(1.6 + 0.5j)),  # integer mu: M in the log form near x = 0
    ],
)
def test_resolvent_equals_its_two_solution_form(mu, nu, pt):
    # bitwise: L and M as lanes of one 2F1 call equal eval_L at the min and eval_M at the max,
    # on a grid with its diagonal (x = y) and on a list of pairs longer than a block
    p, w = ModelParams(mu, nu), wronskian(ModelParams(mu, nu), pt)
    xs = np.linspace(0.05, 4.0, 40)
    rng = np.random.default_rng(5)
    pairs = rng.uniform(0.05, 4.0, (2, BLOCK_LANES + 100))
    for x, y in ((xs[:, None], xs), tuple(pairs)):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        assert resolvent_kernel(p, pt, x, y).tobytes() == (-eval_L(p, lo, pt) * eval_M(p, hi, pt) / w).tobytes()


def test_one_point_kernel_makes_one_2f1_call(monkeypatch):
    calls, hyp2f1 = [], solutions.hyp2f1_values
    monkeypatch.setattr(solutions, "hyp2f1_values", lambda *a, **kw: calls.append(1) or hyp2f1(*a, **kw))
    p = ModelParams(1.0, 2.1)
    resolvent_kernel(p, SpectralPoint.interior(1.6 + 0.5j), 0.7, 1.3)
    resolvent_kernel(p, SpectralPoint.boundary(1.4, -1), 2.0, 2.0)
    assert len(calls) == 2


@pytest.mark.parametrize("k", [np.array([1.0, 2.0]), np.array([[1.0], [2.0]])])
def test_resolvent_at_an_array_of_k_raises(k):
    # one spectral point per kernel: an array of k was paired with the points or failed to reshape
    with pytest.raises(DomainError):
        resolvent_kernel(ModelParams(0.6, 2.1), SpectralPoint.boundary(k, 1), np.array([0.5, 1.0]), 2.0)


@pytest.mark.parametrize("k", [np.array([1.0, 2.0]), np.array([[1.0], [2.0]])])
def test_density_at_an_array_of_k_raises(k):
    # one boundary point per kernel: the array was paired with the union of the points, so the
    # second entry of the first case read 0.1319, where p(k = 2; 0.6, 0.5) is 0.1157
    with pytest.raises(DomainError):
        spectral_density_kernel(ModelParams(0.6, 2.1), k, np.array([0.5, 0.6]), 0.5)


@pytest.mark.parametrize("x", [0.6, np.array([0.5, 0.6])])
def test_density_at_a_0d_k_equals_the_scalar_call(x):
    p = ModelParams(0.6, 2.1)
    value = spectral_density_kernel(p, 2.0, x, 0.5)
    assert np.asarray(spectral_density_kernel(p, np.array(2.0), x, 0.5)).tobytes() == np.asarray(value).tobytes()
    assert abs(np.ravel(value)[-1] - 0.11574525994297302) < 1e-14


def test_resolvent_at_eigenvalue_raises_from_array_path():
    with pytest.raises(AtEigenvalueError):
        resolvent_kernel(ModelParams(0.0, 3.0), SpectralPoint.interior(2.0), np.array([0.5, 1.0]), 2.0)


@pytest.mark.parametrize("zeta", [20.0, 30.0])
def test_resolvent_at_large_zeta_without_bound_states(zeta):
    # (1, 2) has no bound states, so the kernel exists for every zeta > 0
    p, x, y = ModelParams(1.0, 2.0), 1.0, 2.0
    ref = mp_resolvent(p, zeta, x, y)
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


@pytest.mark.parametrize("side", [+1, -1])
def test_density_is_the_fourier_kernel_product_on_a_grid(side):
    # p(k^2; x, y) = K(x, k) conj K(y, k) / (2k), with K fourier_kernel_matrix's entry on either
    # side: two public objects that share no code above eval_L
    p = ModelParams(0.6, 2.1)
    k, x, y = np.linspace(0.3, 7.5, 4), np.linspace(0.1, 4.0, 7), np.linspace(0.2, 5.0, 7)
    dens = np.array([spectral_density_kernel(p, kj, x[:, None], y) for kj in k])
    kx, ky = fourier_kernel_matrix(p, side, x, k), fourier_kernel_matrix(p, side, y, k)
    product = kx[:, :, None] * np.conj(ky[:, None, :]) / (2.0 * k[:, None, None])
    assert np.max(np.abs(dens - product)) <= 1e-14 * np.max(np.abs(dens))


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
    # at nu = 3 + 1e-9 the level zeta_1 sits on the first scan node, ROOT_SCAN_START = 1e-9,
    # where W is exactly zero; zeta_0 = 2 + 1e-9 lies between nodes and is bracketed
    assert wronskian_roots(ModelParams(0.0, 3.0 + 1e-9)) == [2.000000001, 1e-9]


def test_brent_matches_brentq_on_the_criterion_6_grid(monkeypatch):
    # wronskian_roots refines each bracket of its scan with its own Brent step; scipy's brentq
    # at the same xtol, given the same brackets, is the reference: the same roots, from the same
    # number of evaluations (brentq evaluates the two ends again).  On the grid itself every root
    # lies 1e-9 from a scan node and takes one secant step; nu + 0.37 puts them inside brackets.
    from scipy.optimize import brentq

    brent, evaluations = spectral_mod._brent, []

    def counting(solve, extra):
        def refine(f, a, b, fa, fb):
            n = [-extra]

            def g(zeta):
                n[0] += 1
                return f(zeta)

            root = solve(g, a, b, fa, fb)
            evaluations.append(n[0])
            return root

        return refine

    pairs = [(mu, nu) for mu in np.arange(0.0, 3.01, 0.5) for nu in np.arange(0.0, 6.01, 0.5)]
    grid = [ModelParams(mu, nu + d) for d in (0.0, 0.37) for mu, nu in pairs]
    monkeypatch.setattr(spectral_mod, "_brent", counting(brent, 0))
    roots = [wronskian_roots(p) for p in grid]
    ours, evaluations = evaluations, []
    monkeypatch.setattr(spectral_mod, "_brent", counting(lambda f, a, b, fa, fb: brentq(f, a, b, xtol=1e-12), 2))
    refs = [wronskian_roots(p) for p in grid]
    assert len(ours) > 50 and ours == evaluations
    for p, r, ref in zip(grid, roots, refs):
        assert len(r) == len(ref) and np.allclose(r, ref, rtol=0.0, atol=1e-12), (p, r, ref)


@pytest.mark.parametrize("mu, nu", [(0.0, 1000.0), (2.5, 1000.3)])
def test_wronskian_roots_at_large_nu(mu, nu):
    # W spans hundreds of decades on the scan: the product of two bracket ends underflowed to -0
    # (106 of 400 brackets dropped at nu = 800), and Brent's inverse quadratic step divided by a
    # denominator that underflowed to 0 (ZeroDivisionError from nu of about 550 at mu = 0)
    p = ModelParams(mu, nu)
    levels, roots = [lv.zeta for lv in bound_states(p).levels], wronskian_roots(p)
    assert len(roots) == len(levels) > 400
    assert np.max(np.abs(np.array(roots) - levels)) < 1e-10


def test_wronskian_roots_refuse_a_scan_past_double_range():
    # at nu = 2000 most scanned W read exactly 0 by underflow, away from any pole
    with pytest.raises(IllConditionedError):
        wronskian_roots(ModelParams(0.0, 2000.0))


@pytest.mark.parametrize(
    "f",
    [lambda x: 1e-200 * ((x - 0.3) + (x - 0.3) ** 3), lambda x: 1e-160 * np.expm1(5.0 * (x - 0.3))],
    ids=["cubic", "expm1"],
)
def test_brent_bisects_on_a_zero_denominator(f):
    # dblk * dpre underflows to 0 on these tiny functions; brentq.c's division then gives inf
    # or nan, which fails its step test and bisects: the same root from the same evaluations
    from scipy.optimize import brentq

    calls = []

    def g(x):
        calls.append(x)
        return float(f(x))

    root = spectral_mod._brent(g, 0.0, 1.0, g(0.0), g(1.0))
    ours, calls[:] = list(calls), []
    ref = brentq(g, 0.0, 1.0, xtol=1e-12)
    assert root == ref and ours == calls


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


@pytest.mark.parametrize("mu,nu,n", [(0.0, 20.0, 4), (0.0, 20.0, 8), (1.5, 9.2, 2), (2.0, 45.0, 10)])
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


@pytest.mark.parametrize("n", [10, 17, 20])
def test_eigenfunction_profile_against_mpmath(n):
    # at nu = 45 the terminating 2F1 of M cancels as a sum in sech^2 x near x = 0;
    # the Jacobi polynomial in 1 - 2 sech^2 x does not, in eigenfunction and in eval_M
    mp = pytest.importorskip("mpmath")
    p = ModelParams(2.0, 45.0)
    zeta = bound_states(p).levels[n].zeta
    x = np.linspace(0.01, 6.0, 601)
    got = eigenfunction(p, n)(x)
    m = eval_M(p, x, SpectralPoint.interior(zeta))
    with mp.workdps(50):
        a, b, z = mp.mpf(p.alpha) + zeta / 2, mp.mpf(p.beta) + zeta / 2, mp.mpf(zeta)
        ref = np.array([
            float(mp.tanh(t) ** (mp.mpf(0.5) + p.mu) * mp.cosh(t) ** -z * mp.hyp2f1(a, b, 1 + z, mp.sech(t) ** 2))
            for t in map(mp.mpf, x)
        ])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(m - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def test_bound_count_is_the_beta_class_n():
    # nu - mu - 1 at 2e-12 (1 - u 1e-3) from an even integer puts (nu-mu-1)/2 and
    # -beta at about the 1e-12 integer tolerance, where two separate integer
    # tests of them would disagree
    rng = np.random.default_rng(2090)
    mus = rng.uniform(0.0, 50.0, 2000)
    gaps = 2.0 * rng.integers(0, 10, 2000) + rng.choice([-2e-12, 2e-12], 2000) * (1.0 - rng.uniform(0.0, 2e-3, 2000))
    for mu, gap in zip(mus, gaps):
        p = ModelParams(float(mu), float(mu + 1.0 + gap))
        assert bound_states(p).count == (classify_beta(p).n or 0), (p.mu, p.nu)


def test_verify_index_where_the_two_roundings_split():
    rep = verify_index(ModelParams(3.514082088311661, 6.5140820883136605))
    assert rep.passed
    assert rep.bound_count == 2
