"""Special-function checks: frozen closed forms, independent series oracles,
and hypothesis property sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfscatter import ModelParams, SpectralPoint, eval_L, resolvent_kernel, specfun
from halfscatter.errors import DomainError, InvalidCError, NoConvergenceError, PoleError
from halfscatter.scattering import fourier_kernel_matrix, quadrature_panels
from halfscatter.specfun import (
    BLOCK_LANES,
    SERIES_THRESHOLD,
    _linear_transform,
    _raw_series,
    bessel_script_J,
    beta_fn,
    digamma,
    gamma_ratio,
    gauss_2f1,
    hyp2f1_values,
    log_gamma,
    pochhammer,
)


def _row(*params):
    # scalar parameters as one row of the 2F1 core, then its run of one lane
    return (*(np.array([p]) for p in params), np.ones(1, dtype=int))


def _connection(*args):
    # the connection formula alone: its series' rows summed in a loop of their own
    rows, values = _linear_transform(*args[:3], specfun._mirrored(*args[:3]), *args[3:])
    return values(_raw_series(*rows))


# ---------------------------------------------------------------------------
# log-gamma / digamma


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_log_gamma_recurrence_and_reflection_at_1_plus_i():
    z = 1 + 1j
    # recurrence: log G(z+1) = log z + log G(z)
    assert abs(log_gamma(z + 1) - (np.log(z) + log_gamma(z))) < 1e-13
    # reflection: G(z) G(1-z) = pi / sin(pi z)
    lhs = log_gamma(z) + log_gamma(1 - z)
    rhs = np.log(np.pi / np.sin(np.pi * z))
    assert abs(np.exp(lhs) - np.exp(rhs)) < 1e-13


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)


def test_gamma_recurrence_on_grid():
    rng = np.random.default_rng(7)
    count = 0
    while count < 200:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if z.real <= 0 and abs(z.imag) < 0.2:
            continue  # stay away from the pole line
        ratio = np.exp(log_gamma(z + 1) - log_gamma(z))
        assert abs(ratio - z) < 1e-12 * max(1.0, abs(z))
        count += 1


def test_digamma_recurrence():
    for z in (0.3 + 0.9j, 2.5, 4 - 3j):
        assert abs(digamma(z + 1) - (digamma(z) + 1 / z)) < 1e-13


@pytest.mark.parametrize("z", [-1 + 1e-15j, -2 + 1e-10j])
def test_digamma_off_the_real_axis_against_mpmath(z):
    # every pole of Gamma is real: next to one, psi is large but finite
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = complex(mp.digamma(mp.mpc(z)))
    val = digamma(z)
    assert abs(val.real - ref.real) < 1e-12 * abs(ref.real)
    assert abs(val.imag - ref.imag) < 1e-12 * abs(ref.imag)
    with pytest.raises(PoleError):
        digamma(round(z.real))


def test_gamma_ratio_zero_at_denominator_pole():
    assert gamma_ratio((1.0,), (-2.0,)) == 0


def test_gamma_ratio_broadcasts_with_pole_rules_per_lane():
    num = np.array([0.5 + 1j, 2.5, 3.0 - 0.5j, 3.0 - 0.5j])
    den = np.array([[1.5], [-2.0]])  # second row: a denominator pole in every lane
    out = gamma_ratio((num,), (den, 1.0 + 0.25j))
    assert out.shape == (2, 4)
    for i, v in enumerate(num):
        assert out[0, i] == pytest.approx(gamma_ratio((v,), (1.5, 1.0 + 0.25j)), rel=1e-15)
    assert np.all(out[1] == 0)
    # a numerator pole raises unless that lane's denominator is at a pole too
    assert np.all(gamma_ratio((np.array([-1.0, 2.0]),), (np.array([-3.0, -1.0]),)) == 0)
    with pytest.raises(PoleError):
        gamma_ratio((np.array([2.0, -1.0]),), (np.array([-3.0, 1.5]),))


# ---------------------------------------------------------------------------
# Pochhammer / Beta


def test_pochhammer():
    assert pochhammer(0.3 + 2j, 0) == 1
    assert pochhammer(1, 4) == 24
    assert abs(pochhammer(0.5, 3) - 0.5 * 1.5 * 2.5) < 1e-15


def test_beta_values():
    assert abs(beta_fn(1, 1) - 1) < 1e-15
    assert abs(beta_fn(0.5, 0.5) - math.pi) < 1e-14
    # factorial identity: B(2,3) = 1!2!/4! = 1/12
    assert abs(beta_fn(2, 3) - 1 / 12) < 1e-15


def test_beta_pole():
    with pytest.raises(PoleError):
        beta_fn(-1.0, 0.5)


# ---------------------------------------------------------------------------
# Gauss 2F1


def test_2f1_at_zero_is_one():
    assert gauss_2f1(0.3 + 1j, -0.7, 1.2 - 0.1j, 0.0) == 1.0


def test_2f1_log_closed_form():
    # F(1,1;2;z) = -log(1-z)/z; at z = 1/2 this is 2 log 2
    val = gauss_2f1(1, 1, 2, 0.5)
    assert abs(val - 2 * math.log(2)) < 1e-14
    # independent oracle: direct series summation
    acc, term = 0.0, 1.0
    for n in range(200):
        acc += term / (n + 1)
        term *= 0.5
    assert abs(val - acc) < 1e-14


def test_2f1_transformation_consistency_near_one():
    # value at z = 0.99 must equal the raw defining series summed directly
    a, b, c = 0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j
    z = 0.99
    term = 1.0 + 0j
    acc = 1.0 + 0j
    for n in range(120000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    val = gauss_2f1(a, b, c, z)
    assert abs(val - acc) / abs(acc) < 1e-12


def test_2f1_overlap_band_series_vs_transform():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = complex(rng.uniform(-1.5, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-1.5, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        if abs((c - a - b).imag) < 0.05:
            c += 0.21j  # keep c-a-b safely off the integers
        z = np.array([rng.uniform(0.4, 0.6)])
        s = _raw_series(*_row(a, b, c), z)[0]
        t = _connection(*_row(a, b, c), 1.0 - z, np.log1p(-z))[0]
        assert abs(s - t) / abs(s) < 1e-10


def test_2f1_terminating_polynomial():
    # F(-3, b; c; z) is a cubic; compare against the explicit sum
    b, c, z = 1.7 - 0.4j, 2.2, 0.83
    val = gauss_2f1(-3, b, c, z)
    expect = sum(
        pochhammer(-3, n) * pochhammer(b, n) / pochhammer(c, n) * z**n / math.factorial(n)
        for n in range(4)
    )
    assert abs(val - expect) < 1e-14


def test_2f1_integer_gap_against_series():
    # c - a - b an integer takes the digamma route; the raw series is the oracle
    a, b = 0.45 - 0.6j, 0.9 + 0.35j
    for m in (0, 1, 3, -2):
        c = a + b + m
        z = 0.93
        term, acc = 1.0 + 0j, 1.0 + 0j
        for n in range(60000):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            acc += term
            if abs(term) < 1e-19 * abs(acc):
                break
        val = gauss_2f1(a, b, c, z)
        assert abs(val - acc) / abs(acc) < 5e-11


def test_2f1_invalid_c():
    with pytest.raises(InvalidCError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)


def test_2f1_rejects_bad_argument():
    for z in (1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.0, z)


def test_series_no_convergence_cap():
    with pytest.raises(NoConvergenceError):
        _raw_series(*_row(0.5, 0.5, 1.0), np.array([0.999999]), max_terms=60)


def test_log_w_pathway_matches_direct():
    # saturated z with an analytic log(1-z) must agree with a well-conditioned call
    a, b, c = 0.5 - 0.65j, 0.5 + 0.1j, 1.0 - 1.3j
    x = 8.0
    z = np.tanh(x) ** 2
    lw = -2.0 * (x - np.log(2.0) + np.log1p(np.exp(-2 * x)))
    v1 = complex(hyp2f1_values(a, b, c, np.array([z]), log_w=np.array([lw]))[0])
    v2 = gauss_2f1(a, b, c, z)
    assert abs(v1 - v2) < 1e-7 * abs(v1)  # direct path loses digits in 1-z


# One lane per branch of hyp2f1_values, each at moderate |a*b|.
_A, _B = 0.45 - 0.6j, 0.9 + 0.35j
BRANCH_CASES = {
    "terminating": (-3.0, 1.7 - 0.4j, 2.2, 0.83),
    "series": (0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j, 0.45),
    "transform": (0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j, 0.93),
    "log_m0": (_A, _B, _A + _B, 0.93),
    "log_m1": (_A, _B, _A + _B + 1.0, 0.88),
    "log_m3": (_A, _B, _A + _B + 3.0, 0.97),
    "log_m_neg2": (_A, _B, _A + _B - 2.0, 0.93),
    # regular solution on the boundary at (mu, nu) = (0.6, 0.55), k = 3: c - a = conj(b)
    "transform_mirror": (1.075 + 1.5j, 0.525 + 1.5j, 1.6, 0.93),
}


@pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
def test_2f1_branch_lane_matches_one_lane_call(branch):
    # the lane sits among lanes of every other branch, twice, in both orders
    names = sorted(BRANCH_CASES)
    order = names + names[::-1]
    a, b, c, z = (np.array([BRANCH_CASES[n][i] for n in order]) for i in range(4))
    vals = hyp2f1_values(a, b, c, z.real)
    alone = gauss_2f1(*BRANCH_CASES[branch])
    for i, n in enumerate(order):
        if n == branch:
            assert abs(vals[i] - alone) <= 1e-14 * abs(alone)


def test_2f1_broadcast_shapes():
    a, b, c, z = BRANCH_CASES["transform"]
    val = hyp2f1_values(a, b, c, z)
    assert np.ndim(val) == 0 and val == gauss_2f1(a, b, c, z)
    k = np.array([[0.5], [1.5], [3.0]])
    zs = np.array([[0.1, 0.5, 0.7, 0.95]])
    grid = hyp2f1_values(a - 0.5j * k, b - 0.5j * k, c, zs)
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            one = gauss_2f1(a - 0.5j * k[i, 0], b - 0.5j * k[i, 0], c, zs[0, j])
            assert abs(grid[i, j] - one) <= 1e-14 * abs(one)


def test_2f1_errors_per_lane():
    a, b = np.array([0.5, 0.5]), np.array([0.5, 0.5])
    with pytest.raises(InvalidCError):
        hyp2f1_values(a, b, np.array([1.5, -2.0]), 0.3)
    with pytest.raises(ValueError):
        hyp2f1_values(a, b, 1.5, np.array([0.3, 1.0]))
    with pytest.raises(ValueError):
        hyp2f1_values(a, b, 1.5, np.array([0.3, -0.1]))
    with pytest.raises(NoConvergenceError):
        _raw_series(a, b, np.array([1.0, 1.0]), np.ones(2, dtype=int), np.array([0.1, 0.999999]), max_terms=60)


@pytest.mark.parametrize("mu, nu", [(0, 3), (1, 1), (0.6, 0.55), (20, 0.3)])
def test_mirrored_lanes_against_mpmath(mu, nu):
    # the regular solution's 2F1 on the boundary: real c = 1+mu, c - a = conj(b),
    # so the connection formula sums one series and conjugates it
    mp = pytest.importorskip("mpmath")
    al, be = (1 + mu + nu) / 2, (1 + mu - nu) / 2
    k = np.repeat([0.05, 0.5, 1.0, 3.0, 7.5, 15.0, 25.0, 40.0], 6)
    w = np.tile([1e-6, 1e-3, 0.01, 0.1, 0.25, 0.4], 8)
    a, b, c = al + 0.5j * k, be + 0.5j * k, np.full(k.shape, 1.0 + mu)
    mirrored = _connection(a, b, c, np.ones(k.size, dtype=int), w, np.log(w))
    # an imaginary part of c far below rounding turns the rule off: both series summed
    both = _connection(a, b, c + 1e-300j, np.ones(k.size, dtype=int), w, np.log(w))
    for i in range(k.size):
        with mp.workdps(40):
            A, B, C, W = mp.mpc(a[i]), mp.mpc(b[i]), mp.mpf(c[i]), mp.mpf(w[i])
            ref = complex(mp.hyp2f1(A, B, C, 1 - W))
            # both terms of the connection formula have this size: cancellation scale
            term = mp.gamma(C) * mp.gamma(C - A - B) / (mp.gamma(C - A) * mp.gamma(C - B))
            scale = float(2 * abs(term * mp.hyp2f1(A, B, A + B - C + 1, W)))
        assert abs(mirrored[i] - ref) <= 1e-13 * scale
        assert abs(mirrored[i] - both[i]) <= 1e-14 * scale


def test_mirrored_choice_never_serves_a_worse_lane():
    # boundary L's 2F1 over the north-star range: each lane of one call against the better of its
    # two branches, each summed alone as the call would sum it.  While the raw series served every
    # lane, 15 of these 60 missed; 6 keep 9 digits on neither branch (ROADMAP item 4's zone)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(30)
    n = 60
    mu, nu = rng.uniform(0.0, 50.0, n), rng.uniform(0.0, 50.0, n)
    k = np.exp(rng.uniform(math.log(0.05), math.log(300.0), n))
    z = rng.uniform(1e-4, 0.6, n)
    a, b, c = (1 + mu + nu) / 2 + 0.5j * k, (1 + mu - nu) / 2 + 0.5j * k, 1.0 + mu
    log_w = np.log1p(-z)
    values = hyp2f1_values(a, b, c, z)
    for i in range(n):
        row = _row(a[i], b[i], c[i])
        try:
            conn = _connection(*row, np.exp(log_w[i : i + 1]), log_w[i : i + 1])[0]
        except NoConvergenceError:  # at z near 0 the connection series runs past MAX_TERMS
            conn = np.inf
        with mp.workdps(40):
            ref = complex(mp.hyp2f1(mp.mpc(a[i]), mp.mpc(b[i]), mp.mpf(c[i]), mp.mpf(z[i])))
        best = min(abs(_raw_series(*row, z[i : i + 1])[0] - ref), abs(conn - ref)) / abs(ref)
        assert values[i] == hyp2f1_values(a[i], b[i], c[i], z[i])
        assert abs(values[i] - ref) <= max(10 * best, 1e-10) * abs(ref), (mu[i], nu[i], k[i], z[i])


def test_2f1_grid_equals_one_lane_calls(monkeypatch):
    # per-lane a, b, c in runs of equal (a, b, c) of several lengths, each over z
    # on both sides of the threshold: mirrored boundary lanes, interior lanes,
    # integer gaps.  Consecutive equal lanes reach the core as one row's run.
    mu, nu = 0.6, 0.55
    al, be = (1 + mu + nu) / 2, (1 + mu - nu) / 2
    runs = [
        (al + 1.5j, be + 1.5j, 1 + mu),  # mirrored
        (al - (2 + 1j) / 2, be - (2 + 1j) / 2, 1 + mu),  # interior regular: not mirrored
        (al + 12.5j, be + 12.5j, 1 + mu),  # mirrored, large k
        (al + (2 + 1j) / 2, be + (2 + 1j) / 2, 3 + 1j),  # decaying solution's parameters
        (_A, _B, _A + _B + 1.0),  # integer gap: log form
        (al + 0.05j, be + 0.05j, 1 + mu),  # mirrored, small k
    ]
    lengths = [1, 7, 3, 12, 2, 5]
    rng = np.random.default_rng(11)
    a, b, c, z = [], [], [], []
    for (ra, rb, rc), n in zip(runs, lengths):
        a += [ra] * n
        b += [rb] * n
        c += [rc] * n
        z += list(rng.uniform(0.05, 0.999, n))
    a, b, c, z = (np.array(v) for v in (a, b, c, z))
    log_w = np.log1p(-z)
    longest, sum_lanes = [], specfun._sum_lanes

    def recording(ratios, params, counts, *args):
        longest.append(counts.max())
        return sum_lanes(ratios, params, counts, *args)

    monkeypatch.setattr(specfun, "_sum_lanes", recording)
    grid = hyp2f1_values(a, b, c, z, log_w=log_w)
    assert max(longest) > 1
    monkeypatch.undo()
    alone = np.array([hyp2f1_values(a[i], b[i], c[i], z[i], log_w=log_w[i]) for i in range(z.size)])
    assert np.array_equal(grid, alone)


def test_2f1_per_lane_runs_across_a_block_edge_equal_one_lane_calls(monkeypatch):
    # per-lane a, b, c in runs of 7 lanes over more lanes than a block holds: a
    # block edge falls inside a run, which each block then holds in part
    mu, nu = 0.6, 0.55
    al, be = (1 + mu + nu) / 2, (1 + mu - nu) / 2
    rows = [
        (al + 1.5j, be + 1.5j, 1 + mu),  # mirrored
        (al + (2 + 1j) / 2, be + (2 + 1j) / 2, 3 + 1j),  # decaying solution's parameters
        (_A, _B, _A + _B + 1.0),  # integer gap: log form
        (al - (2 + 1j) / 2, be - (2 + 1j) / 2, 1 + mu),  # interior regular
    ]
    n = BLOCK_LANES + 808
    pick = (np.arange(n) // 7) % len(rows)
    a, b, c = (np.array([r[i] for r in rows])[pick] for i in range(3))
    z = np.random.default_rng(12).uniform(0.05, 0.999, n)
    blocks, block = [], specfun._block

    def recording(a, b, c, counts, *args):
        blocks.append(counts)
        return block(a, b, c, counts, *args)

    monkeypatch.setattr(specfun, "_block", recording)
    grid = hyp2f1_values(a, b, c, z)
    monkeypatch.undo()
    assert len(blocks) == 2 and 0 < blocks[0][-1] < 7 and blocks[0][-1] + blocks[1][0] == 7
    edge = blocks[0].sum()
    for start in range(0, n, 7):  # each run against its parameters as scalars
        run = slice(start, start + 7)
        assert np.array_equal(grid[run], hyp2f1_values(a[start], b[start], c[start], z[run]))
    for i in [0, edge - 2, edge - 1, edge, edge + 1, n - 1]:  # one-lane calls at the ends and the edge
        assert grid[i] == hyp2f1_values(a[i], b[i], c[i], z[i])


def test_2f1_block_of_mixed_rows_equals_each_row_alone():
    # one block of (R, 1) parameters against an (R, C) argument, each row with its own number
    # of lanes above the threshold, so every branch gets runs of unequal length
    mu, nu = 0.6, 0.55
    al, be = (1 + mu + nu) / 2, (1 + mu - nu) / 2
    rows = [
        (al + 1.5j, be + 1.5j, 1 + mu),  # mirrored
        (al + (2 + 1j) / 2, be + (2 + 1j) / 2, 3 + 1j),  # not mirrored
        (2.5 + 0.3j, 0.7 - 0.2j, 0.5 + 0.3j),  # c - a = -2: the first connection term vanishes
        (al + 12.5j, be + 12.5j, 1 + mu),  # mirrored, large k
        (_A, _B, _A + _B + 1.0),  # integer gap: log form
        (-3.0, 1.7 - 0.4j, 2.2),  # terminating
        (_A, _B, _A + _B - 2.0),  # negative integer gap: log form after Euler's transformation
        (0.4 + 0.8j, 1.1 - 0.3j, 1.7 + 0.2j),  # not mirrored
    ]
    high = [2, 5, 3, 1, 4, 6, 7, 0]  # lanes above the threshold, of 7 per row
    rng = np.random.default_rng(17)
    z = np.array([np.sort(np.where(np.arange(7) < n, rng.uniform(0.61, 0.995, 7), rng.uniform(0.0, 0.6, 7))) for n in high])
    a, b, c = (np.array([[r[i]] for r in rows]) for i in range(3))
    log_w = np.log1p(-z)
    grid = hyp2f1_values(a, b, c, z, log_w=log_w)
    for i in range(len(rows)):
        assert np.array_equal(grid[i], hyp2f1_values(*rows[i], z[i], log_w=log_w[i]))


def _boundary_lanes(k, x, mu=0.6, nu=0.55):
    # the regular solution's 2F1 on the boundary: a and b vary with k, z = tanh(x)^2
    al, be = (1 + mu + nu) / 2, (1 + mu - nu) / 2
    return al + 0.5j * k, be + 0.5j * k, 1.0 + mu, np.tanh(x) ** 2, -2.0 * np.log(np.cosh(x))


@pytest.mark.parametrize(
    "k_shape, x_shape, x_low",
    [
        ((37, 1), (300,), 0.05),  # 300-lane rows over both branches, each branch cut into blocks apart
        ((2, 1), (BLOCK_LANES + 1808,), 0.05),  # rows longer than a block are cut along themselves
        ((3, 1, 1), (700,), 0.05),  # with b on its own axis below: rows over two leading axes
        ((), (), 0.05),  # one lane, a scalar result
        ((40,), (25, 1), 0.05),  # parameters vary along the last axis: every lane is its own row
        ((37, 1), (300,), 1.04),  # every z above the threshold: the raw-series branch is empty
        ((640, 1), (384,), 0.05),  # the transform workload's shape
    ],
    ids=["rows", "long-rows", "3d", "0d", "lanes", "one-branch", "transform"],
)
def test_2f1_blocks_equal_one_flat_call(k_shape, x_shape, x_low):
    # however the lanes are cut into blocks, each lane gets the value of the
    # same lane in a flat 1-D call
    rng = np.random.default_rng(5)
    k = rng.uniform(0.0, 30.0, k_shape)
    x = rng.uniform(x_low, 4.0, x_shape)
    a, b, c, z, log_w = _boundary_lanes(k, x)
    if len(k_shape) == 3:
        b = b[0, 0, 0] + rng.uniform(-1.0, 1.0, (1, 4, 1))  # shapes (R,1,1), (1,S,1) and (T,)
    grid = hyp2f1_values(a, b, c, z, log_w=log_w)
    lanes = np.broadcast_arrays(a, b, c, z, log_w)
    flat = hyp2f1_values(*(v.reshape(-1) for v in lanes))
    assert grid.shape == lanes[0].shape
    assert np.array_equal(np.reshape(grid, -1), flat)


def test_2f1_grid_sums_each_branch_in_full_blocks(monkeypatch):
    # a by-row grid over several blocks, with z the same in every row, is cut per branch: the
    # transform grid's 35 raw-series columns come 8192 // 35 = 234 rows to a block, 3 calls for
    # 640 rows, where blocks of whole rows held 21 rows of both branches (31 mixed calls)
    x, _ = quadrature_panels(0, 12, 1, 32)
    k, _ = quadrature_panels(0, 40, 1, 16)
    blocks, block = [], specfun._block

    def recording(a, b, c, counts, z, log_w):
        blocks.append(z)
        return block(a, b, c, counts, z, log_w)

    monkeypatch.setattr(specfun, "_block", recording)
    fourier_kernel_matrix(ModelParams(0, 3), -1, x, k)
    low = [bool((z <= SERIES_THRESHOLD).all()) for z in blocks]
    assert all(is_low or (z > SERIES_THRESHOLD).all() for is_low, z in zip(low, blocks))
    n_low = np.count_nonzero(np.tanh(x) ** 2 <= SERIES_THRESHOLD)
    assert n_low == 35
    assert sum(low) == -(-k.size // (BLOCK_LANES // n_low)) == 3
    # a one-point kernel fits in one block: its raw series (M at 1.5) and connection formula
    # (L at 1.3) share one series loop
    sums, sum_lanes = [], specfun._sum_lanes
    monkeypatch.setattr(specfun, "_sum_lanes", lambda *args: sums.append(1) or sum_lanes(*args))
    resolvent_kernel(ModelParams(1, 2.1), SpectralPoint.interior(1.6 + 0.5j), 1.3, 1.5)
    assert len(sums) == 1


def test_2f1_block_sums_raw_and_connection_lanes_in_one_loop(monkeypatch):
    # 1,000 lanes of L on the boundary, with x on both sides of tanh^2 x = SERIES_THRESHOLD:
    # one block of more than BLOCK_LANES / 16 lanes sums its raw series and its connection
    # formula's series in one loop, and each lane keeps the value it has alone
    p, pt = ModelParams(0, 3), SpectralPoint.boundary(1.4, +1)
    x = np.linspace(0.2, 3.0, 1000)
    assert (np.tanh(x[0]) ** 2 <= SERIES_THRESHOLD < np.tanh(x[-1]) ** 2) and x.size > BLOCK_LANES // 16
    sums, sum_lanes = [], specfun._sum_lanes
    monkeypatch.setattr(specfun, "_sum_lanes", lambda *args: sums.append(1) or sum_lanes(*args))
    grid = eval_L(p, x, pt)
    monkeypatch.undo()
    assert len(sums) == 1
    alone = np.array([eval_L(p, v, pt) for v in x])
    assert grid.tobytes() == alone.tobytes()


def test_2f1_lanes_of_a_large_grid_equal_one_lane_calls():
    # 11,100 lanes, far more than a block holds: the lanes that stop first and
    # last on either side of the threshold, and a random sample, each alone
    rng = np.random.default_rng(7)
    k = rng.uniform(0.0, 30.0, (37, 1))
    x = rng.uniform(0.05, 4.0, (300,))
    a, b, c, z, log_w = np.broadcast_arrays(*_boundary_lanes(k, x))
    grid = hyp2f1_values(a, b, c, z, log_w=log_w)
    low = z <= SERIES_THRESHOLD
    # stopping order: early where z or 1-z is small, late near the threshold
    near = np.abs(z - SERIES_THRESHOLD)
    picks = [np.argmin(np.where(low, z, np.inf)), np.argmax(np.where(low, z, -np.inf))]
    picks += [np.argmin(np.where(~low, near, np.inf)), np.argmax(np.where(~low, z, -np.inf))]
    picks += list(rng.choice(z.size, 24, replace=False))
    for i in picks:  # flat lane indices
        at = np.unravel_index(i, z.shape)
        assert grid[at] == hyp2f1_values(a[at], b[at], c[at], z[at], log_w=log_w[at])


def test_2f1_one_lane_equals_lane_in_a_run():
    # a lane alone and the same lane among a run of three equal (a, b, c):
    # products on a one-element array must round as on a longer one
    a, b, c, _, _ = _boundary_lanes(25.0, 1.0)
    z = np.array([0.31, 0.4001744744195716, 0.52])
    run = hyp2f1_values(a, b, c, z)
    alone = hyp2f1_values(a, b, c, z[1])
    assert run[1] == alone


def test_2f1_near_terminating_lane_sums_past_the_drop():
    # a = -5 + 1e-9: the terms drop by 1e-9 after n = 5 and the tail still counts
    mp = pytest.importorskip("mpmath")
    a, b, c = -5.0 + 1e-9, 1.5 + 0.5j, 2.25
    for z in (0.3, 0.55):
        with mp.workdps(50):
            ref = complex(mp.hyp2f1(mp.mpf(a), mp.mpc(b), mp.mpf(c), mp.mpf(z)))
        assert abs(gauss_2f1(a, b, c, z) - ref) <= 1e-14 * abs(ref)


def test_2f1_slow_connection_side_lane():
    # the connection formula's series at w = 0.999 run for over 100 chunks of
    # 16 terms: the terms of both fall like |n^(c-2)| w^n = n^-4.8 w^n
    mp = pytest.importorskip("mpmath")
    a, b, c, w = 0.4 + 1.2j, -0.7 - 0.3j, -2.8 + 0.9j, 0.999
    series = _raw_series(*_row(a, b, a + b - c + 1.0), np.array([w]))[0]
    value = _connection(*_row(a, b, c), np.array([w]), np.log(np.array([w])))[0]
    with mp.workdps(50):
        A, B, C, W = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(w)
        ref_series = complex(mp.hyp2f1(A, B, A + B - C + 1, W))
        ref = complex(mp.hyp2f1(A, B, C, 1 - W))
        # both terms of the connection formula: the cancellation scale
        scale = float(
            abs(mp.gamma(C) * mp.gamma(C - A - B) / (mp.gamma(C - A) * mp.gamma(C - B)) * ref_series)
            + abs(
                mp.gamma(C) * mp.gamma(A + B - C) / (mp.gamma(A) * mp.gamma(B))
                * W ** (C - A - B) * mp.hyp2f1(C - A, C - B, C - A - B + 1, W)
            )
        )
    assert abs(series - ref_series) <= 1e-13 * abs(ref_series)
    assert abs(value - ref) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=0.85),
)
def test_2f1_contiguous_relation(a, b, z):
    # Gauss relation: c F(a,b) - c F(a+1,b) + b z F(a+1,b+1;c+1) = 0
    c = 1.4 + 0.3j
    f0 = gauss_2f1(a, b, c, z)
    f1 = gauss_2f1(a + 1, b, c, z)
    f2 = gauss_2f1(a + 1, b + 1, c + 1, z)
    resid = c * f0 - c * f1 + b * z * f2
    scale = max(abs(c * f0), abs(c * f1), abs(b * z * f2), 1.0)
    assert abs(resid) < 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_2f1_conjugation_symmetry(a, b, z):
    c = 1.6 - 0.7j
    lhs = gauss_2f1(np.conj(a), np.conj(b), np.conj(c), z)
    rhs = np.conj(gauss_2f1(a, b, c, z))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Bessel kernel


def test_bessel_half_order_is_sine():
    x = np.linspace(0.1, 20, 50)
    assert np.max(np.abs(bessel_script_J(0.5, x) - np.sin(x))) < 1e-13


def test_bessel_j0_series_oracle():
    # ascending series for J0(1), frozen through 12 terms
    acc, term = 0.0, 1.0
    for m in range(12):
        acc += term
        term *= -0.25 / ((m + 1) ** 2)
    expect = math.sqrt(math.pi / 2.0) * acc
    assert abs(bessel_script_J(0.0, 1.0) - expect) < 1e-13


@pytest.mark.parametrize("x", [0.0, -1.0, np.array([0.5, 0.0])])
def test_bessel_nonpositive_argument_raises_domain_error(x):
    with pytest.raises(DomainError):
        bessel_script_J(0.5, x)


def test_bessel_small_argument_power():
    # order 1: sqrt(pi x/2) J_1(x) ~ x^(3/2) sqrt(pi/8), vanishing at 0+
    x = np.array([1e-4, 2e-4])
    vals = bessel_script_J(1.0, x)
    ratio = vals / (np.sqrt(np.pi / 8.0) * x**1.5)
    assert np.all(np.abs(ratio - 1) < 1e-6)
    assert vals[0] < 1e-5
