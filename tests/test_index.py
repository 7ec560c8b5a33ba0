"""Edge functions, partial windings, and the winding = bound-count identity."""

import numpy as np
import pytest

from halfscatter.errors import UnwrapError
from halfscatter.index import (
    lambda1,
    lambda3_theta,
    square_edges,
    verify_index,
    winding_contributions,
    winding_numeric,
)
from halfscatter.model import ModelParams
from halfscatter.phase import edge_phase_change, refine_path
from halfscatter.scattering import sigma, sigma_at_zero
from halfscatter.spectral import bound_states


def test_lambda1_negative_integer_class():
    p = ModelParams(0.0, 3.0)  # beta = -1
    assert abs(lambda1(p, 0.0) - 1j) < 1e-15
    assert abs(lambda1(p, 50.0) - (-1.0)) < 1e-12
    assert abs(lambda1(p, -50.0) - 1.0) < 1e-12
    s = np.linspace(-3, 3, 101)
    assert np.max(np.abs(np.abs(lambda1(p, s)) - 1)) < 1e-12


def test_lambda1_other_classes_are_constant():
    for p in (ModelParams(2.0, 0.0), ModelParams(0.0, 2.5)):
        assert np.all(lambda1(p, np.linspace(-5, 5, 11)) == 1.0)


def test_lambda3_theta_values():
    # mu = 1/2: numerator and denominator coincide, the symbol is 1
    s = np.linspace(-20, 20, 41)
    assert np.max(np.abs(lambda3_theta(0.5, s) - 1.0)) < 1e-13
    for mu in (0.0, 1.0, 2.3):
        assert abs(lambda3_theta(mu, 0.0) - np.exp(-0.5j * np.pi * (mu - 0.5))) < 1e-14
        lim = np.exp(-1j * np.pi * (mu - 0.5))
        gaps = [abs(np.angle(lambda3_theta(mu, s_max) / lim)) for s_max in (50.0, 100.0, 400.0)]
        if mu <= 1.0:
            assert gaps[0] < 1e-2
        assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2  # 1/s approach
        vals = lambda3_theta(mu, s)
        assert np.max(np.abs(np.abs(vals) - 1)) < 1e-12


def test_winding_contributions_worked_values():
    assert winding_contributions(ModelParams(0.0, 3.0)) == (-0.5, 1.25, 0.25, 0.0)
    assert winding_contributions(ModelParams(2.0, 0.0)) == (0.0, 0.75, -0.75, 0.0)
    assert winding_contributions(ModelParams(0.0, 2.5)) == (0.0, 0.75, 0.25, 0.0)
    w = winding_contributions(ModelParams(1.0, 4.0))
    assert w == (-0.5, 1.75, -0.25, 0.0) and sum(w) == 1.0


def test_corner_continuity():
    for p in (ModelParams(0.0, 3.0), ModelParams(2.0, 0.0), ModelParams(0.0, 2.5)):
        e1, e2, e3, e4 = square_edges(p)
        assert abs(e1.end_limit - e2.start_limit) < 1e-8
        assert abs(e2.end_limit - e3.start_limit) < 1e-8
        assert abs(e3.end_limit - e4.start_limit) < 1e-8
        assert abs(e4.end_limit - e1.start_limit) < 1e-8
        # the truncated evaluations sit close to the analytic corner limits
        assert abs(complex(e2.evaluator(np.array([1e-8]))[0]) - e2.start_limit) < 1e-4
        assert abs(complex(e3.evaluator(np.array([50.0]))[0]) - e3.start_limit) < 5e-2


@pytest.mark.parametrize(
    "mu,nu,expect",
    [(0.0, 3.0, 1), (0.5, 0.5, 0), (0.0, 5.0, 2), (2.0, 0.0, 0), (0.0, 2.5, 1), (1.0, 4.0, 1)],
)
def test_winding_numeric(mu, nu, expect):
    wn = winding_numeric(ModelParams(mu, nu))
    assert abs(wn - expect) < 1e-6


def test_omega2_consistency_numeric_vs_closed():
    # unwrapped scattering phase over the truncated edge plus analytic tail
    # reproduces the closed-form second contribution
    for p in (ModelParams(0.0, 3.0), ModelParams(1.0, 2.0), ModelParams(0.0, 2.5)):
        _, e2, _, _ = square_edges(p)
        grid = np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 80), np.linspace(1.0, 200.0, 240)]))
        delta = edge_phase_change(e2.evaluator, 0.0, 200.0, e2.start_limit, e2.end_limit, grid)
        w2_num = -delta / (2 * np.pi)
        w2 = winding_contributions(p)[1]
        assert abs(w2_num - w2) < 1e-4


def test_lambda2_endpoint_decreasing_gap():
    p = ModelParams(1.0, 2.0)
    lim = np.exp(-1j * np.pi * (p.mu - 0.5))
    gaps = [abs(complex(sigma(p, km)) - lim) for km in (200.0, 400.0, 800.0)]
    assert gaps[0] < 5e-2 and gaps[0] > gaps[1] > gaps[2]
    assert abs(complex(sigma(p, 1e-7)) - sigma_at_zero(p)) < 1e-4


def test_verify_index_sweep():
    rng = np.random.default_rng(5)
    pairs = [(0.0, 3.0), (2.0, 0.0), (0.0, 2.5), (1.0, 4.0), (0.5, 0.5)]
    pairs += [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(7)]
    # sampled phases aliased by whole turns and short truncations left tails over pi here
    pairs += [(0.0, 30.0), (0.0, 40.0), (20.0, 0.3), (30.0, 0.3), (45.9, 91.9)]
    for mu, nu in pairs:
        rep = verify_index(ModelParams(mu, nu))
        assert rep.passed, (mu, nu, rep)
        assert rep.bound_count == bound_states(ModelParams(mu, nu)).count


def test_index_report_json_shape():
    rep = verify_index(ModelParams(0.0, 3.0))
    d = rep.to_json_dict()
    assert list(d.keys()) == [
        "mu",
        "nu",
        "beta_class",
        "omega",
        "winding_closed",
        "winding_numeric",
        "bound_count",
        "pass",
    ]
    assert d["pass"] is True and d["bound_count"] == 1
    assert d["omega"] == [-0.5, 1.25, 0.25, 0.0]


def test_refine_path_unwrap_error_on_jump():
    # a genuine discontinuity can never satisfy the jump cap
    step = lambda t: np.exp(1j * np.pi * 0.9 * np.sign(np.asarray(t)))
    with pytest.raises(UnwrapError):
        refine_path(step, np.linspace(-1, 1, 11))


def test_refine_path_flags_original_nodes():
    fn = lambda t: np.exp(1j * 3.0 * np.asarray(t))
    nodes = np.linspace(0, 5, 6)
    ts, vals, is_node = refine_path(fn, nodes)
    assert np.count_nonzero(is_node) == len(nodes)
    assert np.allclose(ts[is_node], nodes)
    assert len(ts) > len(nodes)  # 3 rad per unit step forces refinement
