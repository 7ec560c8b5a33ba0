"""Adaptive phase unwrapping along unit-modulus paths.

Gamma-product phases wind fast for large parameters, so a fixed grid cannot
be trusted; intervals are bisected until every adjacent step is below the
jump cap, which makes the cumulative principal increments a faithful
continuous phase.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UnwrapError

__all__ = ["refine_path", "unwrap_on_nodes", "edge_phase_change"]

MAX_JUMP = np.pi / 4.0
_MAX_POINTS = 500_000


def refine_path(fn, t_nodes):
    """Sample fn along t_nodes, bisecting until adjacent phase steps < MAX_JUMP.

    fn must accept a 1-d array and return complex values.  Returns
    (t, values, is_node) with the original nodes flagged in order.
    """
    ts = [float(t) for t in t_nodes]
    if len(ts) < 2:
        raise DomainError("need at least two path nodes")
    vs = list(np.asarray(fn(np.asarray(ts)), dtype=complex))
    is_node = [True] * len(ts)
    while True:
        arr = np.asarray(vs)
        if np.any(arr == 0) or np.any(~np.isfinite(arr)):
            raise UnwrapError("path value vanished or overflowed; cannot track phase")
        inc = np.angle(arr[1:] / arr[:-1])
        bad = np.nonzero(np.abs(inc) >= MAX_JUMP)[0]
        if bad.size == 0:
            return np.asarray(ts), arr, np.asarray(is_node)
        if len(ts) + bad.size > _MAX_POINTS:
            raise UnwrapError(
                f"adaptive refinement exceeded {_MAX_POINTS} points with "
                f"{bad.size} unresolved jumps"
            )
        mids = [(ts[i] + ts[i + 1]) / 2.0 for i in bad]
        for i, m in zip(bad, mids):
            if m == ts[i] or m == ts[i + 1]:
                raise UnwrapError(f"phase jump at t = {ts[i]} cannot be refined further")
        new_vs = np.asarray(fn(np.asarray(mids)), dtype=complex)
        for j in range(bad.size - 1, -1, -1):
            i = int(bad[j])
            ts.insert(i + 1, mids[j])
            vs.insert(i + 1, complex(new_vs[j]))
            is_node.insert(i + 1, False)


def unwrap_on_nodes(fn, t_nodes) -> np.ndarray:
    """Continuous phase at t_nodes, anchored at the principal argument of the first."""
    ts, vals, is_node = refine_path(fn, t_nodes)
    inc = np.angle(vals[1:] / vals[:-1])
    phases = np.concatenate([[np.angle(vals[0])], np.angle(vals[0]) + np.cumsum(inc)])
    return phases[is_node]


def edge_phase_change(fn, start_limit: complex, end_limit: complex, init_nodes) -> float:
    """Total phase change along a truncated edge, tails corrected analytically.

    The residual phase between each truncation point and its analytic endpoint
    limit must be below pi, which the default truncations guarantee; the
    correction is then the principal argument of the ratio.
    """
    _, vals, _ = refine_path(fn, init_nodes)
    inc = np.angle(vals[1:] / vals[:-1])
    start_corr = float(np.angle(vals[0] / complex(start_limit)))
    end_corr = float(np.angle(complex(end_limit) / vals[-1]))
    return start_corr + float(np.sum(inc)) + end_corr
