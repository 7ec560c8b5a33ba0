"""In-memory span recorder installed by wrapping halfscatter's public functions.

Every function listed in ``LAYERS`` is replaced, in each module that binds it
(including aliases such as ``cli.sigma_cf`` and the package namespace), by one
wrapper that records a span ``[function, layer, start, end, parent, run]`` and
updates the work counters in ``WORK``.  ``Tracer.uninstall`` puts the original
objects back, so untraced rounds in the same process run unmodified code.

A layer's ``calls`` are its entries from outside the layer (a span whose
parent belongs to another layer or is the benchmark itself), so nested calls
such as ``gamma_ratio -> log_gamma`` count once.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import csv
import functools
import gzip
from time import perf_counter

import numpy as np

# layer -> (module, [public functions bound there and wherever they are imported])
LAYERS = {
    "specfun.hyp2f1": ("specfun", ["hyp2f1_values", "gauss_2f1"]),
    "specfun.gamma": ("specfun", ["gamma_ratio", "log_gamma", "beta_fn", "digamma", "pochhammer"]),
    "solutions.eval": ("solutions", ["eval_L", "eval_M", "eval_N"]),
    "solutions.wronskian": ("solutions", ["wronskian", "wronskian_scale", "connection_coefficients"]),
    "spectral.kernel": (
        "spectral",
        ["resolvent_kernel", "resolvent_boundary_kernel", "spectral_density_kernel"],
    ),
    "spectral.eigen": ("spectral", ["eigenfunction"]),
    "spectral.bound": ("spectral", ["bound_states", "wronskian_roots"]),
    "scattering.kernel_matrix": (
        "scattering",
        ["fourier_kernel_matrix", "fourier_kernel", "script_F", "dilation_scaled_kernel"],
    ),
    "scattering.transform": (
        "scattering",
        [
            "forward_transform",
            "adjoint_transform",
            "sine_transform",
            "wave_operator_apply",
            "sample_on_panels",
            "quadrature_panels",
        ],
    ),
    "scattering.sigma": ("scattering", ["sigma", "sigma_samples", "sigma_at_zero", "b_factor"]),
    "phase.refine": ("phase", ["refine_path", "unwrap_on_nodes", "edge_phase_change"]),
    "index.verify": (
        "index",
        [
            "verify_index",
            "winding_numeric",
            "winding_contributions",
            "lambda1",
            "lambda3_theta",
            "square_edges",
        ],
    ),
    # solve_ivp is scipy's, traced where oracle binds it to count solves and rhs calls
    "oracle": (
        "oracle",
        [
            "integrate_regular",
            "integrate_decaying",
            "extract_sigma",
            "count_bound_states_shooting",
            "greens_function_oracle",
            "solve_ivp",
        ],
    ),
    "cli": ("cli", ["main"]),
}

# Modules searched for bindings of the traced functions.
BINDING_MODULES = ("", "specfun", "solutions", "spectral", "scattering", "phase", "index", "oracle", "cli")


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + int(n)


def _refine_work(counters, args, kwargs, result):
    t_nodes = args[1] if len(args) > 1 else kwargs["t_nodes"]
    _add(counters, "phase.refine.nodes", np.size(t_nodes))
    _add(counters, "phase.refine.points", np.size(result[0]))


def _solve_work(counters, args, kwargs, result):
    _add(counters, "oracle.solves", 1)
    _add(counters, "oracle.rhs_calls", result.nfev)


# function -> counter update from (args, kwargs, result); every call counts
WORK = {
    "hyp2f1_values": lambda c, a, kw, r: _add(c, "specfun.hyp2f1.lanes", np.size(a[3])),
    "eval_L": lambda c, a, kw, r: _add(c, "solutions.eval.points", np.size(a[1])),
    "eval_M": lambda c, a, kw, r: _add(c, "solutions.eval.points", np.size(a[1])),
    "eval_N": lambda c, a, kw, r: _add(c, "solutions.eval.points", np.size(a[1])),
    "fourier_kernel": lambda c, a, kw, r: _add(c, "scattering.kernel_matrix.entries", np.size(r)),
    "sigma": lambda c, a, kw, r: _add(c, "scattering.sigma.points", np.size(r)),
    "refine_path": _refine_work,
    "solve_ivp": _solve_work,
}


class Tracer:
    """Records spans and counters while installed; one instance per benchmark run."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.run = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._wrappers = {}
        for layer, (modname, names) in LAYERS.items():
            module = getattr(package, modname)
            for name in names:
                fn = getattr(module, name)
                self._wrappers[id(fn)] = self._wrap(fn, layer, name)

    def _wrap(self, fn, layer, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if work is not None:
                work(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for suffix in BINDING_MODULES:
            module = getattr(self.package, suffix) if suffix else self.package
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        while self._restore:
            module, attr, obj = self._restore.pop()
            setattr(module, attr, obj)

    def layer_summary(self, first: int, last: int) -> tuple[dict, dict, float]:
        """Self time and entry calls per layer over spans[first:last].

        Returns (self_s by layer, calls by layer, time covered by top-level spans).
        """
        spans = self.spans
        child = [0.0] * (last - first)
        for rec in spans[first:last]:
            if rec[4] >= first:
                child[rec[4] - first] += rec[3] - rec[2]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        top = 0.0
        for i, rec in enumerate(spans[first:last]):
            dur = rec[3] - rec[2]
            self_s[rec[1]] += dur - child[i]
            if rec[4] < first:
                top += dur
                calls[rec[1]] += 1
            elif spans[rec[4]][1] != rec[1]:
                calls[rec[1]] += 1
        return self_s, calls, top

    def write(self, path):
        """Write every span as gzipped CSV: id, function, layer, start, end, parent, run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "function", "layer", "start_s", "end_s", "parent", "run"])
            for i, (name, layer, start, end, parent, run) in enumerate(self.spans):
                out.writerow([i, name, layer, f"{start:.9f}", f"{end:.9f}", parent, run])
