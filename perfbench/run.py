"""halfscatter benchmark: one workload, one seed, a closed loop of rounds.

    python3 perfbench/run.py --workload transform|pointwise|verify \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
caller issues each call after the previous one returns.  Rounds repeat until
``--seconds`` have passed.  Outputs are checked against mpmath references
outside the timed region.  The last stdout line is one JSON object with
``correct``, ``attempted`` and ``failed`` (operations, i.e. API calls and CLI
commands, and those that raised or exited with an unexpected status) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The line before it holds the environment record and run
details.  A traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 120
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import halfscatter from this checkout's src/, never from elsewhere."""
    if not (SRC / "halfscatter" / "__init__.py").is_file():
        fail(f"no halfscatter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import halfscatter

    if SRC not in Path(halfscatter.__file__).resolve().parents:
        fail(f"imported halfscatter from {halfscatter.__file__}, not from {SRC}")
    return halfscatter


def environment(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    nproc = os.cpu_count()
    # OpenBLAS, which numpy and scipy wheels bundle, runs one thread per core unless told otherwise
    blas = {k: os.environ[k] for k in BLAS_ENV if k in os.environ}
    return {
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": next(iter(blas.values())) if blas else nproc,
        "blas_env": blas,
        "machine": platform.machine(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports and makes first calls."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            check=True,
            timeout=PROBE_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_rounds(wl, seconds: float, tracer=None):
    """Closed loop of rounds until `seconds` pass; returns (plain rounds, traced rounds).

    With a tracer, untraced and traced rounds alternate (at least one each),
    so their times give the tracing overhead.  A traced round is returned as
    (round, wall seconds, first span, end span, counter increments).
    """
    plain, traced = [], []
    start = perf_counter()
    while True:
        if tracer is None or len(plain) <= len(traced):
            plain.append(wl.round())
        else:
            tracer.run = f"round{len(plain) + len(traced)}"
            first_span, before = len(tracer.spans), dict(tracer.counters)
            tracer.install()
            t0 = perf_counter()
            try:
                r = wl.round()
            finally:
                dt = perf_counter() - t0
                tracer.uninstall()
            delta = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
            traced.append((r, dt, first_span, len(tracer.spans), delta))
        if perf_counter() - start >= seconds and (tracer is None or traced):
            return plain, traced


def round_seconds(rounds) -> float:
    """A round's time: the sum over its operations of each one's median across rounds.

    A burst of host contention that slows one call in one round then does not
    move the figure.
    """
    return sum(statistics.median([r.seconds[key] for r in rounds]) for key in rounds[0].seconds)


def end_to_end(score, plain, setup_s):
    good = sum(score.units)
    return {
        "setup_s": metric(setup_s, "s"),
        "good_per_s": metric(good / round_seconds(plain), "1/s"),
        "pass_frac": metric(good / len(score.units), "1"),
        "digits": metric(statistics.fmean(score.digits), "digits"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, plain, traced) -> tuple[dict, list]:
    """Per-layer metrics over the traced rounds, and any round whose counts differ."""
    import tracing

    wall = sum(t[1] for t in traced)
    self_s = {layer: 0.0 for layer in tracing.LAYERS}
    top = 0.0
    calls, counts, mismatched = None, None, []
    for i, (_, _, lo, hi, delta) in enumerate(traced):
        s, c, t = tracer.layer_summary(lo, hi)
        top += t
        for layer, v in s.items():
            self_s[layer] += v
        if calls is None:
            calls, counts = c, delta
        elif (c, delta) != (calls, counts):
            mismatched.append(i)

    def n(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_pct": metric(100.0 * v / wall, "%") for layer, v in self_s.items()}
    m.update(
        {
            "specfun.hyp2f1.calls": metric(calls["specfun.hyp2f1"], "count"),
            "specfun.hyp2f1.lanes": metric(n("specfun.hyp2f1.lanes"), "count"),
            "specfun.hyp2f1.lanes_per_call": metric(
                ratio(n("specfun.hyp2f1.lanes"), calls["specfun.hyp2f1"]), "lanes/call"
            ),
            "specfun.gamma.calls": metric(calls["specfun.gamma"], "count"),
            "solutions.eval.calls": metric(calls["solutions.eval"], "count"),
            "solutions.eval.points": metric(n("solutions.eval.points"), "count"),
            "solutions.wronskian.calls": metric(calls["solutions.wronskian"], "count"),
            "spectral.kernel.calls": metric(calls["spectral.kernel"], "count"),
            "scattering.kernel_matrix.entries": metric(n("scattering.kernel_matrix.entries"), "count"),
            "scattering.sigma.points": metric(n("scattering.sigma.points"), "count"),
            "phase.refine.nodes": metric(n("phase.refine.nodes"), "count"),
            "phase.refine.points": metric(n("phase.refine.points"), "count"),
            "phase.refine.ratio": metric(ratio(n("phase.refine.points"), n("phase.refine.nodes")), "points/node"),
            "index.verify.calls": metric(calls["index.verify"], "count"),
            "oracle.solves": metric(n("oracle.solves"), "count"),
            "oracle.rhs_calls": metric(n("oracle.rhs_calls"), "count"),
            "oracle.rhs_per_solve": metric(ratio(n("oracle.rhs_calls"), n("oracle.solves")), "calls/solve"),
            "cli.commands": metric(calls["cli"], "count"),
            "cli.bytes_out": metric(
                sum(len(v[1].encode()) for v in plain[0].outputs.values() if isinstance(v, tuple)), "B"
            ),
            "bench.self_pct": metric(100.0 * (wall - top) / wall, "%"),
            "trace.wall_s": metric(round_seconds([t[0] for t in traced]), "s"),
            "trace.overhead_pct": metric(
                100.0 * (round_seconds([t[0] for t in traced]) / round_seconds(plain) - 1.0), "%"
            ),
        }
    )
    return m, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = environment(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    wl.warmup()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(package)
    plain, traced = run_rounds(wl, args.seconds, tracer)
    rounds = plain + [t[0] for t in traced]

    first = rounds[0]
    score = wl.score(first, wl.references(first))
    failed_ops = [msg for r in rounds for msg in r.failed]
    nondeterministic = [i for i, r in enumerate(rounds) if not r.same_as(first)]
    problems = list(score.problems)
    if nondeterministic:
        problems.append(f"rounds {nondeterministic} differ from round 0")

    if args.trace:
        metrics, mismatched = per_layer(tracer, plain, traced)
        if mismatched:
            problems.append(f"traced rounds {mismatched} counted different work")
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.csv.gz")
    else:
        metrics = end_to_end(score, plain, setup_s)

    detail = {
        "env": env,
        "inputs": wl.inputs(),
        "rounds": len(rounds),
        "round_s": [sum(r.seconds.values()) for r in plain],
        "traced_round_s": [t[1] for t in traced],
        "units": len(score.units),
        "units_passed": sum(score.units),
        "setup_s": setup_s,
        "failed_ops": failed_ops[:20],
        "problems": problems[:20],
    }
    print(json.dumps(detail, default=str))
    result = {
        "correct": not failed_ops and not problems,
        "attempted": sum(len(r.seconds) for r in rounds),
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
