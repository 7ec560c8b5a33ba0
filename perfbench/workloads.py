"""The three benchmark workloads: seeded inputs, one timed round, references, scoring.

A round is the fixed set of calls a workload makes; run.py repeats it in a
closed loop (one caller, each call issued after the previous one returns).
Every round of one run sees the same inputs, so its outputs must be
byte-identical to the first round's.

Two kinds of check are kept apart:

* correctness of the program's outputs as produced: every call returns, exits
  with a status its own output explains, and writes the rows it was asked for,
  identically on every round, honouring the built-in identities;
* accuracy against the mpmath reference, scored per unit.  A unit that misses
  its tolerance is a known seed defect, reported through ``pass_frac``,
  ``good_per_s`` and ``digits``; it does not make the output incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from halfscatter import ModelParams, cli, scattering, spectral
from halfscatter.scattering import SampledFunction

DENSITY_TOL = 1e-8  # relative error of one pointwise output value
ROUND_TRIP_TOL = 1e-2  # criterion 9's bound on the round-trip residual
SIGMA_TOL = 1e-8  # relative error of sigma and of its unwrapped phase (floored at 1 rad)
ORACLE_ROWS = 7  # rows in one oracle-check table
DIGITS_CAP = 15.0


def digits(err: float) -> float:
    """-log10 of a relative error, floored at 0 and capped at 15; NaN scores 0."""
    if not err > 0:
        return 0.0 if math.isnan(err) else DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def rel_err(value, ref) -> float:
    return abs(complex(value) - complex(ref)) / abs(complex(ref))


def grid(lo: float, hi: float, n: int) -> str:
    return f"{lo:.17g}:{hi:.17g}:{n}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI command with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


@dataclass
class Round:
    """Outputs of one round, keyed by call, plus the calls that failed outright."""

    outputs: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)

    def call(self, key, fn, *args, ok_codes=(0,)):
        """Issue and time one operation; a raise or an unexpected exit code fails it."""
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the benchmark must keep running and report it
            self.failed.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        finally:
            self.seconds[key] = perf_counter() - t0
        if fn is run_cli and result[0] not in ok_codes:
            self.failed.append(f"{key}: exit code {result[0]}")
            return
        self.outputs[key] = result

    def same_as(self, other: "Round") -> bool:
        if self.outputs.keys() != other.outputs.keys():
            return False
        for key, value in self.outputs.items():
            ref = other.outputs[key]
            if isinstance(value, dict):
                if value.keys() != ref.keys() or any(
                    np.asarray(value[k]).tobytes() != np.asarray(ref[k]).tobytes() for k in value
                ):
                    return False
            elif value != ref:
                return False
        return True


@dataclass
class Score:
    """Per-unit accuracy verdicts, per-value digits, and correctness problems."""

    units: list = field(default_factory=list)
    digits: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def unit(self, passed: bool):
        self.units.append(bool(passed))


# ---------------------------------------------------------------------------


class Transform:
    """Criterion-9 round trips f -> F^- f -> (F^-)* F^- f at (0,3) and (1,1).

    Unit: one round trip, passing when the residual against f - P_p f is below
    1e-2.  Digits: a seeded, stratified subsample of Fourier-kernel entries.
    """

    name = "transform"
    CASES = ((0.0, 3.0), (1.0, 1.0))
    X_PANELS, X_NODES = 12, 32
    K_PANELS, K_NODES = 40, 16

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.supports = [(rng.uniform(0.8, 1.2), rng.uniform(2.8, 3.2)) for _ in self.CASES]
        # one kernel entry per (k panel, group of three x panels), random node within
        self.samples = []
        for _ in self.CASES:
            idx = []
            for j in range(self.K_PANELS):
                for g in range(self.X_PANELS // 3):
                    kj = j * self.K_NODES + int(rng.integers(self.K_NODES))
                    xi = (3 * g + int(rng.integers(3))) * self.X_NODES + int(rng.integers(self.X_NODES))
                    idx.append((kj, xi))
            self.samples.append(np.array(idx))

    def inputs(self):
        return {"supports": self.supports}

    @staticmethod
    def bump(x, a, b):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = (x > a) & (x < b)
        t = (x[m] - a) / (b - a)
        out[m] = np.exp(-1.0 / (t * (1.0 - t)))
        return out

    def round_trip(self, case: int, x_panels: int, k_panels: int):
        mu, nu = self.CASES[case]
        a, b = self.supports[case]
        p = ModelParams(mu, nu)
        f = scattering.sample_on_panels(lambda x: self.bump(x, a, b), 0.0, float(x_panels), 1.0, self.X_NODES)
        kk, kw = scattering.quadrature_panels(0.0, float(k_panels), 1.0, self.K_NODES)
        kgrid = SampledFunction(grid=kk, values=np.zeros_like(kk), weights=kw)
        km = scattering.fourier_kernel_matrix(p, -1, f.grid, kk)
        g = scattering.forward_transform(p, -1, f, kgrid, kernel_matrix=np.conj(km))
        back = scattering.adjoint_transform(p, -1, g, f, kernel_matrix=km)
        proj = np.zeros_like(f.values)
        for n in range(spectral.bound_states(p).count):
            phi = spectral.eigenfunction(p, n, normalized=True)
            vals = phi(f.grid)
            proj = proj + vals * np.sum(f.weights * vals * f.values)
        resid = back.values - (f.values - proj)
        out = {
            "back": back.values,
            "residual": np.array(np.sqrt(np.sum(f.weights * np.abs(resid) ** 2)) / f.norm()),
            "x": f.grid,
            "k": kk,
        }
        if x_panels == self.X_PANELS and k_panels == self.K_PANELS:
            s = self.samples[case]
            out["kernel"] = km[s[:, 0], s[:, 1]]
        return out

    def warmup(self):
        # four x panels hold the bump's support, one k panel keeps the matrix small
        for case in range(len(self.CASES)):
            self.round_trip(case, 4, 1)

    def round(self) -> Round:
        r = Round()
        for case in range(len(self.CASES)):
            r.call(f"round_trip{case}", self.round_trip, case, self.X_PANELS, self.K_PANELS)
        return r

    def references(self, first: Round):
        import reference

        refs = {}
        for case, (mu, nu) in enumerate(self.CASES):
            out = first.outputs.get(f"round_trip{case}")
            if out is None:
                continue
            s = self.samples[case]
            entries = [(float(out["x"][xi]), float(out["k"][kj])) for kj, xi in s]
            refs[case] = reference.fourier_kernel(mu, nu, -1, entries)
        return refs

    def score(self, first: Round, refs) -> Score:
        sc = Score()
        for case in range(len(self.CASES)):
            out = first.outputs.get(f"round_trip{case}")
            if out is None:
                sc.unit(False)
                continue
            if not np.all(np.isfinite(out["back"])):
                sc.problems.append(f"round trip {case}: non-finite transform values")
            sc.unit(float(out["residual"]) < ROUND_TRIP_TOL)
            sc.digits.extend(digits(rel_err(v, r)) for v, r in zip(out["kernel"], refs[case]))
        return sc


class Pointwise:
    """In-process CLI density, interior resolvent and boundary kernel sweeps.

    Unit: one output value, passing when its relative error against mpmath is
    at most 1e-8.  The density's k range reaches ~100 on purpose: the 2F1
    series cancels there, and that defect must stay visible.
    """

    name = "pointwise"
    WARMUP = {
        "density": ["density", "--mu", "0.5", "--nu", "0.5", "--k", "1:2:2", "--x", "0.5:1:2", "--y", "1"],
        "resolvent": ["kernel", "--mu", "1", "--nu", "2", "--kind", "resolvent", "--x", "0.5:1:2", "--y", "0.5:1:2"],
        "boundary": ["kernel", "--mu", "0.5", "--nu", "2", "--kind", "boundary", "--x", "0.5:1:2", "--y", "0.5:1:2"],
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        u = rng.uniform
        # small jitter around the README's examples keeps each sweep's cost and
        # failures the same from seed to seed
        self.density = {
            "mu": 0.5 + u(0.0, 0.2),
            "nu": 0.5 + u(0.0, 0.2),
            "k": (0.5 + u(0.0, 0.1), 100.0 + u(0.0, 2.0), 25),
            "x": (0.1 + u(0.0, 0.02), 5.0 + u(0.0, 0.2), 25),
            # below 1.03, where tanh(y)^2 crosses the 2F1 series threshold 0.6:
            # L(y, k) comes from the raw series and scales every row of the sweep
            "y": 0.9 + u(0.0, 0.1),
        }
        # integer mu takes the digamma branch of M; the boundary kernel uses non-integer mu
        self.resolvent = {
            "mu": 1.0,
            "nu": 2.0 + u(0.0, 0.2),
            "zeta": complex(1.5 + u(0.0, 0.2), 0.5 + u(0.0, 0.1)),
            "x": (0.2 + u(0.0, 0.02), 3.0 + u(0.0, 0.1), 30),
            "y": (0.2 + u(0.0, 0.02), 3.0 + u(0.0, 0.1), 30),
        }
        self.boundary = {
            "mu": 0.5 + u(0.0, 0.2),
            "nu": 2.0 + u(0.0, 0.2),
            "k": 1.3 + u(0.0, 0.2),
            "side": "+" if rng.integers(2) else "-",
            "x": (0.2 + u(0.0, 0.02), 3.0 + u(0.0, 0.1), 30),
            "y": (0.2 + u(0.0, 0.02), 3.0 + u(0.0, 0.1), 30),
        }

    def inputs(self):
        return {"density": self.density, "resolvent": self.resolvent, "boundary": self.boundary}

    @staticmethod
    def _pair(d):
        return ["--mu", f"{d['mu']:.17g}", "--nu", f"{d['nu']:.17g}"]

    def argv(self):
        d, r, b = self.density, self.resolvent, self.boundary
        return {
            "density": ["density", *self._pair(d), "--k", grid(*d["k"]), "--x", grid(*d["x"]), "--y", f"{d['y']:.17g}"],
            "resolvent": [
                "kernel", *self._pair(r), "--kind", "resolvent",
                "--zeta", f"{r['zeta'].real:.17g}{r['zeta'].imag:+.17g}j",
                "--x", grid(*r["x"]), "--y", grid(*r["y"]),
            ],
            "boundary": [
                "kernel", *self._pair(b), "--kind", "boundary", "--k", f"{b['k']:.17g}",
                "--side", b["side"], "--x", grid(*b["x"]), "--y", grid(*b["y"]),
            ],
        }

    def warmup(self):
        for argv in self.WARMUP.values():
            run_cli(argv)

    def round(self) -> Round:
        r = Round()
        for key, argv in self.argv().items():
            r.call(key, run_cli, argv)
        return r

    @staticmethod
    def _axis(spec):
        lo, hi, n = spec
        return [float(v) for v in np.linspace(lo, hi, n)]

    def references(self, first: Round):
        import reference

        d, r, b = self.density, self.resolvent, self.boundary
        return {
            "density": reference.density(d["mu"], d["nu"], self._axis(d["k"]), self._axis(d["x"]), [d["y"]]),
            "resolvent": reference.resolvent_kernel(
                r["mu"], r["nu"], r["zeta"], self._axis(r["x"]), self._axis(r["y"])
            ),
            "boundary": reference.boundary_kernel(
                b["mu"], b["nu"], b["k"], 1 if b["side"] == "+" else -1, self._axis(b["x"]), self._axis(b["y"])
            ),
        }

    def score(self, first: Round, refs) -> Score:
        sc = Score()
        for key, ref in refs.items():
            out = first.outputs.get(key)
            rows = parse_csv(out[1]) if out else []
            if out and len(rows) != len(ref):
                sc.problems.append(f"{key}: {len(rows)} rows, expected {len(ref)}")
                rows = []
            if not rows:
                sc.units.extend([False] * len(ref))
                continue
            for row, rv in zip(rows, ref):
                value = float(row[3]) if key == "density" else complex(float(row[2]), float(row[3]))
                err = rel_err(value, rv)
                sc.unit(err <= DENSITY_TOL)
                sc.digits.append(digits(err))
        return sc


class Verify:
    """In-process CLI verify-index pairs, sigma sweeps and oracle-check tables.

    Units: one index verification (the report passes and its bound-state count
    matches the reference count), one sigma sweep (every value and unwrapped
    phase within 1e-8 of the mpmath loggamma reference), one oracle-check row
    (status pass).  Pairs reach mu, nu ~ 45 on purpose: phase aliasing fails
    many of them there, and that defect must stay visible.

    Inputs are jittered within fixed cells, so the seed moves every value but
    not the share of each cell in the round's time and failures.
    """

    name = "verify"
    WARMUP = {
        "index": ["verify-index", "--mu", "1", "--nu", "4"],
        "sigma": ["sigma", "--mu", "0", "--nu", "3", "--k", "1:2:2"],
        "oracle": ["oracle-check", "--mu", "1", "--nu", "2", "--zeta", "1.5+0.5j"],
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        u = rng.uniform
        # cell (i, j) of a 9 x 9 grid with step 5: t = nu - mu - 1 is below 0 on
        # and under the diagonal (beta > 0), an even integer 5(j - i) when j - i
        # is even (beta a nonpositive integer), and off the integers otherwise
        self.pairs = []
        for i in range(9):
            for j in range(9):
                mu = 5.0 * i + u(0.0, 1.0)
                d = 5.0 * (j - i)
                if j <= i:
                    t = d - u(0.1, 0.9)
                elif (j - i) % 2 == 0:
                    t = d
                else:
                    t = d + u(-0.4, 0.4)
                self.pairs.append((mu, mu + 1.0 + t))
        self.sweeps = [
            (mu + u(0.0, 1.0), nu + u(0.0, 1.0), (u(0.001, 0.002), u(190.0, 200.0), 100))
            for mu in (2.0, 15.0, 30.0)
            # no cell near mu = nu beyond the first: there whether the unwrap
            # aliases turns on the jitter, which would make the score flicker
            for nu in (2.0, 20.0, 35.0)
        ]
        self.oracle = [
            (mu + u(0.0, 0.1), nu + u(0.0, 0.1), zeta + complex(u(0.0, 0.1), u(0.0, 0.1)))
            # nu - mu - 1 is 1, -1, 3 and -0.5: away from the even integers where a
            # level sits at zero energy and the shooting count changes with jitter
            for mu, nu, zeta in ((0.0, 2.0, 1.5 + 0.5j), (1.0, 1.0, 2.0 + 0.4j), (0.5, 4.5, 1.2 + 0.3j), (2.0, 2.5, 2.5 + 0.8j))
        ]

    def inputs(self):
        return {"pairs": self.pairs, "sweeps": self.sweeps, "oracle": [(m, n, [z.real, z.imag]) for m, n, z in self.oracle]}

    def argv(self):
        out = {}
        for i, (mu, nu) in enumerate(self.pairs):
            out[f"index{i}"] = ["verify-index", "--mu", f"{mu:.17g}", "--nu", f"{nu:.17g}"]
        for i, (mu, nu, k) in enumerate(self.sweeps):
            out[f"sigma{i}"] = ["sigma", "--mu", f"{mu:.17g}", "--nu", f"{nu:.17g}", "--k", grid(*k)]
        for i, (mu, nu, z) in enumerate(self.oracle):
            out[f"oracle{i}"] = [
                "oracle-check", "--mu", f"{mu:.17g}", "--nu", f"{nu:.17g}", "--zeta", f"{z.real:.17g}{z.imag:+.17g}j"
            ]
        return out

    def warmup(self):
        for argv in self.WARMUP.values():
            run_cli(argv)

    def round(self) -> Round:
        r = Round()
        for key, argv in self.argv().items():
            # verify-index and oracle-check exit 1 when a verification fails, which their output reports
            r.call(key, run_cli, argv, ok_codes=(0,) if key.startswith("sigma") else (0, 1))
        return r

    def references(self, first: Round):
        import reference

        return {
            "count": [reference.bound_count(mu, nu) for mu, nu in self.pairs],
            "sigma": [reference.sigma_with_phase(mu, nu, np.linspace(*k).tolist()) for mu, nu, k in self.sweeps],
        }

    def score(self, first: Round, refs) -> Score:
        sc = Score()
        for i, count in enumerate(refs["count"]):
            out = first.outputs.get(f"index{i}")
            if out is None:
                sc.unit(False)
                continue
            (rep,) = json.loads(out[1])
            if out[0] != (0 if rep["pass"] else 1):
                sc.problems.append(f"index{i}: exit code {out[0]} disagrees with its report")
            sc.unit(rep["pass"] and rep["bound_count"] == count)
            sc.digits.append(digits(abs(rep["winding_numeric"] - count) / max(1.0, count)))

        for i, (vals, phases) in enumerate(refs["sigma"]):
            out = first.outputs.get(f"sigma{i}")
            rows = parse_csv(out[1]) if out else []
            if out and len(rows) != len(vals):
                sc.problems.append(f"sigma{i}: {len(rows)} rows, expected {len(vals)}")
                rows = []
            ok = bool(rows)
            for row, v, ph in zip(rows, vals, phases):
                s = complex(float(row[1]), float(row[2]))
                if abs(abs(s) - 1.0) > 1e-10:
                    sc.problems.append(f"sigma{i}: |sigma| = {abs(s):.17g} at k = {row[0]}")
                e_val = rel_err(s, v)
                e_phase = abs(float(row[3]) - ph) / max(1.0, abs(ph))
                ok = ok and e_val <= SIGMA_TOL and e_phase <= SIGMA_TOL
                sc.digits.extend((digits(e_val), digits(e_phase)))
            sc.unit(ok)

        for i in range(len(self.oracle)):
            out = first.outputs.get(f"oracle{i}")
            rows = parse_csv(out[1]) if out else []
            if len(rows) != ORACLE_ROWS:
                if out:
                    sc.problems.append(f"oracle{i}: {len(rows)} rows, expected {ORACLE_ROWS}")
                sc.units.extend([False] * ORACLE_ROWS)
                continue
            statuses = []
            for name, err, tol, status in rows:
                if status != ("pass" if float(err) < float(tol) else "fail"):
                    sc.problems.append(f"oracle{i}: {name} status {status} disagrees with {err} vs {tol}")
                statuses.append(status == "pass")
                sc.unit(status == "pass")
            if out[0] != (0 if all(statuses) else 1):
                sc.problems.append(f"oracle{i}: exit code {out[0]} disagrees with its table")
        return sc


WORKLOADS = {w.name: w for w in (Transform, Pointwise, Verify)}
