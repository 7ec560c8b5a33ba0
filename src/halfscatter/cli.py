"""Command-line interface: evaluations, sweeps, and verification reports.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 numerical failure.  CSV output is RFC-4180 with a header row; JSON
uses stable key order.  Floats are printed with 17 significant digits so that
identical configs produce byte-identical, round-trip-exact artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import index as index_mod
from . import oracle as oracle_mod
from .errors import HalfScatterError
from .model import ModelParams
from .scattering import sigma as sigma_cf
from .scattering import sigma_samples
from .solutions import SpectralPoint, eval_L, eval_M, wronskian
from .spectral import (
    bound_states,
    resolvent_boundary_kernel,
    resolvent_kernel,
    spectral_density_kernel,
    wronskian_roots,
)
from .specfun import gauss_2f1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _json_dump(obj) -> str:
    """Stable-key-order JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ",".join(f'"{k}":{_json_dump(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_dump(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def parse_range(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive endpoints) or a bare scalar."""
    text = str(text)
    if ":" not in text:
        try:
            return np.array([float(text)])
        except ValueError as exc:
            raise UsageError(f"bad number {text!r}") from exc
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad range {text!r}, expected start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}") from exc
    if count < 2:
        raise UsageError(f"range count must be >= 2, got {count}")
    if not stop > start:
        raise UsageError(f"range must be increasing, got {text!r}")
    return np.linspace(start, stop, count)


def parse_complex(text: str) -> complex:
    try:
        return complex(str(text).replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"bad complex number {text!r}") from exc


def _apply_config_file(args: argparse.Namespace) -> argparse.Namespace:
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError("config file must contain a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        setattr(args, attr, value)
    return args


def _write_text(out_path: str | None, text: str):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_lines(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\r\n".join(lines) + "\r\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_sigma(args) -> int:
    k_grid = parse_range(args.k)
    if np.any(k_grid <= 0):
        raise UsageError("sigma needs k > 0")
    samples = sigma_samples(ModelParams(float(args.mu), float(args.nu)), k_grid)
    text = _csv_lines(
        ["k", "sigma_re", "sigma_im", "phase"],
        [(s.k, s.sigma.real, s.sigma.imag, s.phase) for s in samples],
    )
    _write_text(args.out, text)
    return EXIT_OK


def cmd_bound_states(args) -> int:
    rep = bound_states(ModelParams(float(args.mu), float(args.nu)))
    payload = {
        "count": rep.count,
        "levels": [{"zeta": lv.zeta, "energy": lv.energy} for lv in rep.levels],
    }
    _write_text(args.out, _json_dump(payload) + "\n")
    return EXIT_OK


def cmd_density(args) -> int:
    p = ModelParams(float(args.mu), float(args.nu))
    ks = parse_range(args.k)
    xs = parse_range(args.x)
    ys = parse_range(args.y)
    rows = []
    for k in ks:
        for x in xs:
            for y in ys:
                val = spectral_density_kernel(p, float(k), float(x), float(y))
                rows.append((k, x, y, val.real))
    _write_text(args.out, _csv_lines(["k", "x", "y", "p"], rows))
    return EXIT_OK


def cmd_kernel(args) -> int:
    p = ModelParams(float(args.mu), float(args.nu))
    xs, ys = parse_range(args.x), parse_range(args.y)
    rows = []
    if args.kind == "resolvent":
        pt = SpectralPoint.interior(parse_complex(args.zeta))
        for x in xs:
            for y in ys:
                v = resolvent_kernel(p, pt, float(x), float(y))
                rows.append((x, y, v.real, v.imag))
    elif args.kind == "boundary":
        k = float(args.k)
        for x in xs:
            for y in ys:
                v = resolvent_boundary_kernel(p, k, args.side, float(x), float(y))
                rows.append((x, y, v.real, v.imag))
    else:
        raise UsageError(f"unknown kernel kind {args.kind!r}")
    _write_text(args.out, _csv_lines(["x", "y", "re", "im"], rows))
    return EXIT_OK


def cmd_winding(args) -> int:
    p = ModelParams(float(args.mu), float(args.nu))
    omega = index_mod.winding_contributions(p)
    payload = {
        "mu": p.mu,
        "nu": p.nu,
        "omega": list(omega),
        "winding_closed": float(sum(omega)),
        "winding_numeric": index_mod.winding_numeric(
            p, float(args.k_max), float(args.s_max)
        ),
    }
    _write_text(args.out, _json_dump(payload) + "\n")
    return EXIT_OK


def cmd_verify_index(args) -> int:
    mus = parse_range(args.mu_grid) if args.mu_grid else np.array([float(args.mu)])
    nus = parse_range(args.nu_grid) if args.nu_grid else np.array([float(args.nu)])
    reports = []
    for mu in mus:
        for nu in nus:
            rep = index_mod.verify_index(
                ModelParams(float(mu), float(nu)),
                float(args.k_max),
                float(args.s_max),
            )
            reports.append(rep)
    payload = [r.to_json_dict() for r in reports]
    _write_text(args.out, _json_dump(payload) + "\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def cmd_oracle_check(args) -> int:
    p = ModelParams(float(args.mu), float(args.nu))
    zeta = parse_complex(args.zeta)
    pt = SpectralPoint.interior(zeta)
    rows = []

    sol = oracle_mod.integrate_regular(p, energy=-(zeta**2), x0=1e-5, x1=6.0, tol=1e-11)
    xs = np.linspace(0.5, 6.0, 24)
    u, _ = sol(xs)
    lv = eval_L(p, xs, pt)
    const = np.vdot(lv, u) / np.vdot(lv, lv)
    rows.append(("regular_solution_vs_ode", float(np.max(np.abs(u - const * lv) / np.abs(u))), 1e-7))

    u1, du1 = sol(2.0)
    mpt = eval_M(p, 2.0, pt)
    h = 1e-5
    dm = (eval_M(p, 2.0 + h, pt) - eval_M(p, 2.0 - h, pt)) / (2 * h)
    w_num = u1 * dm - du1 * mpt
    w_cf = wronskian(p, pt) * const
    rows.append(("wronskian_vs_ode", float(abs(w_num - w_cf) / abs(w_cf)), 1e-6))

    for k in (1.0, 2.0):
        s_ode = oracle_mod.extract_sigma(p, k)
        s_gamma = complex(sigma_cf(p, k))
        rows.append((f"sigma_phase_k={k:g}", float(abs(np.angle(s_ode / s_gamma))), 1e-6))

    g_ode = oracle_mod.greens_function_oracle(p, pt, 1.0, 2.0)
    g_cf = resolvent_kernel(p, pt, 1.0, 2.0)
    rows.append(("resolvent_vs_ode", float(abs(g_ode - g_cf) / abs(g_cf)), 1e-6))

    n_shoot = oracle_mod.count_bound_states_shooting(p)
    n_cf = bound_states(p).count
    rows.append(("bound_count_shooting", float(abs(n_shoot - n_cf)), 0.5))
    n_roots = len(wronskian_roots(p))
    rows.append(("bound_count_wronskian_roots", float(abs(n_roots - n_cf)), 0.5))

    table = [(name, err, tol, "pass" if err < tol else "fail") for name, err, tol in rows]
    lines = ["check,discrepancy,tolerance,status"]
    for name, err, tol, st in table:
        lines.append(f"{name},{_fmt(err)},{_fmt(tol)},{st}")
    _write_text(args.out, "\r\n".join(lines) + "\r\n")
    return EXIT_OK if all(st == "pass" for *_, st in table) else EXIT_VERIFY_FAIL


def cmd_eval_2f1(args) -> int:
    val = gauss_2f1(parse_complex(args.a), parse_complex(args.b), parse_complex(args.c), float(args.z))
    _write_text(args.out, _json_dump({"re": val.real, "im": val.imag}) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="halfscatter",
        description="Spectral/scattering evaluations for the solvable hyperbolic well on the half-line",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, mu_nu=True):
        if mu_nu:
            sp.add_argument("--mu", type=float, default=0.5)
            sp.add_argument("--nu", type=float, default=0.5)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--config", default=None, help="JSON file overriding flags")

    sp = sub.add_parser("sigma", help="scattering-function sweep as CSV")
    common(sp)
    sp.add_argument("--k", required=True, help="k grid, start:stop:count")
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("bound-states", help="bound-state report as JSON")
    common(sp)
    sp.set_defaults(func=cmd_bound_states)

    sp = sub.add_parser("density", help="spectral density samples as CSV")
    common(sp)
    sp.add_argument("--k", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("kernel", help="resolvent kernel samples as CSV")
    common(sp)
    sp.add_argument("--kind", choices=("resolvent", "boundary"), default="resolvent")
    sp.add_argument("--zeta", default="1.5+0.5j", help="interior spectral parameter")
    sp.add_argument("--k", type=float, default=1.0, help="boundary momentum")
    sp.add_argument("--side", choices=("+", "-"), default="+")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("winding", help="winding contributions for one parameter pair")
    common(sp)
    sp.add_argument("--k-max", type=float, default=index_mod.K_EDGE_DEFAULT)
    sp.add_argument("--s-max", type=float, default=index_mod.S_MAX_DEFAULT)
    sp.set_defaults(func=cmd_winding)

    sp = sub.add_parser("verify-index", help="index-theorem verification over a grid")
    common(sp)
    sp.add_argument("--mu-grid", default=None, help="mu range start:stop:count")
    sp.add_argument("--nu-grid", default=None, help="nu range start:stop:count")
    sp.add_argument("--k-max", type=float, default=index_mod.K_EDGE_DEFAULT)
    sp.add_argument("--s-max", type=float, default=index_mod.S_MAX_DEFAULT)
    sp.set_defaults(func=cmd_verify_index)

    sp = sub.add_parser("oracle-check", help="closed forms vs ODE oracle discrepancy table")
    common(sp)
    sp.add_argument("--zeta", default="1.5+0.5j")
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("eval-2f1", help="single Gauss 2F1 value as JSON")
    common(sp, mu_nu=False)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--c", required=True)
    sp.add_argument("--z", type=float, required=True)
    sp.set_defaults(func=cmd_eval_2f1)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args = _apply_config_file(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HalfScatterError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
