"""Command-line interface: evaluations, sweeps, and verification reports.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error (an argument outside the domain of its operation included), 3 numerical
failure.  CSV output is RFC-4180 with a header row; JSON uses stable key
order.  Floats are printed with 17 significant digits so that identical
configs produce byte-identical, round-trip-exact artifacts.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import index as index_mod
from . import oracle as oracle_mod
from .errors import DomainError, HalfScatterError
from .model import ModelParams
from .scattering import MAX_QUADRATURE_NODES, sigma_samples
from .scattering import sigma as sigma_cf
from .solutions import SpectralPoint, eval_derivative, eval_L, eval_M, wronskian
from .spectral import bound_states, resolvent_kernel, spectral_density_kernel, wronskian_roots
from .specfun import gauss_2f1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(argparse.ArgumentTypeError, ValueError):
    """A bad argument; as an argparse type error it keeps its message in the usage line."""


def _fmt(v) -> str:
    """One artifact value as text: a scalar in the artifact format, text unchanged."""
    if isinstance(v, str):
        return v
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
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


def _finite_float(part, text=None) -> float:
    """float(part), where part is a flag value or a piece of the argument text;
    raises UsageError unless it is finite."""
    where = "" if text is None else f" in {text!r}"
    try:
        value = float(part)
    except ValueError as exc:
        raise UsageError(f"bad number {part!r}{where}") from exc
    if not math.isfinite(value):
        raise UsageError(f"{part!r}{where} is not finite")
    return value


def parse_range(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive endpoints) or a bare scalar, both finite;
    a count above MAX_QUADRATURE_NODES is refused before any grid is allocated."""
    if ":" not in text:
        return np.array([_finite_float(text)])
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad range {text!r}, expected start:stop:count")
    start, stop = _finite_float(parts[0], text), _finite_float(parts[1], text)
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}") from exc
    if count < 2:
        raise UsageError(f"range count must be >= 2, got {count}")
    if count > MAX_QUADRATURE_NODES:
        raise UsageError(f"range count must be <= {MAX_QUADRATURE_NODES:.0e}, got {count}")
    if not stop > start:
        raise UsageError(f"range must be increasing, got {text!r}")
    return np.linspace(start, stop, count)


def parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"bad complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise UsageError(f"{text!r} is not finite")
    return value


def _config_argv(path: str) -> list[str]:
    """The JSON object in path as --name=value tokens (mu_grid and mu-grid both
    give --mu-grid), for the parser to read after the command line: a config
    value overrides its flag and passes the flag's own checks."""
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError("config file must contain a JSON object")
    tokens = []
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise UsageError(f"config value {flag}={json.dumps(value)} is not a number or a string")
        tokens.append(f"{flag}={value}")
    return tokens


def _params(args) -> ModelParams:
    return ModelParams(args.mu, args.nu)


def _write_text(out_path: str | None, text: str):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from exc


def _csv_lines(header: list[str], rows) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\r\n" for row in [header, *rows])


# ---------------------------------------------------------------------------
# subcommands


def cmd_sigma(args) -> tuple[int, str]:
    samples = sigma_samples(_params(args), args.k)
    rows = [(s.k, s.sigma.real, s.sigma.imag, s.phase) for s in samples]
    return EXIT_OK, _csv_lines(["k", "sigma_re", "sigma_im", "phase"], rows)


def cmd_bound_states(args) -> tuple[int, str]:
    rep = bound_states(_params(args))
    payload = {"count": rep.count, "levels": [{"zeta": lv.zeta, "energy": lv.energy} for lv in rep.levels]}
    return EXIT_OK, _json_dump(payload) + "\n"


def cmd_density(args) -> tuple[int, str]:
    p = _params(args)
    rows = [
        (k, x, y, spectral_density_kernel(p, float(k), float(x), float(y)).real)
        for k, x, y in itertools.product(args.k, args.x, args.y)
    ]
    return EXIT_OK, _csv_lines(["k", "x", "y", "p"], rows)


def cmd_kernel(args) -> tuple[int, str]:
    p = _params(args)
    if args.kind == "resolvent":
        pt = SpectralPoint.interior(args.zeta)
    else:
        pt = SpectralPoint.boundary(args.k, args.side)
    rows = []
    for x, y in itertools.product(args.x, args.y):
        v = resolvent_kernel(p, pt, float(x), float(y))
        rows.append((x, y, v.real, v.imag))
    return EXIT_OK, _csv_lines(["x", "y", "re", "im"], rows)


def cmd_winding(args) -> tuple[int, str]:
    rep = index_mod.verify_index(_params(args)).to_json_dict()
    fields = ("mu", "nu", "omega", "winding_closed", "winding_numeric")
    return EXIT_OK, _json_dump({f: rep[f] for f in fields}) + "\n"


def cmd_verify_index(args) -> tuple[int, str]:
    mus = [args.mu] if args.mu_grid is None else args.mu_grid
    nus = [args.nu] if args.nu_grid is None else args.nu_grid
    reports = [index_mod.verify_index(ModelParams(float(mu), float(nu))) for mu, nu in itertools.product(mus, nus)]
    text = _json_dump([r.to_json_dict() for r in reports]) + "\n"
    return (EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL), text


def cmd_oracle_check(args) -> tuple[int, str]:
    p = _params(args)
    pt = SpectralPoint.interior(args.zeta)
    rows = []

    xs = np.linspace(0.5, 6.0, 24)
    u, du = oracle_mod.integrate_regular(p, -(pt.zeta**2), np.append(xs, 2.0), tol=1e-11)
    u, u1, du1 = u[:-1], u[-1], du[-1]
    lv = eval_L(p, xs, pt)
    const = np.vdot(lv, u) / np.vdot(lv, lv)
    rows.append(("regular_solution_vs_ode", float(np.max(np.abs(u - const * lv) / np.abs(u))), 1e-7))

    w_num = u1 * eval_derivative(p, 2.0, pt, "M") - du1 * eval_M(p, 2.0, pt)
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
    code = EXIT_OK if all(st == "pass" for *_, st in table) else EXIT_VERIFY_FAIL
    return code, _csv_lines(["check", "discrepancy", "tolerance", "status"], table)


def cmd_eval_2f1(args) -> tuple[int, str]:
    val = gauss_2f1(args.a, args.b, args.c, args.z)
    return EXIT_OK, _json_dump({"re": val.real, "im": val.imag}) + "\n"


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse takes a token that starts with '-' for an option name unless it
    matches its negative-number pattern, a plain decimal; this one widens the
    pattern so that -1e-3, -1.5+0.5j and -1:2:3 are the value of the flag
    before them.  A flag is matched only in full, so a --config key is a flag
    or an error, and an error is a UsageError, one line on stderr.
    Subcommand parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.eE+\-j:]*$")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    ap = _Parser(
        prog="halfscatter",
        description="Spectral/scattering evaluations for the solvable hyperbolic well on the half-line",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, mu_nu):
        """The subcommand's parser: --mu and --nu if mu_nu, then --out and --config; func computes its artifact."""
        sp = sub.add_parser(name, help=summary)
        if mu_nu:
            sp.add_argument("--mu", type=_finite_float, default=0.5)
            sp.add_argument("--nu", type=_finite_float, default=0.5)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--config", default=None, help="JSON file overriding flags")
        sp.set_defaults(func=func)
        return sp

    sp = command("sigma", cmd_sigma, "scattering-function sweep as CSV", True)
    sp.add_argument("--k", type=parse_range, required=True, help="k grid, start:stop:count")

    command("bound-states", cmd_bound_states, "bound-state report as JSON", True)

    sp = command("density", cmd_density, "spectral density samples as CSV", True)
    sp.add_argument("--k", type=parse_range, required=True)
    sp.add_argument("--x", type=parse_range, required=True)
    sp.add_argument("--y", type=parse_range, required=True)

    sp = command("kernel", cmd_kernel, "resolvent kernel samples as CSV", True)
    sp.add_argument("--kind", choices=("resolvent", "boundary"), default="resolvent")
    sp.add_argument("--zeta", type=parse_complex, default="1.5+0.5j", help="interior spectral parameter")
    sp.add_argument("--k", type=_finite_float, default=1.0, help="boundary momentum")
    sp.add_argument("--side", choices=("+", "-"), default="+")
    sp.add_argument("--x", type=parse_range, required=True)
    sp.add_argument("--y", type=parse_range, required=True)

    command("winding", cmd_winding, "winding contributions for one parameter pair", True)

    sp = command("verify-index", cmd_verify_index, "index-theorem verification over a grid", True)
    sp.add_argument("--mu-grid", type=parse_range, default=None, help="mu range start:stop:count")
    sp.add_argument("--nu-grid", type=parse_range, default=None, help="nu range start:stop:count")

    sp = command("oracle-check", cmd_oracle_check, "closed forms vs ODE oracle discrepancy table", True)
    sp.add_argument("--zeta", type=parse_complex, default="1.5+0.5j")

    sp = command("eval-2f1", cmd_eval_2f1, "single Gauss 2F1 value as JSON", False)
    sp.add_argument("--a", type=parse_complex, required=True)
    sp.add_argument("--b", type=parse_complex, required=True)
    sp.add_argument("--c", type=parse_complex, required=True)
    sp.add_argument("--z", type=_finite_float, required=True)

    return ap


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """A parser of --config alone, for the path before the full parse: the
    file's tokens then join the command line, so it can supply a required flag."""
    pre = _Parser(prog="halfscatter", add_help=False)
    pre.add_argument("--config", default=None)
    return pre


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = _config_parser().parse_known_args(argv)[0].config
        args = parser.parse_args([*argv, *_config_argv(config)] if config else argv)
        code, text = args.func(args)  # every command's artifact is written here, after it returns
        _write_text(args.out, text)
        return code
    except SystemExit:  # --help; every other argparse exit is a UsageError
        return EXIT_OK
    except (UsageError, DomainError) as exc:  # every DomainError here comes from an argument
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HalfScatterError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
