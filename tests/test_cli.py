"""CLI contract: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from halfscatter.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main, parse_range


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main([*argv, "--out", str(out)])
    return rc, out.read_text(encoding="utf-8") if out.exists() else ""


def rows_of(text):
    return text.strip().splitlines()


def test_parse_range():
    assert np.allclose(parse_range("0.5:2.5:5"), [0.5, 1.0, 1.5, 2.0, 2.5])
    assert parse_range("3.25").tolist() == [3.25]
    from halfscatter.cli import UsageError

    with pytest.raises(UsageError):
        parse_range("1:2")
    with pytest.raises(UsageError):
        parse_range("0:1:1")
    with pytest.raises(UsageError):
        parse_range("2:1:5")


def test_sigma_free_case(tmp_path):
    rc, text = run(tmp_path, "sigma", "--mu", "0.5", "--nu", "0.5", "--k", "0.1:10:100")
    assert rc == EXIT_OK
    lines = rows_of(text)
    assert lines[0] == "k,sigma_re,sigma_im,phase"
    assert len(lines) == 101
    for line in lines[1:]:
        k, re, im, ph = (float(v) for v in line.split(","))
        assert abs(re - 1) < 1e-12 and abs(im) < 1e-12 and abs(ph) < 1e-12


def test_sigma_phase_near_pi_at_small_k(tmp_path):
    rc, text = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "0.001:0.1:50")
    assert rc == EXIT_OK
    rows = [line.split(",") for line in rows_of(text)[1:]]
    phases = np.array([float(r[3]) for r in rows])
    assert abs(abs(phases[0]) - np.pi) < 0.01


def test_bound_states_json(tmp_path):
    rc, text = run(tmp_path, "bound-states", "--mu", "0", "--nu", "5")
    assert rc == EXIT_OK
    assert text.strip() == '{"count":2,"levels":[{"zeta":4,"energy":-16},{"zeta":2,"energy":-4}]}'


def test_density_free_case(tmp_path):
    rc, text = run(tmp_path, "density", "--mu", "0.5", "--nu", "0.5", "--k", "1", "--x", "1", "--y", "1")
    assert rc == EXIT_OK
    lines = rows_of(text)
    assert lines[0] == "k,x,y,p"
    _, _, _, p = lines[1].split(",")
    assert abs(float(p) - np.sin(1.0) ** 2 / np.pi) < 1e-12


def test_kernel_csv(tmp_path):
    rc, text = run(
        tmp_path, "kernel", "--mu", "1", "--nu", "2", "--kind", "resolvent",
        "--zeta", "1.5+0.5j", "--x", "0.5:2:4", "--y", "1.0",
    )
    assert rc == EXIT_OK
    lines = rows_of(text)
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 5


def test_verify_index_single_pair(tmp_path):
    rc, text = run(tmp_path, "verify-index", "--mu", "0", "--nu", "3")
    assert rc == EXIT_OK
    reports = json.loads(text)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["pass"] is True
    assert rep["bound_count"] == 1
    assert abs(rep["winding_numeric"] - 1) < 1e-6
    assert rep["omega"] == [-0.5, 1.25, 0.25, 0.0]


def test_verify_index_grid(tmp_path):
    rc, text = run(tmp_path, "verify-index", "--mu-grid", "0:2:3", "--nu-grid", "0:5:6")
    assert rc == EXIT_OK
    reports = json.loads(text)
    assert len(reports) == 18
    assert all(r["pass"] for r in reports)


def test_verify_index_fails_with_bad_truncation(tmp_path, monkeypatch):
    # K_EDGE far too small: the tail correction picks the wrong branch and the
    # numeric winding misses the count
    monkeypatch.setattr("halfscatter.index.K_EDGE", 0.2)
    rc, text = run(tmp_path, "verify-index", "--mu", "0", "--nu", "5")
    assert rc == EXIT_VERIFY_FAIL
    reports = json.loads(text)
    assert reports[0]["pass"] is False


def test_malformed_range_exits_2(tmp_path, capsys):
    rc, _ = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "nonsense")
    assert rc == EXIT_USAGE
    rc, _ = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "1:2:1")
    assert rc == EXIT_USAGE
    capsys.readouterr()
    # a count too large to allocate is refused before linspace, not a MemoryError traceback and exit 1
    rc, _ = run(tmp_path, "density", "--mu", "0", "--nu", "3", "--k", "1", "--x", "0.1:1:1000000000000", "--y", "1")
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_non_finite_parameter_writes_no_rows(tmp_path):
    rc, text = run(tmp_path, "sigma", "--mu", "nan", "--nu", "1", "--k", "1:2:2")
    assert rc != EXIT_OK
    assert text == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--mu", "0", "--nu", "3", "--k", "nan"],
        ["sigma", "--mu", "0", "--nu", "3", "--k", "0:inf:3"],
        ["kernel", "--mu", "1", "--nu", "2", "--zeta", "nan+1j", "--x", "1", "--y", "2"],
        ["winding", "--mu", "nan", "--nu", "3"],
        ["winding", "--mu", "0", "--nu", "inf"],
        ["verify-index", "--mu", "1", "--nu-grid", "0:inf:3"],
        ["kernel", "--mu", "1", "--nu", "2", "--kind", "boundary", "--k", "nan", "--x", "1", "--y", "2"],
        ["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "nan"],
        ["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "-1e400"],
    ],
)
def test_non_finite_argument_exits_2(tmp_path, argv):
    rc, text = run(tmp_path, *argv)
    assert rc == EXIT_USAGE
    assert text == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval-2f1", "--a", "-1e-3", "--b", "1", "--c", "2", "--z", "0.5"],
        ["eval-2f1", "--a", "-0.5+2j", "--b", "-2j", "--c", "2.5-1e-1j", "--z", "0.25"],
        ["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "-1e-3"],
        ["kernel", "--mu", "1", "--nu", "2", "--zeta", "-1.5+0.5j", "--x", "1", "--y", "2"],
        ["kernel", "--mu", "1", "--nu", "2", "--zeta", "1.5-0.5j", "--x", "1", "--y", "2"],
    ],
)
def test_negative_value_after_flag(tmp_path, capsys, argv):
    # parsed as with --flag=value: argparse alone took -1e-3 for an option name and exited 2
    joined = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if joined[i][0] == "-" and joined[i][1] != "-":
            joined[i - 1 : i + 1] = [f"{joined[i - 1]}={joined[i]}"]
    rc, text = run(tmp_path, *argv)
    if "-1.5+0.5j" in argv:  # the parsed zeta reaches the domain check, which names it
        assert capsys.readouterr().err == "error: interior spectral point needs Re(zeta) > 0, got (-1.5+0.5j)\n"
    elif argv[-2:] == ["--z", "-1e-3"]:  # the parsed z reaches the 2F1 domain check
        assert capsys.readouterr().err == "error: hyp2f1 argument must lie in [0, 1)\n"
    else:
        assert rc != EXIT_USAGE
    assert (rc, text) == run(tmp_path, *joined)


@pytest.mark.parametrize("override", ['{"nu": Infinity}', '{"mu": -Infinity}', '{"mu": NaN}', '{"nu": [1]}'])
def test_non_finite_config_value_exits_2(tmp_path, override):
    # json reads NaN and Infinity; a --config value passes the same check as its flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(override, encoding="utf-8")
    rc, text = run(tmp_path, "winding", "--mu", "0", "--nu", "3", "--config", str(cfg))
    assert rc == EXIT_USAGE
    assert text == ""


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_edge_truncation_is_not_a_flag(capsys):
    # K_EDGE and S_MAX are constants of halfscatter.index
    assert main(["winding", "--mu", "0", "--nu", "3", "--k-max", "1"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_numerical_failure_exits_3(tmp_path):
    # resolvent kernel exactly at an eigenvalue
    rc, _ = run(
        tmp_path, "kernel", "--mu", "0", "--nu", "3", "--kind", "resolvent",
        "--zeta", "2.0", "--x", "1.0", "--y", "1.0",
    )
    assert rc == EXIT_NUMERIC


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--mu", "-1", "--k", "1:2:3"],
        ["sigma", "--k", "0:1:3"],
        ["density", "--k", "0:1:3", "--x", "1", "--y", "1"],
        ["density", "--k", "1", "--x", "0:1:3", "--y", "1"],
        ["kernel", "--kind", "boundary", "--k", "-1", "--x", "1", "--y", "1"],
        ["kernel", "--zeta", "-1+0j", "--x", "1", "--y", "1"],
        ["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "1.5"],
        ["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "1"],
    ],
)
def test_out_of_domain_argument_exits_2(capsys, argv):
    # a DomainError on a command's path comes from its arguments: a usage error, one stderr line
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_solution_out_of_double_range_exits_3(capsys):
    # L(3) at zeta = 300 overflows, as does F(300, 300; 1.5; 0.999): a typed
    # error with no RuntimeWarning, not rows of nan
    for argv in [
        ["kernel", "--mu", "0", "--nu", "3", "--kind", "resolvent", "--zeta", "300", "--x", "3:3.2:2", "--y", "3.1"],
        ["eval-2f1", "--a", "300", "--b", "300", "--c", "1.5", "--z", "0.999"],
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_NUMERIC
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


def test_density_and_kernel_row_order(tmp_path):
    # one row per grid point, nested in order: k, then x, then y innermost
    grids = {"k": "0.5:2:3", "x": "0.4:2:4", "y": "0.7:1.5:2"}
    for argv, axes in [
        (["density", "--mu", "1", "--nu", "2"], ("k", "x", "y")),
        (["kernel", "--mu", "1", "--nu", "2", "--kind", "resolvent"], ("x", "y")),
        (["kernel", "--mu", "1", "--nu", "2", "--kind", "boundary", "--k", "1.3"], ("x", "y")),
    ]:
        flags = [f for ax in axes for f in (f"--{ax}", grids[ax])]
        rc, text = run(tmp_path, *argv, *flags)
        assert rc == EXIT_OK
        rows = np.array([[float(v) for v in line.split(",")] for line in rows_of(text)[1:]])
        mesh = np.meshgrid(*(parse_range(grids[ax]) for ax in axes), indexing="ij")
        expect = np.stack([m.ravel() for m in mesh], axis=1)
        assert rows.shape[0] == expect.shape[0]
        assert np.array_equal(rows[:, : len(axes)], expect)


def test_deterministic_output(tmp_path):
    args = ["sigma", "--mu", "1", "--nu", "2.5", "--k", "0.2:8:40"]
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 5.0}), encoding="utf-8")
    out = tmp_path / "o.json"
    rc = main(["bound-states", "--mu", "0", "--nu", "3", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["count"] == 2


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    assert main(["bound-states", "--config", str(cfg)]) == EXIT_USAGE


def test_config_file_supplies_a_required_flag(tmp_path, capsys):
    # the file's path is read before the full parse, so it can stand in for --k
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "1:2:3"}), encoding="utf-8")
    assert main(["sigma", "--mu", "0", "--nu", "3", "--config", str(cfg)]) == EXIT_OK
    from_config = capsys.readouterr().out
    assert main(["sigma", "--mu", "0", "--nu", "3", "--k", "1:2:3"]) == EXIT_OK
    assert from_config == capsys.readouterr().out != ""


@pytest.mark.parametrize("config", [{"k": "1:2:3", "bogus": 1}, {"mu": 0}], ids=["unknown-key", "required-missing"])
def test_config_file_with_required_flag_errors(tmp_path, capsys, config):
    # an unknown key, or a required flag in neither place: one usage line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sigma", "--nu", "3", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert ("--bogus" if "bogus" in config else "--k") in captured.err


def test_eval_2f1(tmp_path):
    rc, text = run(tmp_path, "eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5")
    assert rc == EXIT_OK
    val = json.loads(text)
    assert abs(val["re"] - 2 * np.log(2)) < 1e-14 and val["im"] == 0


def test_oracle_check_passes(tmp_path):
    rc, text = run(tmp_path, "oracle-check", "--mu", "1", "--nu", "2")
    assert rc == EXIT_OK
    lines = rows_of(text)
    assert lines[0] == "check,discrepancy,tolerance,status"
    assert all(line.endswith(",pass") for line in lines[1:])


# One fresh interpreter runs every command in turn and prints which of the two
# scipy subpackages are loaded after each stage.
_SOLVER_STACK_PROBE = """
import json, os, sys
import halfscatter
from halfscatter.cli import main

def heavy():
    return sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules)

out = os.path.join(sys.argv[1], "out.txt")
stages = [("import", 0, heavy())]
for argv in json.loads(sys.argv[2]):
    stages.append((argv[0], main([*argv, "--out", out]), heavy()))
print(json.dumps(stages))
"""


def test_no_command_loads_the_solver_stack(tmp_path):
    # the oracle integrates with its own DOP853 port and wronskian_roots refines with its own
    # Brent step, so scipy.integrate and scipy.optimize stay unloaded, oracle-check included
    argvs = [
        ["density", "--mu", "0.5", "--nu", "0.5", "--k", "1", "--x", "1", "--y", "1"],
        ["kernel", "--mu", "1", "--nu", "2", "--kind", "resolvent", "--x", "0.2:1:2", "--y", "1"],
        ["kernel", "--mu", "1", "--nu", "2", "--kind", "boundary", "--k", "1.3", "--x", "0.2:1:2", "--y", "1"],
        ["sigma", "--mu", "0", "--nu", "3", "--k", "0.5:1:2"],
        ["verify-index", "--mu", "0", "--nu", "3"],
        ["winding", "--mu", "0", "--nu", "3"],
        ["bound-states", "--mu", "0", "--nu", "5"],
        ["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5"],
        ["oracle-check", "--mu", "1", "--nu", "2"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVER_STACK_PROBE, str(tmp_path), json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    stages = json.loads(proc.stdout)
    assert [name for name, _, _ in stages] == ["import"] + [argv[0] for argv in argvs]
    for name, rc, loaded in stages:
        assert rc == EXIT_OK and loaded == [], name


def test_float_format_17_digits(tmp_path):
    rc, text = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "0.1:1:2")
    row = rows_of(text)[1].split(",")
    # round-trip exactness of the printed k value
    assert float(row[0]) == 0.1


@pytest.mark.parametrize(
    "argv, override",
    [
        (["kernel", "--kind", "boundary", "--x", "1", "--y", "1"], {"side": "x"}),
        (["kernel", "--kind", "boundary", "--x", "1", "--y", "1"], {"kind": "foo"}),
        (["bound-states"], {"func": 1}),
        (["bound-states"], {"command": "sigma"}),
        (["bound-states"], {"out": None}),
        (["bound-states"], {"mu": True}),
    ],
    ids=["side", "kind", "func", "command", "out-null", "mu-true"],
)
def test_config_value_is_parsed_as_its_flag(tmp_path, capsys, argv, override):
    # a config key is a flag of the subcommand and its value passes that flag's
    # checks: one usage line that names the flag, no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override), encoding="utf-8")
    rc, text = run(tmp_path, *argv, "--config", str(cfg))
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert text == "" and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert f"--{next(iter(override))}" in lines[0]


def test_unwritable_out_exits_2(tmp_path, capsys):
    rc = main(["bound-states", "--out", str(tmp_path / "missing" / "f.json")])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


# one small argv per subcommand, with its exit code; K_EDGE = 0.2 makes verify-index fail (exit 1)
_ONE_PER_COMMAND = [
    (["sigma", "--mu", "0", "--nu", "3", "--k", "0.5:1:3"], None, EXIT_OK),
    (["bound-states", "--mu", "0", "--nu", "5"], None, EXIT_OK),
    (["density", "--mu", "1", "--nu", "2", "--k", "1", "--x", "0.5:1:2", "--y", "1"], None, EXIT_OK),
    (["kernel", "--mu", "1", "--nu", "2", "--x", "0.5:1:2", "--y", "1"], None, EXIT_OK),
    (["winding", "--mu", "0", "--nu", "3"], None, EXIT_OK),
    (["verify-index", "--mu", "0", "--nu", "5"], None, EXIT_OK),
    (["verify-index", "--mu", "0", "--nu", "5"], 0.2, EXIT_VERIFY_FAIL),
    (["oracle-check", "--mu", "1", "--nu", "2"], None, EXIT_OK),
    (["eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5"], None, EXIT_OK),
]


@pytest.mark.parametrize("argv, k_edge, code", _ONE_PER_COMMAND, ids=[f"{a[0]}-exit{c}" for a, _, c in _ONE_PER_COMMAND])
def test_out_file_gets_the_stdout_bytes(tmp_path, capsys, monkeypatch, argv, k_edge, code):
    # main writes every command's artifact in one place: --out FILE receives exactly the bytes
    # that stdout receives without it, with the same exit code, a failed verification included
    if k_edge is not None:
        monkeypatch.setattr("halfscatter.index.K_EDGE", k_edge)
    assert main(argv) == code
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout != b""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["kernel", "--mu", "0", "--nu", "3", "--zeta", "2.0", "--x", "1", "--y", "1"], EXIT_NUMERIC),
        (["eval-2f1", "--a", "300", "--b", "300", "--c", "1.5", "--z", "0.999"], EXIT_NUMERIC),
        (["sigma", "--mu", "0", "--nu", "3", "--k", "0:1:3"], EXIT_USAGE),
    ],
    ids=["kernel-at-eigenvalue", "eval-2f1-overflow", "sigma-k-zero"],
)
def test_a_failing_command_writes_nothing(tmp_path, capsys, argv, code):
    # a command that raises returns no artifact: neither stdout nor the --out file is written
    out = tmp_path / "artifact"
    assert main(argv) == code
    assert capsys.readouterr().out == ""
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize("mu, nu", [(0.0, 3.0), (2.0, 0.5)], ids=["beta-negative-integer", "beta-positive"])
def test_winding_is_the_verify_index_report(capsys, mu, nu):
    pair = ["--mu", str(mu), "--nu", str(nu)]
    assert main(["winding", *pair]) == EXIT_OK
    winding = json.loads(capsys.readouterr().out)
    assert main(["verify-index", *pair]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)[0]
    assert list(winding) == ["mu", "nu", "omega", "winding_closed", "winding_numeric"]
    assert winding == {key: report[key] for key in winding}
