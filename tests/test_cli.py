"""CLI contract: output formats, exit codes, determinism."""

import json

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


def test_verify_index_fails_with_bad_truncation(tmp_path):
    # k_max far too small: the tail correction picks the wrong branch and the
    # numeric winding misses the count
    rc, text = run(tmp_path, "verify-index", "--mu", "0", "--nu", "5", "--k-max", "0.2")
    assert rc == EXIT_VERIFY_FAIL
    reports = json.loads(text)
    assert reports[0]["pass"] is False


def test_malformed_range_exits_2(tmp_path):
    rc, _ = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "nonsense")
    assert rc == EXIT_USAGE
    rc, _ = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "1:2:1")
    assert rc == EXIT_USAGE


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_numerical_failure_exits_3(tmp_path):
    # resolvent kernel exactly at an eigenvalue
    rc, _ = run(
        tmp_path, "kernel", "--mu", "0", "--nu", "3", "--kind", "resolvent",
        "--zeta", "2.0", "--x", "1.0", "--y", "1.0",
    )
    assert rc == EXIT_NUMERIC


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


def test_float_format_17_digits(tmp_path):
    rc, text = run(tmp_path, "sigma", "--mu", "0", "--nu", "3", "--k", "0.1:1:2")
    row = rows_of(text)[1].split(",")
    # round-trip exactness of the printed k value
    assert float(row[0]) == 0.1
