"""The experiment scripts under scripts/ run to completion and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("index_sweep.py", (1.0, 2.0, 1.0)),
        ("resolvent_profiles.py", (1.0, 2.0, 1.5, 0.5)),
    ],
)
def test_script_exits_0(script, args, tmp_path):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sigma_phase_portrait_writes_csv(tmp_path):
    proc = _run("sigma_phase_portrait.py", tmp_path / "portrait", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    files = sorted((tmp_path / "portrait").glob("sigma_mu*_nu*.csv"))
    assert len(files) == 6
    assert files[0].read_text(encoding="utf-8").startswith("k,sigma_re,sigma_im,phase\n")
