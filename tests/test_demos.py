"""The demo scripts run to completion and leave nothing in the directory they
run from."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_semigroup_zoo.py", "02_solution_graph.py", "03_pumping_certificates.py",
         "04_oracle_crosscheck.py", "05_suspect_hunt.py", "06_reductions.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
