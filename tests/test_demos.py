"""The demo scripts run to completion and leave nothing in the directory they
run from; the power-chain construction that demo 06 defines is checked here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_instance

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


def load_demo(name):
    """A demo script as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "demos" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPeriodicityReduction:
    reduce = staticmethod(load_demo("06_reductions.py").periodicity_reduction)

    def test_m1(self):
        ins = make_instance("Xa=aX")
        out = self.reduce(ins, 1)
        assert len(out.equations) == 2
        extra = out.equations[-1]
        assert extra.lhs == ("X",) and len(extra.rhs) == 3

    def test_m2_chain(self):
        ins = make_instance("Xa=aX")
        out = self.reduce(ins, 2)
        assert len(out.equations) == 3
        x1 = out.equations[1].rhs[1]
        last = out.equations[2]
        assert last.lhs == (x1,)
        assert last.rhs == (last.rhs[0],) * 2

    def test_variable_count_grows_by_m_plus_2(self):
        ins = make_instance("XabY=YbaX")
        for m in (1, 2, 3):
            out = self.reduce(ins, m)
            assert len(out.symbols.variables) == len(ins.symbols.variables) + m + 2

    def test_fresh_names_reserved(self):
        out = self.reduce(make_instance("Xa=aX"), 2)
        fresh = set(out.symbols.variables) - {"X"}
        assert all(v.startswith("$") for v in fresh)
