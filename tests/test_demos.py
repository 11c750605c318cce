"""Smoke test: demos that call the public API run to the end, silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: demo -> the run directories it writes under ./runs; the others write
#: nothing
WRITES = {
    "02_rod_kernel_scan.py": ["demo_rod_scan"],
    "05_gradient_flow_rates.py": ["demo_flow_critical",
                                  "demo_flow_subcritical"],
}


@pytest.mark.parametrize("demo", [
    "01_thresholds_and_decay.py",
    "02_rod_kernel_scan.py",
    "03_attention_kernel_dichotomy.py",
    "04_bounded_confidence_dichotomy.py",
    "05_gradient_flow_rates.py",
    "07_sharp_inequalities.py",
    "08_loggas_hierarchy.py",
])
def test_demo_exits_zero(demo, tmp_path):
    """Runs the demo in an empty working directory, with RuntimeWarnings
    as errors as in the suite, and requires an empty stderr.  Demo 06,
    particles against the flow, is left out: it takes about 8 s, and C10
    runs the same comparison."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    runs = WRITES.get(demo, [])
    assert [p.name for p in tmp_path.iterdir()] == (["runs"] if runs else [])
    if runs:
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == runs
