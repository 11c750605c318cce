"""Smoke test: demos that call the public API run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_thresholds_and_decay.py",
    "03_attention_kernel_dichotomy.py",
    "04_bounded_confidence_dichotomy.py",
    "07_sharp_inequalities.py",
    "08_loggas_hierarchy.py",
])
def test_demo_exits_zero(demo, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir())
