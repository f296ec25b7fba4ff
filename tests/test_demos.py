"""Smoke test: every demo runs to completion as a script.

Each demo runs in its own process with the test's temporary directory as
working directory (demo 03 writes demo_dataset.csv there).  Demo 06 needs
the MNIST IDX files and runs only when MPSLAB_MNIST_DIR points at them.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    if demo.stem.startswith("06") and not os.environ.get("MPSLAB_MNIST_DIR"):
        pytest.skip("MPSLAB_MNIST_DIR not set")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
