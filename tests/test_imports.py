"""mpslab needs numpy alone: importing the package, its CLI and the scan
harness, solving a linear system and writing a scan's outputs load no
scipy module and no ``xml.sax`` module.

The check runs in a fresh process, because this test session itself may
have imported either.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import numpy as np

import mpslab
import mpslab.cli
import mpslab.experiments
from mpslab.experiments import ExperimentConfig, emit_outputs, run_bond_scan

x = mpslab.solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
assert np.array_equal(x, [1.0, 1.0]), x
cfg = ExperimentConfig(chi_list=(2, 3), ntr_list=(40,), eps_list=(0.3,),
                       replicates=1, base_seed=11, n_test=32)
paths = emit_outputs(run_bond_scan(cfg), cfg, sys.argv[1])
assert set(paths) >= {"raw", "figure", "manifest"}, paths
for name in sorted(sys.modules):
    if name.split(".")[0] == "scipy" or name.startswith("xml.sax"):
        print(name)
"""


def test_no_scipy_or_xml_sax_loaded(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "figure.svg").is_file()
    assert proc.stdout.split() == []
