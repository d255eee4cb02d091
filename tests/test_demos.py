"""Every demo runs to the end and leaves nothing in the temp directory.

Demos 01 and 02 take about a second each. Demo 03 trains three students and
takes about 30 s on a 2-core x86 host, which keeps its calls to the package
checked against the package's current forms.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_corpus_and_noise.py", "02_losses_and_gradients.py",
                                  "03_two_stage_training.py"])
def test_demo_runs_and_cleans_up(demo, tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = {**os.environ, "TMPDIR": str(scratch),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as in conftest.py
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(scratch.iterdir()) == []
