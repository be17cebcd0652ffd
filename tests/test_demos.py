"""The quick demos run to completion as scripts against this checkout's sources.

Demos 04 (policy comparison) and 05 (algorithm selection) take several
seconds each, so they are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = (
    "01_ranking_model_basics.py",
    "02_likelihood_and_gradients.py",
    "03_online_estimation.py",
    "06_feature_preprocessing.py",
)


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
