"""The narrative demos run to completion against the current library.

Demo 04 (Monte Carlo tables) takes tens of seconds and is left out; the
acceptance suite runs the same Monte Carlo paths.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import npivband

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(npivband.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_bspline_bases.py",
        "02_adaptive_fit_and_bands.py",
        "03_trade_elasticity.py",
        "05_additive_and_partially_linear.py",
    ],
)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, str(DEMOS / script)], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
