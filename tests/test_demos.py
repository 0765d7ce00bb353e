"""Every demo script runs to completion; several assert their own results."""

import glob
import os
import subprocess
import sys

import pytest

import rerail

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(DEMOS, "*.py"))),
                         ids=os.path.basename)
def test_demo_runs(script):
    # The child imports the same rerail package as this process.
    package_root = os.path.dirname(os.path.dirname(rerail.__file__))
    path = [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
