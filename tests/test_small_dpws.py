"""Smoke test of the small-DPW sweep (scripts/small_dpws.py) on its 2-state, 2-colour slice."""

import os
import subprocess
import sys

SWEEP = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "small_dpws.py")

# the minimize outputs of the 192 inputs; a change to them changes this line
STATES_2_TOP_1 = ("e61d7e527d1f657971798c3678a3bfe9ca835e4b2fbbb7ceb5f925b2dca740c6 "
                  "192 inputs sizes 1:126 2:66 0 growers")


def test_sweep_of_two_state_dpws_with_colours_0_and_1():
    proc = subprocess.run([sys.executable, SWEEP, "--states", "2", "--top", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout == STATES_2_TOP_1 + "\n"
