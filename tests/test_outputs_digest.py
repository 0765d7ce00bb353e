"""Smoke test of the output digest script (scripts/outputs_digest.py) on 20 inputs."""

import os
import subprocess
import sys

DIGEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "outputs_digest.py")

# the minimize outputs of the first 20 inputs; a change to them changes this line
FIRST_20 = "b08f31e8c8254176aef1fedaf52930207b9b2bb85895d692593c8392edc62f16 20 inputs 87 states"


def test_digest_of_20_inputs():
    proc = subprocess.run([sys.executable, DIGEST, "--count", "20"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == FIRST_20
