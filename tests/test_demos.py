"""Every demo script runs to completion in a fresh interpreter."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # The demos leave their mkdtemp dirs behind; keep those under tmp_path.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
