"""Every demo script runs to completion in a fresh interpreter, and a demo
that drives the CLI fails with the code of its first failing stage.  The
benchmark's traced calls still name functions of the package."""

import glob
import importlib
import importlib.util
import os
import runpy
import subprocess
import sys
import tempfile

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []  # a demo removes its temp dirs


CLI_DEMOS = [p for p in DEMOS if os.path.basename(p).startswith(("01_", "04_"))]


@pytest.mark.parametrize("script", CLI_DEMOS, ids=[os.path.basename(p) for p in CLI_DEMOS])
def test_demo_exits_with_first_failing_stage_code(script, tmp_path, monkeypatch):
    calls = []

    def failing_main(argv):
        calls.append(argv[0])
        return 2

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the demo prepends src/
    monkeypatch.setattr("critcf.cli.main", failing_main)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(script, run_name="__main__")
    assert exc.value.code == 2
    assert len(calls) == 1  # later stages do not run


def test_perfbench_wraps_calls_that_exist():
    """perfbench/spans.py wraps critcf functions by (module, qualified name); a
    layer renamed or deleted in the package would silently leave its trace."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = set()
    for module_name, qualname, _ in spans.STAGE_CALLS + spans.LAYER_CALLS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add("%s.%s" % (module_name, qualname))
    # The fused loss kernel replaced this function; spans.py still lists it.
    assert unresolved == {"critcf.losses.bounded_regression_total_loss"}
