"""The benchmark's own code, checked from Tier-1.

The traced benchmark rebinds public linkform functions by name. Deleting or
renaming one of them breaks ``perfbench/run.py --trace 1``; the first test
makes that a Tier-1 failure. It imports the modules in place instead of
through ``workloads.fresh_import``, which would replace the linkform modules
that the other tests hold. For the same reason ``perfbench/selftest.py``,
which calls ``fresh_import`` at import time, runs in a subprocess.
"""

import importlib
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_install_spans_finds_every_rebound_name():
    lf = SimpleNamespace(**{name: importlib.import_module(f"linkform.{name}") for name in workloads.MODULES})
    original = lf.cli.load_scenario
    tracer = Tracer()
    try:
        workloads.install_spans(lf, tracer, workloads.PassStats(workloads.DynamicsStats(0, "")))
        assert lf.cli.load_scenario is not original
    finally:
        tracer.restore()
    assert lf.cli.load_scenario is original


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
