"""Smoke tests: the fast example scripts run end to end."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "application results" in out
        assert "board activity" in out

    def test_custom_application(self):
        out = _run("custom_application.py")
        assert "goal number" in out
        assert "vision" in out

    def test_faas_serverless(self):
        out = _run("faas_serverless.py")
        assert "registered functions" in out
        assert "SLO met" in out

    def test_trace_analysis(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "trace_analysis.py"),
             str(tmp_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "utilization over" in proc.stdout
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "trace.json").exists()

    def test_scaleout_cluster(self):
        out = _run("scaleout_cluster.py")
        assert "least_loaded (s)" in out
        # Round-robin over four boards spreads 20 arrivals evenly.
        assert "5/5/5/5" in out

    @pytest.mark.parametrize(
        "script", ["cloud_multitenant.py", "realtime_deadlines.py"]
    )
    def test_scripts_importable(self, script):
        # The heavier examples are compile-checked rather than executed to
        # keep the unit suite fast; the bench/CLI layers execute the same
        # code paths.
        source = (EXAMPLES / script).read_text(encoding="utf-8")
        compile(source, script, "exec")
