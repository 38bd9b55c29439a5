"""Smoke test of the scripts under scripts/."""

from __future__ import annotations

import importlib.util

from .conftest import REPO


def test_adaptation_benchmark_runs_without_violations(capsys):
    path = REPO / "scripts" / "run_adaptation_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_adaptation_benchmark", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--pairs", "2", "--horizon", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "pairs:            2" in out
    assert "violations:       0" in out
