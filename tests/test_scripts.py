"""Smoke test of the scripts under scripts/."""

from __future__ import annotations

import importlib.util

import pytest

from .conftest import REPO

SCRIPT = REPO / "scripts" / "run_adaptation_benchmark.py"


def _script():
    spec = importlib.util.spec_from_file_location("run_adaptation_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adaptation_benchmark_runs_without_violations(capsys):
    assert _script().main(["--pairs", "2", "--horizon", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "pairs:            2" in out
    assert "violations:       0" in out


@pytest.mark.parametrize("flag, text, message", [
    ("--reward", '{"S0": 1.0', "{f}: invalid JSON: "),
    ("--reward", None, "[Errno 2] No such file or directory: '{f}'"),
    ("--opponent", '{"S2": {"d": 1.0', "{f}: invalid JSON: "),
    ("--opponent", '{"ZZ": {"d": 1.0}}', "unknown state 'ZZ'"),
    ("--opponent", '{"S2": {"zz": 1.0}}', "unknown player-2 action 'zz' at state 'S2'"),
], ids=["reward-bad-json", "reward-missing", "opponent-bad-json", "opponent-other-game",
        "opponent-unknown-action"])
def test_adaptation_benchmark_bad_input_exits_2(capsys, tmp_path, flag, text, message):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert _script().main([flag, str(path), "--pairs", "1", "--horizon", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message.replace('{f}', str(path))}")


def test_adaptation_benchmark_needs_a_pair(capsys):
    with pytest.raises(SystemExit) as e:
        _script().main(["--pairs", "0"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith("error: --pairs must be at least 1\n")
