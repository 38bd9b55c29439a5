"""End-to-end command line checks: outputs, determinism and exit codes."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congame import NonConvergence, cli, strategies
from congame.cli import main

from . import pins
from .conftest import GAMES, GOLDENS, REPO, golden_text

BUCHI = str(GAMES / "buchi_cycle.json")
COBUCHI = str(GAMES / "cobuchi_stabilize.json")
SAFETY = str(GAMES / "safety_gadget.json")
TB = str(GAMES / "tb_handshake.json")
STRAT_B = str(GAMES / "strategy_buchi_nonmax.json")
STRAT_C = str(GAMES / "strategy_cobuchi_nonmax.json")
OPP = str(GAMES / "opponent_heavy_d.json")
REWARD = str(GAMES / "reward_s0.json")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def constant_rows(path, rows) -> str:
    """Write the strategy {state: {action: constant p}} to `path`."""
    path.write_text(json.dumps({v: {a: {"kind": "constant", "p": p} for a, p in row.items()}
                                for v, row in rows.items()}), encoding="utf-8")
    return str(path)


# P1's weights at the safety gadget's `g`: a share that underflows to 0.0,
# and a valid row whose weights sum past the float range
UNDERFLOW = {"g": {"s": 1e300, "u": 1e-300}, "t": {"s": 1}}
OVERFLOW = {"g": {"s": 1.7e308, "u": 1.7e308}, "t": {"s": 1}}


@pytest.fixture(scope="module")
def pin_problems() -> dict:
    """Each pinned command's mismatch, or None, from one in-process run of
    the table in `tests/pins.py`."""
    return {pin.name: problem for pin, problem in pins.check(pins.PINS)}


class TestPins:
    """Every golden, sha256 pin and exit code of `tests/pins.py`, one id per
    row; CI runs the same table through the installed `congame`."""

    @pytest.mark.parametrize("name", [pin.name for pin in pins.PINS])
    def test_row(self, pin_problems, name):
        assert pin_problems[name] is None

    def test_mismatches_are_named_and_exit_1(self, capsys):
        altered = {"solve-buchi": {"golden": "solve_cobuchi_stabilize.json"},
                   "adapt-long-greedy": {"sha256": "0" * 64}}
        table = [pin._replace(**altered.get(pin.name, {})) for pin in pins.PINS]
        assert pins.report(pins.check(table)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(table)
        assert [line.split()[1] for line in lines if line.startswith("FAIL")] == \
            ["solve-buchi:", "adapt-long-greedy:"]

    def test_empty_table_exits_1(self, capsys):
        assert pins.report(pins.check(())) == 1
        assert capsys.readouterr().out == "no pin ran\n"

    def test_installed_must_import_this_checkout(self, capsys, tmp_path, monkeypatch):
        shutil.copytree(REPO / "src", tmp_path / "src")
        for name, src in [("here", REPO / "src"), ("other", tmp_path / "src")]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "congame").write_text(
                f"#!/bin/sh\nPYTHONPATH='{src}' exec '{sys.executable}' -m congame.cli \"$@\"\n",
                encoding="utf-8")
            (tmp_path / name / "congame").chmod(0o755)
        assert pins.imports_this_checkout(str(tmp_path / "here" / "congame"))
        monkeypatch.setenv("PATH", str(tmp_path / "other"))
        assert pins.main(["--installed"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not import {REPO / 'src'}" in captured.err


class TestSolve:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        _, out = run(capsys, "solve", COBUCHI)
        path = tmp_path / "d.json"
        code, _ = run(capsys, "solve", COBUCHI, "-o", str(path))
        assert code == 0
        assert path.read_text(encoding="utf-8") == out
        assert out == golden_text("solve_cobuchi_stabilize.json")

    def test_missing_objective_is_input_error(self, capsys, tmp_path):
        raw = json.loads((GAMES / "buchi_cycle.json").read_text(encoding="utf-8"))
        del raw["objective"]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, _ = run(capsys, "solve", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "solve", "/nonexistent/game.json")
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _ = run(capsys, "solve", str(path))
        assert code == 2

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"states": ["\xe9"]}'.encode("latin-1"))
        assert main(["solve", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("states",), ["A", "B", 3], "states must be a list of strings"),
        (("p1_actions", "A"), [["a"], "b"], "p1_actions must map states to lists of strings"),
        (("transitions",), 5, "transitions must be a list"),
        (("states",), "ABC", "states must be a list of strings"),
        (("p1_actions", "A"), "ab", "p1_actions must map states to lists of strings"),
        (("objective", "target"), "AC", "objective target must be a list of strings"),
    ], ids=["int-state", "list-action", "int-transitions",
            "string-states", "string-actions", "string-target"])
    def test_malformed_game_is_input_error(self, capsys, tmp_path, path, value, message):
        # none may end in a traceback or be split into characters and solved
        raw = json.loads((GAMES / "buchi_cycle.json").read_text(encoding="utf-8"))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["solve", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_nonconvergence_maps_to_3(self, capsys, monkeypatch):
        import congame.cli as cli_mod
        def boom(g, obj):
            raise NonConvergence("forced")
        monkeypatch.setattr(cli_mod, "solve", boom)
        code, _ = run(capsys, "solve", BUCHI)
        assert code == 3


class TestTemplate:
    def test_deterministic(self, capsys):
        _, first = run(capsys, "template", COBUCHI)
        _, second = run(capsys, "template", COBUCHI)
        assert first == second


class TestComposeCli:
    def test_compose_with_self(self, capsys, tmp_path):
        tpl = tmp_path / "t.json"
        run(capsys, "template", BUCHI, "-o", str(tpl))
        code, out = run(capsys, "compose", BUCHI, str(tpl), str(tpl))
        assert code == 0
        raw = json.loads(out)
        assert raw["conflicts"]["conflict_free"] is True
        assert raw["template"]["winning"] == ["A", "B", "C"]

    def test_mismatched_template(self, capsys, tmp_path):
        tpl = tmp_path / "t.json"
        run(capsys, "template", COBUCHI, "-o", str(tpl))
        code, _ = run(capsys, "compose", BUCHI, str(tpl))
        assert code == 2


class TestExtractCheckVerify:
    def test_extract_then_check_compliant(self, capsys, tmp_path):
        tpl = tmp_path / "t.json"
        strat = tmp_path / "s.json"
        run(capsys, "template", COBUCHI, "-o", str(tpl))
        code, _ = run(capsys, "extract", COBUCHI, "-o", str(strat))
        assert code == 0
        code, out = run(capsys, "check", COBUCHI, str(tpl), str(strat))
        assert code == 0
        raw = json.loads(out)
        assert raw == {"template_conflict_free": True, "verdict": "compliant"}

    def test_extract_honors_parameters(self, capsys):
        _, out = run(capsys, "extract", BUCHI, "--eps-live", "0.2")
        raw = json.loads(out)
        assert raw["A"]["a"]["p"] == pytest.approx(0.6)

    def test_verify(self, capsys, tmp_path):
        code, out = run(capsys, "verify", COBUCHI, STRAT_C)
        assert code == 0
        raw = json.loads(out)
        assert raw["verified"] == ["S0", "S1", "S2", "S3", "S4"]
        assert raw["objective"]["kind"] == "cobuchi"

    def test_verify_rejects_geometric(self, capsys):
        code, _ = run(capsys, "verify", BUCHI, STRAT_B)
        assert code == 2

    @pytest.mark.parametrize("rows", [UNDERFLOW, OVERFLOW], ids=["underflow", "overflow"])
    def test_verify_and_check_read_the_positive_weights(self, capsys, tmp_path, rows):
        # `u` has positive weight and leads to the unsafe `t`, so `g` is lost
        strat = constant_rows(tmp_path / "s.json", rows)
        code, out = run(capsys, "verify", SAFETY, strat)
        assert code == 0
        assert json.loads(out)["verified"] == []
        tpl = tmp_path / "t.json"
        run(capsys, "template", SAFETY, "-o", str(tpl))
        code, out = run(capsys, "check", SAFETY, str(tpl), strat)
        assert code == 0
        assert json.loads(out) == {"clause": "unsafe", "state": "g",
                                   "template_conflict_free": True, "verdict": "noncompliant"}

    @pytest.mark.parametrize("command", ["check", "verify", "simulate"])
    def test_strategy_is_validated_once(self, capsys, tmp_path, monkeypatch, command):
        # counted wherever the name is bound, in the library or the CLI
        calls = []
        real = strategies.validate_strategy
        for module in (strategies, cli):
            monkeypatch.setattr(module, "validate_strategy",
                                lambda g, s: calls.append(s) or real(g, s), raising=False)
        tpl = tmp_path / "t.json"
        run(capsys, "template", COBUCHI, "-o", str(tpl))
        args = {"check": [str(tpl)], "verify": [], "simulate": []}[command]
        code, _ = run(capsys, command, COBUCHI, *args, STRAT_C)
        assert (code, len(calls)) == (0, 1)


class TestSimulateCli:
    def test_jsonl_output(self, capsys, tmp_path):
        strat = tmp_path / "s.json"
        run(capsys, "extract", COBUCHI, "-o", str(strat))
        code, out = run(
            capsys, "simulate", COBUCHI, str(strat),
            "--horizon", "50", "--episodes", "3", "--seed", "0",
            "--start", "S4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        logs = [json.loads(line) for line in lines]
        assert [log["episode"] for log in logs] == [0, 1, 2]
        assert all(log["start"] == "S4" for log in logs)
        assert all(len(log["steps"]) == 50 for log in logs)

    def test_deterministic_and_jobs_invariant(self, capsys, tmp_path):
        strat = tmp_path / "s.json"
        run(capsys, "extract", COBUCHI, "-o", str(strat))
        args = ("simulate", COBUCHI, str(strat),
                "--horizon", "30", "--episodes", "4", "--seed", "5")
        _, seq = run(capsys, *args)
        _, again = run(capsys, *args)
        _, par = run(capsys, *args, "--jobs", "2")
        assert seq == again == par

    def test_opponents(self, capsys, tmp_path):
        strat = tmp_path / "s.json"
        run(capsys, "extract", COBUCHI, "-o", str(strat))
        for extra in ([], ["--opponent", "greedy"],
                      ["--opponent", "fixed", "--opponent-file", OPP]):
            code, out = run(
                capsys, "simulate", COBUCHI, str(strat),
                "--horizon", "10", "--episodes", "1", *extra)
            assert code == 0
            assert len(out.splitlines()) == 1

    def test_all_geometric_row_runs_past_underflow(self, capsys, tmp_path):
        # c * r**n underflows to 0.0 for both actions from visit n = 1074 on
        game = tmp_path / "g.json"
        game.write_text(json.dumps({
            "states": ["A"], "p1_actions": {"A": ["a", "b"]}, "p2_actions": {"A": ["p"]},
            "transitions": [{"from": "A", "p1": a, "p2": "p", "to": "A"} for a in "ab"],
        }), encoding="utf-8")
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"A": {
            "a": {"kind": "geometric", "c": 0.5, "r": 0.5},
            "b": {"kind": "geometric", "c": 0.25, "r": 0.5}}}), encoding="utf-8")
        code, out = run(capsys, "simulate", str(game), str(strat), "--horizon", "2000")
        assert code == 0
        assert len(json.loads(out)["steps"]) == 2000

    def test_row_summing_past_the_float_range_plays_both_actions(self, capsys, tmp_path):
        strat = constant_rows(tmp_path / "s.json", OVERFLOW)
        code, out = run(capsys, "simulate", SAFETY, strat, "--horizon", "40", "--seed", "1")
        assert code == 0
        played = [a for v, a, _, _ in json.loads(out)["steps"] if v == "g"]
        assert set(played) == {"s", "u"}


class TestAdaptCli:
    def test_trace_csv(self, capsys):
        code, out = run(
            capsys, "adapt", COBUCHI, REWARD,
            "--horizon", "20", "--seed", "0", "--start", "S2",
            "--opponent", "fixed", "--opponent-file", OPP)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,state,chosen_action,opponent_action,reward,cumulative"
        assert len(lines) == 21

    def test_greedy_solves_once_and_output_is_unchanged(self, capsys, monkeypatch):
        # the greedy opponent's ranks take one public solve (the template runs
        # the solver body itself); the trace must stay byte-identical to the golden
        import congame.solvers as solvers_mod
        calls = []

        def counting_solve(g, objective):
            calls.append(objective)
            return real_solve(g, objective)

        real_solve = solvers_mod.solve
        holders = [mod for name, mod in list(sys.modules.items())
                   if name.startswith("congame") and getattr(mod, "solve", None) is real_solve]
        for mod in holders:
            monkeypatch.setattr(mod, "solve", counting_solve)
        code, out = run(
            capsys, "adapt", COBUCHI, REWARD,
            "--horizon", "40", "--seed", "3", "--start", "S2", "--opponent", "greedy")
        assert code == 0
        assert len(calls) == 1
        assert out == golden_text("adapt_greedy_cobuchi.csv")

    def test_bad_reward_state(self, capsys, tmp_path):
        bad = tmp_path / "r.json"
        bad.write_text('{"zz": 1.0}', encoding="utf-8")
        code, _ = run(capsys, "adapt", COBUCHI, str(bad), "--horizon", "5")
        assert code == 2


class TestCompareCli:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["compare", COBUCHI, REWARD, OPP, "--start", "S2", "--pairs", "2", "--horizon", "50"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "pairs:            2"
        assert out.splitlines()[-1] == "violations:       0"
        path = tmp_path / "compare.txt"
        assert run(capsys, *argv, "-o", str(path)) == (0, "")
        assert path.read_text(encoding="utf-8") == out


OPP_ARGS = ["--opponent", "fixed", "--opponent-file"]
# a strategy that lacks a state of its game
STRAT_B_WITHOUT_C = json.dumps({v: row for v, row in json.loads(
    (GAMES / "strategy_buchi_nonmax.json").read_text(encoding="utf-8")).items() if v != "C"})
TEMPLATE = '"live": {}, "partition": [], "objective_tag": "buchi"'
COMPARE_ARGS = ["--start", "S2", "--pairs", "1", "--horizon", "5"]
NO_OBJECTIVE = ('{"states": ["A"], "p1_actions": {"A": ["a"]}, "p2_actions": {"A": ["b"]}, '
                '"transitions": [{"from": "A", "p1": "a", "p2": "b", "to": "A"}]}')


class TestBadInputsCli:
    """Malformed input files and out-of-range parameters exit 2 with a message
    and no traceback; `{f}` in a command or message stands for the written
    input file."""

    @pytest.mark.parametrize("argv, text, message", [
        (["adapt", COBUCHI, REWARD, *OPP_ARGS, "{f}"], "[1]",
         "opponent must map states to JSON objects of finite weights"),
        (["adapt", COBUCHI, REWARD, *OPP_ARGS, "{f}"], '{"S2": "de"}',
         "opponent must map states to JSON objects of finite weights"),
        (["adapt", COBUCHI, REWARD, *OPP_ARGS, "{f}"], '{"S2": {"d": NaN, "e": 0.5}}',
         "opponent must map states to JSON objects of finite weights"),
        (["simulate", COBUCHI, str(GAMES / "strategy_cobuchi_nonmax.json"), *OPP_ARGS, "{f}"],
         '{"S2": {"d": "0.5", "e": 0.5}}',
         "opponent must map states to JSON objects of finite weights"),
        (["simulate", COBUCHI, STRAT_C, *OPP_ARGS, "{f}"], '{"ZZ": {"d": 1.0}}',
         "unknown state 'ZZ'"),
        (["verify", COBUCHI, "{f}"], '{"S0": [1]}',
         "strategy must map states to JSON objects of schedules"),
        (["verify", BUCHI, "{f}"], STRAT_B_WITHOUT_C, "strategy has no schedules at 'C'"),
        (["verify", COBUCHI, "{f}"], '{"S0": {"a": {"kind": "constant"}}}',
         "constant weight must be a positive finite number at 'S0'/'a'"),
        (["verify", COBUCHI, "{f}"], '{"S2": {"a": {"kind": "constant", "p": NaN}}}',
         "constant weight must be a positive finite number at 'S2'/'a'"),
        (["simulate", COBUCHI, "{f}"],
         '{"S0": {"a": {"kind": "geometric", "c": Infinity, "r": 0.5}}}',
         "bad geometric schedule at 'S0'/'a'"),
        (["extract", BUCHI, "{f}"], '{"winning": [], "live": [], "partition": [], '
         '"objective_tag": "buchi"}',
         "template live must map states to lists of lists of strings"),
        (["extract", BUCHI, "{f}"], '{"winning": "AB", ' + TEMPLATE + "}",
         "template winning must be a list of strings"),
        (["extract", BUCHI, "{f}"], '{"winning": ["A", "B"], "partition": ["B"], '
         '"live": {}, "objective_tag": "buchi"}',
         "template partition must be a list of lists of strings"),
        (["extract", BUCHI, "{f}"], '{"winning": [], "live": {"ZZ": []}, "partition": [], '
         '"objective_tag": "buchi"}',
         "unknown state 'ZZ'"),
        (["adapt", COBUCHI, "{f}"], '{"S0": "x"}', "reward spec must map states to finite numbers"),
        (["adapt", COBUCHI, "{f}"], '{"S0": "1.5"}', "reward spec must map states to finite numbers"),
        (["adapt", COBUCHI, "{f}"], '{"S0": NaN}', "reward spec must map states to finite numbers"),
        (["adapt", COBUCHI, REWARD, "--eps-live", "nan"], None, "eps_live must lie in (0, 1)"),
        (["adapt", COBUCHI, REWARD, "--colive-base", "-1"], None,
         "colive_base must be positive and finite"),
        (["adapt", COBUCHI, REWARD, "--alpha", "0"], None, "alpha must be positive and finite"),
        (["extract", COBUCHI, "--colive-base", "inf"], None,
         "colive_base must be positive and finite"),
        (["incremental", "--games", "2", "--sizes", "a"], None,
         "--sizes must be comma-separated positive integers, got 'a'"),
        (["incremental", "--games", "2", "--sizes", "1,,2"], None,
         "--sizes must be comma-separated positive integers, got '1,,2'"),
        (["incremental", "--games", "2", "--sizes", "0"], None,
         "target sizes must be positive integers, got [0]"),
        (["solve", "{f}"], "[" * 100_000 + "]" * 100_000,
         "{f}: invalid JSON: nested too deeply"),
        (["verify", COBUCHI, "{f}"], "[" * 100_000 + "]" * 100_000,
         "{f}: invalid JSON: nested too deeply"),
        (["compare", COBUCHI, "{f}", OPP, *COMPARE_ARGS], '{"S0": 1.0',
         "{f}: invalid JSON: Expecting ',' delimiter: line 1 column 11 (char 10)"),
        (["compare", COBUCHI, "{f}", OPP, *COMPARE_ARGS], None,
         "[Errno 2] No such file or directory: '{f}'"),
        (["compare", COBUCHI, REWARD, "{f}", *COMPARE_ARGS], '{"S2": {"d": 1.0',
         "{f}: invalid JSON: Expecting ',' delimiter: line 1 column 17 (char 16)"),
        (["compare", COBUCHI, REWARD, "{f}", *COMPARE_ARGS], '{"ZZ": {"d": 1.0}}',
         "unknown state 'ZZ'"),
        (["compare", COBUCHI, REWARD, "{f}", *COMPARE_ARGS], '{"S2": {"zz": 1.0}}',
         "unknown player-2 action 'zz' at state 'S2'"),
        # S3 is never reached from S2, so only the check at load time sees it
        (["compare", COBUCHI, REWARD, "{f}", "--start", "S2", "--pairs", "2", "--horizon", "50"],
         '{"S2": {"d": 0.8, "e": 0.1, "f": 0.1}, "S3": {"zz": 1.0}}',
         "unknown player-2 action 'zz' at state 'S3'"),
        (["compare", COBUCHI, REWARD, OPP, "--pairs", "0"], None, "--pairs must be at least 1"),
        (["compare", "{f}", REWARD, OPP, *COMPARE_ARGS], NO_OBJECTIVE,
         "{f}: game file has no objective"),
    ], ids=["opponent-list", "opponent-string-row", "opponent-nan", "opponent-numeric-string",
            "opponent-unknown-state", "strategy-list-row", "strategy-missing-state",
            "strategy-constant-without-p",
            "strategy-nan-p", "strategy-infinite-c", "template-live-list", "template-string-winning",
            "template-string-cells", "template-empty-live-entry", "reward-string", "reward-numeric-string", "reward-nan",
            "adapt-eps-live-nan", "adapt-colive-base-negative", "adapt-alpha-zero",
            "extract-colive-base-inf", "incremental-sizes-letter", "incremental-sizes-empty",
            "incremental-sizes-zero", "game-nested-too-deeply", "strategy-nested-too-deeply",
            "compare-reward-bad-json", "compare-reward-missing", "compare-opponent-bad-json",
            "compare-opponent-other-game", "compare-opponent-unknown-action",
            "compare-opponent-unreached-unknown-action",
            "compare-no-pairs", "compare-no-objective"])
    def test_exit_2_with_message(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main([arg.replace("{f}", str(path)) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.replace('{f}', str(path))}\n"


# per loader: its well-formed input file, the part of that file to mutate,
# and the command that reads it (`{f}` stands for the mutated file)
LOADERS = {
    "game": (BUCHI, (), ["solve", "{f}"]),
    "objective": (COBUCHI, ("objective",), ["solve", "{f}"]),
    "template": (str(GOLDENS / "template_cobuchi_stabilize.json"), (), ["extract", COBUCHI, "{f}"]),
    "strategy": (STRAT_C, (), ["verify", COBUCHI, "{f}"]),
    "reward": (REWARD, (), ["adapt", COBUCHI, "{f}", "--horizon", "5"]),
    "opponent": (OPP, (), ["simulate", COBUCHI, STRAT_C, *OPP_ARGS, "{f}", "--horizon", "5"]),
    "turn-based": (TB, (), ["convert", "{f}"]),
}

NAMES = st.sampled_from(["", "A", "S0", "S2", "a", "d", "u", "kind", "constant", "geometric",
                         "buchi", "cobuchi", "safety", "states", "transitions"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | NAMES
    | st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e308, 10 ** 400, float("nan"), float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=6)


def _slots(holder, key):
    """Every (container, key) slot of the JSON tree at holder[key], that
    slot first."""
    yield holder, key
    node = holder[key]
    keys = list(node) if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        yield from _slots(node, k)


@st.composite
def mutated_inputs(draw):
    """A loader, its command, and its input after one to three mutations:
    replace a node, drop a key, or duplicate a list entry."""
    name = draw(st.sampled_from(sorted(LOADERS)))
    path, part, argv = LOADERS[name]
    with open(path, encoding="utf-8") as fh:
        top = {"": json.load(fh)}
    for _ in range(draw(st.integers(1, 3))):
        holder, key = top, ""
        for step in part:
            if isinstance(holder[key], dict) and step in holder[key]:
                holder, key = holder[key], step
        holder, key = draw(st.sampled_from(list(_slots(holder, key))))
        node = holder[key]
        mutation = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if mutation == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif mutation == "duplicate" and isinstance(node, list) and node:
            node.insert(draw(st.integers(0, len(node))), copy.deepcopy(draw(st.sampled_from(node))))
        else:
            holder[key] = draw(JSON_VALUES)
    return name, argv, top[""]


class TestLoaderFuzz:
    """Mutated input to every loader ends in exit 0, or in exit 2 with a
    message and nothing on stdout; no exception escapes `main`."""

    @given(mutated_inputs())
    @settings(max_examples=300)
    def test_mutated_input_exits_0_or_2(self, tmp_path_factory, case):
        name, argv, raw = case
        path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{f}", str(path)) for arg in argv])
        assert code in (0, 2), (name, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


class TestIncrementalCli:
    def test_csv_shape(self, capsys):
        code, out = run(
            capsys, "incremental",
            "--games", "4", "--sizes", "1,2", "--max-objectives", "2",
            "--states", "4", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "objective_size,objectives_added,conflict_fraction"
        assert len(lines) == 5


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2(self, capsys, tmp_path, jobs):
        strat = tmp_path / "s.json"
        run(capsys, "extract", COBUCHI, "-o", str(strat))
        for argv in (["incremental", "--games", "2", "--sizes", "1"],
                     ["simulate", COBUCHI, str(strat), "--episodes", "2"]):
            assert main([*argv, "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "jobs must be at least 1" in captured.err

    def test_script_without_main_guard_gets_an_error(self, tmp_path):
        # spawned workers re-run the unguarded script, which cannot start a
        # pool of its own while they bootstrap, so they end abruptly; two
        # reported CPUs make even a one-CPU machine start the pool
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import os, sys\n"
            "from congame import cli\n"
            "os.cpu_count = lambda: 2\n"
            f"sys.exit(cli.main(['simulate', {COBUCHI!r}, {STRAT_C!r}, '--episodes', '2',"
            " '--horizon', '3', '--jobs', '2']))\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert ("error: a worker process ended abruptly; a script that passes jobs > 1 must "
                'guard its entry point with if __name__ == "__main__":\n') in done.stderr


class TestConvertCli:
    def test_stats_sidecar(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        code, _ = run(capsys, "convert", TB, "--stats", str(stats))
        assert code == 0
        raw = json.loads(stats.read_text(encoding="utf-8"))
        assert raw["merged_transitions"] == 1
        assert raw["self_loops_added"] == 1

    def test_bad_turn_based(self, capsys, tmp_path):
        path = tmp_path / "tb.json"
        path.write_text('{"states": []}', encoding="utf-8")
        code, _ = run(capsys, "convert", str(path))
        assert code == 2

    @pytest.mark.parametrize("path, value, message", [
        (["states"], 5, "turn-based states must be a list of JSON objects"),
        (["states"], [["u", 1]], "turn-based states must be a list of JSON objects"),
        (["transitions"], 5, "turn-based transitions must be a list of JSON objects"),
        (["states", 0, "id"], ["u"], "malformed state entry: {'id': ['u'], 'owner': 1}"),
        (["states", 0, "owner"], "1", "state 'u' has owner '1', expected 1 or 2"),
        (["states", 0, "owner"], 1.5, "state 'u' has owner 1.5, expected 1 or 2"),
        (["states", 0, "owner"], True, "state 'u' has owner True, expected 1 or 2"),
        (["transitions", 0, "label"], ["a"],
         "malformed transition entry: {'from': 'u', 'label': ['a'], 'to': 'v'}"),
        (["transitions", 0, "to"], 7,
         "malformed transition entry: {'from': 'u', 'label': 'a', 'to': 7}"),
        (["winning", "items"], {}, "winning transitions must be a list of JSON objects"),
        (["winning", "items", 0, "from"], ["v"],
         "malformed winning transition: {'from': ['v'], 'label': 'b', 'to': 'w'}"),
        (["winning"], {"kind": "states", "items": "uw"}, "winning states must be a list of strings"),
        (["winning"], {"kind": "states", "items": [["u"]]}, "winning states must be a list of strings"),
        (["objective_kind"], ["buchi"], "unknown objective kind ['buchi']"),
    ], ids=["states-number", "states-list-rows", "transitions-number", "id-list",
            "owner-string", "owner-float", "owner-bool", "label-list", "target-number",
            "winning-items-object", "winning-from-list", "winning-states-string",
            "winning-states-nested", "objective-kind-list"])
    def test_malformed_turn_based_exits_2(self, capsys, tmp_path, path, value, message):
        raw = json.loads((GAMES / "tb_handshake.json").read_text(encoding="utf-8"))
        *parents, key = path
        node = raw
        for step in parents:
            node = node[step]
        node[key] = value
        tb = tmp_path / "tb.json"
        tb.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["convert", str(tb)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSharedParser:
    """`main` reuses one parser per process; no parse may leak into the next."""

    def test_back_to_back_commands_match_fresh_processes(self, capsys, tmp_path):
        strat = tmp_path / "s.json"
        run(capsys, "extract", COBUCHI, "-o", str(strat))
        commands = [
            ["simulate", COBUCHI, str(strat), "--horizon", "8", "--episodes", "2",
             "--seed", "5", "--start", "S4", "--opponent", "greedy"],
            ["solve", BUCHI],
            ["simulate", COBUCHI, str(strat), "--horizon", "8"],
            ["template", COBUCHI],
        ]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        for argv in commands:
            alone = subprocess.run(
                [sys.executable, "-m", "congame.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert alone.returncode == 0, alone.stderr
            assert run(capsys, *argv) == (0, alone.stdout)

    def test_bad_flag_still_exits_2(self, capsys):
        assert run(capsys, "solve", BUCHI)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["solve", BUCHI, "--no-such-flag"])
        assert exc.value.code == 2
        code, out = run(capsys, "solve", BUCHI)
        assert code == 0
        assert out == golden_text("solve_buchi_cycle.json")
