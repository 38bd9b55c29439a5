"""Arena construction, validation errors, distributions and serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congame import (
    ActionDistribution,
    DuplicateTransition,
    EmptyActionSet,
    GameGraph,
    InputError,
    MissingTransition,
    ObjectiveKind,
    PlayPrefix,
    UnknownAction,
    UnknownState,
    dump_json,
    game_to_dict,
    load_game,
    one_round_prob,
    parse_objective,
    validate_game,
)
from congame.model import worker_count

from .conftest import GAMES, game_graphs


def tiny_raw():
    return {
        "states": ["A", "B"],
        "p1_actions": {"A": ["a", "b"], "B": ["a"]},
        "p2_actions": {"A": ["d"], "B": ["d", "e"]},
        "transitions": [
            {"from": "A", "p1": "a", "p2": "d", "to": "A"},
            {"from": "A", "p1": "b", "p2": "d", "to": "B"},
            {"from": "B", "p1": "a", "p2": "d", "to": "B"},
            {"from": "B", "p1": "a", "p2": "e", "to": "A"},
        ],
    }


class TestConstruction:
    def test_accessors(self):
        g = validate_game(tiny_raw())
        assert g.states == ("A", "B")
        assert g.n_states == 2
        assert g.p1_actions("A") == ("a", "b")
        assert g.p2_actions("B") == ("d", "e")
        assert g.succ("A", "b", "d") == "B"
        assert g.succ("B", "a", "e") == "A"
        assert "A" in g and "Z" not in g

    def test_missing_transition(self):
        raw = tiny_raw()
        raw["transitions"] = raw["transitions"][:-1]
        with pytest.raises(MissingTransition) as e:
            validate_game(raw)
        assert (e.value.state, e.value.p1, e.value.p2) == ("B", "a", "e")

    def test_duplicate_transition(self):
        raw = tiny_raw()
        raw["transitions"].append(
            {"from": "A", "p1": "a", "p2": "d", "to": "B"})
        with pytest.raises(DuplicateTransition):
            validate_game(raw)

    @pytest.mark.parametrize("field, value", [
        ("from", 1), ("p1", ["a"]), ("p2", {"d": 1}), ("to", ["A"]), ("to", 2)])
    def test_non_string_transition_field(self, field, value):
        raw = tiny_raw()
        raw["transitions"][0][field] = value
        with pytest.raises(InputError):
            validate_game(raw)

    def test_unknown_target_state(self):
        raw = tiny_raw()
        raw["transitions"][0]["to"] = "Z"
        with pytest.raises(UnknownState):
            validate_game(raw)

    def test_unknown_action_in_transition(self):
        raw = tiny_raw()
        raw["transitions"][0]["p1"] = "z"
        with pytest.raises(UnknownAction) as e:
            validate_game(raw)
        assert e.value.player == 1

    def test_empty_action_set(self):
        raw = tiny_raw()
        raw["p2_actions"]["A"] = []
        with pytest.raises(EmptyActionSet) as e:
            validate_game(raw)
        assert e.value.player == 2

    def test_duplicate_states(self):
        raw = tiny_raw()
        raw["states"] = ["A", "B", "A"]
        with pytest.raises(InputError):
            validate_game(raw)

    def test_action_sets_for_unknown_state(self):
        raw = tiny_raw()
        raw["p1_actions"]["Z"] = ["a"]
        with pytest.raises(UnknownState):
            validate_game(raw)

    def test_missing_top_level_key(self):
        raw = tiny_raw()
        del raw["transitions"]
        with pytest.raises(InputError):
            validate_game(raw)

    def test_states_are_sorted_canonically(self):
        raw = tiny_raw()
        raw["states"] = ["B", "A"]
        g = validate_game(raw)
        assert g.states == ("A", "B")

    def test_succ_unknown_action(self):
        g = validate_game(tiny_raw())
        with pytest.raises(UnknownAction):
            g.succ("B", "b", "d")
        with pytest.raises(UnknownAction):
            g.succ("A", "a", "e")
        with pytest.raises(UnknownState):
            g.succ("Z", "a", "d")


class TestMasks:
    def test_round_trip(self):
        g = validate_game(tiny_raw())
        assert g.unmask(g.mask(["B"])) == frozenset({"B"})
        assert g.unmask(g.full_mask) == frozenset(g.states)
        assert g.mask([]) == 0

    @given(game_graphs())
    def test_mask_inverts_unmask(self, g: GameGraph):
        for m in range(g.full_mask + 1):
            assert g.mask(g.unmask(m)) == m


class TestObjective:
    def test_parse(self):
        g = validate_game(tiny_raw())
        obj = parse_objective({"kind": "buchi", "target": ["B"]}, g)
        assert obj.kind is ObjectiveKind.BUCHI
        assert obj.target == frozenset({"B"})

    def test_bad_kind(self):
        g = validate_game(tiny_raw())
        with pytest.raises(InputError):
            parse_objective({"kind": "parity", "target": ["B"]}, g)

    def test_unknown_target(self):
        g = validate_game(tiny_raw())
        with pytest.raises(UnknownState):
            parse_objective({"kind": "safety", "target": ["Z"]}, g)

    def test_to_dict(self):
        g = validate_game(tiny_raw())
        obj = parse_objective({"kind": "cobuchi", "target": ["B", "A"]}, g)
        assert obj.to_dict() == {"kind": "cobuchi", "target": ["A", "B"]}


class TestDistribution:
    def test_from_mapping_drops_zeros(self):
        d = ActionDistribution.from_mapping({"a": 0.5, "b": 0.5, "c": 0.0})
        assert d.support == frozenset({"a", "b"})
        assert d.prob("c") == 0.0

    def test_from_mapping_rejects_bad_sum(self):
        with pytest.raises(InputError):
            ActionDistribution.from_mapping({"a": 0.5, "b": 0.4})

    def test_from_mapping_rejects_negative(self):
        with pytest.raises(InputError):
            ActionDistribution.from_mapping({"a": 1.5, "b": -0.5})

    def test_empty_support(self):
        with pytest.raises(InputError):
            ActionDistribution.from_mapping({})

    @pytest.mark.parametrize("weights", [
        {"d": float("nan"), "e": 0.5},
        {"d": float("nan"), "e": 1.0},
        {"d": float("inf")},
        {"d": float("-inf"), "e": 1.0},
    ])
    def test_from_mapping_rejects_non_finite(self, weights):
        with pytest.raises(InputError):
            ActionDistribution.from_mapping(weights)

    def test_uniform_and_point(self):
        u = ActionDistribution.uniform(["b", "a"])
        assert u.probs == (("a", 0.5), ("b", 0.5))
        p = ActionDistribution.point("x")
        assert p.prob("x") == 1.0
        assert p.mass(["x", "y"]) == 1.0

    def test_mass(self):
        d = ActionDistribution.from_mapping({"a": 0.25, "b": 0.25, "c": 0.5})
        assert d.mass(["a", "c"]) == pytest.approx(0.75)
        assert d.mass([]) == 0.0


class TestPlayPrefix:
    def test_valid(self):
        g = validate_game(tiny_raw())
        p = PlayPrefix(steps=(("A", "b", "d"), ("B", "a", "e")), final="A")
        p.validate(g)
        assert p.visited == ("A", "B", "A")

    def test_broken_chain(self):
        g = validate_game(tiny_raw())
        p = PlayPrefix(steps=(("A", "a", "d"), ("B", "a", "d")), final="B")
        with pytest.raises(InputError):
            p.validate(g)

    def test_wrong_final(self):
        g = validate_game(tiny_raw())
        p = PlayPrefix(steps=(("A", "b", "d"),), final="A")
        with pytest.raises(InputError):
            p.validate(g)

    def test_empty_prefix_checks_state(self):
        g = validate_game(tiny_raw())
        PlayPrefix(steps=(), final="A").validate(g)
        with pytest.raises(UnknownState):
            PlayPrefix(steps=(), final="Z").validate(g)


class TestOneRoundProb:
    def test_example(self, buchi_game):
        d1 = ActionDistribution.uniform(buchi_game.p1_actions("A"))
        d2 = ActionDistribution.uniform(buchi_game.p2_actions("A"))
        assert one_round_prob(buchi_game, "A", d1, d2, ["C"]) == pytest.approx(0.5)

    def test_unknown_action_rejected(self, buchi_game):
        d1 = ActionDistribution.point("z")
        d2 = ActionDistribution.uniform(buchi_game.p2_actions("A"))
        with pytest.raises(UnknownAction):
            one_round_prob(buchi_game, "A", d1, d2, ["C"])

    @given(game_graphs())
    def test_complement_sums_to_one(self, g: GameGraph):
        v = g.states[0]
        d1 = ActionDistribution.uniform(g.p1_actions(v))
        d2 = ActionDistribution.uniform(g.p2_actions(v))
        inside = frozenset(g.states[: g.n_states // 2])
        outside = frozenset(g.states) - inside
        p = one_round_prob(g, v, d1, d2, inside)
        q = one_round_prob(g, v, d1, d2, outside)
        assert p + q == pytest.approx(1.0)
        assert -1e-9 <= p <= 1.0 + 1e-9


class TestSerialization:
    def test_load_fixture_files(self):
        for name in ("buchi_cycle.json", "cobuchi_stabilize.json",
                     "safety_gadget.json"):
            g, obj = load_game(str(GAMES / name))
            assert g.n_states >= 2
            assert obj is not None

    def test_load_missing_objective(self, tmp_path):
        raw = tiny_raw()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        g, obj = load_game(str(path))
        assert obj is None
        assert g.states == ("A", "B")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(InputError):
            load_game(str(path))

    def test_dump_json_is_deterministic(self, tmp_path):
        data = {"b": 1, "a": [2, 3]}
        text = dump_json(data, None)
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
        out = tmp_path / "x.json"
        dump_json(data, str(out))
        assert out.read_text(encoding="utf-8") == text

    @given(game_graphs())
    def test_game_round_trip(self, g: GameGraph):
        raw = game_to_dict(g)
        h = validate_game(raw)
        assert h.states == g.states
        for v in g.states:
            assert h.p1_actions(v) == g.p1_actions(v)
            assert h.p2_actions(v) == g.p2_actions(v)
            for a in g.p1_actions(v):
                for b in g.p2_actions(v):
                    assert h.succ(v, a, b) == g.succ(v, a, b)

    def test_game_to_dict_includes_objective(self, buchi_game, buchi_objective):
        raw = game_to_dict(buchi_game, buchi_objective)
        assert raw["objective"] == {"kind": "buchi", "target": ["C"]}


class TestWorkerCount:
    """The pool size is clamped by the tasks and the CPUs; only the pure
    count is exercised, so no pool is ever started here."""

    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        import congame.model as model_mod
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: 8)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_nonpositive(self, jobs):
        with pytest.raises(InputError, match="jobs must be at least 1"):
            worker_count(jobs, 10)

    @pytest.mark.parametrize("jobs, n_tasks, expected", [
        (1, 10, 1),
        (2, 10, 2),
        (2, 1, 1),
        (10**6, 10, 8),
        (10**6, 3, 3),
        (10**6, 0, 1),
    ])
    def test_clamped(self, jobs, n_tasks, expected):
        assert worker_count(jobs, n_tasks) == expected

    def test_unknown_cpu_count_runs_serially(self, monkeypatch):
        import congame.model as model_mod
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: None)
        assert worker_count(10**6, 10) == 1
