"""Turn-based to concurrent conversion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congame import (
    InputError,
    NonRectangularActions,
    NotAlternating,
    ObjectiveKind,
    UnknownState,
    convert,
    game_to_dict,
    load_turn_based,
    solve,
    tb_from_dict,
)

from .conftest import GAMES, golden_json


def handshake_raw() -> dict:
    return {
        "states": [
            {"id": "u", "owner": 1},
            {"id": "v", "owner": 2},
            {"id": "w", "owner": 1},
        ],
        "transitions": [
            {"from": "u", "label": "a", "to": "v"},
            {"from": "v", "label": "b", "to": "w"},
        ],
        "winning": {
            "kind": "transitions",
            "items": [{"from": "v", "label": "b", "to": "w"}],
        },
        "objective_kind": "buchi",
    }


@st.composite
def turn_based_games(draw) -> dict:
    """Alternating turn-based games of 1-4 P1 states (labels a-c) and 1-4 P2
    states (labels x-y); P2 dead ends and successors offering different label
    sets both occur.  The states are listed in a drawn order."""
    p1 = [f"u{i}" for i in range(draw(st.integers(1, 4)))]
    p2 = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    transitions = []
    for own, labels, succs in ((p1, "abc", p2), (p2, "xy", p1)):
        for s in own:
            for label in draw(st.sets(st.sampled_from(labels))):
                transitions.append(
                    {"from": s, "label": label, "to": draw(st.sampled_from(succs))})
    states = [{"id": s, "owner": 1} for s in p1] + [{"id": s, "owner": 2} for s in p2]
    return {
        "states": draw(st.permutations(states)),
        "transitions": transitions,
        "winning": {"kind": "states", "items": []},
        "objective_kind": "safety",
    }


def reference_conversion(moves: dict, p1: list[str]) -> list[tuple]:
    """Per P1 state in sorted order, built name by name: the usable actions,
    the P2 labels of the first usable successor (None where another one
    offers different labels) and the joint moves (u, a, b) -> w."""
    out = []
    for u in sorted(p1):
        usable = [a for a in sorted(moves[u]) if moves[moves[u][a]]]
        labels = sorted(moves[moves[u][usable[0]]]) if usable else []
        rectangular = all(sorted(moves[moves[u][a]]) == labels for a in usable)
        joint = {(u, a, b): moves[moves[u][a]][b] for a in usable for b in moves[moves[u][a]]}
        out.append((u, usable, labels if rectangular else None, joint))
    return out


class TestConvert:
    @given(turn_based_games())
    @settings(max_examples=300)
    def test_matches_reference_built_name_by_name(self, raw):
        moves: dict[str, dict[str, str]] = {e["id"]: {} for e in raw["states"]}
        for t in raw["transitions"]:
            moves[t["from"]][t["label"]] = t["to"]
        p1 = [e["id"] for e in raw["states"] if e["owner"] == 1]
        ref = reference_conversion(moves, p1)
        bad = [u for u, _, labels, _ in ref if labels is None]
        if bad:
            with pytest.raises(NonRectangularActions) as e:
                convert(tb_from_dict(raw))
            assert e.value.state == bad[0]
            return
        g, _, stats = convert(tb_from_dict(raw))
        assert g.states == tuple(sorted(p1))
        merged = dropped = loops = 0
        for u, usable, labels, joint in ref:
            dropped += len(moves[u]) - len(usable)
            if not usable:
                assert g.p1_actions(u) == g.p2_actions(u) == ("loop",)
                assert g.succ(u, "loop", "loop") == u
                loops += 1
                continue
            assert g.p1_actions(u) == tuple(usable)
            assert g.p2_actions(u) == tuple(labels)
            for (_, a, b), w in joint.items():
                assert g.succ(u, a, b) == w
            merged += len(joint)
        assert stats == (len(p1), len(moves) - len(p1), merged, dropped, loops)

    def test_handshake_matches_golden(self):
        tb = load_turn_based(str(GAMES / "tb_handshake.json"))
        g, obj, stats = convert(tb)
        assert game_to_dict(g, obj) == golden_json("convert_tb_handshake.json")

    def test_handshake_structure(self):
        g, obj, stats = convert(tb_from_dict(handshake_raw()))
        assert g.states == ("u", "w")
        assert g.p1_actions("u") == ("a",)
        assert g.p2_actions("u") == ("b",)
        assert g.succ("u", "a", "b") == "w"
        # w has no usable moves and becomes absorbing
        assert g.p1_actions("w") == ("loop",)
        assert g.succ("w", "loop", "loop") == "w"
        assert obj.kind is ObjectiveKind.BUCHI
        assert obj.target == {"w"}
        assert stats.to_dict() == {
            "p1_states": 2, "p2_states": 1, "merged_transitions": 1,
            "dropped_actions": 0, "self_loops_added": 1}

    def test_converted_game_is_solvable(self):
        g, obj, _ = convert(tb_from_dict(handshake_raw()))
        assert solve(g, obj).winning == {"u", "w"}

    def test_not_alternating(self):
        raw = handshake_raw()
        raw["transitions"].append({"from": "u", "label": "z", "to": "w"})
        with pytest.raises(NotAlternating) as e:
            convert(tb_from_dict(raw))
        assert (e.value.src, e.value.dst) == ("u", "w")

    def test_non_rectangular(self):
        raw = handshake_raw()
        raw["states"].append({"id": "v2", "owner": 2})
        raw["transitions"] += [
            {"from": "u", "label": "c", "to": "v2"},
            {"from": "v2", "label": "zz", "to": "w"},
        ]
        with pytest.raises(NonRectangularActions) as e:
            convert(tb_from_dict(raw))
        assert e.value.state == "u"

    def test_dead_end_successor_drops_action(self):
        raw = handshake_raw()
        raw["states"].append({"id": "v2", "owner": 2})
        raw["transitions"].append({"from": "u", "label": "c", "to": "v2"})
        g, _, stats = convert(tb_from_dict(raw))
        assert g.p1_actions("u") == ("a",)
        assert stats.dropped_actions == 1

    def test_state_winning_marks(self):
        raw = handshake_raw()
        raw["winning"] = {"kind": "states", "items": ["v"]}
        _, obj, _ = convert(tb_from_dict(raw))
        # the winning player-2 state marks every merged target through it
        assert obj.target == {"w"}
        raw["winning"] = {"kind": "states", "items": ["u"]}
        _, obj, _ = convert(tb_from_dict(raw))
        assert obj.target == {"u"}

    def test_second_half_winning_transition(self):
        raw = handshake_raw()
        raw["winning"] = {
            "kind": "transitions",
            "items": [{"from": "u", "label": "a", "to": "v"}],
        }
        _, obj, _ = convert(tb_from_dict(raw))
        assert obj.target == {"w"}

    def test_no_p1_states(self):
        raw = {
            "states": [{"id": "v", "owner": 2}],
            "transitions": [],
            "winning": {"kind": "states", "items": []},
            "objective_kind": "safety",
        }
        with pytest.raises(InputError):
            convert(tb_from_dict(raw))


class TestParsing:
    def test_missing_keys(self):
        raw = handshake_raw()
        del raw["winning"]
        with pytest.raises(InputError):
            tb_from_dict(raw)

    def test_bad_owner(self):
        raw = handshake_raw()
        raw["states"][0]["owner"] = 3
        with pytest.raises(InputError):
            tb_from_dict(raw)

    def test_duplicate_state(self):
        raw = handshake_raw()
        raw["states"].append({"id": "u", "owner": 1})
        with pytest.raises(InputError):
            tb_from_dict(raw)

    def test_duplicate_move(self):
        raw = handshake_raw()
        raw["transitions"].append({"from": "u", "label": "a", "to": "v"})
        with pytest.raises(InputError):
            tb_from_dict(raw)

    def test_unknown_transition_endpoint(self):
        raw = handshake_raw()
        raw["transitions"].append({"from": "u", "label": "q", "to": "zz"})
        with pytest.raises(UnknownState):
            tb_from_dict(raw)

    def test_winning_transition_must_exist(self):
        raw = handshake_raw()
        raw["winning"]["items"] = [{"from": "u", "label": "zz", "to": "v"}]
        with pytest.raises(InputError):
            tb_from_dict(raw)

    def test_unknown_winning_state(self):
        raw = handshake_raw()
        raw["winning"] = {"kind": "states", "items": ["zz"]}
        with pytest.raises(UnknownState):
            tb_from_dict(raw)

    def test_unknown_winning_kind(self):
        raw = handshake_raw()
        raw["winning"] = {"kind": "colors", "items": []}
        with pytest.raises(InputError):
            tb_from_dict(raw)

    def test_unknown_objective_kind(self):
        raw = handshake_raw()
        raw["objective_kind"] = "parity"
        with pytest.raises(InputError):
            tb_from_dict(raw)
