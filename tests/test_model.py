"""Arena construction, validation errors, distributions and serialization."""

from __future__ import annotations

import json
import math
import re

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
    UnknownAction,
    UnknownState,
    dump_json,
    game_to_dict,
    load_game,
    parse_objective,
    validate_game,
)
from congame import cli
from congame.model import worker_count
from congame.strategies import FixedSchedule

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
        assert "A" in g.states and "Z" not in g.states

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

    @pytest.mark.parametrize("key, drop", [
        pytest.param(("A", "a"), None, id="key0"),
        pytest.param(("A", "a", "d", "A"), None, id="key1"),
        pytest.param("Ad", None, id="Ad"),
        pytest.param(5, None, id="5"),
        # three characters would unpack into (state, p1, p2): here into a
        # slot that a tuple fills too, or into the slot of the tuple dropped
        pytest.param("Aad", None, id="Aad-repeats-a-slot"),
        pytest.param("Aad", ("A", "a", "d"), id="Aad-fills-a-slot")])
    def test_malformed_transition_key(self, key, drop):
        raw = tiny_raw()
        delta = {(t["from"], t["p1"], t["p2"]): t["to"] for t in raw["transitions"]}
        delta.pop(drop, None)
        delta[key] = "A"
        with pytest.raises(InputError, match=f"^malformed transition key {re.escape(repr(key))}$"):
            GameGraph(raw["states"], raw["p1_actions"], raw["p2_actions"], delta)

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

    @pytest.mark.parametrize("key, player", [("p1_actions", 1), ("p2_actions", 2)])
    def test_duplicate_actions(self, key, player):
        raw = tiny_raw()
        raw[key]["B"] = raw[key]["B"] + raw[key]["B"][:1]
        with pytest.raises(InputError, match=f"^duplicate player-{player} actions at 'B'$"):
            validate_game(raw)

    def test_first_action_set_fault_in_state_order(self):
        raw = tiny_raw()
        raw["p1_actions"]["B"] = ["a", "a"]
        raw["p2_actions"]["A"] = []
        with pytest.raises(EmptyActionSet) as e:
            validate_game(raw)
        assert (e.value.state, e.value.player) == ("A", 2)

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

    def test_action_mask_in_action_order(self):
        g = validate_game(tiny_raw())
        assert g.action_mask("A", ["b"]) == 0b10
        assert g.action_mask("A", ("b", "a")) == 0b11
        assert g.action_mask("B", ["e"], player=2) == 0b10
        assert g.action_mask("B", ()) == 0

    def test_action_mask_unknown_names(self):
        g = validate_game(tiny_raw())
        # the state is checked even when no action is named
        with pytest.raises(UnknownState, match="^unknown state 'Z'$"):
            g.action_mask("Z", ())
        for player, acts, first in ((1, ["a", "d", "z"], "d"), (2, ["e", "z", "a"], "z")):
            with pytest.raises(UnknownAction) as e:
                g.action_mask("B", acts, player=player)
            assert (e.value.state, e.value.action, e.value.player) == ("B", first, player)


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

    @given(game_graphs())
    def test_succ_runs_read_succ(self, g: GameGraph):
        # run ai holds P1 action ai's successors and column j P2 action j's
        for vi, v in enumerate(g.states):
            row, k = g.succ_runs(vi)
            assert k == len(g.p2_actions(v))
            assert len(row) == len(g.p1_actions(v)) * k
            for ai, a in enumerate(g.p1_actions(v)):
                for j, b in enumerate(g.p2_actions(v)):
                    w = g.succ(v, a, b)
                    assert g.states[row[ai * k:(ai + 1) * k][j]] == w
                    assert g.states[row[j::k][ai]] == w


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
        assert d.mass(("c",)) == 0.0

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
        p = ActionDistribution.uniform(("x",))
        assert p.probs == (("x", 1.0),)
        assert p.mass(["x", "y"]) == 1.0

    def test_mass(self):
        d = ActionDistribution.from_mapping({"a": 0.25, "b": 0.25, "c": 0.5})
        assert d.mass(["a", "c"]) == pytest.approx(0.75)
        assert d.mass([]) == 0.0

    def test_mass_of_a_set_is_the_mass_of_its_items(self):
        d = ActionDistribution.from_mapping({"a": 0.1, "b": 0.2, "c": 0.7})
        for group in ({"a", "c"}, frozenset({"b", "c", "z"}), set()):
            assert d.mass(group) == d.mass(sorted(group))
        group = {"a"}
        d.mass(group)
        assert group == {"a"}


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


def _checked_reference(raw) -> GameGraph:
    """The transition checks in the order that names the first fault, then
    the arena from the checked table: the path every faulty input takes."""
    delta = {}
    for t in raw["transitions"]:
        try:
            key = (t["from"], t["p1"], t["p2"])
            dst = t["to"]
            seen = key in delta
        except (TypeError, KeyError):
            raise InputError(f"malformed transition entry: {t!r}") from None
        if seen:
            raise DuplicateTransition(*key)
        delta[key] = dst
    if not all(type(w) is str for w in delta.values()):
        raise InputError("transition targets must be strings")
    return GameGraph(raw["states"], raw["p1_actions"], raw["p2_actions"], delta)


def _outcome(build, raw):
    try:
        return build(raw)
    except InputError as e:
        return type(e), str(e)


def _same_arena(h: GameGraph, g: GameGraph) -> None:
    assert h.states == g.states
    for vi, v in enumerate(g.states):
        assert h.p1_actions(v) == g.p1_actions(v)
        assert h.p2_actions(v) == g.p2_actions(v)
        for a in g.p1_actions(v):
            for b in g.p2_actions(v):
                assert h.succ(v, a, b) == g.succ(v, a, b)
        assert h.pred_mask(1 << vi) == g.pred_mask(1 << vi)


# one fault in a transition list: dropped, duplicated, moved onto another
# entry's slot (as many entries as slots, one repeated and one missing),
# renamed to an unknown state or action, made a non-string, lost a field, or
# not an object at all
MUTATIONS = ("drop", "duplicate", "collide", "unknown", "non_string", "no_field",
             "not_object")
FIELDS = ("from", "p1", "p2", "to")


@st.composite
def mutated_games(draw):
    g = draw(game_graphs())
    raw = game_to_dict(g)
    raw["transitions"] = draw(st.permutations(raw["transitions"]))
    ts = raw["transitions"] = [dict(t) for t in raw["transitions"]]
    i = draw(st.integers(0, len(ts) - 1))
    kind = draw(st.sampled_from(MUTATIONS))
    field = draw(st.sampled_from(FIELDS))
    if kind == "drop":
        del ts[i]
    elif kind == "duplicate":
        copy = dict(ts[i], to=draw(st.sampled_from(g.states)))
        ts.insert(draw(st.integers(0, len(ts))), copy)
    elif kind == "collide":
        j = draw(st.integers(0, len(ts) - 1))
        ts[i] = dict(ts[j], to=ts[i]["to"])
    elif kind == "unknown":
        ts[i][field] = draw(st.sampled_from(["zz", "q9", "a", "d", "q0"]))
    elif kind == "non_string":
        ts[i][field] = draw(st.sampled_from([1, None, True, 2.5, ["q0"], {"a": 1}]))
    elif kind == "no_field":
        del ts[i][field]
    else:
        ts[i] = draw(st.sampled_from([None, 3, "q0", ["q0", "a", "d", "q1"]]))
    return raw


class TestOnePassArena:
    """validate_game fills the successor table straight from the transition
    list; any fault hands over to the checked path."""

    @given(game_graphs(), st.randoms(use_true_random=False))
    def test_equals_checked_arena(self, g: GameGraph, rnd):
        raw = game_to_dict(g)
        rnd.shuffle(raw["transitions"])
        h = validate_game(raw)
        _same_arena(h, _checked_reference(raw))
        _same_arena(h, g)

    @given(mutated_games())
    def test_faults_are_named_as_by_the_checked_path(self, raw):
        got, want = _outcome(validate_game, raw), _outcome(_checked_reference, raw)
        if isinstance(want, GameGraph):
            # a rename that happens to land on a free slot, or no fault
            _same_arena(got, want)
        else:
            assert got == want

    def test_predecessor_masks_are_built_once_on_first_use(self, monkeypatch, tmp_path):
        calls = []
        build = GameGraph._build_index
        monkeypatch.setattr(GameGraph, "_build_index",
                            lambda g: (calls.append(g), build(g))[1])
        game = str(GAMES / "cobuchi_stabilize.json")
        p = {step: str(tmp_path / f"{step}.json")
             for step in ("solve", "template", "extract", "check", "verify")}
        for argv, built in [
            (["solve", game, "-o", p["solve"]], 1),
            (["template", game, "-o", p["template"]], 1),
            (["extract", game, p["template"], "-o", p["extract"]], 0),
            (["check", game, p["template"], p["extract"], "-o", p["check"]], 0),
            (["verify", game, p["extract"], "-o", p["verify"]], 1),
        ]:
            calls.clear()
            assert cli.main(argv) == 0
            assert len(calls) == built, argv[0]


def _json_strings():
    escapes = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')
    return st.text() | st.text(escapes | st.characters())


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True) | _json_strings())
    return st.recursive(
        scalars | st.lists(_json_strings()),
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                       | st.dictionaries(_json_strings(), inner)),
        max_leaves=40)


class TestDumpJson:
    """dump_json writes exactly what json.dumps(indent=2, sort_keys=True) does."""

    @given(_json_values())
    def test_equals_json_dumps(self, data):
        assert dump_json(data, None) == json.dumps(data, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("data", [
        {1: "a", 2: ["b"]}, {"x": {3: 1.5, 1: [], 2.5: {}}}, {None: 1}, [math.nan, -math.inf],
        ObjectiveKind.BUCHI, [ObjectiveKind.SAFETY], {"k": ("a", 1)}, {"s": True, "t": False},
    ])
    def test_other_shapes_go_through_json_dumps(self, data):
        assert dump_json(data, None) == json.dumps(data, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("data", [{1: "a", "b": 2}, [object()], {"a": {1, 2}}])
    def test_unencodable_data_raises_as_json_dumps(self, data):
        with pytest.raises(TypeError) as want:
            json.dumps(data, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            dump_json(data, None)
        assert str(got.value) == str(want.value)

    def test_circular_data_raises_as_json_dumps(self):
        data: list = []
        data.append(data)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dump_json(data, None)


class TestFixedScheduleRows:
    def test_unknown_action_raised_at_each_pick(self):
        # the loops build the rule at a state's first pick in each episode
        g = validate_game(tiny_raw())
        opp = FixedSchedule({"A": ActionDistribution.from_mapping({"d": 0.5, "z": 0.5}),
                             "B": ActionDistribution.uniform(("e",))})
        for _ in range(3):
            assert opp.rule(g, "B") == (("e", "e"), [1.0])
        for _ in range(2):
            with pytest.raises(UnknownAction) as e:
                opp.rule(g, "A")
            assert (e.value.state, e.value.action, e.value.player) == ("A", "z", 2)

    def test_row_checked_against_each_game(self):
        g = validate_game(tiny_raw())
        raw = tiny_raw()
        raw["p2_actions"]["B"] = ["d", "f"]
        raw["transitions"][-1]["p2"] = "f"
        h = validate_game(raw)
        opp = FixedSchedule({"B": ActionDistribution.uniform(("e",))})
        assert opp.rule(g, "B") == (("e", "e"), [1.0])
        with pytest.raises(UnknownAction):
            opp.rule(h, "B")


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

    def test_one_job_does_not_ask_for_the_cpu_count(self, monkeypatch):
        import congame.model as model_mod

        def boom():
            raise RuntimeError("os.cpu_count called")
        monkeypatch.setattr(model_mod.os, "cpu_count", boom)
        assert worker_count(1, 10) == 1

    def test_unknown_cpu_count_runs_serially(self, monkeypatch):
        import congame.model as model_mod
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: None)
        assert worker_count(10**6, 10) == 1
