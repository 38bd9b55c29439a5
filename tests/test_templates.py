"""Template synthesis, canonicalization and conflict detection."""

from __future__ import annotations

import re

import pytest
from hypothesis import given

from congame import (
    InputError,
    Objective,
    ObjectiveKind,
    Template,
    UnknownAction,
    UnknownState,
    canonical_groups,
    check_conflict_free,
    check_weight_params,
    solve,
    template_for,
    template_from_dict,
    validate_template,
)

from .conftest import games_with_objective, golden_json


class TestSynthesis:
    @given(games_with_objective())
    def test_given_decomposition_matches_own_solve(self, go):
        g, obj = go
        t = template_for(g, obj, solve(g, obj))
        assert t == template_for(g, obj)
        assert t.objective_tag == obj.kind.value

    def test_decomposition_of_another_game_rejected(
            self, buchi_game, buchi_objective, safety_game, safety_objective):
        with pytest.raises(UnknownState):
            template_for(buchi_game, buchi_objective, solve(safety_game, safety_objective))

    def test_safety_gadget(self, safety_game):
        t = template_for(safety_game, Objective(ObjectiveKind.SAFETY, frozenset(["g"])))
        assert t.winning == {"g"}
        assert t.unsafe_at("g") == {"u"}
        assert t.unsafe_at("t") == frozenset()
        assert t.groups_at("g") == (frozenset({"s"}),)
        assert t.partition == ()
        assert t.objective_tag == "safety"

    def test_buchi_cycle_matches_golden(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        assert t.to_dict() == golden_json("template_buchi_cycle.json")

    def test_buchi_cycle_structure(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        assert t.partition == (frozenset({"A", "B"}),)
        assert t.groups_at("A") == (frozenset({"a"}),)
        assert t.groups_at("C") == (frozenset({"a", "b"}),)
        assert not t.unsafe and not t.colive

    def test_cobuchi_stabilize_matches_golden(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        assert t.to_dict() == golden_json("template_cobuchi_stabilize.json")

    def test_cobuchi_stabilize_structure(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        assert t.partition == (frozenset({"S2", "S3"}), frozenset({"S4"}))
        assert t.groups_at("S2") == (
            frozenset({"a", "y"}), frozenset({"b"}), frozenset({"x"}))
        assert t.groups_at("S3") == (frozenset(),)
        assert t.groups_at("S4") == (frozenset({"a"}),)
        assert not t.colive

    def test_dispatch(self, safety_game, safety_objective):
        t = template_for(safety_game, safety_objective)
        assert t.objective_tag == "safety"
        assert t.unsafe_at("g") == {"u"}

    @given(games_with_objective())
    def test_synthesized_templates_are_conflict_free(self, go):
        g, obj = go
        t = template_for(g, obj)
        assert check_conflict_free(g, t).ok

    @given(games_with_objective())
    def test_synthesized_template_shape(self, go):
        g, obj = go
        t = template_for(g, obj)
        validate_template(g, t)
        seen: set[str] = set()
        for cell in t.partition:
            assert cell <= t.winning
            assert not cell & seen
            seen |= cell
        for v in g.states:
            assert t.groups_at(v), v
            s = t.unsafe_at(v)
            for h in t.groups_at(v):
                assert not h & s
            assert not t.colive_at(v) & s


class TestCanonical:
    def test_dedupe_and_order(self):
        groups = canonical_groups([["b", "a"], ["a", "b"], ["a"], []])
        assert groups == (frozenset(), frozenset({"a"}), frozenset({"a", "b"}))


class TestReadingAtState:
    def test_split_at_partitions_the_actions(self, safety_game):
        t = Template(
            winning=frozenset({"g"}), unsafe={"g": frozenset({"u", "zz"})},
            live={}, partition=(), colive={"g": frozenset({"s", "u"})},
            objective_tag="safety")
        # colive excludes unsafe; names the game does not have are dropped
        assert t.split_at(safety_game, "g") == (frozenset({"u"}), frozenset({"s"}), frozenset())
        assert t.split_at(safety_game, "t") == (frozenset(), frozenset(), frozenset({"s"}))

    @given(games_with_objective())
    def test_split_at_covers_every_action_once(self, go):
        g, obj = go
        t = template_for(g, obj)
        for v in g.states:
            unsafe, colive, persistent = t.split_at(g, v)
            assert unsafe | colive | persistent == frozenset(g.p1_actions(v))
            assert len(unsafe) + len(colive) + len(persistent) == len(g.p1_actions(v))

    def test_live_floor_divides_by_group_count(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, cobuchi_objective)
        assert len(t.groups_at("S2")) == 3
        assert t.live_floor("S2", 0.3) == 0.3 / 3
        assert t.live_floor("S3", 0.3) == 0.3  # one empty group
        assert t.live_floor("nowhere", 0.3) == 0.3  # no groups at all

    @pytest.mark.parametrize("eps_live, colive_base, message", [
        (0.0, 0.25, "eps_live must lie in (0, 1)"),
        (1.0, 0.25, "eps_live must lie in (0, 1)"),
        (float("nan"), 0.25, "eps_live must lie in (0, 1)"),
        (0.1, 0.0, "colive_base must be positive and finite"),
        (0.1, -1.0, "colive_base must be positive and finite"),
        (0.1, float("nan"), "colive_base must be positive and finite"),
        (0.1, float("inf"), "colive_base must be positive and finite"),
    ])
    def test_weight_params_rejected(self, eps_live, colive_base, message):
        with pytest.raises(InputError, match=re.escape(message)):
            check_weight_params(eps_live, colive_base)

    def test_weight_params_accepted(self):
        check_weight_params(0.5, 1e300)


class TestSerialization:
    def test_round_trip(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        u = template_from_dict(t.to_dict())
        assert u.winning == t.winning
        assert u.partition == t.partition
        assert dict(u.live) == dict(t.live)
        assert dict(u.unsafe) == dict(t.unsafe)
        assert dict(u.colive) == dict(t.colive)
        assert u.objective_tag == t.objective_tag

    def test_missing_key(self):
        with pytest.raises(InputError):
            template_from_dict({"winning": [], "live": {}, "partition": []})

    @pytest.mark.parametrize("key, value", [
        ("winning", "AB"), ("winning", [1]), ("partition", ["B"]),
        ("partition", [[1]]), ("live", []), ("live", {"A": ["a"]}),
        ("unsafe", {"A": "ab"}), ("colive", []), ("objective_tag", 5),
    ])
    def test_wrong_json_types_rejected(self, key, value):
        raw = {"winning": ["A", "B"], "live": {"A": [["a"]]},
               "partition": [["B"]], "objective_tag": "buchi", key: value}
        with pytest.raises(InputError, match=f"template {key} must"):
            template_from_dict(raw)

    def test_validate_unknown_state(self, safety_game):
        t = Template(
            winning=frozenset({"zz"}), unsafe={}, live={}, partition=(),
            colive={}, objective_tag="safety")
        with pytest.raises(UnknownState):
            validate_template(safety_game, t)

    def test_validate_unknown_action(self, safety_game):
        t = Template(
            winning=frozenset({"g"}), unsafe={"g": frozenset({"q"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        with pytest.raises(UnknownAction):
            validate_template(safety_game, t)


class TestConflicts:
    def test_all_actions_unsafe(self, safety_game):
        t = Template(
            winning=frozenset({"g"}),
            unsafe={"g": frozenset({"s", "u"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        report = check_conflict_free(safety_game, t)
        assert not report.ok
        clauses = [c.clause for c in report.conflicts]
        assert clauses == ["no-safe-action", "no-persistent-action"]
        assert report.conflicts[0].state == "g"
        assert report.conflicts[0].witness == ("s", "u")

    def test_unsafe_plus_colive_exhausts(self, safety_game):
        t = Template(
            winning=frozenset({"g"}),
            unsafe={"g": frozenset({"u"})},
            colive={"g": frozenset({"s"})},
            live={}, partition=(), objective_tag="safety")
        report = check_conflict_free(safety_game, t)
        assert [c.clause for c in report.conflicts] == ["no-persistent-action"]

    def test_live_group_blocked(self, safety_game):
        t = Template(
            winning=frozenset({"g"}),
            unsafe={},
            colive={"g": frozenset({"s"})},
            live={"g": (frozenset({"s"}),)},
            partition=(frozenset({"g"}),),
            objective_tag="buchi")
        report = check_conflict_free(safety_game, t)
        assert [c.clause for c in report.conflicts] == ["live-group-blocked"]
        assert report.conflicts[0].witness == ("s",)

    def test_empty_groups_are_exempt(self, safety_game):
        t = Template(
            winning=frozenset({"g"}),
            unsafe={"g": frozenset({"u"})},
            live={"g": (frozenset(),)},
            partition=(frozenset({"g"}),),
            colive={}, objective_tag="cobuchi")
        assert check_conflict_free(safety_game, t).ok

    def test_losing_states_not_checked(self, safety_game):
        t = Template(
            winning=frozenset(),
            unsafe={"g": frozenset({"s", "u"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        assert check_conflict_free(safety_game, t).ok

    def test_report_dict(self, safety_game):
        t = Template(
            winning=frozenset({"g"}),
            unsafe={"g": frozenset({"s", "u"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        raw = check_conflict_free(safety_game, t).to_dict()
        assert raw["conflict_free"] is False
        assert raw["conflicts"][0] == {
            "state": "g", "clause": "no-safe-action", "witness": ["s", "u"]}

    def test_clean_report_dict(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        assert check_conflict_free(buchi_game, t).to_dict() == {
            "conflict_free": True, "conflicts": []}


class TestObjectiveKinds:
    @given(games_with_objective(kinds=(ObjectiveKind.BUCHI,)))
    def test_buchi_target_states_get_trivial_groups(self, go):
        g, obj = go
        t = template_for(g, obj)
        cell_states = t.cell_states()
        for v in sorted(t.winning & obj.target):
            if v not in cell_states:
                expect = frozenset(g.p1_actions(v)) - t.unsafe_at(v)
                assert t.groups_at(v) == (expect,)
