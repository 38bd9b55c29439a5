"""Schedules, extraction, compliance, exact verification and simulation."""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congame import (
    ActionDistribution,
    ConflictError,
    EpisodeLog,
    FixedSchedule,
    GameGraph,
    GreedyAdversary,
    InputError,
    LiveFloorViolation,
    NonConstantSchedule,
    Objective,
    ObjectiveKind,
    Schedule,
    ScheduleStrategy,
    Template,
    UniformRandom,
    UnknownAction,
    UnknownState,
    check_compliance,
    extract_strategy,
    simulate,
    solve,
    solve_buchi,
    strategy_from_dict,
    template_for,
    validate_strategy,
    verify_memoryless,
)
from congame.corpus import rand_int, random_game, random_subset
from congame.strategies import _draws, _limit_sets, _sample

from .conftest import GAMES, game_graphs, games_with_objective, load_fixture, reference_pick
from .oracles import _supports, oracle_verify


def load_strategy(name: str) -> ScheduleStrategy:
    raw = json.loads((GAMES / name).read_text(encoding="utf-8"))
    return strategy_from_dict(raw)


def all_constant(v_to_probs) -> ScheduleStrategy:
    return ScheduleStrategy({
        v: {a: Schedule(p) for a, p in row.items()}
        for v, row in v_to_probs.items()
    })


class TestSchedules:
    def test_constant_distribution_is_visit_independent(self):
        s = all_constant({"A": {"a": 0.2, "b": 0.8}})
        assert s.distribution("A", 0).mass(("a",)) == pytest.approx(0.2)
        assert s.distribution("A", 57).mass(("b",)) == pytest.approx(0.8)

    def test_geometric_decays_against_constant(self):
        s = ScheduleStrategy(
            {"A": {"a": Schedule(0.5, 0.5), "b": Schedule(0.5)}})
        p0 = s.distribution("A", 0).mass(("a",))
        p3 = s.distribution("A", 3).mass(("a",))
        assert p0 == pytest.approx(0.5)
        assert p3 == pytest.approx((0.5 * 0.5 ** 3) / (0.5 + 0.5 * 0.5 ** 3))
        assert p3 < p0

    def test_weights_renormalize(self):
        s = all_constant({"A": {"a": 3.0, "b": 1.0}})
        d = s.distribution("A", 0)
        assert d.mass(("a",)) == pytest.approx(0.75)

    def test_all_geometric_row_keeps_its_weights_past_underflow(self):
        # c * r**n is 0.0 for both actions from visit n = 1074 on
        s = strategy_from_dict({"A": {"a": {"kind": "geometric", "c": 0.5, "r": 0.5},
                                      "b": {"kind": "geometric", "c": 0.25, "r": 0.5}}})
        d = s.distribution("A", 5000)
        assert d.mass(("a",)) == pytest.approx(2 / 3)
        assert d.mass(("b",)) == pytest.approx(1 / 3)

    def test_row_summing_past_the_float_range_is_rescaled(self):
        d = all_constant({"A": {"a": 1.7e308, "b": 1.7e308}}).distribution("A", 0)
        assert d.probs == (("a", 0.5), ("b", 0.5))
        # a finite sum keeps its shares bit for bit
        d = all_constant({"A": {"a": 1.2e308, "b": 0.5e308}}).distribution("A", 0)
        assert d.probs == (("a", 1.2e308 / 1.7e308), ("b", 0.5e308 / 1.7e308))

    @pytest.mark.parametrize("c, r", [(5e-324, 0.5), (0.5, 1.0), (2.0, 0.5), (1.7e308, 1.0)])
    def test_one_schedule_row_is_its_action_alone(self, c, r):
        s = ScheduleStrategy({"A": {"a": Schedule(c, r)}})
        for n in (0, 1, 5000):
            assert s.distribution("A", n).probs == (("a", 1.0),)

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
    def test_one_schedule_row_without_a_positive_finite_weight(self, c):
        with pytest.raises(InputError):
            ScheduleStrategy({"A": {"a": Schedule(c)}}).distribution("A", 0)

    def test_unknown_state(self):
        s = all_constant({"A": {"a": 1.0}})
        with pytest.raises(UnknownState):
            s.distribution("B", 0)

    def test_from_dict_round_trip(self):
        s = load_strategy("strategy_buchi_nonmax.json")
        raw = s.to_dict()
        again = strategy_from_dict(raw)
        assert again.to_dict() == raw
        assert again.schedules["B"]["a"] == Schedule(0.5, 0.5)

    def test_from_dict_rejects_bad_schedules(self):
        with pytest.raises(InputError):
            strategy_from_dict({"A": {"a": {"kind": "constant", "p": 0.0}}})
        with pytest.raises(InputError):
            strategy_from_dict({"A": {"a": {"kind": "geometric", "c": 1.0, "r": 1.0}}})
        with pytest.raises(InputError):
            strategy_from_dict({"A": {"a": {"kind": "linear", "p": 1.0}}})
        with pytest.raises(InputError):
            strategy_from_dict({"A": {}})

    @pytest.mark.parametrize("raw, message", [
        ({"A": [1]}, "strategy must map states to JSON objects of schedules"),
        ({"A": "a"}, "strategy must map states to JSON objects of schedules"),
        ({"A": {"a": {"kind": "constant"}}}, "constant weight must be a positive finite"),
        ({"A": {"a": {"kind": "constant", "p": float("nan")}}}, "constant weight"),
        ({"A": {"a": {"kind": "constant", "p": float("inf")}}}, "constant weight"),
        ({"A": {"a": {"kind": "constant", "p": 10 ** 400}}}, "constant weight"),
        ({"A": {"a": {"kind": "constant", "p": "0.5"}}}, "constant weight"),
        ({"A": {"a": {"kind": "constant", "p": True}}}, "constant weight"),
        ({"A": {"a": {"kind": "geometric", "c": float("inf"), "r": 0.5}}}, "bad geometric"),
        ({"A": {"a": {"kind": "geometric", "c": 0.5, "r": float("nan")}}}, "bad geometric"),
        ({"A": {"a": {"kind": "geometric", "c": 0.5}}}, "bad geometric"),
    ])
    def test_from_dict_rejects_wrong_types_and_non_finite(self, raw, message):
        with pytest.raises(InputError, match=message):
            strategy_from_dict(raw)

    def test_from_dict_accepts_integer_weights(self):
        s = strategy_from_dict({"A": {"a": {"kind": "constant", "p": 2},
                                      "b": {"kind": "geometric", "c": 1, "r": 0.5}}})
        assert s.schedules["A"] == {"a": Schedule(2.0), "b": Schedule(1.0, 0.5)}

    def test_ratio_one_is_constant_in_every_reader(self, buchi_game, buchi_objective):
        # a decaying schedule of ratio 1 built in code is the constant one
        rows = {"A": {"a": 0.25, "b": 0.75}, "B": {"a": 0.5, "b": 0.5}, "C": {"a": 1.0, "b": 2.0}}
        constant = strategy_from_dict(
            {v: {a: {"kind": "constant", "p": p} for a, p in row.items()} for v, row in rows.items()})
        ratio_one = ScheduleStrategy(
            {v: {a: Schedule(c=p, r=1.0) for a, p in row.items()} for v, row in rows.items()})
        for v, n in itertools.product(buchi_game.states, (0, 1, 5000)):
            assert ratio_one.distribution(v, n) == constant.distribution(v, n)
        dominant, _ = _limit_sets({"a": Schedule(0.5), "b": Schedule(c=0.5, r=1.0),
                                   "c": Schedule(0.5, 0.5)})
        assert dominant == {"a", "b"}
        assert verify_memoryless(buchi_game, ratio_one, buchi_objective) == \
            verify_memoryless(buchi_game, constant, buchi_objective)
        assert simulate(buchi_game, ratio_one, UniformRandom(), 50, 3, 0) == \
            simulate(buchi_game, constant, UniformRandom(), 50, 3, 0)
        assert ratio_one.to_dict() == constant.to_dict()

    def test_validate_strategy(self, buchi_game):
        # a state of the game without a row is missing, not unknown
        with pytest.raises(InputError, match="^strategy has no schedules at 'B'$") as e:
            validate_strategy(buchi_game, all_constant({"A": {"a": 1.0}}))
        assert type(e.value) is InputError
        rows = {v: {"a": 1.0} for v in "ABC"}
        with pytest.raises(UnknownState, match="^unknown state 'Z'$"):
            validate_strategy(buchi_game, all_constant({**rows, "Z": {"a": 1.0}}))
        bad = all_constant(
            {"A": {"z": 1.0}, "B": {"a": 1.0}, "C": {"a": 1.0}})
        with pytest.raises(UnknownAction):
            validate_strategy(buchi_game, bad)

    def test_validate_strategy_returns_the_positive_support(self, safety_game):
        s = ScheduleStrategy({"g": {"s": Schedule(0.0), "u": Schedule(1e-300, 0.5)},
                              "t": {"s": Schedule(1e-320)}})
        assert validate_strategy(safety_game, s) == [0b10, 0b1]


@pytest.mark.parametrize("row, missing", [
    ({}, "schedules"), ({"s": Schedule(0.0)}, "positive weight"),
], ids=["empty", "zero-weight"])
def test_row_without_positive_weight_is_an_input_error(safety_game, safety_objective, row, missing):
    s = ScheduleStrategy({"g": row, "t": {"s": Schedule(1.0)}})
    t = template_for(safety_game, safety_objective)
    message = f"^strategy has no {missing} at 'g'$"
    with pytest.raises(InputError, match=message):
        check_compliance(safety_game, t, s)
    with pytest.raises(InputError, match=message):
        verify_memoryless(safety_game, s, safety_objective)
    # a zero-weight row is only sampled, and rejected, at its first visit
    with pytest.raises(InputError, match=message):
        simulate(safety_game, s, UniformRandom(), horizon=1, episodes=1, seed=0)


class TestExtraction:
    def test_buchi_cycle_values(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        d_a = s.distribution("A", 0)
        assert d_a.mass(("a",)) == pytest.approx(0.55)
        assert d_a.mass(("b",)) == pytest.approx(0.45)
        # C carries the trivial group {a, b}; its witness "a" gets the floor
        d_c = s.distribution("C", 0)
        assert d_c.mass(("a",)) == pytest.approx(0.55)
        assert d_c.mass(("b",)) == pytest.approx(0.45)

    def test_cobuchi_stabilize_values(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        s = extract_strategy(cobuchi_game, t)
        d = s.distribution("S2", 0)
        third = 0.1 / 3.0
        base = 0.9 / 4.0
        assert d.mass(("a",)) == pytest.approx(base + third)
        assert d.mass(("b",)) == pytest.approx(base + third)
        assert d.mass(("x",)) == pytest.approx(base + third)
        assert d.mass(("y",)) == pytest.approx(base)

    def test_floor_guarantee_on_examples(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        s = extract_strategy(cobuchi_game, t, eps_live=0.3)
        for v in sorted(t.winning):
            groups = [h for h in t.groups_at(v) if h]
            if not groups:
                continue
            need = 0.3 / len(t.groups_at(v))
            d = s.distribution(v, 0)
            assert min(d.mass(h) for h in groups) >= need - 1e-12

    def test_colive_actions_get_geometric_schedules(self, cobuchi_game):
        t = Template(
            winning=frozenset(cobuchi_game.states),
            unsafe={},
            colive={"S2": frozenset({"x", "y"})},
            live={v: (frozenset({"a"}),) for v in cobuchi_game.states},
            partition=(frozenset({"S2"}),),
            objective_tag="cobuchi")
        s = extract_strategy(cobuchi_game, t, colive_base=0.125)
        assert s.schedules["S2"]["x"] == Schedule(0.125, 0.5)
        assert s.schedules["S2"]["y"] == Schedule(0.125, 0.5)
        assert s.schedules["S2"]["a"].r == 1.0

    def test_unsafe_actions_are_never_scheduled(self, safety_game, safety_objective):
        t = template_for(safety_game, safety_objective)
        s = extract_strategy(safety_game, t)
        assert set(s.schedules["g"]) == {"s"}

    def test_conflicted_template_is_rejected(self, safety_game):
        t = Template(
            winning=frozenset({"g"}),
            unsafe={"g": frozenset({"s", "u"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        with pytest.raises(ConflictError) as e:
            extract_strategy(safety_game, t)
        assert e.value.report.conflicts[0].state == "g"

    def test_uncarried_live_group_is_reported(self, buchi_game):
        # A's only live group is unsafe, and A lies on no cell, so the
        # conflict check passes but no allowed action can carry the floor
        t = Template(
            winning=frozenset(buchi_game.states),
            unsafe={"A": frozenset({"b"})},
            live={"A": (frozenset({"b"}),)},
            partition=(), colive={}, objective_tag="buchi")
        with pytest.raises(LiveFloorViolation) as e:
            extract_strategy(buchi_game, t)
        assert e.value.state == "A"
        assert "'A'" in str(e.value)

    @pytest.mark.parametrize("winning", [frozenset({"S2"}), frozenset()])
    def test_overflowing_colive_mass_is_rejected(self, cobuchi_game, winning):
        # two colive weights of 1e308 overflow the floor's inflation to inf,
        # and S2's one live group leaves no floor to place: no NaN weight
        # may reach the strategy, inside the winning region or outside it
        t = Template(
            winning=winning, unsafe={}, live={"S2": (frozenset({"x"}),)}, partition=(),
            colive={"S2": frozenset({"x", "y"})}, objective_tag="cobuchi")
        with pytest.raises(InputError, match="cannot fit live floors at 'S2'"):
            extract_strategy(cobuchi_game, t, colive_base=1e308)

    def test_parameter_validation(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        with pytest.raises(InputError):
            extract_strategy(buchi_game, t, eps_live=0.0)
        with pytest.raises(InputError):
            extract_strategy(buchi_game, t, colive_base=-1.0)
        for eps_live, colive_base in ((float("nan"), 0.25), (0.1, float("nan")),
                                      (0.1, float("inf"))):
            with pytest.raises(InputError):
                extract_strategy(buchi_game, t, eps_live, colive_base)

    @given(games_with_objective())
    @settings(max_examples=60)
    def test_extraction_is_compliant(self, go):
        g, obj = go
        t = template_for(g, obj)
        s = extract_strategy(g, t)
        assert check_compliance(g, t, s).status == "compliant"


class TestCompliance:
    def test_unsafe_violation(self, safety_game, safety_objective):
        t = template_for(safety_game, safety_objective)
        s = all_constant({"g": {"s": 0.5, "u": 0.5}, "t": {"s": 1.0}})
        verdict = check_compliance(safety_game, t, s)
        assert verdict.status == "noncompliant"
        assert (verdict.state, verdict.clause) == ("g", "unsafe")

    def test_zero_weight_is_not_played(self, safety_game, safety_objective):
        # compliance and verify read the same support: `u` is not in it
        t = template_for(safety_game, safety_objective)
        s = all_constant({"g": {"s": 1.0, "u": 0.0}, "t": {"s": 1.0}})
        assert check_compliance(safety_game, t, s).status == "compliant"
        assert verify_memoryless(safety_game, s, safety_objective) == {"g"}

    def test_colive_violation(self, cobuchi_game, cobuchi_objective):
        t = Template(
            winning=frozenset(cobuchi_game.states),
            unsafe={},
            colive={"S2": frozenset({"b"})},
            live={}, partition=(), objective_tag="cobuchi")
        s = all_constant({
            "S0": {"a": 1.0}, "S1": {"a": 1.0},
            "S2": {"a": 0.5, "b": 0.5},
            "S3": {"a": 1.0}, "S4": {"a": 1.0}})
        verdict = check_compliance(cobuchi_game, t, s)
        assert verdict.status == "noncompliant"
        assert (verdict.state, verdict.clause) == ("S2", "colive")

    def test_colive_with_decay_is_fine(self, cobuchi_game):
        t = Template(
            winning=frozenset(cobuchi_game.states),
            unsafe={},
            colive={"S2": frozenset({"b"})},
            live={}, partition=(), objective_tag="cobuchi")
        s = strategy_from_dict({
            "S0": {"a": {"kind": "constant", "p": 1.0}},
            "S1": {"a": {"kind": "constant", "p": 1.0}},
            "S2": {"a": {"kind": "constant", "p": 1.0},
                   "b": {"kind": "geometric", "c": 0.25, "r": 0.5}},
            "S3": {"a": {"kind": "constant", "p": 1.0}},
            "S4": {"a": {"kind": "constant", "p": 1.0}}})
        assert check_compliance(cobuchi_game, t, s).status == "compliant"

    def test_live_violation(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = load_strategy("strategy_buchi_nonmax.json")
        verdict = check_compliance(buchi_game, t, s)
        assert verdict.status == "noncompliant"
        assert (verdict.state, verdict.clause) == ("A", "live")

    def test_vanishing_live_mass_is_unknown(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = strategy_from_dict({
            "A": {"a": {"kind": "geometric", "c": 0.5, "r": 0.5},
                  "b": {"kind": "constant", "p": 0.5}},
            "B": {"a": {"kind": "constant", "p": 1.0}},
            "C": {"a": {"kind": "constant", "p": 1.0}}})
        verdict = check_compliance(buchi_game, t, s)
        assert verdict.status == "unknown"
        assert (verdict.state, verdict.clause) == ("A", "live")

    def test_all_geometric_dominance_by_ratio(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = strategy_from_dict({
            "A": {"a": {"kind": "geometric", "c": 0.1, "r": 0.9},
                  "b": {"kind": "geometric", "c": 0.9, "r": 0.5}},
            "B": {"a": {"kind": "constant", "p": 1.0}},
            "C": {"a": {"kind": "constant", "p": 1.0}}})
        # the slower-decaying schedule carries the live group {a}
        assert check_compliance(buchi_game, t, s).status == "compliant"

    def test_verdict_dict(self):
        from congame import ComplianceVerdict
        ok = ComplianceVerdict("compliant")
        assert ok.to_dict() == {"verdict": "compliant"}
        bad = ComplianceVerdict("noncompliant", "A", "live")
        assert bad.to_dict() == {
            "verdict": "noncompliant", "state": "A", "clause": "live"}


@st.composite
def verify_cases(draw):
    """An arena, a nonempty target and a constant strategy on the arena whose
    support at each state is a random nonempty set of actions."""
    g = draw(game_graphs())
    target = frozenset(draw(st.sets(st.sampled_from(g.states), min_size=1)))
    schedules = {}
    for v in g.states:
        acts = draw(st.lists(st.sampled_from(g.p1_actions(v)), min_size=1, unique=True))
        schedules[v] = {a: Schedule(draw(st.floats(0.1, 2.0))) for a in acts}
    return g, target, ScheduleStrategy(schedules)


# Every state wins cobuchi {q0, q1}: q1 is absorbing, and at q0 the opponent's
# e leaves for q2 against a but for q1 against b.  In the second trim round q0
# and q2 remain; only the stays-in-Y condition of the reach (apre2) stops q0,
# whose e also leaves that set, from reaching q2.  Without it q0 and q2 stay
# bad and only q1 would win.
COBUCHI_REACH_WITNESS = (
    GameGraph(
        ["q0", "q1", "q2"],
        {"q0": ["a", "b"], "q1": ["a"], "q2": ["a"]},
        {"q0": ["d", "e"], "q1": ["d"], "q2": ["d", "e"]},
        {("q0", "a", "d"): "q0", ("q0", "a", "e"): "q2",
         ("q0", "b", "d"): "q0", ("q0", "b", "e"): "q1",
         ("q1", "a", "d"): "q1",
         ("q2", "a", "d"): "q1", ("q2", "a", "e"): "q0"}),
    frozenset({"q0", "q1"}),
    all_constant({"q0": {"a": 1.0, "b": 1.0}, "q1": {"a": 1.0}, "q2": {"a": 1.0}}),
)

# at `g`, `s` stays and `u` moves to the absorbing `t`
SAFETY_GADGET = load_fixture("safety_gadget.json")[0]


class TestVerifyMemoryless:
    def test_safety_gadget(self, safety_game, safety_objective):
        s = all_constant({"g": {"s": 1.0}, "t": {"s": 1.0}})
        assert verify_memoryless(safety_game, s, safety_objective) == {"g"}
        leaky = all_constant({"g": {"s": 0.5, "u": 0.5}, "t": {"s": 1.0}})
        assert verify_memoryless(safety_game, leaky, safety_objective) \
            == frozenset()

    def test_buchi_extracted_wins_everywhere(self, buchi_game, buchi_objective):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        assert verify_memoryless(buchi_game, s, buchi_objective) \
            == frozenset(buchi_game.states)

    def test_buchi_all_b_never_progresses(self, buchi_game, buchi_objective):
        s = all_constant(
            {"A": {"b": 1.0}, "B": {"b": 1.0}, "C": {"a": 1.0}})
        assert verify_memoryless(buchi_game, s, buchi_objective) == {"C"}

    def test_cobuchi_nonmaximal_strategy_still_wins(
            self, cobuchi_game, cobuchi_objective):
        s = load_strategy("strategy_cobuchi_nonmax.json")
        assert verify_memoryless(cobuchi_game, s, cobuchi_objective) \
            == frozenset(cobuchi_game.states)

    def test_unknown_target_state(self, buchi_game):
        s = all_constant({v: {"a": 1.0} for v in buchi_game.states})
        with pytest.raises(UnknownState, match="^unknown state 'zz'$"):
            verify_memoryless(buchi_game, s, Objective(ObjectiveKind.BUCHI, frozenset({"zz"})))

    def test_reads_no_sampled_distribution(self, buchi_game, buchi_objective, monkeypatch):
        s = extract_strategy(buchi_game, template_for(buchi_game, buchi_objective))
        want = verify_memoryless(buchi_game, s, buchi_objective)

        def no_distribution(self, v, visit):
            raise AssertionError("verify sampled a distribution")

        monkeypatch.setattr(ScheduleStrategy, "distribution", no_distribution)
        assert verify_memoryless(buchi_game, s, buchi_objective) == want

    def test_requires_constant_schedules(self, buchi_game, buchi_objective):
        s = load_strategy("strategy_buchi_nonmax.json")
        with pytest.raises(NonConstantSchedule):
            verify_memoryless(buchi_game, s, buchi_objective)

    def test_cobuchi_detects_oscillation(self, cobuchi_game):
        # forcing play through S4 forever violates eventual stability
        s = all_constant({
            "S0": {"a": 1.0}, "S1": {"a": 1.0},
            "S2": {"b": 1.0},
            "S3": {"a": 1.0}, "S4": {"a": 1.0}})
        obj = Objective(ObjectiveKind.COBUCHI, frozenset({"S0", "S1", "S2", "S3"}))
        verified = verify_memoryless(cobuchi_game, s, obj)
        assert "S2" not in verified
        assert "S4" not in verified

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    @given(case=verify_cases())
    @example(case=COBUCHI_REACH_WITNESS)
    @example(case=(SAFETY_GADGET, frozenset({"g"}),
                   all_constant({"g": {"s": 1e300, "u": 1e-300}, "t": {"s": 1.0}})))
    @example(case=(SAFETY_GADGET, frozenset({"g"}),
                   all_constant({"g": {"s": 1.7e308, "u": 1.7e308}, "t": {"s": 1.0}})))
    @settings(max_examples=100)
    def test_matches_brute_force_oracle(self, kind, case):
        g, target, s = case
        obj = Objective(kind, target)
        assert verify_memoryless(g, s, obj) == oracle_verify(g, s, obj)

    @given(games_with_objective(kinds=(ObjectiveKind.SAFETY, ObjectiveKind.BUCHI)))
    @settings(max_examples=40)
    def test_extracted_strategy_verifies_winning_region(self, go):
        g, obj = go
        t = template_for(g, obj)
        s = extract_strategy(g, t)
        decomp = solve(g, obj)
        assert decomp.winning <= verify_memoryless(g, s, obj)


class TestSupportProfiles:
    """Regions and templates checked against strategies, not formulas: every
    profile of P1 supports (one nonempty action set per state) as a uniform
    constant strategy, verified by the brute-force oracle.

    Memoryless randomized strategies suffice for almost-sure safety and buchi
    (de Alfaro, Henzinger and Kupferman, TCS 2007; de Alfaro and Henzinger,
    LICS 2000), so the union of the profiles' regions is the winning region;
    for cobuchi only its inclusion holds in general.  A profile that the
    template calls compliant must win from the whole winning region.

    The converse does not hold: templates are not maximally permissive.  Over
    3,000 seeded arenas of 2-4 states, 4,234 profiles won on all of W yet
    were noncompliant (of the 3,680 in arenas 600-2,999: 2,626 failed a buchi
    live group, 911 a cobuchi colive set, 143 a cobuchi live group), because
    live groups are kept per state, not over a cell.  So that is not checked.
    """

    @given(st.integers(0, 2 ** 32), st.integers(2, 4), st.sampled_from(list(ObjectiveKind)))
    @settings(max_examples=300)
    def test_union_of_profile_regions_is_the_winning_region(self, seed, n, kind):
        rng = random.Random(seed)
        g = random_game(rng, n_states=n)
        obj = Objective(kind, random_subset(rng, g.states, 1 + rand_int(rng, n)))
        t = template_for(g, obj)
        won = solve(g, obj).winning
        union: frozenset[str] = frozenset()
        for profile in itertools.product(*(list(_supports(g.p1_actions(v))) for v in g.states)):
            s = ScheduleStrategy({v: dict.fromkeys(acts, Schedule(1.0))
                                  for v, acts in zip(g.states, profile)})
            region = oracle_verify(g, s, obj)
            union |= region
            if check_compliance(g, t, s).status == "compliant":
                assert won <= region, (profile, sorted(region))
        if kind is ObjectiveKind.COBUCHI:
            assert union <= won
        else:
            assert union == won


class TestOpponents:
    def test_fixed_schedule_from_dict(self, cobuchi_game):
        opp = FixedSchedule.from_dict({"S2": {"d": 0.5, "e": 0.5, "f": 0}}, cobuchi_game)
        assert opp.table == {"S2": ActionDistribution.from_mapping({"d": 0.5, "e": 0.5})}

    @pytest.mark.parametrize("raw", [
        [1], {"S2": "de"}, {"S2": [0.5, 0.5]}, {"S2": {"d": "0.5", "e": 0.5}},
        {"S2": {"d": float("nan"), "e": 0.5}}, {"S2": {"d": float("inf")}},
        {"S2": {"d": True}},
    ])
    def test_fixed_schedule_from_dict_rejects(self, cobuchi_game, raw):
        with pytest.raises(InputError, match="opponent must map states"):
            FixedSchedule.from_dict(raw, cobuchi_game)

    def test_fixed_schedule_from_dict_checks_states_and_sums(self, cobuchi_game):
        with pytest.raises(InputError, match="unknown state 'zz'"):
            FixedSchedule.from_dict({"zz": {"d": 1.0}}, cobuchi_game)
        with pytest.raises(UnknownAction, match="^unknown player-2 action 'zz' at state 'S3'$"):
            FixedSchedule.from_dict({"S2": {"d": 1.0}, "S3": {"zz": 1.0}}, cobuchi_game)
        with pytest.raises(InputError, match="sums to"):
            FixedSchedule.from_dict({"S2": {"d": 0.5}}, cobuchi_game)

    def test_fixed_schedule_fallback(self, cobuchi_game):
        assert FixedSchedule({}).rule(cobuchi_game, "S2") == "d"

    def test_fixed_schedule_validates_actions(self, cobuchi_game):
        opp = FixedSchedule({"S2": ActionDistribution.uniform(("z",))})
        with pytest.raises(UnknownAction, match="^unknown player-2 action 'z' at state 'S2'$"):
            opp.rule(cobuchi_game, "S2")

    @given(st.integers(0, 2 ** 32), st.integers(1, 5), st.data())
    @settings(max_examples=60)
    def test_rule_plays_as_pick(self, game_seed, n, data):
        # rows missing, of one action, or uniform over a random subset; the
        # rule is played as the episode loops play it, next to reference_pick
        # and to the row read afresh: the lexicographically first action
        # without a draw where a fixed schedule has no row, else one _sample
        # of the distribution
        g = random_game(random.Random(game_seed), n_states=n)
        table = {}
        for v in g.states:
            acts = data.draw(st.lists(st.sampled_from(g.p2_actions(v)), unique=True, max_size=3))
            if acts:
                table[v] = ActionDistribution.uniform(acts[:data.draw(st.sampled_from([1, 3]))])
        d1 = ActionDistribution.uniform(("a",))
        for opp in (UniformRandom(), FixedSchedule(table)):
            for v in g.states:
                d = ActionDistribution.uniform(g.p2_actions(v)) \
                    if isinstance(opp, UniformRandom) else table.get(v)
                rule = opp.rule(g, v)
                seed = data.draw(st.integers(0, 2 ** 32))
                played, picked, want = (random.Random(seed) for _ in range(3))
                got = [rule if isinstance(rule, str)
                       else rule[0][bisect_right(rule[1], played.random())] for _ in range(50)]
                assert got == [reference_pick(opp, g, v, d1, picked) for _ in range(50)]
                assert got == [g.p2_actions(v)[0] if d is None else _sample(want, d)
                               for _ in range(50)]
                assert played.getstate() == picked.getstate() == want.getstate()

    def test_greedy_rule_is_none(self, cobuchi_game, cobuchi_objective):
        # None where P2 has several actions; elsewhere the one action, which
        # `pick` returns too
        adv = GreedyAdversary(solve(cobuchi_game, cobuchi_objective).ranks)
        rules = {v: adv.rule(cobuchi_game, v) for v in cobuchi_game.states}
        assert rules == {"S0": "d", "S1": "d", "S2": None, "S3": "d", "S4": "d"}
        for v, rule in rules.items():
            if rule is not None:
                d1 = ActionDistribution.uniform(cobuchi_game.p1_actions(v))
                assert adv.pick(cobuchi_game, v, d1) == rule

    def test_greedy_prefers_high_rank_successor(self, cobuchi_game, cobuchi_objective):
        ranks = solve(cobuchi_game, cobuchi_objective).ranks
        adv = GreedyAdversary(ranks)
        d1 = ActionDistribution.uniform(("a",))
        # against pure a: d lands in rank 0, e in rank 2, f in rank 1
        assert adv.pick(cobuchi_game, "S2", d1) == "e"

    def test_greedy_breaks_ties_lexicographically(self, buchi_game, buchi_objective):
        ranks = solve(buchi_game, buchi_objective).ranks
        adv = GreedyAdversary(ranks)
        d1 = ActionDistribution.uniform(("b",))
        assert adv.pick(buchi_game, "A", d1) == "a"

    @given(game_graphs(), st.data())
    def test_greedy_matches_a_rank_scan(self, g, data):
        # ranks may overlap and miss states: a state scores its first rank,
        # a state in none one past the last
        ranks = tuple(data.draw(st.lists(st.frozensets(st.sampled_from(g.states)), max_size=4)))

        def score(w):
            return next((i for i, x in enumerate(ranks) if w in x), len(ranks))

        adv = GreedyAdversary(ranks)
        for v in g.states:
            acts = data.draw(st.lists(st.sampled_from(g.p1_actions(v)), min_size=1, unique=True))
            d1 = ActionDistribution.uniform(acts)
            want, best = None, -1.0
            for b in g.p2_actions(v):
                got = sum(p * score(g.succ(v, a, b)) for a, p in d1.probs)
                if got > best + 1e-12:
                    want, best = b, got
            assert adv.pick(g, v, d1) == want


def reference_episode(g, s, opponent, horizon, seed, start, target=frozenset(), episode=0):
    """One simulated episode that asks the strategy and `reference_pick` at
    every visit, with its visits in first-visit order (the state it ends
    on included) and the target counts of the states it passes."""
    rng = random.Random(seed)
    v = start
    visits: dict[str, int] = {}
    steps = []
    for _ in range(horizon):
        n = visits.get(v, 0)
        visits[v] = n + 1
        d1 = s.distribution(v, n)
        a = _sample(rng, d1)
        b = reference_pick(opponent, g, v, d1, rng)
        w = g.succ(v, a, b)
        steps.append((v, a, b, w))
        v = w
    visits[v] = visits.get(v, 0) + 1
    seen = [start] + [w for *_, w in steps]
    suffix = 0
    while suffix < len(seen) and seen[-1 - suffix] in target:
        suffix += 1
    return EpisodeLog(episode, seed, start, steps, visits,
                      sum(u in target for u in seen), suffix)


def assert_logs_equal(got, want):
    """Equal logs, with their visits in the same order."""
    assert got == want
    assert [list(log.visits.items()) for log in got] == [list(log.visits.items()) for log in want]


@st.composite
def simulation_setups(draw):
    """A random arena with an extracted or hand-built schedule strategy (its
    geometric rows may decay below the smallest float), an opponent, a
    horizon, a seed and a start state.  Some arenas get a sink: a state whose
    first P1 action loops back to it against every P2 action, and where a
    hand-built strategy plays that action alone.  Against the fixed opponent a
    sink draws from a one-slot table at the first state and plays the fallback
    action elsewhere."""
    g, obj = draw(games_with_objective(max_states=6))
    sink = draw(st.none() | st.sampled_from(g.states))
    if sink is not None:
        p1 = {v: g.p1_actions(v) for v in g.states}
        p2 = {v: g.p2_actions(v) for v in g.states}
        g = GameGraph(g.states, p1, p2, {
            (v, a, b): sink if (v, a) == (sink, p1[v][0]) else g.succ(v, a, b)
            for v in g.states for a in p1[v] for b in p2[v]})
    if draw(st.booleans()):
        # cobuchi templates give their colive actions geometric rows
        t = template_for(g, obj)
        s = extract_strategy(g, t, colive_base=draw(st.sampled_from([0.25, 2.0])))
    else:
        schedules = {}
        for v in g.states:
            acts = g.p1_actions(v)[:1] if v == sink else \
                draw(st.lists(st.sampled_from(g.p1_actions(v)), min_size=1, unique=True))
            schedules[v] = {a: draw(st.one_of(
                st.builds(Schedule, st.floats(0.1, 2.0), st.just(1.0)),
                st.builds(Schedule, st.floats(0.1, 2.0), st.sampled_from([0.5, 0.9, 1e-200]))))
                for a in acts}
        s = ScheduleStrategy(schedules)
    opp = draw(st.sampled_from([
        UniformRandom(),
        FixedSchedule({g.states[0]: ActionDistribution.uniform(g.p2_actions(g.states[0])[-1:])}),
        GreedyAdversary(solve(g, obj).ranks),
    ]))
    starts = g.states if sink is None else (sink, *g.states)
    return (g, s, opp, draw(st.integers(0, 60)), draw(st.integers(0, 1000)),
            draw(st.sampled_from(starts)), frozenset(draw(st.sets(st.sampled_from(g.states)))))


class TestSimulation:
    def test_deterministic_given_seed(self, buchi_game, buchi_objective):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        kw = dict(horizon=50, episodes=5, seed=7, target=buchi_objective.target)
        first = simulate(buchi_game, s, UniformRandom(), **kw)
        second = simulate(buchi_game, s, UniformRandom(), **kw)
        assert [log.to_dict() for log in first] == [log.to_dict() for log in second]

    def test_jobs_do_not_change_results(self, buchi_game, buchi_objective):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        kw = dict(horizon=40, episodes=4, seed=3, target=buchi_objective.target)
        seq = simulate(buchi_game, s, UniformRandom(), jobs=1, **kw)
        par = simulate(buchi_game, s, UniformRandom(), jobs=2, **kw)
        assert [log.to_dict() for log in seq] == [log.to_dict() for log in par]

    def test_episode_seeds_are_offset(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        logs = simulate(buchi_game, s, UniformRandom(),
                        horizon=10, episodes=3, seed=100)
        assert [log.seed for log in logs] == [100, 101, 102]
        assert [log.episode for log in logs] == [0, 1, 2]

    def test_buchi_target_visit_counts(self, buchi_game, buchi_objective):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        logs = simulate(buchi_game, s, UniformRandom(),
                        horizon=1000, episodes=50, seed=0,
                        target=buchi_objective.target)
        assert all(log.target_visits >= 100 for log in logs)

    def test_log_bookkeeping(self, buchi_game, buchi_objective):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        (log,) = simulate(buchi_game, s, UniformRandom(),
                          horizon=25, episodes=1, seed=1,
                          target=buchi_objective.target)
        assert log.start == "A"
        assert len(log.steps) == 25
        assert sum(log.visits.values()) == 26
        states_seen = [log.start] + [w for _, _, _, w in log.steps]
        assert log.target_visits == states_seen.count("C")
        suffix = 0
        for u in reversed(states_seen):
            if u != "C":
                break
            suffix += 1
        assert log.longest_target_suffix == suffix

    def test_start_state_override(self, cobuchi_game):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(["S0", "S1", "S2", "S3"])))
        s = extract_strategy(cobuchi_game, t)
        (log,) = simulate(cobuchi_game, s, UniformRandom(),
                          horizon=5, episodes=1, seed=0, start="S4")
        assert log.start == "S4"
        assert log.steps[0][0] == "S4"
        with pytest.raises(UnknownState):
            simulate(cobuchi_game, s, UniformRandom(),
                     horizon=5, episodes=1, seed=0, start="zz")

    def test_bad_parameters(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        with pytest.raises(InputError):
            simulate(buchi_game, s, UniformRandom(),
                     horizon=-1, episodes=1, seed=0)

    @given(simulation_setups())
    @settings(max_examples=150)
    def test_equals_per_visit_reference(self, setup):
        # simulate keeps P1's draw table at all-constant rows, and greedy's
        # first pick there, and stops drawing at a sink; the reference asks
        # the strategy and the opponent at every visit.  Each horizon whose
        # last step is the first one at a state and loops back to it is
        # played as well
        g, s, opp, horizon, seed, start, target = setup
        horizons = {0, horizon}
        with contextlib.suppress(InputError):
            steps = reference_episode(g, s, opp, horizon, seed, start).steps
            horizons |= {k + 1 for k, (v, *_, w) in enumerate(steps)
                         if v == w and all(u[0] != v for u in steps[:k])}
        for h in sorted(horizons):
            kw = dict(horizon=h, episodes=2, seed=seed, start=start, target=target)
            try:
                want = [reference_episode(g, s, opp, h, seed + i, start, target, i)
                        for i in range(2)]
            except InputError as e:
                with pytest.raises(InputError) as got:
                    simulate(g, s, opp, **kw)
                assert (type(got.value), str(got.value)) == (type(e), str(e))
                continue
            assert_logs_equal(simulate(g, s, opp, **kw), want)

    def test_row_without_positive_weight_raises_on_first_visit(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        table = dict(extract_strategy(buchi_game, t).schedules)
        table["A"] = {a: Schedule(0.0) for a in table["A"]}
        s = ScheduleStrategy(table)
        (log,) = simulate(buchi_game, s, UniformRandom(), horizon=0, episodes=1, seed=0)
        assert log.steps == []
        with pytest.raises(InputError, match="strategy has no positive weight at 'A'"):
            simulate(buchi_game, s, UniformRandom(), horizon=1, episodes=1, seed=0)

    def test_greedy_picks_once_per_all_constant_row(self, buchi_game, buchi_objective,
                                                    monkeypatch):
        # A and C have all-constant rows and two P2 actions, so greedy's rule
        # is None there and its first pick is the state's fixed action; B's
        # row has a geometric schedule, so it is picked at every visit
        s = load_strategy("strategy_buchi_nonmax.json")
        adv = GreedyAdversary(solve(buchi_game, buchi_objective).ranks)
        calls: list[str] = []
        pick = GreedyAdversary.pick
        monkeypatch.setattr(GreedyAdversary, "pick",
                            lambda self, g, v, *args: calls.append(v) or pick(self, g, v, *args))
        most = 0
        for seed in range(10):
            calls.clear()
            (log,) = simulate(buchi_game, s, adv, horizon=200, episodes=1, seed=seed)
            played = [v for v, *_ in log.steps]
            assert {v: calls.count(v) for v in "AC"} == {v: min(1, played.count(v)) for v in "AC"}
            assert calls.count("B") == played.count("B")
            most = max(most, played.count("A"))
        assert most > 2


class _Fixed:
    """A stand-in for random.Random whose draws all return `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


class TestDrawTable:
    # weights may be as small as 1e-300 and need not sum to 1, so running
    # sums can stay flat and the last one can lie below 1
    @given(st.lists(st.one_of(st.floats(1e-300, 1.0), st.sampled_from([1e-300, 1e-17, 0.5])),
                    min_size=1, max_size=6),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5))
    @example([0.5, 1e-17, 0.25, 1e-300, 0.25], [])
    @example([0.3, 0.3], [0.6, 0.7, 0.999])
    def test_equals_sample(self, weights, extra):
        d = ActionDistribution(tuple((f"a{i}", w) for i, w in enumerate(weights)))
        acts, cums = _draws(d)
        near = [x for c in cums for x in (c, math.nextafter(c, 0.0), math.nextafter(c, 1.0))]
        for u in [0.0, *near, *extra]:
            if 0.0 <= u < 1.0:
                assert acts[bisect_right(cums, u)] == _sample(_Fixed(u), d)

    def test_falls_through_to_the_last_action(self):
        d = ActionDistribution((("a", 0.25), ("b", 0.25)))
        acts, cums = _draws(d)
        assert (acts, cums) == (("a", "b", "b"), [0.25, 0.5])
        assert acts[bisect_right(cums, 0.75)] == _sample(_Fixed(0.75), d) == "b"
