"""Schedules, extraction, compliance, exact verification and simulation."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congame import (
    ActionDistribution,
    ConflictError,
    Constant,
    FixedSchedule,
    Geometric,
    GreedyAdversary,
    InputError,
    LiveFloorViolation,
    NonConstantSchedule,
    Objective,
    ObjectiveKind,
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
from congame.strategies import _sample

from .conftest import GAMES, games_with_objective
from .oracles import oracle_verify


def load_strategy(name: str) -> ScheduleStrategy:
    raw = json.loads((GAMES / name).read_text(encoding="utf-8"))
    return strategy_from_dict(raw)


def all_constant(v_to_probs) -> ScheduleStrategy:
    return ScheduleStrategy({
        v: {a: Constant(p) for a, p in row.items()}
        for v, row in v_to_probs.items()
    })


class TestSchedules:
    def test_constant_distribution_is_visit_independent(self):
        s = all_constant({"A": {"a": 0.2, "b": 0.8}})
        assert s.distribution("A", 0).prob("a") == pytest.approx(0.2)
        assert s.distribution("A", 57).prob("b") == pytest.approx(0.8)

    def test_geometric_decays_against_constant(self):
        s = ScheduleStrategy(
            {"A": {"a": Geometric(0.5, 0.5), "b": Constant(0.5)}})
        p0 = s.distribution("A", 0).prob("a")
        p3 = s.distribution("A", 3).prob("a")
        assert p0 == pytest.approx(0.5)
        assert p3 == pytest.approx((0.5 * 0.5 ** 3) / (0.5 + 0.5 * 0.5 ** 3))
        assert p3 < p0

    def test_weights_renormalize(self):
        s = all_constant({"A": {"a": 3.0, "b": 1.0}})
        d = s.distribution("A", 0)
        assert d.prob("a") == pytest.approx(0.75)

    def test_all_geometric_row_keeps_its_weights_past_underflow(self):
        # c * r**n is 0.0 for both actions from visit n = 1074 on
        s = strategy_from_dict({"A": {"a": {"kind": "geometric", "c": 0.5, "r": 0.5},
                                      "b": {"kind": "geometric", "c": 0.25, "r": 0.5}}})
        d = s.distribution("A", 5000)
        assert d.prob("a") == pytest.approx(2 / 3)
        assert d.prob("b") == pytest.approx(1 / 3)

    def test_unknown_state(self):
        s = all_constant({"A": {"a": 1.0}})
        with pytest.raises(UnknownState):
            s.distribution("B", 0)

    def test_from_dict_round_trip(self):
        s = load_strategy("strategy_buchi_nonmax.json")
        raw = s.to_dict()
        again = strategy_from_dict(raw)
        assert again.to_dict() == raw
        assert isinstance(again.schedules["B"]["a"], Geometric)

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
        assert s.schedules["A"] == {"a": Constant(2.0), "b": Geometric(1.0, 0.5)}

    def test_validate_strategy(self, buchi_game):
        with pytest.raises(UnknownState):
            validate_strategy(buchi_game, all_constant({"A": {"a": 1.0}}))
        bad = all_constant(
            {"A": {"z": 1.0}, "B": {"a": 1.0}, "C": {"a": 1.0}})
        with pytest.raises(UnknownAction):
            validate_strategy(buchi_game, bad)


class TestExtraction:
    def test_buchi_cycle_values(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        s = extract_strategy(buchi_game, t)
        d_a = s.distribution("A", 0)
        assert d_a.prob("a") == pytest.approx(0.55)
        assert d_a.prob("b") == pytest.approx(0.45)
        # C carries the trivial group {a, b}; its witness "a" gets the floor
        d_c = s.distribution("C", 0)
        assert d_c.prob("a") == pytest.approx(0.55)
        assert d_c.prob("b") == pytest.approx(0.45)

    def test_cobuchi_stabilize_values(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        s = extract_strategy(cobuchi_game, t)
        d = s.distribution("S2", 0)
        third = 0.1 / 3.0
        base = 0.9 / 4.0
        assert d.prob("a") == pytest.approx(base + third)
        assert d.prob("b") == pytest.approx(base + third)
        assert d.prob("x") == pytest.approx(base + third)
        assert d.prob("y") == pytest.approx(base)

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
        assert s.schedules["S2"]["x"] == Geometric(0.125, 0.5)
        assert s.schedules["S2"]["y"] == Geometric(0.125, 0.5)
        assert isinstance(s.schedules["S2"]["a"], Constant)

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
        assert check_compliance(g, t, s).compliant


class TestCompliance:
    def test_unsafe_violation(self, safety_game, safety_objective):
        t = template_for(safety_game, safety_objective)
        s = all_constant({"g": {"s": 0.5, "u": 0.5}, "t": {"s": 1.0}})
        verdict = check_compliance(safety_game, t, s)
        assert verdict.status == "noncompliant"
        assert (verdict.state, verdict.clause) == ("g", "unsafe")

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
        assert check_compliance(cobuchi_game, t, s).compliant

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
        assert check_compliance(buchi_game, t, s).compliant

    def test_verdict_dict(self):
        from congame import ComplianceVerdict
        ok = ComplianceVerdict("compliant")
        assert ok.to_dict() == {"verdict": "compliant"}
        bad = ComplianceVerdict("noncompliant", "A", "live")
        assert bad.to_dict() == {
            "verdict": "noncompliant", "state": "A", "clause": "live"}


@st.composite
def constant_strategies(draw, g):
    """A constant strategy on `g` whose support at each state is a random
    nonempty set of actions."""
    schedules = {}
    for v in g.states:
        acts = draw(st.lists(st.sampled_from(g.p1_actions(v)), min_size=1, unique=True))
        schedules[v] = {a: Constant(draw(st.floats(0.1, 2.0))) for a in acts}
    return ScheduleStrategy(schedules)


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
    @given(data=st.data())
    @settings(max_examples=100)
    def test_matches_brute_force_oracle(self, kind, data):
        g, obj = data.draw(games_with_objective(kinds=(kind,)))
        s = data.draw(constant_strategies(g))
        assert verify_memoryless(g, s, obj) == oracle_verify(g, s, obj)

    @given(games_with_objective(kinds=(ObjectiveKind.SAFETY, ObjectiveKind.BUCHI)))
    @settings(max_examples=40)
    def test_extracted_strategy_verifies_winning_region(self, go):
        g, obj = go
        t = template_for(g, obj)
        s = extract_strategy(g, t)
        decomp = solve(g, obj)
        assert decomp.winning <= verify_memoryless(g, s, obj)


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
        with pytest.raises(InputError, match="sums to"):
            FixedSchedule.from_dict({"S2": {"d": 0.5}}, cobuchi_game)

    def test_fixed_schedule_fallback(self, cobuchi_game):
        opp = FixedSchedule({})
        d1 = ActionDistribution.point("a")
        assert opp.pick(cobuchi_game, "S2", d1, random.Random(0)) == "d"

    def test_fixed_schedule_validates_actions(self, cobuchi_game):
        opp = FixedSchedule({"S2": ActionDistribution.point("z")})
        with pytest.raises(UnknownAction):
            opp.pick(cobuchi_game, "S2", ActionDistribution.point("a"),
                     random.Random(0))

    def test_greedy_prefers_high_rank_successor(self, cobuchi_game, cobuchi_objective):
        ranks = solve(cobuchi_game, cobuchi_objective).ranks
        adv = GreedyAdversary(ranks)
        d1 = ActionDistribution.point("a")
        # against pure a: d lands in rank 0, e in rank 2, f in rank 1
        assert adv.pick(cobuchi_game, "S2", d1, random.Random(0)) == "e"

    def test_greedy_breaks_ties_lexicographically(self, buchi_game, buchi_objective):
        ranks = solve(buchi_game, buchi_objective).ranks
        adv = GreedyAdversary(ranks)
        d1 = ActionDistribution.point("b")
        assert adv.pick(buchi_game, "A", d1, random.Random(0)) == "a"


def reference_steps(g, s, opponent, horizon, seed, start):
    """One simulated episode that asks the strategy at every visit."""
    rng = random.Random(seed)
    v = start
    visits: dict[str, int] = {}
    steps = []
    for _ in range(horizon):
        n = visits.get(v, 0)
        visits[v] = n + 1
        d1 = s.distribution(v, n)
        a = _sample(rng, d1)
        b = opponent.pick(g, v, d1, rng)
        w = g.succ(v, a, b)
        steps.append((v, a, b, w))
        v = w
    return steps


@st.composite
def simulation_setups(draw):
    """A random arena with an extracted or hand-built schedule strategy (its
    geometric rows may decay below the smallest float), an opponent, a
    horizon, a seed and a start state."""
    g, obj = draw(games_with_objective(max_states=6))
    if draw(st.booleans()):
        # cobuchi templates give their colive actions geometric rows
        t = template_for(g, obj)
        s = extract_strategy(g, t, colive_base=draw(st.sampled_from([0.25, 2.0])))
    else:
        schedules = {}
        for v in g.states:
            acts = draw(st.lists(st.sampled_from(g.p1_actions(v)), min_size=1, unique=True))
            schedules[v] = {a: draw(st.one_of(
                st.builds(Constant, st.floats(0.1, 2.0)),
                st.builds(Geometric, st.floats(0.1, 2.0), st.sampled_from([0.5, 0.9, 1e-200]))))
                for a in acts}
        s = ScheduleStrategy(schedules)
    opp = draw(st.sampled_from([
        UniformRandom(),
        FixedSchedule({g.states[0]: ActionDistribution.point(g.p2_actions(g.states[0])[-1])}),
        GreedyAdversary(solve(g, obj).ranks),
    ]))
    return (g, s, opp, draw(st.integers(0, 60)), draw(st.integers(0, 1000)),
            draw(st.sampled_from(g.states)))


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
        # simulate keeps the distribution of all-constant rows; the
        # reference asks the strategy at every visit
        g, s, opp, horizon, seed, start = setup
        try:
            want = [reference_steps(g, s, opp, horizon, seed + i, start) for i in range(2)]
        except InputError as e:
            with pytest.raises(InputError) as got:
                simulate(g, s, opp, horizon=horizon, episodes=2, seed=seed, start=start)
            assert (type(got.value), str(got.value)) == (type(e), str(e))
            return
        logs = simulate(g, s, opp, horizon=horizon, episodes=2, seed=seed, start=start)
        assert [log.steps for log in logs] == want

    def test_row_without_positive_weight_raises_on_first_visit(self, buchi_game):
        t = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        table = dict(extract_strategy(buchi_game, t).schedules)
        table["A"] = {a: Constant(0.0) for a in table["A"]}
        s = ScheduleStrategy(table)
        (log,) = simulate(buchi_game, s, UniformRandom(), horizon=0, episodes=1, seed=0)
        assert log.steps == []
        with pytest.raises(InputError, match="strategy has no positive weight at 'A'"):
            simulate(buchi_game, s, UniformRandom(), horizon=1, episodes=1, seed=0)
