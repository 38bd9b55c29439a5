"""Opponent modeling and online probability adaptation."""

from __future__ import annotations

import pytest

from congame import (
    ActionDistribution,
    FixedSchedule,
    GameGraph,
    Infeasible,
    InputError,
    Objective,
    ObjectiveKind,
    OpponentModel,
    RewardSpec,
    Template,
    UniformRandom,
    UnknownAction,
    UnknownState,
    adapt_step,
    run_adaptive,
    template_for,
    update_model,
)


@pytest.fixture(scope="module")
def chain_game() -> GameGraph:
    # P: stay via a, move to the rewarding Q via b; Q absorbing
    return GameGraph(
        ["P", "Q"],
        {"P": ["a", "b"], "Q": ["a"]},
        {"P": ["d"], "Q": ["d"]},
        {("P", "a", "d"): "P", ("P", "b", "d"): "Q", ("Q", "a", "d"): "Q"},
    )


def chain_template(**overrides) -> Template:
    base = dict(
        winning=frozenset({"P", "Q"}),
        unsafe={},
        live={"P": (frozenset({"a"}),), "Q": (frozenset({"a"}),)},
        partition=(),
        colive={},
        objective_tag="safety",
    )
    base.update(overrides)
    return Template(**base)


class TestRewardSpec:
    def test_defaults_to_zero(self):
        r = RewardSpec({"Q": 5.0})
        assert r.at("Q") == 5.0
        assert r.at("P") == 0.0

    def test_from_dict_validates_states(self, chain_game):
        with pytest.raises(UnknownState):
            RewardSpec.from_dict({"zz": 1.0}, chain_game)
        r = RewardSpec.from_dict({"Q": 2}, chain_game)
        assert r.at("Q") == 2.0

    @pytest.mark.parametrize("raw", [
        {"Q": "x"}, {"Q": "1.5"}, {"Q": float("nan")}, {"Q": float("inf")},
        {"Q": True}, {"Q": None}, {"Q": [1.0]}, {"Q": 10 ** 400}, [1.0],
    ])
    def test_from_dict_rejects_non_numbers(self, chain_game, raw):
        with pytest.raises(InputError, match="reward spec must map states to finite numbers"):
            RewardSpec.from_dict(raw, chain_game)

    def test_round_trip(self):
        r = RewardSpec({"b": 1.0, "a": -2.5})
        assert r.to_dict() == {"a": -2.5, "b": 1.0}


class TestOpponentModel:
    def test_uniform_prior(self, cobuchi_game):
        m = OpponentModel(alpha=1.0)
        d = m.estimate(cobuchi_game, "S2")
        assert d.prob("d") == pytest.approx(1.0 / 3.0)
        assert d.prob("e") == pytest.approx(1.0 / 3.0)

    def test_counts_shift_estimate(self, cobuchi_game):
        m = OpponentModel(alpha=1.0)
        m = update_model(cobuchi_game, m, "S2", "d")
        m = update_model(cobuchi_game, m, "S2", "d")
        d = m.estimate(cobuchi_game, "S2")
        assert d.prob("d") == pytest.approx(3.0 / 5.0)
        assert d.prob("e") == pytest.approx(1.0 / 5.0)
        assert d.prob("f") == pytest.approx(1.0 / 5.0)

    def test_update_is_functional(self, cobuchi_game):
        m0 = OpponentModel(alpha=1.0)
        m1 = update_model(cobuchi_game, m0, "S2", "e")
        assert m0.counts == {}
        assert m1.counts["S2"]["e"] == 1
        m2 = update_model(cobuchi_game, m1, "S2", "e")
        assert m1.counts["S2"]["e"] == 1
        assert m2.counts["S2"]["e"] == 2

    def test_update_rejects_unknown_action(self, cobuchi_game):
        with pytest.raises(UnknownAction):
            update_model(cobuchi_game, OpponentModel(), "S0", "e")

    def test_alpha_smoothing_strength(self, cobuchi_game):
        weak = OpponentModel(alpha=0.1)
        weak = update_model(cobuchi_game, weak, "S2", "d")
        strong = update_model(cobuchi_game, OpponentModel(alpha=10.0), "S2", "d")
        assert weak.estimate(cobuchi_game, "S2").prob("d") \
            > strong.estimate(cobuchi_game, "S2").prob("d")


class TestAdaptStep:
    def test_reward_chasing(self, chain_game):
        t = chain_template()
        d = adapt_step(chain_game, t, "P", 0, OpponentModel(),
                       RewardSpec({"Q": 5.0}))
        # floor 0.1 stays on the live action a, the rest chases Q via b
        assert d.prob("a") == pytest.approx(0.1)
        assert d.prob("b") == pytest.approx(0.9)

    def test_unsafe_gets_nothing(self, chain_game):
        t = chain_template(unsafe={"P": frozenset({"b"})})
        d = adapt_step(chain_game, t, "P", 0, OpponentModel(),
                       RewardSpec({"Q": 5.0}))
        assert d.prob("b") == 0.0
        assert d.prob("a") == pytest.approx(1.0)

    def test_colive_cap_shrinks_with_visits(self, chain_game):
        t = chain_template(colive={"P": frozenset({"b"})})
        reward = RewardSpec({"Q": 5.0})
        d0 = adapt_step(chain_game, t, "P", 0, OpponentModel(), reward)
        d3 = adapt_step(chain_game, t, "P", 3, OpponentModel(), reward)
        assert d0.prob("b") == pytest.approx(0.25)
        assert d3.prob("b") == pytest.approx(0.25 / 8.0)
        assert d0.prob("a") == pytest.approx(0.75)

    def test_ties_break_lexicographically(self, chain_game):
        t = chain_template()
        d = adapt_step(chain_game, t, "P", 0, OpponentModel(), RewardSpec({}))
        # both actions have expected reward 0; "a" wins the remainder
        assert d.prob("a") == pytest.approx(1.0)

    def test_floor_lands_on_best_group_member(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        d = adapt_step(cobuchi_game, t, "S2", 0, OpponentModel(),
                       RewardSpec({"S0": 1.0}))
        third = 0.1 / 3.0
        # groups {a,y}, {b}, {x}: floors keep a, b, x; remainder joins a
        assert d.prob("a") == pytest.approx(third + 0.9)
        assert d.prob("b") == pytest.approx(third)
        assert d.prob("x") == pytest.approx(third)
        assert d.prob("y") == 0.0

    def test_model_steers_group_witness(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        m = OpponentModel(alpha=0.05)
        for _ in range(20):
            m = update_model(cobuchi_game, m, "S2", "d")
        # against near-pure d the group {a, y} floor moves with the rewards:
        # reward on S1 favors y (y/d lands in S1), reward on S0 favors a
        d_y = adapt_step(cobuchi_game, t, "S2", 0, m, RewardSpec({"S1": 1.0}))
        assert d_y.prob("y") > 0.0
        d_a = adapt_step(cobuchi_game, t, "S2", 0, m, RewardSpec({"S0": 1.0}))
        assert d_a.prob("y") == 0.0
        assert d_a.prob("a") > 0.9

    def test_infeasible_all_unsafe(self, chain_game):
        t = chain_template(unsafe={"P": frozenset({"a", "b"})}, live={})
        with pytest.raises(Infeasible):
            adapt_step(chain_game, t, "P", 0, OpponentModel(), RewardSpec({}))

    def test_infeasible_all_colive(self, chain_game):
        t = chain_template(colive={"P": frozenset({"a", "b"})}, live={})
        with pytest.raises(Infeasible):
            adapt_step(chain_game, t, "P", 0, OpponentModel(), RewardSpec({}))


class TestRunAdaptive:
    def test_trace_and_bookkeeping(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        run = run_adaptive(
            cobuchi_game, t, RewardSpec({"S0": 1.0}), UniformRandom(),
            horizon=50, seed=0, start="S2")
        assert run.violations == 0
        assert len(run.rows) == 50
        assert run.rows[-1][5] == pytest.approx(run.total_reward)
        csv = run.trace_csv()
        lines = csv.splitlines()
        assert lines[0] == "step,state,chosen_action,opponent_action,reward,cumulative"
        assert len(lines) == 51
        total_updates = sum(
            n for row in run.model.counts.values() for n in row.values())
        assert total_updates == 50

    def test_deterministic(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        kw = dict(horizon=30, seed=9, start="S2")
        r1 = run_adaptive(cobuchi_game, t, RewardSpec({"S0": 1.0}),
                          UniformRandom(), **kw)
        r2 = run_adaptive(cobuchi_game, t, RewardSpec({"S0": 1.0}),
                          UniformRandom(), **kw)
        assert r1.rows == r2.rows
        assert r1.total_reward == r2.total_reward

    def test_adapts_to_stationary_opponent(self, cobuchi_game, cobuchi_objective):
        # heavy-d opponent at S2: entering S0 through action a pays off
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        opp = FixedSchedule({"S2": ActionDistribution.from_mapping(
            {"d": 0.8, "e": 0.1, "f": 0.1})})
        run = run_adaptive(
            cobuchi_game, t, RewardSpec({"S0": 1.0}), opp,
            horizon=300, seed=1, start="S2")
        assert run.violations == 0
        assert run.total_reward > 100.0

    def test_validates_start(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        with pytest.raises(UnknownState):
            run_adaptive(cobuchi_game, t, RewardSpec({}), UniformRandom(),
                         horizon=5, seed=0, start="zz")

    @pytest.mark.parametrize("params, message", [
        ({"eps_live": float("nan")}, "eps_live must lie in"),
        ({"eps_live": 1.0}, "eps_live must lie in"),
        ({"colive_base": -1.0}, "colive_base must be positive and finite"),
        ({"colive_base": float("inf")}, "colive_base must be positive and finite"),
        ({"alpha": 0.0}, "alpha must be positive and finite"),
        ({"alpha": -1.0}, "alpha must be positive and finite"),
        ({"alpha": float("nan")}, "alpha must be positive and finite"),
        ({"alpha": float("inf")}, "alpha must be positive and finite"),
    ])
    def test_rejects_bad_parameters(self, cobuchi_game, cobuchi_objective, params, message):
        # the same weight-parameter check as extraction, plus the model's alpha
        t = template_for(cobuchi_game, cobuchi_objective)
        with pytest.raises(InputError, match=message):
            run_adaptive(cobuchi_game, t, RewardSpec({}), UniformRandom(),
                         horizon=5, seed=0, **params)
