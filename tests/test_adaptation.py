"""Opponent modeling and online probability adaptation."""

from __future__ import annotations

import contextlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congame import (
    ActionDistribution,
    FixedSchedule,
    GameGraph,
    GreedyAdversary,
    Infeasible,
    InputError,
    Objective,
    ObjectiveKind,
    OpponentModel,
    RewardSpec,
    Schedule,
    ScheduleStrategy,
    Template,
    UniformRandom,
    UnknownAction,
    UnknownState,
    adapt_step,
    extract_strategy,
    run_adaptive,
    simulate,
    solve,
    template_for,
    update_model,
)
from congame import adaptation
from congame.corpus import random_game
from congame.strategies import _sample

from .conftest import GAMES, reference_pick
from .digests import play_digest


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


class TestOpponentModel:
    def test_uniform_prior(self, cobuchi_game):
        m = OpponentModel(alpha=1.0)
        d = m.estimate(cobuchi_game, "S2")
        assert d.mass(("d",)) == pytest.approx(1.0 / 3.0)
        assert d.mass(("e",)) == pytest.approx(1.0 / 3.0)

    def test_counts_shift_estimate(self, cobuchi_game):
        m = OpponentModel(alpha=1.0)
        m = update_model(cobuchi_game, m, "S2", "d")
        m = update_model(cobuchi_game, m, "S2", "d")
        d = m.estimate(cobuchi_game, "S2")
        assert d.mass(("d",)) == pytest.approx(3.0 / 5.0)
        assert d.mass(("e",)) == pytest.approx(1.0 / 5.0)
        assert d.mass(("f",)) == pytest.approx(1.0 / 5.0)

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
        assert weak.estimate(cobuchi_game, "S2").mass(("d",)) \
            > strong.estimate(cobuchi_game, "S2").mass(("d",))


class TestAdaptStep:
    def test_reward_chasing(self, chain_game):
        t = chain_template()
        d = adapt_step(chain_game, t, "P", 0, OpponentModel(),
                       RewardSpec({"Q": 5.0}))
        # floor 0.1 stays on the live action a, the rest chases Q via b
        assert d.mass(("a",)) == pytest.approx(0.1)
        assert d.mass(("b",)) == pytest.approx(0.9)

    def test_unsafe_gets_nothing(self, chain_game):
        t = chain_template(unsafe={"P": frozenset({"b"})})
        d = adapt_step(chain_game, t, "P", 0, OpponentModel(),
                       RewardSpec({"Q": 5.0}))
        assert d.mass(("b",)) == 0.0
        assert d.mass(("a",)) == pytest.approx(1.0)

    def test_colive_cap_shrinks_with_visits(self, chain_game):
        t = chain_template(colive={"P": frozenset({"b"})})
        reward = RewardSpec({"Q": 5.0})
        d0 = adapt_step(chain_game, t, "P", 0, OpponentModel(), reward)
        d3 = adapt_step(chain_game, t, "P", 3, OpponentModel(), reward)
        assert d0.mass(("b",)) == pytest.approx(0.25)
        assert d3.mass(("b",)) == pytest.approx(0.25 / 8.0)
        assert d0.mass(("a",)) == pytest.approx(0.75)

    def test_ties_break_lexicographically(self, chain_game):
        t = chain_template()
        d = adapt_step(chain_game, t, "P", 0, OpponentModel(), RewardSpec({}))
        # both actions have expected reward 0; "a" wins the remainder
        assert d.mass(("a",)) == pytest.approx(1.0)

    def test_ties_break_lexicographically_on_every_interpreter(self):
        # against the estimate [0.5, 0.25, 0.25], "b" earns 1e16, 1.0 and
        # -1e16: 0.0 added left to right (3.12's compensated sum gives 1.0),
        # which ties with "a"'s all-zero row
        g = GameGraph(
            ["O", "P", "X", "Y", "Z"],
            {v: ["a", "b"] if v == "P" else ["a"] for v in "OPXYZ"},
            {v: ["d", "e", "f"] if v == "P" else ["d"] for v in "OPXYZ"},
            {("P", "a", "d"): "O", ("P", "a", "e"): "O", ("P", "a", "f"): "O",
             ("P", "b", "d"): "X", ("P", "b", "e"): "Y", ("P", "b", "f"): "Z",
             **{(v, "a", "d"): v for v in "OXYZ"}})
        t = Template(frozenset(g.states), {}, {}, (), {}, "safety")
        reward = RewardSpec({"X": 2e16, "Y": 4.0, "Z": -4e16})
        plan = adaptation._Plan(g, t, "P", reward, 0.1)
        assert adaptation._greedy(plan, [0.5, 0.25, 0.25], 0, 0.25).probs == (("a", 1.0),)
        model = OpponentModel(counts={"P": {"d": 1}})
        assert adapt_step(g, t, "P", 0, model, reward).probs == (("a", 1.0),)

    def test_floor_lands_on_best_group_member(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        d = adapt_step(cobuchi_game, t, "S2", 0, OpponentModel(),
                       RewardSpec({"S0": 1.0}))
        third = 0.1 / 3.0
        # groups {a,y}, {b}, {x}: floors keep a, b, x; remainder joins a
        assert d.mass(("a",)) == pytest.approx(third + 0.9)
        assert d.mass(("b",)) == pytest.approx(third)
        assert d.mass(("x",)) == pytest.approx(third)
        assert d.mass(("y",)) == 0.0

    def test_model_steers_group_witness(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, Objective(
            ObjectiveKind.COBUCHI, frozenset(cobuchi_objective.target)))
        m = OpponentModel(alpha=0.05)
        for _ in range(20):
            m = update_model(cobuchi_game, m, "S2", "d")
        # against near-pure d the group {a, y} floor moves with the rewards:
        # reward on S1 favors y (y/d lands in S1), reward on S0 favors a
        d_y = adapt_step(cobuchi_game, t, "S2", 0, m, RewardSpec({"S1": 1.0}))
        assert d_y.mass(("y",)) > 0.0
        d_a = adapt_step(cobuchi_game, t, "S2", 0, m, RewardSpec({"S0": 1.0}))
        assert d_a.mass(("y",)) == 0.0
        assert d_a.mass(("a",)) > 0.9

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

    @pytest.mark.parametrize("r", [0.1, 1 / 3, 1e-17, -0.0, -2.5])
    def test_sink_tail_adds_as_cum_plus_r(self, chain_game, r):
        # Q is a sink; from P the colive a steps back to P a few times first
        t = chain_template(colive={"P": frozenset({"a"})})
        for start, seed in (("Q", 0), ("P", 0), ("P", 1), ("P", 2)):
            run = run_adaptive(chain_game, t, RewardSpec({"P": 0.7, "Q": r}), UniformRandom(),
                               horizon=5000, seed=seed, start=start)
            cum, want = 0.0, []
            for row in run.rows:
                cum += row[4]
                want.append(cum.hex())
            assert [row[5].hex() for row in run.rows] == want
            assert run.total_reward.hex() == want[-1]
            assert run.rows[-2][1:4] == ("Q", "a", "d")

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


def reference_run(g, t, reward, opponent, horizon, seed, start,
                  eps_live=0.1, colive_base=0.25, alpha=1.0):
    """An adaptive episode assembled from the public step functions: the
    estimate and the move rebuilt by adapt_step, the counts copied by
    update_model and the template's constraints read again at every step."""
    rng = random.Random(seed)
    model = OpponentModel(alpha=alpha)
    v = start
    visits: dict[str, int] = {}
    rows = []
    cum = 0.0
    violations = 0
    for step in range(horizon):
        n = visits.get(v, 0)
        visits[v] = n + 1
        d = adapt_step(g, t, v, n, model, reward, eps_live, colive_base)
        unsafe, colive, persistent = t.split_at(g, v)
        groups = tuple(h for h in t.groups_at(v) if h & persistent)
        checks = (unsafe, colive, t.live_floor(v, eps_live), groups)
        if not adaptation._complies(checks, d, n, colive_base):
            violations += 1
        a = _sample(rng, d)
        b = reference_pick(opponent, g, v, d, rng)
        model = update_model(g, model, v, b)
        w = g.succ(v, a, b)
        r = reward.at(w)
        cum += r
        rows.append((step, v, a, b, r, cum))
        v = w
    return rows, cum, violations, model.counts


def assert_matches_reference(g, t, reward, opponent, **kw):
    try:
        want = reference_run(g, t, reward, opponent, **kw)
    except InputError as e:
        with pytest.raises(InputError) as got:
            run_adaptive(g, t, reward, opponent, **kw)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    run = run_adaptive(g, t, reward, opponent, **kw)
    assert (run.rows, run.total_reward, run.violations, run.model.counts) == want


@st.composite
def adaptive_setups(draw):
    """A random arena, a template of it, an opponent and the loop's parameters.
    Some arenas get a sink: a state with one P2 action whose first P1 action
    loops back to it, and maybe a one-outcome state whose step leaves it; the
    template leaves only that action at both.  Their starts favour the sink,
    and some of their horizons end on the first step at the sink."""
    g = random_game(random.Random(draw(st.integers(0, 2 ** 32))),
                    n_states=draw(st.integers(1, 6)))
    sink = draw(st.none() | st.sampled_from(g.states))
    one = ()
    if sink is not None:
        other = draw(st.sampled_from(g.states))
        one = (sink,) if other == sink else (sink, other)
        p1 = {v: g.p1_actions(v) for v in g.states}
        p2 = {v: g.p2_actions(v)[:1] if v in one else g.p2_actions(v) for v in g.states}
        delta = {(v, a, b): g.succ(v, a, b) for v in g.states for a in p1[v] for b in p2[v]}
        for v in one:
            delta[v, p1[v][0], p2[v][0]] = sink if v == sink else draw(
                st.sampled_from([u for u in g.states if u != v]))
        g = GameGraph(g.states, p1, p2, delta)
    states = st.sampled_from(g.states)
    kind = draw(st.sampled_from([*ObjectiveKind, "hand-built"]))
    target = frozenset(draw(st.sets(states, min_size=1)))
    objective = Objective(ObjectiveKind.BUCHI if kind == "hand-built" else kind, target)
    t = template_for(g, objective)
    if kind == "hand-built":
        def subsets(v):
            return st.frozensets(st.sampled_from(g.p1_actions(v)))
        unsafe = {v: draw(subsets(v)) for v in g.states}
        colive = {v: draw(subsets(v)) for v in g.states}
        live = {v: tuple(draw(st.lists(subsets(v), max_size=3))) for v in g.states}
        if draw(st.booleans()):
            # a state the template leaves no move at
            v = draw(states)
            (unsafe if draw(st.booleans()) else colive)[v] = frozenset(g.p1_actions(v))
        t = Template(t.winning, unsafe, live, t.partition, colive, "hand-built")
    if one:
        t = t._replace(unsafe={**t.unsafe, **{v: frozenset(g.p1_actions(v)[1:]) for v in one}},
                       colive={**t.colive, **dict.fromkeys(one, frozenset())})
    opponent = draw(st.sampled_from(["uniform", "fixed", "greedy"]))
    if opponent == "uniform":
        opp = UniformRandom()
    elif opponent == "fixed":
        table = {}
        # sorted, so that the draws do not follow the hash seed's set order
        for v in sorted(draw(st.sets(states))):
            acts = draw(st.lists(st.sampled_from(g.p2_actions(v)), min_size=1, unique=True))
            table[v] = ActionDistribution.uniform(acts)
        opp = FixedSchedule(table)
    else:
        opp = GreedyAdversary(solve(g, objective).ranks)
    reward = RewardSpec({v: draw(st.floats(-3.0, 3.0)) for v in sorted(draw(st.sets(states)))})
    kw = dict(
        horizon=draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 1000)),
        start=draw(st.sampled_from((*one, *one, *g.states))),
        eps_live=draw(st.floats(1e-6, 0.99)),
        colive_base=draw(st.floats(1e-3, 4.0)),
        # the extreme values underflow an estimated share, or all of them
        alpha=draw(st.one_of(st.floats(0.01, 50.0), st.sampled_from([5e-324, 1e308]))),
    )
    if sink is not None and draw(st.booleans()):
        # end on the first step at the sink, if the reference episode reaches it
        with contextlib.suppress(InputError):
            at = [v for _, v, *_ in reference_run(g, t, reward, opp, **{**kw, "horizon": 40})[0]]
            if sink in at:
                kw["horizon"] = at.index(sink) + 1
    return g, t, reward, opp, kw


class TestLoopEqualsReference:
    """run_adaptive keeps per-state plans and counts in place; it must play,
    score, check and count exactly as the public step functions do."""

    @given(adaptive_setups())
    @settings(max_examples=300)
    def test_random_games_and_templates(self, setup):
        g, t, reward, opp, kw = setup
        assert_matches_reference(g, t, reward, opp, **kw)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-3, 1.0, 1e308])
    def test_benchmark_inputs(self, cobuchi_game, cobuchi_objective, alpha):
        t = template_for(cobuchi_game, cobuchi_objective)
        opp = FixedSchedule({"S2": ActionDistribution.from_mapping(
            {"d": 0.8, "e": 0.1, "f": 0.1})})
        assert_matches_reference(cobuchi_game, t, RewardSpec({"S0": 1.0}), opp,
                                 horizon=300, seed=3, start="S2", alpha=alpha)

    @pytest.mark.parametrize("seed", range(20))
    def test_colive_state_with_one_opponent_action(self, chain_game, seed):
        # P has one P2 action, but its colive cap halves at every visit, so
        # its move must be rebuilt at each one
        t = chain_template(colive={"P": frozenset({"b"})})
        assert_matches_reference(chain_game, t, RewardSpec({"Q": 1.0}), UniformRandom(),
                                 horizon=30, seed=seed, start="P")

    def test_infeasible_state_raises_on_its_first_visit(self, chain_game):
        # Q has no move, but only a run that reaches it fails
        t = chain_template(unsafe={"Q": frozenset({"a"})})
        stay = run_adaptive(chain_game, t, RewardSpec({}), UniformRandom(),
                            horizon=20, seed=0, start="P")
        assert {v for _, v, *_ in stay.rows} == {"P"}
        with pytest.raises(Infeasible, match="cannot adapt at 'Q': every action is unsafe"):
            run_adaptive(chain_game, t, RewardSpec({"Q": 1.0}), UniformRandom(),
                         horizon=20, seed=0, start="P")

    @pytest.mark.parametrize("opp", [FixedSchedule({}), UniformRandom()],
                             ids=["fallback string rule", "table rule"])
    @pytest.mark.parametrize("seed", range(3))
    def test_stored_move_failing_its_check(self, chain_game, monkeypatch, opp, seed):
        # every move fails (the reference reads the same _complies), so each
        # step at a stored move counts a violation
        monkeypatch.setattr(adaptation, "_complies", lambda *args: False)
        assert_matches_reference(chain_game, chain_template(), RewardSpec({"Q": 1.0}), opp,
                                 horizon=30, seed=seed, start="P")
        run = run_adaptive(chain_game, chain_template(), RewardSpec({"Q": 1.0}), opp,
                           horizon=30, seed=seed, start="P")
        assert run.violations == 30


class TestBadOpponentRow:
    """A FixedSchedule built in code skips from_dict's checks, so a row naming
    an action the game lacks is found by the episode loops, on the row's
    state's first visit, after the errors that the step raises before it."""

    BAD = FixedSchedule({"S2": ActionDistribution.uniform(("z",))})
    MESSAGE = "^unknown player-2 action 'z' at state 'S2'$"

    @pytest.fixture
    def loops(self, cobuchi_game, cobuchi_objective):
        """Both episode loops on the cobuchi game, as the states each step
        plays at, by start and horizon: S4 steps to S2, which steps to S0, S3
        or S4; S0 is absorbing."""
        t = template_for(cobuchi_game, cobuchi_objective)
        s = extract_strategy(cobuchi_game, t)

        def adaptive(start, horizon, **kw):
            run = run_adaptive(cobuchi_game, t, RewardSpec({}), self.BAD,
                               horizon=horizon, seed=0, start=start, **kw)
            return [v for _, v, *_ in run.rows]

        def simulated(start, horizon):
            (log,) = simulate(cobuchi_game, s, self.BAD, horizon=horizon, episodes=1,
                              seed=0, start=start)
            return [v for v, *_ in log.steps]

        return adaptive, simulated

    @pytest.mark.parametrize("loop", [0, 1])
    def test_raises_on_the_first_visit(self, loops, loop):
        run = loops[loop]
        assert run("S4", 1) == ["S4"]  # ends on S2 without playing there
        for start, horizon in (("S2", 1), ("S4", 2), ("S4", 50)):
            with pytest.raises(UnknownAction, match=self.MESSAGE) as e:
                run(start, horizon)
            assert (e.value.state, e.value.action, e.value.player) == ("S2", "z", 2)

    @pytest.mark.parametrize("loop", [0, 1])
    def test_unvisited_row_never_raises(self, loops, loop):
        assert loops[loop]("S0", 50) == ["S0"] * 50

    def test_step_errors_come_first(self, cobuchi_game, cobuchi_objective, loops):
        # S2's plan has no move
        t = template_for(cobuchi_game, cobuchi_objective)
        no_move = Template(t.winning, {**t.unsafe, "S2": frozenset(cobuchi_game.p1_actions("S2"))},
                           t.live, t.partition, t.colive, "hand-built")
        with pytest.raises(Infeasible, match="cannot adapt at 'S2': every action is unsafe"):
            run_adaptive(cobuchi_game, no_move, RewardSpec({}), self.BAD,
                         horizon=5, seed=0, start="S4")
        # an alpha that underflows every share of S2's three-action estimate
        with pytest.raises(InputError, match="^distribution has empty support$") as e:
            loops[0]("S2", 5, alpha=1e308)
        assert type(e.value) is InputError


def played(loop, g, t, opponent, horizon, seed, start):
    """The states at which each step of one episode plays: a `run_adaptive`
    episode of template `t` (loop 0), or a `simulate` episode of the strategy
    extracted from it with S2's row made geometric (loop 1), so that in both
    loops the move at S2 changes from visit to visit and every other state's
    stays as it is.  Both loops are `strategies._walk`."""
    if loop == 0:
        run = run_adaptive(g, t, RewardSpec({}), opponent, horizon=horizon, seed=seed,
                           start=start)
        return [v for _, v, *_ in run.rows]
    rows = dict(extract_strategy(g, t).schedules)
    rows["S2"] = {a: Schedule(x.c, 0.5) for a, x in rows["S2"].items()}
    (log,) = simulate(g, ScheduleStrategy(rows), opponent, horizon=horizon, episodes=1,
                      seed=seed, start=start)
    return [v for v, *_ in log.steps]


class TestWalkCallers:
    """What `strategies._walk` keeps per visited state, seen from both loops
    on the cobuchi game, whose S3 and S4 step back to S2 and whose S0 and S1
    are sinks."""

    @pytest.mark.parametrize("loop", [0, 1])
    def test_rule_is_built_once_per_visited_state(self, cobuchi_game, cobuchi_objective,
                                                  monkeypatch, loop):
        calls: list[str] = []
        rule = UniformRandom.rule
        monkeypatch.setattr(UniformRandom, "rule",
                            lambda self, g, v: calls.append(v) or rule(self, g, v))
        t = template_for(cobuchi_game, cobuchi_objective)
        for seed in range(3):
            calls.clear()
            at = played(loop, cobuchi_game, t, UniformRandom(), 100, seed, "S2")
            assert at.count("S2") > 1
            assert sorted(calls) == sorted(set(at))

    @pytest.mark.parametrize("loop", [0, 1])
    def test_move_runs_once_per_fixed_row(self, cobuchi_game, cobuchi_objective,
                                          monkeypatch, loop):
        # the greedy step, or the strategy's row, is computed at every visit of
        # S2 and at the first visit of every other state
        calls: list[str] = []
        if loop == 0:
            greedy = adaptation._greedy
            monkeypatch.setattr(adaptation, "_greedy",
                                lambda plan, *args: calls.append(plan.state) or greedy(plan, *args))
        else:
            row = ScheduleStrategy.distribution
            monkeypatch.setattr(ScheduleStrategy, "distribution",
                                lambda s, v, n: calls.append(v) or row(s, v, n))
        t = template_for(cobuchi_game, cobuchi_objective)
        revisited = set()
        for seed in range(3):
            calls.clear()
            at = played(loop, cobuchi_game, t, UniformRandom(), 100, seed, "S2")
            assert {v: calls.count(v) for v in at} == \
                {v: at.count(v) if v == "S2" else 1 for v in at}
            revisited |= {v for v in ("S3", "S4") if at.count(v) > 1}
        assert revisited


class TestFixedMoves:
    """At a state with one P2 action and no colive action the move and its
    verdict cannot change, so run_adaptive computes them on the first visit
    only (see `TestWalkCallers`); everywhere else it rebuilds them at every step."""

    @pytest.fixture
    def benchmark_run(self, cobuchi_game, cobuchi_objective):
        """The adapt benchmark's episode 0: opponent favouring d, start S2."""
        t = template_for(cobuchi_game, cobuchi_objective)
        raw = json.loads((GAMES / "opponent_heavy_d.json").read_text(encoding="utf-8"))
        opp = FixedSchedule.from_dict(raw, cobuchi_game)
        return lambda: run_adaptive(cobuchi_game, t, RewardSpec({"S0": 1.0}), opp,
                                    horizon=2000, seed=0, start="S2")

    def test_violations_count_every_step_of_a_fixed_plan(self, benchmark_run, monkeypatch):
        monkeypatch.setattr(adaptation, "_complies", lambda *args: False)
        assert benchmark_run().violations == 2000


def test_seeded_plays_do_not_depend_on_the_interpreter():
    # adaptive and simulated plays of 800 seeded setups (tests/digests.py),
    # recorded on Python 3.10, 3.11, 3.12 and 3.13; setups 226 and 400 hit a
    # tie that builtin sum breaks the other way from 3.12 on
    assert play_digest(range(800)) == (
        "9a3d17caef002a04f4ef09a9f9cce9da21d4728a58f9bd7400ddc9760ef0e871")
