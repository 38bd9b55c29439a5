"""Fixpoint solvers: worked examples, chain invariants and oracle equivalence."""

from __future__ import annotations

from hypothesis import given

from congame import (
    Objective,
    ObjectiveKind,
    solve,
    solve_buchi,
    solve_cobuchi,
    solve_safety,
)

from .conftest import games_with_subset, golden_json
from .oracles import (
    oracle_solve_buchi,
    oracle_solve_cobuchi,
    oracle_solve_safety,
    oracle_solve_safety_within,
)


class TestExamples:
    def test_buchi_cycle(self, buchi_game):
        d = solve_buchi(buchi_game, ["C"])
        assert d.winning == {"A", "B", "C"}
        assert [sorted(x) for x in d.ranks] == [[], ["C"], ["A", "B", "C"]]
        assert d.to_dict()["rank_of"] == {"A": 2, "B": 2, "C": 1}
        assert d.to_dict() == golden_json("solve_buchi_cycle.json")

    def test_cobuchi_stabilize(self, cobuchi_game, cobuchi_objective):
        d = solve_cobuchi(cobuchi_game, cobuchi_objective.target)
        assert d.winning == frozenset(cobuchi_game.states)
        assert [sorted(x) for x in d.ranks] == [
            ["S0", "S1"],
            ["S0", "S1", "S2", "S3"],
            ["S0", "S1", "S2", "S3", "S4"],
        ]
        assert d.to_dict() == golden_json("solve_cobuchi_stabilize.json")

    def test_safety_gadget(self, safety_game):
        d = solve_safety(safety_game, ["g"])
        assert d.winning == {"g"}
        assert d.ranks == (frozenset({"g"}),)

    def test_safety_within_cobuchi_target(self, cobuchi_game, cobuchi_objective):
        d = solve_safety(cobuchi_game, cobuchi_objective.target)
        assert d.winning == {"S0", "S1"}

    def test_rank_of_rejects_losing_state(self, safety_game):
        d = solve_safety(safety_game, ["g"])
        assert "t" not in d.to_dict()["rank_of"]

    def test_cells(self, cobuchi_game, cobuchi_objective):
        d = solve_cobuchi(cobuchi_game, cobuchi_objective.target)
        cells = tuple(hi - lo for lo, hi in zip(d.ranks, d.ranks[1:]))
        assert cells == (frozenset({"S2", "S3"}), frozenset({"S4"}))

    def test_dispatch(self, buchi_game, safety_game):
        assert solve(
            buchi_game, Objective(ObjectiveKind.BUCHI, frozenset({"C"}))
        ).winning == {"A", "B", "C"}
        assert solve(
            safety_game, Objective(ObjectiveKind.SAFETY, frozenset({"g"}))
        ).winning == {"g"}
        assert solve(
            buchi_game, Objective(ObjectiveKind.COBUCHI, frozenset({"C"}))
        ).winning == {"A", "B", "C"}


class TestChainInvariants:
    @given(games_with_subset(n_subsets=1))
    def test_chain_shape(self, gs):
        g, target = gs
        for solver in (solve_safety, solve_buchi, solve_cobuchi):
            d = solver(g, target)
            assert d.ranks[-1] == d.winning
            for lo, hi in zip(d.ranks, d.ranks[1:]):
                assert lo < hi
            rank_of = d.to_dict()["rank_of"]
            assert rank_of.keys() == d.winning
            for v, i in rank_of.items():
                assert v in d.ranks[i]
                assert i == 0 or v not in d.ranks[i - 1]

    @given(games_with_subset(n_subsets=1))
    def test_buchi_chain_base(self, gs):
        g, target = gs
        d = solve_buchi(g, target)
        assert d.ranks[0] == frozenset()
        if len(d.ranks) > 1:
            assert d.ranks[1] <= target

    @given(games_with_subset(n_subsets=1))
    def test_cobuchi_rank0_is_safety_core(self, gs):
        g, target = gs
        d = solve_cobuchi(g, target)
        assert d.ranks[0] == oracle_solve_safety_within(g, target, d.winning)

    @given(games_with_subset(n_subsets=1))
    def test_objective_strength_inclusions(self, gs):
        g, target = gs
        safe = solve_safety(g, target).winning
        cob = solve_cobuchi(g, target).winning
        buc = solve_buchi(g, target).winning
        assert safe <= cob <= buc


class TestOracleEquivalence:
    """Winning regions and rank chains equal the plain synchronous rounds."""

    @given(games_with_subset(n_subsets=1))
    def test_safety(self, gs):
        g, target = gs
        d = solve_safety(g, target)
        assert (d.winning, d.ranks) == oracle_solve_safety(g, target)

    @given(games_with_subset(n_subsets=1))
    def test_buchi(self, gs):
        g, target = gs
        d = solve_buchi(g, target)
        assert (d.winning, d.ranks) == oracle_solve_buchi(g, target)

    @given(games_with_subset(n_subsets=1))
    def test_cobuchi(self, gs):
        g, target = gs
        d = solve_cobuchi(g, target)
        assert (d.winning, d.ranks) == oracle_solve_cobuchi(g, target)
