"""Deterministic scaling guard for the fixpoint solvers and exact
verification.

Ladder games force a rank chain as long as the game, the worst case for the
nested fixpoints.  Instead of timing the solvers, the guard counts per-state
operator evaluations (calls of the per-state mask helpers), which do not
depend on the machine or its load.  Re-evaluating only the predecessors of
what changed keeps the count close to linear in the ladder length; a full
sweep per round makes it quadratic (about 4x per doubling).
"""

from __future__ import annotations

import random

import pytest

from congame import (
    GameGraph,
    Objective,
    ObjectiveKind,
    extract_strategy,
    operators,
    solve,
    solve_buchi,
    solve_cobuchi,
    solve_safety,
    template_for,
    verify_memoryless,
)

P1 = ("a", "b", "c")
P2 = ("d", "e", "f")
GROWTH_PER_DOUBLING = 2.5


def ladder(n: int, seed: int = 0) -> tuple[GameGraph, list[str]]:
    """n states in a line; a matching joint action steps one state toward
    the bottom, any other pair stays put, and the bottom never moves.  Names
    are shuffled and half of the states have three actions per player.
    Returns the game and its states, bottom first."""
    rng = random.Random(seed)
    names = [f"v{j:03d}" for j in range(n)]
    rng.shuffle(names)
    three = set(rng.sample(names, n // 2))
    p1, p2, delta = {}, {}, {}
    for pos, v in enumerate(names):
        k = 3 if v in three else 2
        p1[v], p2[v] = P1[:k], P2[:k]
        for ai in range(k):
            for bi in range(k):
                delta[(v, P1[ai], P2[bi])] = names[pos - 1] if pos and ai == bi else v
    return GameGraph(names, p1, p2, delta), names


@pytest.fixture
def evaluations(monkeypatch):
    """Counts calls of the per-state mask helpers every operator uses."""
    count = [0]
    for name in ("a_set_mask", "b_set_mask"):
        helper = getattr(operators, name)

        def counted(*args, _helper=helper):
            count[0] += 1
            return _helper(*args)

        monkeypatch.setattr(operators, name, counted)
    return count


def _solve_counted(evaluations, solver, n: int):
    g, chain = ladder(n)
    target = chain[1:] if solver is solve_safety else chain[:1]
    before = evaluations[0]
    d = solver(g, target)
    return d, chain, evaluations[0] - before


@pytest.mark.parametrize("solver", [solve_safety, solve_buchi, solve_cobuchi])
def test_operator_evaluations_grow_linearly(evaluations, solver):
    _, _, small = _solve_counted(evaluations, solver, 64)
    _, _, large = _solve_counted(evaluations, solver, 128)
    assert small > 0
    assert large <= GROWTH_PER_DOUBLING * small, (small, large)


def _verify_counted(evaluations, kind: ObjectiveKind, n: int) -> int:
    g, chain = ladder(n)
    target = chain[1:] if kind is ObjectiveKind.SAFETY else chain[:1]
    obj = Objective(kind, frozenset(target))
    decomp = solve(g, obj)
    s = extract_strategy(g, template_for(g, obj, decomp))
    before = evaluations[0]
    assert verify_memoryless(g, s, obj) == decomp.winning
    return evaluations[0] - before


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_verify_evaluations_grow_linearly(evaluations, kind):
    small = _verify_counted(evaluations, kind, 64)
    large = _verify_counted(evaluations, kind, 128)
    assert small > 0
    assert large <= GROWTH_PER_DOUBLING * small, (small, large)


@pytest.mark.parametrize("n", [64, 128])
def test_ladder_rank_chains(evaluations, n):
    d, chain, _ = _solve_counted(evaluations, solve_safety, n)
    assert d.ranks == (frozenset(),)
    d, chain, _ = _solve_counted(evaluations, solve_buchi, n)
    assert d.ranks == tuple(frozenset(chain[:j]) for j in range(n + 1))
    d, chain, _ = _solve_counted(evaluations, solve_cobuchi, n)
    assert d.ranks == tuple(frozenset(chain[:j]) for j in range(1, n + 1))
