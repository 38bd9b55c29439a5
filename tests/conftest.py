"""Shared fixtures and hypothesis generators for the test suite."""

from __future__ import annotations

import json
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from congame import GameGraph, Objective, ObjectiveKind, load_game

REPO = Path(__file__).resolve().parents[1]
GAMES = REPO / "games"
GOLDENS = Path(__file__).resolve().parent / "data" / "goldens"

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def load_fixture(name: str) -> tuple[GameGraph, Objective]:
    g, obj = load_game(str(GAMES / name))
    assert obj is not None
    return g, obj


def golden_text(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def golden_json(name: str):
    return json.loads(golden_text(name))


class DrawnRule:
    """A duck-typed opponent whose rule at every state is the draw table
    ``(acts, cums)``, which may name actions a state lacks; its pick draws
    from the table as the episode loops play a rule, so per-step references
    that call pick see the same play."""

    def __init__(self, acts: tuple[str, ...], cums: list[float]):
        self.table = (acts, cums)

    def rule(self, g: GameGraph, v: str):
        return self.table

    def pick(self, g: GameGraph, v: str, d1, rng) -> str:
        acts, cums = self.table
        return acts[bisect_right(cums, rng.random())]


@pytest.fixture(scope="session")
def buchi_game() -> GameGraph:
    return load_fixture("buchi_cycle.json")[0]


@pytest.fixture(scope="session")
def buchi_objective() -> Objective:
    return load_fixture("buchi_cycle.json")[1]


@pytest.fixture(scope="session")
def cobuchi_game() -> GameGraph:
    return load_fixture("cobuchi_stabilize.json")[0]


@pytest.fixture(scope="session")
def cobuchi_objective() -> Objective:
    return load_fixture("cobuchi_stabilize.json")[1]


@pytest.fixture(scope="session")
def safety_game() -> GameGraph:
    return load_fixture("safety_gadget.json")[0]


@pytest.fixture(scope="session")
def safety_objective() -> Objective:
    return load_fixture("safety_gadget.json")[1]


# ---------------------------------------------------------------------------
# hypothesis strategies

P1_POOL = ("a", "b", "c")
P2_POOL = ("d", "e", "f")


@st.composite
def game_graphs(draw, min_states: int = 2, max_states: int = 5, max_actions: int = 3):
    """A small arena with dense transition tables and short action alphabets."""
    n = draw(st.integers(min_states, max_states))
    states = tuple(f"q{i}" for i in range(n))
    p1 = {}
    p2 = {}
    for v in states:
        p1[v] = list(P1_POOL[: draw(st.integers(1, max_actions))])
        p2[v] = list(P2_POOL[: draw(st.integers(1, max_actions))])
    delta = {}
    for v in states:
        for a in p1[v]:
            for b in p2[v]:
                delta[(v, a, b)] = draw(st.sampled_from(states))
    return GameGraph(states, p1, p2, delta)


@st.composite
def games_with_subset(draw, n_subsets: int = 1, **kwargs):
    """An arena plus `n_subsets` independent state subsets."""
    g = draw(game_graphs(**kwargs))
    subsets = tuple(
        frozenset(draw(st.sets(st.sampled_from(g.states))))
        for _ in range(n_subsets)
    )
    return (g, *subsets)


@st.composite
def games_with_objective(draw, kinds=tuple(ObjectiveKind), **kwargs):
    g = draw(game_graphs(**kwargs))
    kind = draw(st.sampled_from(list(kinds)))
    target = frozenset(
        draw(st.sets(st.sampled_from(g.states), min_size=1))
    )
    return g, Objective(kind=kind, target=target)
