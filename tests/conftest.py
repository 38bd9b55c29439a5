"""Shared fixtures and hypothesis generators for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from congame import GameGraph, GreedyAdversary, Objective, ObjectiveKind, load_game
from congame.strategies import _sample

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


def reference_pick(opponent, g: GameGraph, v: str, d1, rng) -> str:
    """The opponent's action at `v` against P1's mixed action `d1`, worked out
    afresh at every step: greedy's pick, or a stationary opponent's row, a
    fixed action or a distribution scanned with one `_sample`."""
    if isinstance(opponent, GreedyAdversary):
        return opponent.pick(g, v, d1)
    row = opponent._row(g, v)
    return row if isinstance(row, str) else _sample(rng, row)


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
