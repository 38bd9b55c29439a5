"""Seeded random games and state subsets for batch experiments and testing.

Everything here consumes randomness exclusively through ``rng.random()`` so
that a given seed reproduces the same instances on any platform and Python
version (only the generator's float stream carries that guarantee).  Sizes
are checked before the first draw, so a rejected call leaves ``rng`` as it was.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Optional

from .model import GameGraph, InputError

P1_POOL = ("a", "b", "c")
P2_POOL = ("d", "e", "f")


def _check_count(name: str, value, high: Optional[int] = None) -> None:
    """Raise InputError unless `value` is an int from 1 to `high` (unbounded
    when None)."""
    if type(value) is not int or value < 1 or (high is not None and value > high):
        limit = "a positive integer" if high is None else f"an integer from 1 to {high}"
        raise InputError(f"{name} must be {limit}, got {value!r}")


def rand_int(rng: random.Random, n: int) -> int:
    """Uniform draw from range(n) as a pure function of rng.random()."""
    _check_count("n", n)
    return min(int(rng.random() * n), n - 1)


def random_subset(rng: random.Random, pool: Sequence[str], size: int) -> frozenset[str]:
    """Uniform subset of the given size, drawn without replacement."""
    remaining = sorted(pool)
    _check_count("subset size", size, len(remaining))
    out = []
    for _ in range(size):
        out.append(remaining.pop(rand_int(rng, len(remaining))))
    return frozenset(out)


def random_game(
    rng: random.Random,
    n_states: int = 5,
    max_actions: int = 3,
) -> GameGraph:
    """A random arena: q0..qn-1, 1..max_actions actions per player per state,
    uniformly random deterministic joint transitions; max_actions is at most
    the pool size, 3."""
    _check_count("n_states", n_states)
    _check_count("max_actions", max_actions, len(P1_POOL))
    states = [f"q{i}" for i in range(n_states)]
    p1 = {}
    p2 = {}
    delta = {}
    for v in states:
        p1[v] = P1_POOL[: 1 + rand_int(rng, max_actions)]
        p2[v] = P2_POOL[: 1 + rand_int(rng, max_actions)]
        for a in p1[v]:
            for b in p2[v]:
                delta[(v, a, b)] = states[rand_int(rng, n_states)]
    return GameGraph(states, p1, p2, delta)

