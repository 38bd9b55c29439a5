"""Seeded random corpus: pinned streams and argument checks."""

from __future__ import annotations

import hashlib
import random

import pytest

from congame import InputError, dump_json, game_to_dict, random_game, random_subset
from congame.corpus import rand_int


def test_seeded_streams_are_pinned():
    # games, subsets and draws for fixed seeds; the digest was recorded
    # before the argument checks went in, so valid calls draw as they did
    h = hashlib.sha256()
    for seed in range(60):
        rng = random.Random(seed)
        g = random_game(rng, n_states=1 + seed % 6, max_actions=1 + seed % 3)
        h.update(dump_json(game_to_dict(g), None).encode())
        h.update(repr(sorted(random_subset(rng, g.states, 1 + seed % g.n_states))).encode())
        h.update(repr(rand_int(rng, 7)).encode())
    assert h.hexdigest()[:16] == "bd380201c04273db"


@pytest.mark.parametrize("call, message", [
    (lambda rng: rand_int(rng, 0), "n must be a positive integer, got 0"),
    (lambda rng: rand_int(rng, -1), "n must be a positive integer, got -1"),
    (lambda rng: rand_int(rng, 2.5), "n must be a positive integer, got 2.5"),
    (lambda rng: random_subset(rng, ["a", "b"], 0),
     "subset size must be an integer from 1 to 2, got 0"),
    (lambda rng: random_subset(rng, ["a", "b"], 3),
     "subset size must be an integer from 1 to 2, got 3"),
    (lambda rng: random_subset(rng, ["a", "b"], True),
     "subset size must be an integer from 1 to 2, got True"),
    (lambda rng: random_subset(rng, [], 1),
     "subset size must be an integer from 1 to 0, got 1"),
    (lambda rng: random_game(rng, n_states=0), "n_states must be a positive integer, got 0"),
    (lambda rng: random_game(rng, max_actions=0),
     "max_actions must be an integer from 1 to 3, got 0"),
    (lambda rng: random_game(rng, max_actions=4),
     "max_actions must be an integer from 1 to 3, got 4"),
], ids=["int-zero", "int-negative", "int-float", "subset-zero", "subset-too-big",
        "subset-bool", "subset-empty-pool", "game-no-states", "game-no-actions",
        "game-actions-past-pool"])
def test_bad_sizes_rejected_before_any_draw(call, message):
    rng = random.Random(9)
    before = rng.getstate()
    with pytest.raises(InputError) as err:
        call(rng)
    assert str(err.value) == message
    assert rng.getstate() == before
