"""Digests of seeded plays and syntheses, to compare interpreters and commits.

Each setup is drawn from ``random.Random(i)`` through ``rng.random()`` only,
as :mod:`congame.corpus` draws, so setup ``i`` is the same on every Python
version.  It plays one ``run_adaptive`` episode and one ``simulate`` episode
of the extracted strategy and hashes what they return, or the error they
raise.  Rewards come from a few decimals such as 0.1, 0.2 and 0.3, so that
expected rewards often tie in real arithmetic and a float sum decides.

``synthesis_digest`` hashes, per seeded arena, the templates of one target
under each objective kind and every step of an incremental synthesis over
four objectives of mixed kinds, with its merged template.

Stdlib only, so that interpreters without pytest can run it:

    PYTHONPATH=src python -m tests.digests [FIRST STOP]

prints the play digest, then the synthesis digest, of setups FIRST to STOP.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from congame import (
    ActionDistribution,
    FixedSchedule,
    GreedyAdversary,
    InputError,
    Objective,
    ObjectiveKind,
    RewardSpec,
    Template,
    UniformRandom,
    extract_strategy,
    incremental_synthesize,
    run_adaptive,
    simulate,
    solve,
    template_for,
)
from congame.corpus import rand_int, random_game, random_subset

REWARDS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, -0.5)
ALPHAS = (5e-324, 1.0, 1e308)
HORIZON = 40


def _pick(rng: random.Random, items):
    return items[rand_int(rng, len(items))]


def _subset(rng: random.Random, pool) -> frozenset[str]:
    """A subset of `pool` of a uniform size from 0 to len(pool)."""
    size = rand_int(rng, len(pool) + 1)
    return random_subset(rng, pool, size) if size else frozenset()


def draw_setup(i: int):
    """Setup `i`: a game, a template, a reward, an opponent and the loop's
    keyword arguments.  Every third template is hand-built, with colive
    actions and live groups drawn at random."""
    rng = random.Random(i)
    g = random_game(rng, n_states=1 + rand_int(rng, 5))
    kind = _pick(rng, tuple(ObjectiveKind))
    objective = Objective(kind, random_subset(rng, g.states, 1 + rand_int(rng, len(g.states))))
    t = template_for(g, objective)
    if i % 3 == 2:
        t = Template(
            t.winning,
            {v: _subset(rng, g.p1_actions(v)) if rng.random() < 0.3 else frozenset()
             for v in g.states},
            {v: tuple(_subset(rng, g.p1_actions(v)) for _ in range(rand_int(rng, 3)))
             for v in g.states},
            t.partition,
            {v: _subset(rng, g.p1_actions(v)) for v in g.states},
            "hand-built")
    opponent = _pick(rng, ("uniform", "fixed", "greedy"))
    if opponent == "uniform":
        opp = UniformRandom()
    elif opponent == "fixed":
        opp = FixedSchedule({
            v: ActionDistribution.uniform(random_subset(
                rng, g.p2_actions(v), 1 + rand_int(rng, len(g.p2_actions(v)))))
            for v in g.states if rng.random() < 0.7})
    else:
        opp = GreedyAdversary(solve(g, objective).ranks)
    reward = RewardSpec({v: _pick(rng, REWARDS) for v in g.states})
    kw = dict(horizon=HORIZON, seed=i, start=_pick(rng, g.states),
              eps_live=_pick(rng, (0.1, 0.3)), colive_base=_pick(rng, (0.25, 1.0)),
              alpha=ALPHAS[i % len(ALPHAS)])
    return g, t, reward, opp, kw


def play(i: int) -> str:
    """The outcome of setup `i` as text: the adaptive episode's rows, total,
    violations and counts, then the simulated episode's steps."""
    g, t, reward, opp, kw = draw_setup(i)
    out = [str(i)]
    try:
        run = run_adaptive(g, t, reward, opp, **kw)
        out += [repr(run.rows), repr(run.total_reward), str(run.violations),
                repr(sorted((v, sorted(row.items())) for v, row in run.model.counts.items()))]
    except InputError as e:
        out.append(f"{type(e).__name__}: {e}")
    try:
        (log,) = simulate(g, extract_strategy(g, t, kw["eps_live"], kw["colive_base"]), opp,
                          horizon=kw["horizon"], episodes=1, seed=kw["seed"], start=kw["start"])
        out.append(repr(log.steps))
    except InputError as e:
        out.append(f"{type(e).__name__}: {e}")
    return "\n".join(out)


def play_digest(setups) -> str:
    """The sha256 of the outcomes of `setups`, in order."""
    h = hashlib.sha256()
    for i in setups:
        h.update(play(i).encode() + b"\n")
    return h.hexdigest()


def synthesis(i: int) -> str:
    """The syntheses on arena `i` as JSON lines: the template of one target
    for each objective kind, then each incremental step over four objectives
    (half of them buchi on average) with its merged template."""
    rng = random.Random(i)
    g = random_game(rng, n_states=3 + rand_int(rng, 6))
    target = random_subset(rng, g.states, 1 + rand_int(rng, len(g.states)))
    out = [template_for(g, Objective(kind, target)).to_dict() for kind in ObjectiveKind]
    kinds = (ObjectiveKind.BUCHI, ObjectiveKind.BUCHI, ObjectiveKind.SAFETY, ObjectiveKind.COBUCHI)
    objectives = [Objective(_pick(rng, kinds), random_subset(rng, g.states, 1 + rand_int(rng, 3)))
                  for _ in range(4)]
    for step in incremental_synthesize(g, objectives):
        raw = {"index": step.index, "objective": step.objective.to_dict(),
               "winning": sorted(step.template.winning), "conflict_free": step.conflicts.ok,
               "conflicts": [c.to_dict() for c in step.conflicts.conflicts]}
        if step.exact_winning is not None:
            raw["exact_winning"] = sorted(step.exact_winning)
        out += [raw, step.template.to_dict()]
    return "\n".join(json.dumps(x) for x in out)


def synthesis_digest(seeds) -> str:
    """The sha256 of the syntheses on the arenas of `seeds`, in order."""
    h = hashlib.sha256()
    for i in seeds:
        h.update(synthesis(i).encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    first, stop = map(int, sys.argv[1:3]) if len(sys.argv) > 2 else (0, 600)
    print(play_digest(range(first, stop)))
    print(synthesis_digest(range(first, stop)))
