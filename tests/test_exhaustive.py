"""Every arena of a small scope, checked against the brute-force oracles.

Hypothesis samples arenas, so nothing makes it try every small shape.  Here
every arena with two states and one or two actions per player per state is
built: per state, 1x1, 1x2, 2x1 and 2x2 joint actions, each with a
successor of either state, so 2 + 4 + 4 + 16 = 26 shapes and 676 arenas.
With the three nonempty targets and the three objective kinds that is
6,084 cases (the small-scope hypothesis: Jackson, *Software Abstractions*,
2006; Andoni, Daniliuc, Khurshid and Marinov, 2003).

Per arena, every one-step operator equals its oracle on every argument mask,
and the P2-side operators do so under every P1 support profile.  Per case,
the union of the uniform support-profile regions from ``oracle_verify`` is
the winning region, every compliant profile wins on all of it, and for
safety and buchi the extracted strategy verifies to exactly that region.
For cobuchi only the inclusion holds in general (see
``tests/test_strategies.py::TestSupportProfiles``); on this scope the union
is the winning region in every one of the 2,028 cases.
"""

from __future__ import annotations

import itertools

import pytest

from congame import (
    GameGraph,
    Objective,
    ObjectiveKind,
    Schedule,
    ScheduleStrategy,
    check_compliance,
    extract_strategy,
    game_to_dict,
    solve,
    template_for,
    verify_memoryless,
)
from congame.operators import afpre1_mask, apre1_mask, apre2_mask, pre1_mask, pre2_mask

from .oracles import (
    _supports,
    oracle_afpre1,
    oracle_apre1,
    oracle_apre2,
    oracle_pre1,
    oracle_pre2,
    oracle_verify,
)

STATES = ("p", "q")
P1, P2 = ("a", "b"), ("x", "y")
TARGETS = (frozenset({"p"}), frozenset({"q"}), frozenset(STATES))

# per state: (P1 actions, P2 actions, successors in P1-action-major order)
SHAPES = [(P1[:n1], P2[:n2], succ)
          for n1 in (1, 2) for n2 in (1, 2)
          for succ in itertools.product(STATES, repeat=n1 * n2)]


def arena(shapes) -> GameGraph:
    p1 = {v: s[0] for v, s in zip(STATES, shapes)}
    p2 = {v: s[1] for v, s in zip(STATES, shapes)}
    delta = {(v, a, b): w
             for v, (acts1, acts2, succ) in zip(STATES, shapes)
             for (a, b), w in zip(itertools.product(acts1, acts2), succ)}
    return GameGraph(STATES, p1, p2, delta)


ARENAS = [arena(shapes) for shapes in itertools.product(SHAPES, repeat=2)]


def profiles(g: GameGraph):
    """Every choice of one nonempty P1 support per state, by state name."""
    for choice in itertools.product(*(list(_supports(g.p1_actions(v))) for v in g.states)):
        yield dict(zip(g.states, choice))


def uniform(profile) -> ScheduleStrategy:
    return ScheduleStrategy({v: dict.fromkeys(acts, Schedule(1.0))
                             for v, acts in profile.items()})


def test_operators_match_oracles_on_every_argument():
    masks = range(4)
    for g in ARENAS:
        sets = [g.unmask(m) for m in masks]
        for x in masks:
            assert g.unmask(pre1_mask(g, x)) == oracle_pre1(g, sets[x])
            for y in masks:
                assert g.unmask(apre1_mask(g, y, x)) == oracle_apre1(g, sets[y], sets[x])
                for z in masks:
                    assert g.unmask(afpre1_mask(g, z, y, x)) \
                        == oracle_afpre1(g, sets[z], sets[y], sets[x])
        for gamma1 in profiles(g):
            gm = [g.action_mask(v, gamma1[v]) for v in g.states]
            for y in masks:
                assert g.unmask(pre2_mask(g, gm, y)) == oracle_pre2(g, gamma1, sets[y])
                for x in masks:
                    assert g.unmask(apre2_mask(g, gm, y, x)) \
                        == oracle_apre2(g, gamma1, sets[y], sets[x])


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_winning_region_against_support_profiles(kind):
    cases = equal = 0
    for g in ARENAS:
        strategies = [uniform(p) for p in profiles(g)]
        for target in TARGETS:
            obj = Objective(kind, target)
            won = solve(g, obj).winning
            t = template_for(g, obj)
            union: frozenset[str] = frozenset()
            for s in strategies:
                region = oracle_verify(g, s, obj)
                union |= region
                if check_compliance(g, t, s).status == "compliant":
                    assert won <= region, (game_to_dict(g), target, s)
            assert union <= won, (game_to_dict(g), target)
            equal += union == won
            if kind is not ObjectiveKind.COBUCHI:
                s = extract_strategy(g, t)
                assert verify_memoryless(g, s, obj) == won, (game_to_dict(g), target)
            cases += 1
    assert len(SHAPES) == 26
    assert cases == 676 * 3
    assert equal == cases
