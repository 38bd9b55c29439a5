"""Independent brute-force oracles used to cross-check the operators and
solvers.

Everything here works on plain frozensets of names and enumerates player
action supports exhaustively, sharing no code with the bitmask
implementations under test.
"""

from __future__ import annotations

from itertools import combinations, product

from congame import GameGraph, ObjectiveKind


def _supports(actions):
    acts = sorted(actions)
    for size in range(1, len(acts) + 1):
        for combo in combinations(acts, size):
            yield frozenset(combo)


def oracle_pre1(g: GameGraph, X: frozenset) -> frozenset:
    """States with a support whose every joint successor stays in X."""
    out = set()
    for v in g.states:
        for gamma1 in _supports(g.p1_actions(v)):
            if all(g.succ(v, a, b) in X
                   for a in gamma1 for b in g.p2_actions(v)):
                out.add(v)
                break
    return frozenset(out)


def oracle_apre1(g: GameGraph, Y: frozenset, X: frozenset) -> frozenset:
    """States with a support staying in Y surely and reaching X with positive
    probability against every opponent action."""
    out = set()
    for v in g.states:
        for gamma1 in _supports(g.p1_actions(v)):
            stays = all(g.succ(v, a, b) in Y
                        for a in gamma1 for b in g.p2_actions(v))
            hits = all(any(g.succ(v, a, b) in X for a in gamma1)
                       for b in g.p2_actions(v))
            if stays and hits:
                out.add(v)
                break
    return frozenset(out)


def oracle_afpre1(g: GameGraph, Z: frozenset, Y: frozenset, X: frozenset) -> frozenset:
    """States with a support staying in Z surely such that any opponent
    action that can push the play out of Y is also answered inside X."""
    out = set()
    for v in g.states:
        for gamma1 in _supports(g.p1_actions(v)):
            stays = all(g.succ(v, a, b) in Z
                        for a in gamma1 for b in g.p2_actions(v))
            ok = all(
                any(g.succ(v, a, b) in X for a in gamma1)
                for b in g.p2_actions(v)
                if any(g.succ(v, a, b) not in Y for a in gamma1)
            )
            if stays and ok:
                out.add(v)
                break
    return frozenset(out)


def oracle_pre2(g: GameGraph, gamma1: dict, Y: frozenset) -> frozenset:
    """States where, against P1 playing every action of the support
    `gamma1[v]`, P2 has a support whose every joint successor stays in Y."""
    return frozenset(
        v for v in g.states
        if any(all(g.succ(v, a, b) in Y for a in gamma1[v] for b in gamma2)
               for gamma2 in _supports(g.p2_actions(v))))


def oracle_apre2(g: GameGraph, gamma1: dict, Y: frozenset, X: frozenset) -> frozenset:
    """States where, against P1 playing every action of the support
    `gamma1[v]`, P2 has a support staying in Y surely and reaching X with
    positive probability."""
    return frozenset(
        v for v in g.states
        if any(all(g.succ(v, a, b) in Y for a in gamma1[v] for b in gamma2)
               and any(g.succ(v, a, b) in X for a in gamma1[v] for b in gamma2)
               for gamma2 in _supports(g.p2_actions(v))))


def _dedupe(chain: list) -> tuple:
    out: list = []
    for x in chain:
        if not out or x != out[-1]:
            out.append(x)
    return tuple(out)


def oracle_solve_safety(g: GameGraph, target) -> tuple[frozenset, tuple]:
    """Winning region and its one-element chain."""
    i = frozenset(target)
    x = i
    while True:
        nxt = i & oracle_pre1(g, x)
        if nxt == x:
            return x, (x,)
        x = nxt


def oracle_solve_buchi(g: GameGraph, target) -> tuple[frozenset, tuple]:
    """Winning region and the final round's chain, led by the empty set."""
    i = frozenset(target)
    all_states = frozenset(g.states)
    w = all_states
    while True:
        x1 = i & oracle_pre1(g, w)
        chain = [frozenset(), x1]
        x = x1
        while True:
            nxt = ((all_states - i) & oracle_apre1(g, w, x)) | x1
            if nxt == x:
                break
            chain.append(nxt)
            x = nxt
        if x == w:
            return w, _dedupe(chain)
        w = x


def oracle_solve_cobuchi(g: GameGraph, target) -> tuple[frozenset, tuple]:
    """Winning region and the final round's chain, led by the safety core."""
    i = frozenset(target)
    all_states = frozenset(g.states)
    z = all_states
    while True:
        x = oracle_solve_safety_within(g, i, z)
        chain = [x]
        while True:
            y = z
            while True:
                ny = x \
                    | (i & z & oracle_afpre1(g, z, y, x)) \
                    | ((all_states - i) & z & oracle_apre1(g, z, x))
                if ny == y:
                    break
                y = ny
            if y == x:
                break
            chain.append(y)
            x = y
        if x == z:
            return z, _dedupe(chain)
        z = x


def oracle_solve_safety_within(g: GameGraph, i: frozenset, z: frozenset) -> frozenset:
    x = i & z
    while True:
        nxt = (i & z) & oracle_pre1(g, x)
        if nxt == x:
            return x
        x = nxt


def oracle_sccs(nodes: frozenset, edges) -> set:
    """Strongly connected components of the graph restricted to `nodes`, as
    the classes of mutual reachability."""
    reach = {}
    for v in nodes:
        seen = {v}
        changed = True
        while changed:
            changed = False
            for u in list(seen):
                for w in edges[u]:
                    if w in nodes and w not in seen:
                        seen.add(w)
                        changed = True
        reach[v] = seen
    return {frozenset(w for w in nodes if w in reach[v] and v in reach[w])
            for v in nodes}


def oracle_verify(g: GameGraph, s, objective) -> frozenset:
    """States from which the constant strategy `s` wins `objective` against
    every memoryless deterministic opponent, which suffice for these
    objectives (Chatterjee, Jurdzinski and Henzinger, SODA 2004).

    For every choice of one P2 action per state, the states that can reach a
    non-target state (safety), or a bottom component of the induced chain
    that misses the target (buchi) or holds a non-target state (cobuchi),
    lose.
    """
    nodes = frozenset(g.states)
    target = frozenset(objective.target)
    support = {v: [a for a, sched in s.schedules[v].items() if sched.p > 0] for v in g.states}
    losing: set = set()
    for choice in product(*map(g.p2_actions, g.states)):
        edges = {v: {g.succ(v, a, b) for a in support[v]} for v, b in zip(g.states, choice)}
        if objective.kind is ObjectiveKind.SAFETY:
            bad = set(nodes - target)
        else:
            bad = set()
            for comp in oracle_sccs(nodes, edges):
                bottom = all(edges[v] <= comp for v in comp)
                if objective.kind is ObjectiveKind.BUCHI:
                    violates = not comp & target
                else:
                    violates = bool(comp - target)
                if bottom and violates:
                    bad |= comp
        while True:
            more = {v for v in nodes - bad if edges[v] & bad}
            if not more:
                break
            bad |= more
        losing |= bad
    return nodes - losing
