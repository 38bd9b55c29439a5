"""Qualitative one-step operators for almost-sure analysis.

All operators quantify over player action subsets rather than probability
values: for almost-sure winning only the supports of the players' mixed
actions matter, so each operator has an equivalent support-level reading
that these implementations use directly.

Every operator is a ``*_mask`` function on integer bitmasks over the game's
sorted state/action indices (``g.mask``, ``g.action_mask`` and ``g.unmask``
convert names); the fixpoint solvers call them in their inner loops.

The operators run on the successor index that :class:`GameGraph`
builds on first use (``g.succ_rows``): per state and P1 action, the mask
of its successors and ``(successor bit, P2 action mask)`` pairs.  "Every
successor of action a lies in Y" is then one test ``succ_mask & ~Y == 0``,
and the P2 actions that reach X or leave Y are an OR over the pairs, with
no per-joint-action lookups.

``a_set_mask``, ``b_set_mask`` and ``afpre_fix_mask`` evaluate one state.
``pre1_mask``, ``apre1_mask`` and ``afpre1_mask`` evaluate the states of an
optional candidate mask (every state by default) and return the mask of
those that qualify.  The opponent-side ``pre2_mask`` and ``apre2_mask`` do
the same with P1's play fixed to a per-state action mask ``gamma1[vi]``;
exact verification of a strategy runs on them.  A state's result depends
only on the arguments restricted to its successors, which is what lets the
solvers re-evaluate only the predecessors of states whose membership
changed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from .model import GameGraph, NonConvergence


def a_set_mask(g: GameGraph, vi: int, y_mask: int, gamma2_mask: int) -> int:
    """P1 actions whose every successor outside Y is excused by gamma2."""
    out = 0
    outside = ~y_mask
    for ai, (m, pairs) in enumerate(g.succ_rows(vi)):
        if m & outside:
            if not gamma2_mask:
                continue
            leaving = 0
            for bit, b_mask in pairs:
                if bit & outside:
                    leaving |= b_mask
            if leaving & ~gamma2_mask:
                continue
        out |= 1 << ai
    return out


def b_set_mask(g: GameGraph, vi: int, x_mask: int, gamma1_mask: int) -> int:
    """P2 actions against which some P1 action from gamma1 reaches X."""
    out = 0
    for ai, (m, pairs) in enumerate(g.succ_rows(vi)):
        if gamma1_mask >> ai & 1 and m & x_mask:
            for bit, b_mask in pairs:
                if bit & x_mask:
                    out |= b_mask
    return out


def pre1_mask(g: GameGraph, x_mask: int, cand: Optional[int] = None) -> int:
    """States of `cand` (default: all) with a P1 action keeping the game
    surely inside X."""
    out = 0
    todo = g.full_mask if cand is None else cand
    while todo:
        low = todo & -todo
        if a_set_mask(g, low.bit_length() - 1, x_mask, 0):
            out |= low
        todo ^= low
    return out


def apre1_mask(g: GameGraph, y_mask: int, x_mask: int, cand: Optional[int] = None) -> int:
    """States of `cand` (default: all) where P1 can stay in Y surely while
    hitting X against every opponent action with positive probability."""
    out = 0
    todo = g.full_mask if cand is None else cand
    while todo:
        low = todo & -todo
        vi = low.bit_length() - 1
        stay = a_set_mask(g, vi, y_mask, 0)
        if stay and b_set_mask(g, vi, x_mask, stay) == (1 << len(g.p2_names(vi))) - 1:
            out |= low
        todo ^= low
    return out


def pre2_mask(g: GameGraph, gamma1: Sequence[int], y_mask: int, cand: Optional[int] = None) -> int:
    """States of `cand` (default: all) where, against P1 playing gamma1, some
    P2 action keeps every successor inside Y."""
    out = 0
    todo = g.full_mask if cand is None else cand
    while todo:
        low = todo & -todo
        vi = low.bit_length() - 1
        if b_set_mask(g, vi, ~y_mask, gamma1[vi]) != (1 << len(g.p2_names(vi))) - 1:
            out |= low
        todo ^= low
    return out


def apre2_mask(
    g: GameGraph, gamma1: Sequence[int], y_mask: int, x_mask: int, cand: Optional[int] = None,
) -> int:
    """States of `cand` (default: all) where, against P1 playing gamma1, some
    P2 action keeps every successor inside Y and hits X with positive probability."""
    out = 0
    todo = g.full_mask if cand is None else cand
    while todo:
        low = todo & -todo
        vi = low.bit_length() - 1
        hit = b_set_mask(g, vi, x_mask, gamma1[vi])
        if hit and hit & ~b_set_mask(g, vi, ~y_mask, gamma1[vi]):
            out |= low
        todo ^= low
    return out


def afpre_fix_mask(g: GameGraph, vi: int, z_mask: int, y_mask: int, x_mask: int) -> int:
    """Greatest fixpoint of gamma -> A_Z(0) & A_Y(B_X(gamma)) at one state.

    Starts at A_Z(0); each round is monotone decreasing, so it stabilizes in
    at most |P1 actions| rounds.
    """
    stay_z = a_set_mask(g, vi, z_mask, 0)
    gamma = stay_z
    for _ in range(len(g.p1_names(vi)) + 2):
        if not gamma:
            return 0
        nxt = stay_z & a_set_mask(g, vi, y_mask, b_set_mask(g, vi, x_mask, gamma))
        if nxt == gamma:
            return gamma
        gamma = nxt
    raise NonConvergence("action fixpoint exceeded its bound")  # pragma: no cover


def afpre1_mask(
    g: GameGraph, z_mask: int, y_mask: int, x_mask: int, cand: Optional[int] = None,
) -> int:
    """States of `cand` (default: all) whose action fixpoint is nonempty."""
    out = 0
    todo = g.full_mask if cand is None else cand
    while todo:
        low = todo & -todo
        if afpre_fix_mask(g, low.bit_length() - 1, z_mask, y_mask, x_mask):
            out |= low
        todo ^= low
    return out

