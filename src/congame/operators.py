"""Qualitative one-step operators for almost-sure analysis.

All operators quantify over player action subsets rather than probability
values: for almost-sure winning only the supports of the players' mixed
actions matter, so each operator has an equivalent support-level reading
that these implementations use directly.

Every operator is a ``*_mask`` function on integer bitmasks over the game's
sorted state/action indices (``g.mask``, ``g.action_mask`` and ``g.unmask``
convert names); the fixpoint solvers call them in their inner loops.

The operators read :class:`GameGraph`'s successor table (``g.succ_runs``):
per state, one run of successor indices per P1 action, in P2-action order,
so the i-th entry of a run is the successor under the i-th P2 action.

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
    row, k = g.succ_runs(vi)
    out = 0
    a_bit = 1
    for run in zip(*[iter(row)] * k):
        b_bit = 1
        for wi in run:
            if not (y_mask >> wi & 1 or gamma2_mask & b_bit):
                break
            b_bit <<= 1
        else:
            out |= a_bit
        a_bit <<= 1
    return out


def b_set_mask(g: GameGraph, vi: int, x_mask: int, gamma1_mask: int) -> int:
    """P2 actions against which some P1 action from gamma1 reaches X."""
    row, k = g.succ_runs(vi)
    out = 0
    for run in zip(*[iter(row)] * k):
        if gamma1_mask & 1:
            b_bit = 1
            for wi in run:
                if x_mask >> wi & 1:
                    out |= b_bit
                b_bit <<= 1
        gamma1_mask >>= 1
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

