"""Almost-sure winning region solvers for safety, repeated-visit (buchi)
and eventually-stable (cobuchi) objectives.

Each solver's mask-level body returns the winning mask plus the strictly
increasing chain X0 < X1 < ... < Xk = winning of the outer fixpoint's final
round; ``solve_*`` packages it as a :class:`RankDecomposition` of names,
while template synthesis reads the masks (:func:`_solve`).  The chain drives
template synthesis: the cell Xi \\ Xi-1 collects states whose "progress"
actions lead into Xi-1.

Rank indices are 0-based; for cobuchi, rank 0 is the safety core where the
play can be trapped forever, and for buchi, rank 0 is the empty set (the
chain is prepended with X0 = {} unless the region is empty).

Every loop is bounded by |V| + 1 effective rounds; exceeding the bound raises
:class:`~congame.model.NonConvergence`, which the CLI maps to exit code 3.

Worklist rounds
---------------
Every loop computes the same synchronous (Jacobi) iterates X0, X1, ... as
the plain fixpoint X(k+1) = F(Xk) would, but each round re-evaluates only
the states whose membership can change.  Two facts select them:

* locality: the operators ``pre1_mask``, ``apre1_mask`` and ``afpre1_mask``
  of :mod:`congame.operators` decide a state from their arguments restricted
  to that state's successors, so a state none of whose successors changed
  membership between X(k-1) and Xk gets the same answer from F(Xk) as from
  F(X(k-1)), namely its membership in Xk;
* monotonicity: the three are monotone in every argument, so along a
  decreasing chain a state once removed never comes back, and along an
  increasing chain a state once added never leaves.

Hence a decreasing loop (safety, the safety core, the cobuchi Y loop, all
three run by :func:`_shrink`) re-checks only members of Xk that are
predecessors of the states just removed, and an increasing loop (the buchi
chain, the cobuchi terms that grow with the current rank) checks only
non-members that are predecessors of the states just added.
Predecessors come from the game's predecessor index (``g.pred_mask``).
The iterates, the number of rounds and thus the rank chains are identical
to the synchronous rounds; only the number of per-state evaluations falls,
from |V| per round to the predecessors of what changed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial
from typing import NamedTuple

from .model import GameGraph, NonConvergence, Objective, ObjectiveKind
from .operators import afpre1_mask, apre1_mask, pre1_mask


class RankDecomposition(NamedTuple):
    """Winning region together with its rank chain.

    `ranks` is strictly increasing except for the degenerate single-element
    chain, and its last element equals `winning`.
    """

    winning: frozenset[str]
    ranks: tuple[frozenset[str], ...]

    def to_dict(self) -> dict:
        # each state's first rank, in one pass over the chain
        first: dict[str, int] = {}
        for i, x in enumerate(self.ranks):
            first.update(dict.fromkeys(x.difference(first), i))
        return {
            "winning": sorted(self.winning),
            "ranks": [sorted(x) for x in self.ranks],
            "rank_of": {v: first[v] for v in sorted(self.winning)},
        }


def _decomposition(g: GameGraph, winning_mask: int, chain: list[int]) -> RankDecomposition:
    """Package a strictly increasing chain.  Each rank is the previous one
    plus the states it adds."""
    ranks = [g.unmask(chain[0])]
    for lo, hi in zip(chain, chain[1:]):
        ranks.append(ranks[-1] | g.unmask(hi & ~lo))
    return RankDecomposition(winning=g.unmask(winning_mask), ranks=tuple(ranks))


def _shrink(g: GameGraph, bound: int, keeps: Callable[[int, int], int], context: str) -> int:
    """Greatest fixpoint of X -> bound & keeps(X), iterated from X = bound;
    ``keeps(x, cand)`` is a monotone mask operator deciding the states of `cand`.

    The first round checks every state of the bound; each later round only
    the members that are predecessors of the states the last round removed.
    """
    x = cand = bound
    for _ in range(g.n_states + 1):
        nxt = x & ~(cand & ~keeps(x, cand))
        if nxt == x:
            return x
        cand = nxt & g.pred_mask(x & ~nxt)
        x = nxt
    raise NonConvergence(context)


def _safety(g: GameGraph, i_mask: int) -> tuple[int, list[int]]:
    x = _shrink(g, i_mask, partial(pre1_mask, g), "safety fixpoint")
    return x, [x]


def solve_safety(g: GameGraph, target: Iterable[str]) -> RankDecomposition:
    """Largest subset of `target` that P1 can surely never leave."""
    return _decomposition(g, *_safety(g, g.mask(target)))


def _buchi(g: GameGraph, i_mask: int) -> tuple[int, list[int]]:
    not_i = g.full_mask & ~i_mask
    w = g.full_mask
    for _ in range(g.n_states + 1):
        x1 = pre1_mask(g, w, i_mask)
        chain = [x1]
        # apre1(w, {}) is empty, so the first round's candidates are the
        # predecessors of all of x1
        x, added = x1, x1
        for _ in range(g.n_states + 1):
            added = apre1_mask(g, w, x, not_i & ~x & g.pred_mask(added))
            if not added:
                break
            x |= added
            chain.append(x)
        else:
            raise NonConvergence("buchi rank chain")
        if x == w:
            return w, [0] + chain if x1 else chain
        w = x
    raise NonConvergence("buchi outer fixpoint")


def solve_buchi(g: GameGraph, target: Iterable[str]) -> RankDecomposition:
    """States from which P1 visits `target` infinitely often almost surely."""
    return _decomposition(g, *_buchi(g, g.mask(target)))


def _cobuchi(g: GameGraph, i_mask: int) -> tuple[int, list[int]]:
    """Per rank the next element is the greatest Y with
    Y = cur | (I & Z & afpre1(Z, Y, cur)) | (~I & Z & apre1(Z, cur)).
    The apre1 term and the afpre1 term at Y = Z do not depend on Y; both are
    kept across ranks and grown as `cur` grows.  The Y loop is
    :func:`_shrink` from the iterate at Y = Z, ``cur | ap | af_top``: its
    first round re-checks every afpre1 member outside ``cur | ap``, later
    rounds only those that are predecessors of the states removed from Y.
    """
    not_i = g.full_mask & ~i_mask
    z = g.full_mask
    for _ in range(g.n_states + 1):
        i_z, not_i_z = i_mask & z, not_i & z
        cur = _shrink(g, i_z, partial(pre1_mask, g), "safety core fixpoint")
        chain = [cur]
        # apre1(z, {}) is empty; afpre1(z, z, {}) is not, so it starts full
        ap = apre1_mask(g, z, cur, not_i_z & g.pred_mask(cur))
        af_top = afpre1_mask(g, z, z, cur, i_z)
        for _ in range(g.n_states + 1):
            base = cur | ap
            y = _shrink(g, base | af_top, lambda x, cand: base | afpre1_mask(
                g, z, x, cur, cand & ~base), "cobuchi rank fixpoint")
            if y == cur:
                break
            chain.append(y)
            preds = g.pred_mask(y & ~cur)
            cur = y
            ap |= apre1_mask(g, z, cur, not_i_z & ~ap & preds)
            af_top |= afpre1_mask(g, z, z, cur, i_z & ~af_top & preds)
        else:
            raise NonConvergence("cobuchi rank chain")
        if cur == z:
            return z, chain
        z = cur
    raise NonConvergence("cobuchi outer fixpoint")


def solve_cobuchi(g: GameGraph, target: Iterable[str]) -> RankDecomposition:
    """States from which P1 eventually stays inside `target` almost surely."""
    return _decomposition(g, *_cobuchi(g, g.mask(target)))


def _solve(g: GameGraph, objective: Objective) -> tuple[int, list[int]]:
    """The winning mask and rank chain of `objective` on `g`."""
    kind = objective.kind
    body = (_safety if kind is ObjectiveKind.SAFETY
            else _buchi if kind is ObjectiveKind.BUCHI else _cobuchi)
    return body(g, g.mask(objective.target))


def solve(g: GameGraph, objective: Objective) -> RankDecomposition:
    return _decomposition(g, *_solve(g, objective))
