"""Permissive strategy templates and their synthesis from rank decompositions.

A template constrains P1's behaviour through three per-state devices:

* unsafe actions  -- must never be played (any positive mass is a violation);
* live groups     -- at states of a partition cell, each action group must be
                     played "persistently": along a play that hits the cell
                     infinitely often the group probabilities must not decay
                     summably;
* colive actions  -- may be played only finitely much in expectation: the
                     per-visit probabilities must sum to a finite value.

Template (JSON):

    {
      "winning": [...],
      "unsafe": {state: [actions]},          # omitted when empty
      "live": {state: [[group], ...]},       # groups, possibly empty lists
      "partition": [[states], ...],          # ordered cells
      "colive": {state: [actions]},          # omitted when empty
      "objective_tag": "safety" | "buchi" | "cobuchi" | ...
    }

Following any strategy whose behaviour respects all three devices wins
almost surely from every state of `winning`.

One body, :func:`template_for`, serves all three objectives.  From the
solver's rank chain X0 <= ... <= Xk it makes the actions that can leave Xk
unsafe, and turns each cell Ui = Xi \\ Xi-1 into a partition cell whose
states get one live group per opponent action: the non-unsafe actions that
step into Xi-1 against it.  Cells start at i = 2 for buchi (X0 is empty and
X1 reaches the target in one round) and at i = 1 otherwise; the safety
chain has one element, hence no cells.  For cobuchi only, X0 is the safety
core and its leaving actions that stay in Xk are colive.  States outside
the cells get the trivial group of all their non-unsafe actions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from itertools import chain
from typing import NamedTuple

from .model import (
    GameGraph,
    InputError,
    Objective,
    ObjectiveKind,
    _names_in,
)
from .operators import a_set_mask
from .solvers import _solve


def canonical_groups(groups: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    """Deduplicate and order action groups deterministically."""
    uniq = {frozenset(h) for h in groups}
    return tuple(sorted(uniq, key=sorted)) if len(uniq) > 1 else tuple(uniq)


class Template(NamedTuple):
    winning: frozenset[str]
    unsafe: Mapping[str, frozenset[str]]
    live: Mapping[str, tuple[frozenset[str], ...]]
    partition: tuple[frozenset[str], ...]
    colive: Mapping[str, frozenset[str]]
    objective_tag: str

    def unsafe_at(self, v: str) -> frozenset[str]:
        return self.unsafe.get(v, frozenset())

    def colive_at(self, v: str) -> frozenset[str]:
        return self.colive.get(v, frozenset())

    def groups_at(self, v: str) -> tuple[frozenset[str], ...]:
        return self.live.get(v, ())

    def split_at(self, g: GameGraph, v: str) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """P1 actions at `v` as (unsafe, colive and not unsafe, the rest)."""
        acts = frozenset(g.p1_actions(v))
        unsafe = self.unsafe_at(v) & acts
        colive = self.colive_at(v) & (acts - unsafe)
        return unsafe, colive, acts - unsafe - colive

    def live_floor(self, v: str, eps_live: float) -> float:
        """The mass each live group at `v` must keep: eps_live / |H(v)|."""
        return eps_live / max(len(self.groups_at(v)), 1)

    def cell_states(self) -> frozenset[str]:
        return frozenset().union(*self.partition)

    def to_dict(self) -> dict:
        return {
            "winning": sorted(self.winning),
            "unsafe": {v: sorted(s) for v, s in sorted(self.unsafe.items()) if s},
            "live": {v: [sorted(h) for h in hs] for v, hs in sorted(self.live.items())},
            "partition": [sorted(cell) for cell in self.partition],
            "colive": {v: sorted(c) for v, c in sorted(self.colive.items()) if c},
            "objective_tag": self.objective_tag,
        }


def template_from_dict(raw: Mapping) -> Template:
    if not isinstance(raw, Mapping):
        raise InputError("template must be a JSON object")
    for key in ("winning", "live", "partition", "objective_tag"):
        if key not in raw:
            raise InputError(f"template missing {key!r}")
    # names come in lists: a bare string would be split into its characters
    if not _names_in((raw["winning"],)):
        raise InputError("template winning must be a list of strings")
    if not _names_in((raw["partition"],), 2):
        raise InputError("template partition must be a list of lists of strings")
    for key, depth in (("unsafe", 1), ("colive", 1), ("live", 2)):
        table = raw.get(key, {})
        if not (isinstance(table, Mapping) and _names_in(table.values(), depth)):
            inner = "lists of strings" if depth == 1 else "lists of lists of strings"
            raise InputError(f"template {key} must map states to {inner}")
    if not isinstance(raw["objective_tag"], str):
        raise InputError("template objective_tag must be a string")
    return Template(
        winning=frozenset(raw["winning"]),
        unsafe={v: frozenset(s) for v, s in raw.get("unsafe", {}).items() if s},
        live={v: canonical_groups(hs) for v, hs in raw["live"].items()},
        partition=tuple(frozenset(cell) for cell in raw["partition"]),
        colive={v: frozenset(c) for v, c in raw.get("colive", {}).items() if c},
        objective_tag=raw["objective_tag"],
    )


def validate_template(g: GameGraph, t: Template) -> None:
    """Check that every state/action the template mentions exists in `g`."""
    g.mask(t.winning)
    for v, acts in chain(t.unsafe.items(), t.colive.items()):
        g.action_mask(v, acts)
    for v, hs in t.live.items():
        g.action_mask(v, chain.from_iterable(hs))
    g.mask(chain.from_iterable(t.partition))


def check_weight_params(eps_live: float, colive_base: float) -> None:
    """The one range check of the live floor and colive weight parameters."""
    if not 0.0 < eps_live < 1.0:
        raise InputError("eps_live must lie in (0, 1)")
    if not 0.0 < colive_base < math.inf:
        raise InputError("colive_base must be positive and finite")


def _leaving_actions(g: GameGraph, inside: int) -> dict[str, frozenset[str]]:
    """Per state of the mask `inside`, in index order, the P1 actions that
    can leave it (states with none are omitted)."""
    out: dict[str, frozenset[str]] = {}
    for vi, v in enumerate(g.states):
        if inside >> vi & 1:
            stay = a_set_mask(g, vi, inside, 0)
            s = frozenset(a for i, a in enumerate(g.p1_actions(v)) if not stay >> i & 1)
            if s:
                out[v] = s
    return out


def _rank_groups(g: GameGraph, v: str, prev: int, s: frozenset[str]) -> tuple[frozenset[str], ...]:
    # one group per opponent action: non-unsafe actions that step into the
    # previous rank `prev` (a mask) against it; duplicates collapse
    vi = g.index(v)
    row, k = g.succ_runs(vi)
    return canonical_groups(
        frozenset(a for a, wi in zip(g.p1_actions(v), row[j::k]) if a not in s and prev >> wi & 1)
        for j in range(k))


def template_for(g: GameGraph, objective: Objective) -> Template:
    """The template of `objective` on `g`, built from its rank chain."""
    win, ranks = _solve(g, objective)
    unsafe = _leaving_actions(g, win)
    colive: dict[str, frozenset[str]] = {}
    if objective.kind is ObjectiveKind.COBUCHI:
        colive = {v: c for v, leaving in _leaving_actions(g, ranks[0]).items()
                  if (c := leaving - unsafe.get(v, frozenset()))}
    live: dict[str, tuple[frozenset[str], ...]] = {}
    partition: list[frozenset[str]] = []
    first = 2 if objective.kind is ObjectiveKind.BUCHI else 1
    for i in range(first, len(ranks)):
        cell = g.unmask(ranks[i] & ~ranks[i - 1])
        partition.append(cell)
        for v in sorted(cell):
            live[v] = _rank_groups(g, v, ranks[i - 1], unsafe.get(v, frozenset()))
    for v in g.states:
        if v not in live:
            live[v] = (frozenset(g.p1_actions(v)) - unsafe.get(v, frozenset()),)
    return Template(
        winning=g.unmask(win), unsafe=unsafe, live=live,
        partition=tuple(partition), colive=colive,
        objective_tag=objective.kind.value,
    )


class Conflict(NamedTuple):
    state: str
    clause: str
    witness: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"state": self.state, "clause": self.clause, "witness": list(self.witness)}


class ConflictReport(NamedTuple):
    conflicts: tuple[Conflict, ...]

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def to_dict(self) -> dict:
        return {"conflict_free": self.ok,
                "conflicts": [c.to_dict() for c in self.conflicts]}


def check_conflict_free(g: GameGraph, t: Template) -> ConflictReport:
    """Detect states of the winning region where the template's constraints
    cannot all be met by any strategy.

    Clause order per state: every action unsafe; every action unsafe or
    colive; a nonempty live group fully unsafe or colive.  Empty groups are
    exempt: they demand nothing at the state itself (progress through the
    rest of their cell covers them).
    """
    found: list[Conflict] = []
    on_cell = t.cell_states()
    for v in sorted(t.winning):
        s, c, r = t.split_at(g, v)
        if not c | r:
            found.append(Conflict(v, "no-safe-action", tuple(sorted(s))))
        if not r:
            found.append(Conflict(v, "no-persistent-action", tuple(sorted(s | c))))
        if v in on_cell:
            for h in t.groups_at(v):
                if h and not h & r:
                    found.append(Conflict(v, "live-group-blocked", tuple(sorted(h))))
    return ConflictReport(tuple(found))
