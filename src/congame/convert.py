"""Conversion of alternating turn-based games into concurrent form.

Every pair of consecutive moves (u --a--> v, v --b--> w) with u owned by
player 1 and v by player 2 merges into the joint transition (u, (a, b), w);
player-2 states disappear.  This requires the turn-based game to alternate
strictly and to be rectangular: all player-2 states reachable from u in one
move must offer the same label set, otherwise the merged state would have no
well-defined player-2 action set.

Player-1 actions whose successor has no moves cannot be merged and are
dropped; a player-1 state left with no outgoing transitions becomes
absorbing via a fresh "loop"/"loop" self-loop pair.

Turn-based game (JSON):

    {
      "states": [{"id": "u", "owner": 1}, ...],
      "transitions": [{"from": "u", "label": "a", "to": "v"}, ...],
      "winning": {"kind": "transitions" | "states", "items": [...]},
      "objective_kind": "safety" | "buchi" | "cobuchi"
    }

`winning.items` holds transition objects for kind "transitions" and state
ids for kind "states".  A merged transition is winning when either of its
two halves is; a winning player-2 state marks every merged target reached
through it, and winning player-1 states carry over directly.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .model import (
    GameGraph,
    InputError,
    Objective,
    ObjectiveKind,
    UnknownState,
    _all_of,
    _names_in,
    read_json,
)

LOOP_ACTION = "loop"


class NotAlternating(InputError):
    def __init__(self, src: str, dst: str):
        super().__init__(
            f"transition {src!r} -> {dst!r} does not alternate between players")
        self.src, self.dst = src, dst


class NonRectangularActions(InputError):
    def __init__(self, state: str):
        super().__init__(
            f"successors of {state!r} offer different player-2 label sets")
        self.state = state


class TurnBasedGame(NamedTuple):
    owners: Mapping[str, int]
    moves: Mapping[str, Mapping[str, str]]  # src -> label -> dst
    winning_kind: str  # "transitions" | "states"
    winning_items: frozenset  # (src, label, dst) triples or state ids
    objective_kind: ObjectiveKind


def tb_from_dict(raw: Mapping) -> TurnBasedGame:
    if not isinstance(raw, Mapping):
        raise InputError("turn-based game must be a JSON object")
    for key in ("states", "transitions", "winning", "objective_kind"):
        if key not in raw:
            raise InputError(f"turn-based game missing {key!r}")
    for key in ("states", "transitions"):
        if not (type(raw[key]) is list and _all_of(dict, raw[key])):
            raise InputError(f"turn-based {key} must be a list of JSON objects")
    owners: dict[str, int] = {}
    for entry in raw["states"]:
        sid, owner = entry.get("id"), entry.get("owner")
        if type(sid) is not str or "owner" not in entry:
            raise InputError(f"malformed state entry: {entry!r}")
        # the JSON integers 1 and 2; neither a bool, a float nor a string
        if type(owner) is not int or owner not in (1, 2):
            raise InputError(f"state {sid!r} has owner {owner!r}, expected 1 or 2")
        if sid in owners:
            raise InputError(f"duplicate state id {sid!r}")
        owners[sid] = owner
    moves: dict[str, dict[str, str]] = {s: {} for s in owners}
    for entry in raw["transitions"]:
        move = entry.get("from"), entry.get("label"), entry.get("to")
        if not _all_of(str, move):
            raise InputError(f"malformed transition entry: {entry!r}")
        src, label, dst = move
        if src not in owners:
            raise UnknownState(src)
        if dst not in owners:
            raise UnknownState(dst)
        if label in moves[src]:
            raise InputError(f"duplicate turn-based move {src!r} --{label!r}-->")
        moves[src][label] = dst
    winning = raw["winning"]
    if not isinstance(winning, Mapping) or "kind" not in winning or "items" not in winning:
        raise InputError("winning must have 'kind' and 'items'")
    kind = winning["kind"]
    if kind == "transitions":
        if not (type(winning["items"]) is list and _all_of(dict, winning["items"])):
            raise InputError("winning transitions must be a list of JSON objects")
        items = set()
        for entry in winning["items"]:
            triple = (entry.get("from"), entry.get("label"), entry.get("to"))
            if not _all_of(str, triple):
                raise InputError(f"malformed winning transition: {entry!r}")
            if moves.get(triple[0], {}).get(triple[1]) != triple[2]:
                raise InputError(f"winning transition not in game: {triple!r}")
            items.add(triple)
    elif kind == "states":
        # a bare string would be split into its characters
        if not _names_in((winning["items"],)):
            raise InputError("winning states must be a list of strings")
        items = set()
        for sid in winning["items"]:
            if sid not in owners:
                raise UnknownState(sid)
            items.add(sid)
    else:
        raise InputError(f"unknown winning kind {kind!r}")
    try:
        objective_kind = ObjectiveKind(raw["objective_kind"])
    except ValueError:
        raise InputError(f"unknown objective kind {raw['objective_kind']!r}") from None
    return TurnBasedGame(owners, moves, kind, frozenset(items), objective_kind)


def load_turn_based(path: str) -> TurnBasedGame:
    return tb_from_dict(read_json(path))


class ConversionStats(NamedTuple):
    p1_states: int
    p2_states: int
    merged_transitions: int
    dropped_actions: int
    self_loops_added: int

    def to_dict(self) -> dict:
        return self._asdict()


def convert(tb: TurnBasedGame) -> tuple[GameGraph, Objective, ConversionStats]:
    """Merge move pairs into joint transitions; see the module docstring."""
    for src, row in tb.moves.items():
        for label, dst in row.items():
            if tb.owners[src] == tb.owners[dst]:
                raise NotAlternating(src, dst)

    p1_states = sorted(s for s, o in tb.owners.items() if o == 1)
    if not p1_states:
        raise InputError("turn-based game has no player-1 states")
    p1_actions: dict[str, list[str]] = {}
    p2_actions: dict[str, list[str]] = {}
    delta: dict[tuple[str, str, str], str] = {}
    target: set[str] = set()
    dropped = loops = 0

    for u in p1_states:
        row = tb.moves[u]
        usable = [a for a in sorted(row) if tb.moves[row[a]]]
        dropped += len(row) - len(usable)
        offered = {frozenset(tb.moves[row[a]]) for a in usable}
        if len(offered) > 1:
            raise NonRectangularActions(u)
        if not usable:
            p1_actions[u] = p2_actions[u] = [LOOP_ACTION]
            delta[(u, LOOP_ACTION, LOOP_ACTION)] = u
            loops += 1
            continue
        p1_actions[u] = usable
        p2_actions[u] = sorted(offered.pop())
        for a in usable:
            v = row[a]
            for b in sorted(tb.moves[v]):
                w = tb.moves[v][b]
                delta[(u, a, b)] = w
                if tb.winning_kind == "transitions":
                    if (u, a, v) in tb.winning_items or (v, b, w) in tb.winning_items:
                        target.add(w)
                else:
                    if v in tb.winning_items:
                        target.add(w)
    if tb.winning_kind == "states":
        target.update(s for s in p1_states if s in tb.winning_items)

    g = GameGraph(p1_states, p1_actions, p2_actions, delta)
    objective = Objective(tb.objective_kind, frozenset(target))
    stats = ConversionStats(
        p1_states=len(p1_states),
        p2_states=len(tb.owners) - len(p1_states),
        merged_transitions=len(delta) - loops,
        dropped_actions=dropped,
        self_loops_added=loops,
    )
    return g, objective, stats
