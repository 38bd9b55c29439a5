"""Core data model for concurrent two-player games.

A game is a finite set of states; at each state both players pick one of
their available actions simultaneously and a deterministic joint transition
function maps the pair to the next state.  Player 1 is the protagonist whose
objectives we solve for; player 2 is the adversary.

Game description (JSON):

    {
      "states": ["A", "B", ...],
      "p1_actions": {"A": ["a", "b"], ...},
      "p2_actions": {"A": ["a", "b"], ...},
      "transitions": [{"from": "A", "p1": "a", "p2": "b", "to": "C"}, ...],
      "objective": {"kind": "safety" | "buchi" | "cobuchi", "target": [...]}
    }

All identifiers are strings and every collection is iterated in lexicographic
order so that derived artifacts are byte-for-byte reproducible.  State and
action sets are represented internally as bitmasks over the sorted index.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Union


class CongameError(Exception):
    """Base class for all structured errors raised by this package."""


class InputError(CongameError):
    """A problem with user-supplied data (bad game, template, strategy...)."""


class MissingTransition(InputError):
    def __init__(self, state: str, p1: str, p2: str):
        super().__init__(f"missing transition from {state!r} under ({p1!r}, {p2!r})")
        self.state, self.p1, self.p2 = state, p1, p2


class DuplicateTransition(InputError):
    def __init__(self, state: str, p1: str, p2: str):
        super().__init__(f"duplicate transition from {state!r} under ({p1!r}, {p2!r})")
        self.state, self.p1, self.p2 = state, p1, p2


class UnknownState(InputError):
    def __init__(self, state: str):
        super().__init__(f"unknown state {state!r}")
        self.state = state


class UnknownAction(InputError):
    def __init__(self, state: str, action: str, player: int = 1):
        super().__init__(f"unknown player-{player} action {action!r} at state {state!r}")
        self.state, self.action, self.player = state, action, player


class EmptyActionSet(InputError):
    def __init__(self, state: str, player: int):
        super().__init__(f"player {player} has no actions at state {state!r}")
        self.state, self.player = state, player


class NonConvergence(CongameError):
    """Internal error: a fixpoint loop exceeded its iteration bound."""

    def __init__(self, context: str):
        super().__init__(f"fixpoint iteration did not converge: {context}")
        self.context = context


class ObjectiveKind(str, Enum):
    SAFETY = "safety"
    BUCHI = "buchi"
    COBUCHI = "cobuchi"


@dataclass(frozen=True)
class Objective:
    """A winning condition over infinite plays.

    safety: stay in `target` forever; buchi: visit `target` infinitely
    often; cobuchi: eventually stay in `target` forever.
    """

    kind: ObjectiveKind
    target: frozenset[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "target": sorted(self.target)}


class GameGraph:
    """Immutable concurrent game arena with deterministic joint transitions.

    Construct via :func:`validate_game` (raw mapping) or directly from
    canonical pieces; both enforce totality of the transition function.

    Construction also builds the successor index the operators run on, in
    the same pass that fills the transition table:

    * per state and P1 action, the mask of its successor states and a tuple
      of ``(successor bit, mask of the P2 actions leading there)`` pairs;
    * per state, the mask of its predecessor states (states with some joint
      action leading to it), which the solvers use to find what a changed
      iterate can affect.
    """

    __slots__ = (
        "states", "_index", "_p1", "_p2", "_p1_index", "_p2_index", "_succ",
        "_row_masks", "_row_pairs", "_pred",
    )

    def __init__(
        self,
        states: Iterable[str],
        p1_actions: Mapping[str, Iterable[str]],
        p2_actions: Mapping[str, Iterable[str]],
        delta: Mapping[tuple[str, str, str], str],
    ):
        listed = list(states)
        self.states: tuple[str, ...] = tuple(sorted(listed))
        if not self.states:
            raise InputError("game has no states")
        if len(set(self.states)) != len(self.states):
            dup = sorted(s for s in set(listed) if listed.count(s) > 1)
            raise InputError(f"duplicate state names: {dup}")
        self._index: dict[str, int] = {s: i for i, s in enumerate(self.states)}

        self._p1: list[tuple[str, ...]] = []
        self._p2: list[tuple[str, ...]] = []
        for v in self.states:
            for player, table in ((1, p1_actions), (2, p2_actions)):
                acts = tuple(sorted(table.get(v, ())))
                if not acts:
                    raise EmptyActionSet(v, player)
                if len(set(acts)) != len(acts):
                    raise InputError(f"duplicate player-{player} actions at {v!r}")
                (self._p1 if player == 1 else self._p2).append(acts)
        for table, player in ((p1_actions, 1), (p2_actions, 2)):
            for v in table:
                if v not in self._index:
                    raise UnknownState(v)
        self._p1_index: list[dict[str, int]] = [
            {a: i for i, a in enumerate(acts)} for acts in self._p1]
        self._p2_index: list[dict[str, int]] = [
            {b: i for i, b in enumerate(acts)} for acts in self._p2]

        # delta must be total over declared action sets; a lookup that
        # fails sends the whole table through _check_delta first, so invalid
        # entries are reported before missing ones
        index = self._index
        self._succ: list[list[list[int]]] = []
        self._row_masks: list[tuple[int, ...]] = []
        self._row_pairs: list[tuple[tuple[tuple[int, int], ...], ...]] = []
        pred = [0] * len(self.states)
        joint = 0
        for vi, v in enumerate(self.states):
            p2 = self._p2[vi]
            rows: list[list[int]] = []
            masks: list[int] = []
            pairs: list[tuple[tuple[int, int], ...]] = []
            succ_all = 0
            for a in self._p1[vi]:
                try:
                    row = [index[delta[(v, a, b)]] for b in p2]
                except (KeyError, TypeError):
                    self._check_delta(delta)
                    b = next(b for b in p2 if (v, a, b) not in delta)
                    raise MissingTransition(v, a, b) from None
                rows.append(row)
                # P2 actions per successor bit, in first-reached order
                by_succ: dict[int, int] = {}
                m = 0
                b_bit = 1
                for wi in row:
                    w_bit = 1 << wi
                    m |= w_bit
                    by_succ[w_bit] = by_succ.get(w_bit, 0) | b_bit
                    b_bit <<= 1
                masks.append(m)
                pairs.append(tuple(by_succ.items()))
                succ_all |= m
            joint += len(rows) * len(p2)
            self._succ.append(rows)
            self._row_masks.append(tuple(masks))
            self._row_pairs.append(tuple(pairs))
            v_bit = 1 << vi
            while succ_all:
                low = succ_all & -succ_all
                pred[low.bit_length() - 1] |= v_bit
                succ_all ^= low
        if len(delta) != joint:
            # every declared joint action was found, so the extra entries
            # name undeclared states or actions
            self._check_delta(delta)
        self._pred: tuple[int, ...] = tuple(pred)

    def _check_delta(self, delta: Mapping[tuple[str, str, str], str]) -> None:
        """Raise for the first entry naming an unknown state or action."""
        index = self._index
        for (v, a, b), w in delta.items():
            if v not in index:
                raise UnknownState(v)
            vi = index[v]
            if a not in self._p1_index[vi]:
                raise UnknownAction(v, a, player=1)
            if b not in self._p2_index[vi]:
                raise UnknownAction(v, b, player=2)
            if w not in index:
                raise UnknownState(w)

    # -- basic accessors -------------------------------------------------

    def __contains__(self, state: str) -> bool:
        return state in self._index

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise UnknownState(state) from None

    def p1_actions(self, state: str) -> tuple[str, ...]:
        return self._p1[self.index(state)]

    def p2_actions(self, state: str) -> tuple[str, ...]:
        return self._p2[self.index(state)]

    def succ(self, state: str, p1: str, p2: str) -> str:
        vi = self.index(state)
        ai = self._p1_index[vi].get(p1)
        if ai is None:
            raise UnknownAction(state, p1, player=1)
        bi = self._p2_index[vi].get(p2)
        if bi is None:
            raise UnknownAction(state, p2, player=2)
        return self.states[self._succ[vi][ai][bi]]

    # -- bitmask helpers (states) ----------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << len(self.states)) - 1

    def mask(self, states: Iterable[str]) -> int:
        m = 0
        for s in states:
            m |= 1 << self.index(s)
        return m

    def unmask(self, m: int) -> frozenset[str]:
        states = self.states
        m &= (1 << len(states)) - 1
        out = []
        while m:
            low = m & -m
            out.append(states[low.bit_length() - 1])
            m ^= low
        return frozenset(out)

    # -- internal index-level views used by the operators -----------------

    def succ_masks(self, vi: int) -> tuple[int, ...]:
        """Per P1 action at state `vi`, the mask of its successor states."""
        return self._row_masks[vi]

    def succ_pairs(self, vi: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per P1 action at state `vi`, ``(successor bit, P2 action mask)``
        pairs: the P2 actions in the mask lead to that successor."""
        return self._row_pairs[vi]

    def pred_mask(self, m: int) -> int:
        """States with some joint action leading into the state mask `m`."""
        out = 0
        pred = self._pred
        while m:
            low = m & -m
            out |= pred[low.bit_length() - 1]
            m ^= low
        return out

    def p1_names(self, vi: int) -> tuple[str, ...]:
        return self._p1[vi]

    def p2_names(self, vi: int) -> tuple[str, ...]:
        return self._p2[vi]


@dataclass(frozen=True)
class ActionDistribution:
    """A probability distribution over finitely many actions.

    Weights must be positive on the support and sum to 1 within 1e-9; zero
    entries are dropped at construction.
    """

    probs: tuple[tuple[str, float], ...]

    @staticmethod
    def from_mapping(weights: Mapping[str, float]) -> "ActionDistribution":
        items = [(a, float(p)) for a, p in sorted(weights.items()) if p != 0.0]
        if not items:
            raise InputError("distribution has empty support")
        # negated tests, so that NaN fails them too
        if any(not p > 0 for _, p in items):
            raise InputError("distribution has a negative or NaN weight")
        total = sum(p for _, p in items)
        if not abs(total - 1.0) <= 1e-9:
            raise InputError(f"distribution sums to {total}, not 1")
        return ActionDistribution(tuple(items))

    @staticmethod
    def uniform(actions: Iterable[str]) -> "ActionDistribution":
        acts = sorted(actions)
        if not acts:
            raise InputError("distribution has empty support")
        p = 1.0 / len(acts)
        return ActionDistribution(tuple((a, p) for a in acts))

    @staticmethod
    def point(action: str) -> "ActionDistribution":
        return ActionDistribution(((action, 1.0),))

    @property
    def support(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.probs)

    def prob(self, action: str) -> float:
        for a, p in self.probs:
            if a == action:
                return p
        return 0.0

    def mass(self, actions: Iterable[str]) -> float:
        wanted = set(actions)
        return sum(p for a, p in self.probs if a in wanted)

    def to_dict(self) -> dict[str, float]:
        return dict(self.probs)


@dataclass(frozen=True)
class PlayPrefix:
    """A finite play: alternating (state, p1 action, p2 action) steps.

    `final` is the state reached after the last joint move.
    """

    steps: tuple[tuple[str, str, str], ...]
    final: str

    def validate(self, g: GameGraph) -> None:
        cur: Union[str, None] = None
        for v, a, b in self.steps:
            if cur is not None and v != cur:
                raise InputError(f"play prefix jumps from {cur!r} to {v!r}")
            cur = g.succ(v, a, b)
        if cur is not None and cur != self.final:
            raise InputError(f"play prefix ends at {cur!r}, declared {self.final!r}")
        if cur is None and self.final not in g:
            raise UnknownState(self.final)

    @property
    def visited(self) -> tuple[str, ...]:
        return tuple(v for v, _, _ in self.steps) + (self.final,)


def one_round_prob(
    g: GameGraph,
    v: str,
    d1: ActionDistribution,
    d2: ActionDistribution,
    into: Iterable[str],
) -> float:
    """Probability that one simultaneous round from `v` lands inside `into`."""
    for a in d1.support:
        if a not in g.p1_actions(v):
            raise UnknownAction(v, a, player=1)
    for b in d2.support:
        if b not in g.p2_actions(v):
            raise UnknownAction(v, b, player=2)
    target = set(into)
    for w in target:
        if w not in g:
            raise UnknownState(w)
    total = 0.0
    for a, pa in d1.probs:
        for b, pb in d2.probs:
            if g.succ(v, a, b) in target:
                total += pa * pb
    return total


# -- serialization ---------------------------------------------------------

def _all_of(kind: type, items: Iterable) -> bool:
    """Whether every item has exactly the type `kind`, as JSON values do."""
    return set(map(type, items)) <= {kind}


def _names_in(items: Iterable, depth: int = 1) -> bool:
    """Whether every item is a list of strings (depth 1) or a list of such
    lists (depth 2), by C-level type scans."""
    for _ in range(depth):
        items = tuple(items)
        if not _all_of(list, items):
            return False
        items = chain.from_iterable(items)
    return _all_of(str, items)


_NUMBER = (int, float)  # the types of JSON numbers; bool is not one
_MAX_FLOAT = sys.float_info.max


def _all_finite(items: Iterable) -> bool:
    """Whether every item is a JSON number of finite value: NaN, the
    infinities and integers beyond the float range fail."""
    items = tuple(items)
    return (set(map(type, items)) <= set(_NUMBER)
            and all(map(_MAX_FLOAT.__ge__, map(abs, items))))


def validate_game(raw: Mapping) -> GameGraph:
    """Build a GameGraph from a raw game description (ignores "objective")."""
    if not isinstance(raw, Mapping):
        raise InputError("game description must be a JSON object")
    for key in ("states", "p1_actions", "p2_actions", "transitions"):
        if key not in raw:
            raise InputError(f"game description missing {key!r}")
    # names come in lists: a bare string would be split into its characters
    states = raw["states"]
    if not _names_in((states,)):
        raise InputError("states must be a list of strings")
    for key in ("p1_actions", "p2_actions"):
        if not (isinstance(raw[key], Mapping) and _names_in(raw[key].values())):
            raise InputError(f"{key} must map states to lists of strings")
    if not isinstance(raw["transitions"], list):
        raise InputError("transitions must be a list")
    delta: dict[tuple[str, str, str], str] = {}
    for t in raw["transitions"]:
        try:
            key = (t["from"], t["p1"], t["p2"])
            dst = t["to"]
            seen = key in delta
        except (TypeError, KeyError):
            raise InputError(f"malformed transition entry: {t!r}") from None
        if seen:
            raise DuplicateTransition(*key)
        delta[key] = dst
    # non-string names in a key match no declared triple; the arena reports them
    if not _all_of(str, delta.values()):
        raise InputError("transition targets must be strings")
    return GameGraph(states, raw["p1_actions"], raw["p2_actions"], delta)


def parse_objective(raw: Mapping, g: GameGraph) -> Objective:
    if not isinstance(raw, Mapping) or "kind" not in raw or "target" not in raw:
        raise InputError("objective must have 'kind' and 'target'")
    try:
        kind = ObjectiveKind(raw["kind"])
    except ValueError:
        raise InputError(f"unknown objective kind {raw['kind']!r}") from None
    if not _names_in((raw["target"],)):
        raise InputError("objective target must be a list of strings")
    target = frozenset(raw["target"])
    for s in target:
        if s not in g:
            raise UnknownState(s)
    return Objective(kind, target)


def game_to_dict(g: GameGraph, objective: Union[Objective, None] = None) -> dict:
    transitions = []
    for v in g.states:
        for a in g.p1_actions(v):
            for b in g.p2_actions(v):
                transitions.append({"from": v, "p1": a, "p2": b, "to": g.succ(v, a, b)})
    out: dict = {
        "states": list(g.states),
        "p1_actions": {v: list(g.p1_actions(v)) for v in g.states},
        "p2_actions": {v: list(g.p2_actions(v)) for v in g.states},
        "transitions": transitions,
    }
    if objective is not None:
        out["objective"] = objective.to_dict()
    return out


def read_json(path: str):
    """Parse the JSON file at `path`; bad JSON or non-UTF-8 text is an input error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise InputError(f"{path}: invalid JSON: {e}") from None


def load_game(path: str) -> tuple[GameGraph, Union[Objective, None]]:
    """Read a game JSON file; returns the arena and its objective if present."""
    raw = read_json(path)
    g = validate_game(raw)
    obj = parse_objective(raw["objective"], g) if "objective" in raw else None
    return g, obj


def dump_json(data, path: Union[str, None]) -> str:
    """Serialize deterministically; write to `path` unless None. Returns text."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# -- batch execution -------------------------------------------------------

def worker_count(jobs: int, n_tasks: int) -> int:
    """Worker processes for `n_tasks` tasks given a budget of `jobs`: never
    more than there are tasks or CPUs; 1 means run in this process."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, n_tasks, os.cpu_count() or 1))


def map_tasks(func: Callable, tasks: Sequence[tuple], jobs: int) -> list:
    """`[func(*t) for t in tasks]`, on a process pool when :func:`worker_count`
    allows more than one worker; results keep the task order."""
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return [func(*t) for t in tasks]
    import multiprocessing
    from concurrent import futures

    # spawned workers start from a fresh import, not a fork of a threaded parent
    spawn = multiprocessing.get_context("spawn")
    with futures.ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        return list(pool.map(func, *zip(*tasks)))
