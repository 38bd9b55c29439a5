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
from itertools import chain, product
from operator import itemgetter
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
    canonical pieces; both fill the successor table in one pass
    (:meth:`_fill`) and enforce totality of the transition function.

    The operators run on an index that extraction, compliance checking and
    verification never read, so it is built on first use: the views below
    read its slots inside a ``try``, which costs nothing until a slot turns
    out empty.  Per state and P1 action it holds the mask of the successor
    states and ``(successor bit, mask of the P2 actions leading there)``
    pairs; per state, the mask of its predecessors, which the solvers use to
    find what a changed iterate can affect.
    """

    __slots__ = (
        "states", "_index", "_p1", "_p2", "_p1_offset", "_p2_index", "_succ",
        "_row_masks", "_row_pairs", "_pred",
    )

    def __init__(
        self,
        states: Iterable[str],
        p1_actions: Mapping[str, Iterable[str]],
        p2_actions: Mapping[str, Iterable[str]],
        delta: Mapping[tuple[str, str, str], str],
    ):
        if not self._fill(states, p1_actions, p2_actions, delta.items(), len(delta)):
            # invalid entries are reported before missing ones
            self._check_delta(delta)
            raise MissingTransition(*next(
                (v, a, b) for v, p1, p2, row in zip(self.states, self._p1, self._p2, self._succ)
                for (a, b), wi in zip(product(p1, p2), row) if wi < 0))

    def _fill(self, states, p1_actions, p2_actions, moves: Iterable, n_moves: int) -> bool:
        """Set up the states and actions, then fill the successor table from
        `moves`, ``((state, p1, p2), successor)`` pairs.  False when a move is
        malformed or unknown, or the moves miss or repeat a slot."""
        listed = list(states)
        self.states: tuple[str, ...] = tuple(sorted(listed))
        if not self.states:
            raise InputError("game has no states")
        if len(set(self.states)) != len(self.states):
            dup = sorted(s for s in set(listed) if listed.count(s) > 1)
            raise InputError(f"duplicate state names: {dup}")
        self._index = index = {s: i for i, s in enumerate(self.states)}

        self._p1 = [tuple(sorted(p1_actions.get(v, ()))) for v in self.states]
        self._p2 = [tuple(sorted(p2_actions.get(v, ()))) for v in self.states]
        # a state's successors are one list, P1 action major, -1 where no move
        # went; per distinct pair of action lists, a P1 action maps to the
        # offset of its run and a P2 action to its place in the run
        pairs = list(zip(self._p1, self._p2))
        layout = {(p1, p2): ({a: i * len(p2) for i, a in enumerate(p1)},
                             {b: i for i, b in enumerate(p2)}) for p1, p2 in set(pairs)}
        if not all(p1 and p2 and len(o) == len(p1) and len(i) == len(p2)
                   for (p1, p2), (o, i) in layout.items()):
            for v, *lists in zip(self.states, self._p1, self._p2):
                for player, acts in enumerate(lists, 1):
                    if not acts:
                        raise EmptyActionSet(v, player)
                    if len(set(acts)) != len(acts):
                        raise InputError(f"duplicate player-{player} actions at {v!r}")
        for v in chain(p1_actions, p2_actions):
            if v not in index:
                raise UnknownState(v)
        p1_offset, p2_index = self._p1_offset, self._p2_index = tuple(
            zip(*map(layout.__getitem__, pairs)))
        self._succ = succ = [[-1] * (len(p1) * len(p2)) for p1, p2 in pairs]
        try:
            for (v, a, b), w in moves:
                vi = index[v]
                succ[vi][p1_offset[vi][a] + p2_index[vi][b]] = index[w]
        except (KeyError, TypeError):
            return False
        # with as many moves as slots, a duplicate leaves a slot unfilled
        return n_moves == sum(map(len, succ)) and not any(-1 in row for row in succ)

    def _build_index(self) -> GameGraph:
        """Fill the operator index from the successor table; returns self."""
        self._row_masks, self._row_pairs = [], []
        pred = [0] * len(self.states)
        for vi, row in enumerate(self._succ):
            masks, pairs = [], []
            succ_all = 0
            k = len(self._p2[vi])
            for start in range(0, len(row), k):
                # P2 actions per successor bit, in first-reached order
                by_succ: dict[int, int] = {}
                m = 0
                b_bit = 1
                for wi in row[start:start + k]:
                    w_bit = 1 << wi
                    m |= w_bit
                    by_succ[w_bit] = by_succ.get(w_bit, 0) | b_bit
                    b_bit <<= 1
                masks.append(m)
                pairs.append(tuple(by_succ.items()))
                succ_all |= m
            self._row_masks.append(tuple(masks))
            self._row_pairs.append(tuple(pairs))
            v_bit = 1 << vi
            while succ_all:
                low = succ_all & -succ_all
                pred[low.bit_length() - 1] |= v_bit
                succ_all ^= low
        self._pred = tuple(pred)
        return self

    def _check_delta(self, delta: Mapping[tuple[str, str, str], str]) -> None:
        """Raise for the first entry naming an unknown state or action."""
        for (v, a, b), w in delta.items():
            vi = self.index(v)
            if a not in self._p1_offset[vi]:
                raise UnknownAction(v, a, player=1)
            if b not in self._p2_index[vi]:
                raise UnknownAction(v, b, player=2)
            self.index(w)

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
        offset = self._p1_offset[vi].get(p1)
        if offset is None:
            raise UnknownAction(state, p1, player=1)
        bi = self._p2_index[vi].get(p2)
        if bi is None:
            raise UnknownAction(state, p2, player=2)
        return self.states[self._succ[vi][offset + bi]]

    def succ_row(self, state: str) -> tuple[Mapping[str, int], list[int]]:
        """The successors of `state`, read from the successor table without
        checking names again: per P1 action, the offset of its run in a row
        of state indices; the run holds its successor against each P2 action,
        in the order of :meth:`p2_actions`.  Both are shared: read only."""
        vi = self.index(state)
        return self._p1_offset[vi], self._succ[vi]

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
        try:
            return self._row_masks[vi]
        except AttributeError:  # an empty slot: the index is not built yet
            return self._build_index()._row_masks[vi]

    def succ_pairs(self, vi: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per P1 action at state `vi`, ``(successor bit, P2 action mask)``
        pairs: the P2 actions in the mask lead to that successor."""
        try:
            return self._row_pairs[vi]
        except AttributeError:
            return self._build_index()._row_pairs[vi]

    def pred_mask(self, m: int) -> int:
        """States with some joint action leading into the state mask `m`."""
        out = 0
        try:
            pred = self._pred
        except AttributeError:
            pred = self._build_index()._pred
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
        wanted = actions if isinstance(actions, (set, frozenset)) else set(actions)
        return sum(p for a, p in self.probs if a in wanted)

    def to_dict(self) -> dict[str, float]:
        return dict(self.probs)


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
    transitions = raw["transitions"]
    g = GameGraph.__new__(GameGraph)
    moves = zip(map(itemgetter("from", "p1", "p2"), transitions),
                map(itemgetter("to"), transitions))
    try:
        if g._fill(states, raw["p1_actions"], raw["p2_actions"], moves, len(transitions)):
            return g
    except InputError:
        pass
    # some fault in the arena: the checks below name the first one
    delta: dict[tuple[str, str, str], str] = {}
    for t in transitions:
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
    transitions = [
        {"from": v, "p1": a, "p2": b, "to": g.states[wi]}
        for v, p1, p2, row in zip(g.states, g._p1, g._p2, g._succ)
        for (a, b), wi in zip(product(p1, p2), row)]
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


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(o, nl: str) -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` for JSON data, `nl` being the
    newline and indent of the enclosing level; lists of strings are joined at
    C level.  Other types and non-string keys raise TypeError."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        items = map(_quote, o) if _all_of(str, o) else [_encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _encode(o[k], inner) for k in sorted(o)]) + nl + "}")
    if t is int:
        return int.__repr__(o)
    if t is float:
        text = float.__repr__(o)
        return _NON_FINITE.get(text, text)
    if o is None or t is bool:
        return _CONSTANTS[o]
    raise TypeError(f"not encoded here: {t.__name__}")


def dump_json(data, path: Union[str, None]) -> str:
    """Serialize deterministically; write to `path` unless None. Returns the
    text, always ``json.dumps(data, indent=2, sort_keys=True) + "\\n"``."""
    try:
        text = _encode(data, "\n") + "\n"
    except (TypeError, RecursionError):
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
