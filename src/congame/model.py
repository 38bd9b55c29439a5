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
from functools import reduce
from itertools import chain, product
from operator import add, itemgetter
from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from typing import NamedTuple, Union


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


class Objective(NamedTuple):
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
    (:meth:`_fill`) and enforce totality of the transition function.  The
    counter product lays out copies of a valid game's table one after
    another (:meth:`_copies`); its states are in copy order, not sorted.

    The operators read the successor table itself, one run of successor
    indices per P1 action (:meth:`succ_runs`).  Per state, the mask of its
    predecessors, which the solvers and verification use to find what a
    changed iterate can affect, is built on first use (:meth:`pred_mask`):
    extraction and compliance checking never read it.
    """

    __slots__ = (
        "states", "_index", "_p1", "_p2", "_p1_offset", "_p2_index", "_succ", "_pred",
    )

    def __init__(
        self,
        states: Iterable[str],
        p1_actions: Mapping[str, Iterable[str]],
        p2_actions: Mapping[str, Iterable[str]],
        delta: Mapping[tuple[str, str, str], str],
    ):
        if not (self._fill(states, p1_actions, p2_actions, delta.items(), len(delta))
                and _all_of(tuple, delta)):
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
        except (KeyError, TypeError, ValueError):
            return False
        # with as many moves as slots, a duplicate leaves a slot unfilled
        return n_moves == sum(map(len, succ)) and not any(-1 in row for row in succ)

    @classmethod
    def _copies(cls, base: GameGraph, shift: Sequence[Sequence[int]]) -> GameGraph:
        """k copies of `base`, k = ``len(shift)``: state ``c * n + vi`` is copy c of
        base state vi, named ``v@c``, with v's actions and v's successor row plus
        ``shift[c][vi]``."""
        g = cls.__new__(cls)
        g.states = tuple(f"{v}@{c}" for c in range(len(shift)) for v in base.states)
        g._index = dict(zip(g.states, range(len(g.states))))
        g._succ = [[w + s for w in row] for col in shift for row, s in zip(base._succ, col)]
        g._p1, g._p2, g._p1_offset, g._p2_index = (
            col * len(shift) for col in (base._p1, base._p2, base._p1_offset, base._p2_index))
        return g

    def _build_index(self) -> GameGraph:
        """Fill the predecessor masks from the successor table; returns self."""
        pred = [0] * len(self.states)
        for vi, row in enumerate(self._succ):
            v_bit = 1 << vi
            for wi in set(row):
                pred[wi] |= v_bit
        self._pred = tuple(pred)
        return self

    def _check_delta(self, delta: Mapping[tuple[str, str, str], str]) -> None:
        """Raise for the first entry with a malformed key (not a tuple of three)
        or naming an unknown state or action."""
        for key, w in delta.items():
            if key.__class__ is not tuple or len(key) != 3:
                raise InputError(f"malformed transition key {key!r}")
            v, a, b = key
            self.action_mask(v, (a,))
            self.action_mask(v, (b,), player=2)
            self.index(w)

    # -- basic accessors -------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise UnknownState(state) from None

    def action_mask(self, state: str, actions: Iterable[str], player: int = 1) -> int:
        """The mask of `actions` at `state`, bit i standing for the i-th
        action of :meth:`p1_actions` (:meth:`p2_actions` for player 2);
        raises for an unknown state or the first unknown action."""
        vi = self.index(state)
        place, k = ((self._p1_offset[vi], len(self._p2[vi])) if player == 1
                    else (self._p2_index[vi], 1))
        m = 0
        for a in actions:
            try:
                m |= 1 << place[a] // k
            except KeyError:
                raise UnknownAction(state, a, player=player) from None
        return m

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

    def succ_row(self, state: str) -> tuple[Mapping[str, int], list[int], Mapping[str, int]]:
        """The successor table of `state`, read without checking names again:
        per P1 action the offset of its run, the row of state indices, and per
        P2 action its place in a run, so ``states[row[offset[a] + place[b]]]``
        is ``succ(state, a, b)``.  All three are shared: read only."""
        vi = self.index(state)
        return self._p1_offset[vi], self._succ[vi], self._p2_index[vi]

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

    def succ_runs(self, vi: int) -> tuple[list[int], int]:
        """State `vi`'s successor indices and its number k of P2 actions: run
        ai, ``row[ai * k:(ai + 1) * k]``, holds P1 action ai's successors in
        P2-action order.  The row is shared: read only."""
        return self._succ[vi], len(self._p2[vi])

    def pred_mask(self, m: int) -> int:
        """States with some joint action leading into the state mask `m`."""
        out = 0
        try:
            pred = self._pred
        except AttributeError:  # an empty slot: the masks are not built yet
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


class ActionDistribution(NamedTuple):
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

    @property
    def support(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.probs)

    def mass(self, actions: Iterable[str]) -> float:
        wanted = actions if isinstance(actions, (set, frozenset)) else set(actions)
        return sum(p for a, p in self.probs if a in wanted)

    def to_dict(self) -> dict[str, float]:
        return dict(self.probs)


class _EmptyMapping(Mapping):
    """An immutable empty mapping that pickles (a ``MappingProxyType`` does
    not): the default table of the records, which they share safely."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"


_EMPTY: Mapping = _EmptyMapping()


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


def _sum_lr(items: Iterable[float]) -> float:
    """The floats of `items` added left to right, as builtin ``sum`` does up
    to Python 3.11 (3.12 compensates), so sums do not depend on the interpreter."""
    return reduce(add, items, 0.0)


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
    g.mask(target)
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
        except RecursionError:
            raise InputError(f"{path}: invalid JSON: nested too deeply") from None


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
    if jobs == 1:
        return 1
    return max(1, min(jobs, n_tasks, os.cpu_count() or 1))


def map_tasks(func: Callable, tasks: Sequence[tuple], jobs: int) -> list:
    """`[func(*t) for t in tasks]`, on a process pool when :func:`worker_count`
    allows more than one worker; results keep the task order.  The workers
    are spawned, so a script passing jobs > 1 needs an ``if __name__ ==
    "__main__":`` guard; without it they end abruptly (a CongameError)."""
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return [func(*t) for t in tasks]
    import multiprocessing
    from concurrent import futures

    # spawned workers start from a fresh import, not a fork of a threaded parent
    spawn = multiprocessing.get_context("spawn")
    try:
        with futures.ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            return list(pool.map(func, *zip(*tasks)))
    except futures.process.BrokenProcessPool:
        raise CongameError("a worker process ended abruptly; a script that passes jobs > 1 "
                           'must guard its entry point with if __name__ == "__main__":') from None
