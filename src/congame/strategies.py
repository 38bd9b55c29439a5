"""Randomized strategies with per-visit schedules, template extraction,
compliance checking, exact verification and simulation.

A strategy assigns each state a weight schedule per action; at the n-th visit
(0-based) the positive weights are renormalized into the mixed action:

* constant  -- weight p at every visit;
* geometric -- weight c * r**n at visit n (0 < r < 1), i.e. decaying mass.

Strategy (JSON):

    {state: {action: {"kind": "constant", "p": 0.5}
                   | {"kind": "geometric", "c": 0.25, "r": 0.5}}}

Compliance against a template is decided by limit analysis, which is exact
within this schedule family up to one honest gap: a live group whose
normalized mass is positive but vanishing cannot be classified per state
(other states of its cell may carry the requirement), and is reported as
Unknown rather than guessed.
"""

from __future__ import annotations

import random
from itertools import chain
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Optional, Union

from .model import (
    ActionDistribution,
    GameGraph,
    InputError,
    Objective,
    ObjectiveKind,
    UnknownAction,
    UnknownState,
    _all_finite,
    _all_of,
    _MAX_FLOAT,
    _NUMBER,
    map_tasks,
)
from .templates import ConflictReport, Template, check_conflict_free, check_weight_params


class ConflictError(InputError):
    """Extraction was asked to realize a conflicted template."""

    def __init__(self, report: ConflictReport):
        first = report.conflicts[0]
        super().__init__(
            f"template is conflicted at {first.state!r} ({first.clause})")
        self.report = report


class LiveFloorViolation(InputError):
    """An extracted strategy leaves a live group below its floor at the
    first visit (a live group of the template that no allowed action can
    carry, outside the cells that the conflict check covers)."""

    def __init__(self, state: str, group: frozenset[str], mass: float, need: float):
        super().__init__(
            f"live group {sorted(group)} at {state!r} gets mass {mass:.6g} "
            f"at the first visit, below its floor {need:.6g}")
        self.state, self.group = state, group


class NonConstantSchedule(InputError):
    def __init__(self, state: str, action: str):
        super().__init__(
            f"exact verification needs constant schedules; {state!r}/{action!r} is not")
        self.state, self.action = state, action


@dataclass(frozen=True)
class Constant:
    p: float


@dataclass(frozen=True)
class Geometric:
    c: float
    r: float


Schedule = Union[Constant, Geometric]


@dataclass(frozen=True)
class ScheduleStrategy:
    """Per-state action schedules; weights renormalized at every visit."""

    schedules: Mapping[str, Mapping[str, Schedule]]

    def distribution(self, v: str, visit: int) -> ActionDistribution:
        table = self.schedules.get(v)
        if not table:
            raise UnknownState(v)
        # an all-geometric row is scaled by its largest ratio, so that its
        # weights cannot all underflow (r / 1.0 is r exactly)
        r_max = 1.0 if any(isinstance(s, Constant) for s in table.values()) \
            else max(s.r for s in table.values())
        weights = {a: s.p if isinstance(s, Constant) else s.c * (s.r / r_max) ** visit
                   for a, s in table.items()}
        total = sum(weights.values())
        if total <= 0.0:
            raise InputError(f"strategy has no positive weight at {v!r}")
        return ActionDistribution.from_mapping(
            {a: w / total for a, w in weights.items() if w > 0.0})

    def to_dict(self) -> dict:
        out: dict = {}
        for v in sorted(self.schedules):
            row: dict = {}
            for a in sorted(self.schedules[v]):
                s = self.schedules[v][a]
                if isinstance(s, Constant):
                    row[a] = {"kind": "constant", "p": s.p}
                else:
                    row[a] = {"kind": "geometric", "c": s.c, "r": s.r}
            out[v] = row
        return out


def strategy_from_dict(raw: Mapping) -> ScheduleStrategy:
    if not (isinstance(raw, Mapping) and _all_of(dict, raw.values())):
        raise InputError("strategy must map states to JSON objects of schedules")
    schedules: dict[str, dict[str, Schedule]] = {}
    for v, row in raw.items():
        table: dict[str, Schedule] = {}
        for a, spec in row.items():
            kind = spec.get("kind") if isinstance(spec, Mapping) else None
            # the upper bound also rejects integers beyond the float range
            if kind == "constant":
                p = spec.get("p")
                if type(p) not in _NUMBER or not 0.0 < p <= _MAX_FLOAT:
                    raise InputError(
                        f"constant weight must be a positive finite number at {v!r}/{a!r}")
                table[a] = Constant(float(p))
            elif kind == "geometric":
                c, r = spec.get("c"), spec.get("r")
                if not (type(c) in _NUMBER and type(r) in _NUMBER
                        and 0.0 < c <= _MAX_FLOAT and 0.0 < r < 1.0):
                    raise InputError(f"bad geometric schedule at {v!r}/{a!r}")
                table[a] = Geometric(float(c), float(r))
            else:
                raise InputError(f"unknown schedule kind at {v!r}/{a!r}: {spec!r}")
        if not table:
            raise InputError(f"strategy has no schedules at {v!r}")
        schedules[v] = table
    return ScheduleStrategy(schedules)


def validate_strategy(g: GameGraph, s: ScheduleStrategy) -> None:
    for v in g.states:
        if v not in s.schedules:
            raise UnknownState(v)
    for v, table in s.schedules.items():
        if v not in g:
            raise UnknownState(v)
        allowed = set(g.p1_actions(v))
        for a in table:
            if a not in allowed:
                raise UnknownAction(v, a)


# -- extraction --------------------------------------------------------------

def extract_strategy(
    g: GameGraph,
    t: Template,
    eps_live: float = 0.1,
    colive_base: float = 0.25,
) -> ScheduleStrategy:
    """Build a schedule strategy following `t` from every winning state.

    Unsafe actions get no schedule at all; colive actions decay geometrically
    from `colive_base` with ratio 1/2; the remaining actions share constant
    weights, with each nonempty live group's lexicographically first feasible
    action floored so the group keeps normalized mass >= eps_live/|H(v)| at
    every visit (the floor is pre-inflated against the visit-0 colive mass).
    """
    check_weight_params(eps_live, colive_base)
    report = check_conflict_free(g, t)
    if not report.ok:
        raise ConflictError(report)

    schedules: dict[str, dict[str, Schedule]] = {}
    for v in g.states:
        _, c_set, r_acts = t.split_at(g, v)
        if not r_acts:
            # only outside the winning region of a hand-merged template:
            # colive actions become constants, all-unsafe plays unconstrained
            r_acts, c_set = c_set or frozenset(g.p1_actions(v)), frozenset()

        table: dict[str, Schedule] = {}
        for a in sorted(c_set):
            table[a] = Geometric(colive_base, 0.5)

        groups = [h for h in t.groups_at(v) if h & r_acts]
        k0 = len(c_set) * colive_base
        floor = t.live_floor(v, eps_live) * (1.0 + k0)
        if floor * len(groups) >= 0.9:
            raise InputError(
                f"cannot fit live floors at {v!r}: eps_live/colive_base too large")
        weights = dict.fromkeys(sorted(r_acts), (1.0 - floor * len(groups)) / len(r_acts))
        for h in groups:
            weights[min(h & r_acts)] += floor
        total = sum(weights.values())
        for a, w in weights.items():
            table[a] = Constant(w / total)
        schedules[v] = table

    out = ScheduleStrategy(schedules)
    # the floors must survive visit-0 renormalization against colive mass
    for v in g.states:
        if v in t.winning and any(t.groups_at(v)):
            d0, need = out.distribution(v, 0), t.live_floor(v, eps_live)
            for h in filter(None, t.groups_at(v)):
                if d0.mass(h) < need - 1e-12:
                    raise LiveFloorViolation(v, h, d0.mass(h), need)
    return out


# -- compliance --------------------------------------------------------------

@dataclass(frozen=True)
class ComplianceVerdict:
    status: str  # "compliant" | "noncompliant" | "unknown"
    state: Optional[str] = None
    clause: Optional[str] = None  # "unsafe" | "colive" | "live"

    @property
    def compliant(self) -> bool:
        return self.status == "compliant"

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.status}
        if self.state is not None:
            out["state"] = self.state
            out["clause"] = self.clause
        return out


def _limit_sets(table: Mapping[str, Schedule]) -> tuple[frozenset[str], frozenset[str]]:
    """Actions whose normalized weight has a positive limit / is ever positive.

    With any constant present the constants dominate; in an all-geometric
    table the largest ratio dominates (ratio comparison is exact float
    equality, which the extractor's single shared ratio satisfies).
    """
    has_const = any(isinstance(s, Constant) for s in table.values())
    if has_const:
        dominant = frozenset(a for a, s in table.items() if isinstance(s, Constant))
    else:
        r_star = max(s.r for s in table.values())
        dominant = frozenset(a for a, s in table.items() if s.r == r_star)
    return dominant, frozenset(table)


def check_compliance(g: GameGraph, t: Template, s: ScheduleStrategy) -> ComplianceVerdict:
    """Decide whether `s` follows `t`, by per-state limit analysis.

    States are scanned in lexicographic order; the first hard violation wins
    (clause order: unsafe, colive, live).  A live group kept positive but
    with vanishing normalized mass yields Unknown unless some hard violation
    is found elsewhere.  Empty live groups are exempt (their cell carries the
    requirement).
    """
    validate_strategy(g, s)
    on_cell = t.cell_states()
    unknown: Optional[ComplianceVerdict] = None
    for v in g.states:
        table = s.schedules[v]
        dominant, positive = _limit_sets(table)
        unsafe, colive, _ = t.split_at(g, v)
        if unsafe & positive:
            return ComplianceVerdict("noncompliant", v, "unsafe")
        if colive & dominant:
            return ComplianceVerdict("noncompliant", v, "colive")
        if v in on_cell:
            for h in t.groups_at(v):
                if not h:
                    continue
                if not h & positive:
                    return ComplianceVerdict("noncompliant", v, "live")
                if not h & dominant and unknown is None:
                    unknown = ComplianceVerdict("unknown", v, "live")
    return unknown if unknown is not None else ComplianceVerdict("compliant")


# -- exact verification of constant strategies -------------------------------

def _constant_distributions(g: GameGraph, s: ScheduleStrategy) -> dict[str, ActionDistribution]:
    validate_strategy(g, s)
    out: dict[str, ActionDistribution] = {}
    for v in g.states:
        for a, sched in s.schedules[v].items():
            if not isinstance(sched, Constant):
                raise NonConstantSchedule(v, a)
        out[v] = s.distribution(v, 0)
    return out


def _supports(g: GameGraph, dists: Mapping[str, ActionDistribution]) -> dict[str, list[frozenset[str]]]:
    """Per state, the successor support of each opponent action."""
    out: dict[str, list[frozenset[str]]] = {}
    for v in g.states:
        offset, row = g.succ_row(v)
        runs = [offset[a] for a in dists[v].support]
        out[v] = [frozenset(g.states[row[i + j]] for i in runs)
                  for j in range(len(g.p2_actions(v)))]
    return out


def _can_reach(states: Iterable[str], edges: Mapping[str, frozenset[str]], bad: frozenset[str]) -> frozenset[str]:
    """`bad` plus the states of `states` with a path into it, found by a
    backward search over the predecessor lists."""
    preds: dict[str, list[str]] = {}
    for v in states:
        for w in edges[v]:
            preds.setdefault(w, []).append(v)
    reach = set(bad)
    stack = list(bad)
    while stack:
        for v in preds.get(stack.pop(), ()):
            if v not in reach:
                reach.add(v)
                stack.append(v)
    return frozenset(reach)


def _trim(nodes: frozenset[str], supports: Mapping[str, list[frozenset[str]]]) -> frozenset[str]:
    """Largest subset of `nodes` in which every state keeps some opponent
    action whose support stays inside the subset.

    Each state counts its supports inside `nodes`; removing a state drops
    the supports that contain it, so a backward worklist over the support
    members finds every state whose count reaches zero.
    """
    count: dict[str, int] = {}
    holders: dict[str, list[tuple[str, int]]] = {}
    for v in nodes:
        n = 0
        for k, supp in enumerate(supports[v]):
            if supp <= nodes:
                n += 1
                for u in supp:
                    holders.setdefault(u, []).append((v, k))
        count[v] = n
    keep = set(nodes)
    dropped: set[tuple[str, int]] = set()
    stack = [v for v in nodes if not count[v]]
    while stack:
        u = stack.pop()
        keep.discard(u)
        for held in holders.get(u, ()):
            if held not in dropped:
                dropped.add(held)
                v = held[0]
                count[v] -= 1
                if not count[v]:
                    stack.append(v)
    return frozenset(keep)


def verify_memoryless(g: GameGraph, s: ScheduleStrategy, objective: Objective) -> frozenset[str]:
    """States from which the constant strategy `s` wins `objective` almost
    surely against every (even history-dependent) opponent.

    Fixing P1's mixed action leaves the opponent a one-player chain, each of
    its actions giving a successor support.  The answer is the complement of
    the states that can reach `bad`, a set that holds every end component
    (de Alfaro 1997) violating the objective and whose states each reach one:

    * safety: the non-target states.
    * buchi: `_trim` of the non-target states.  It holds every end component
      outside the target, and an opponent keeping to the supports inside it
      ends in a bottom component of its chain, which is such a component.
    * cobuchi: the greatest X equal to `_trim(X)` cut down to the states that
      reach X minus the target inside X, along supports that stay in X.  It
      holds every end component with a non-target state; from X, an opponent
      mixing uniformly over its staying actions ends in bottom components
      that meet X minus the target.  Each round is linear and X only
      shrinks, so at most |V| + 1 rounds run.
    """
    dists = _constant_distributions(g, s)
    supports = _supports(g, dists)
    edges = {v: frozenset().union(*supports[v]) for v in g.states}
    all_states = frozenset(g.states)
    target = frozenset(objective.target)

    if objective.kind is ObjectiveKind.SAFETY:
        bad = all_states - target
    elif objective.kind is ObjectiveKind.BUCHI:
        bad = _trim(all_states - target, supports)
    else:
        bad = all_states
        while True:
            kept = _trim(bad, supports)
            inside = {v: frozenset().union(*(supp for supp in supports[v] if supp <= kept))
                      for v in kept}
            shrunk = _can_reach(kept, inside, kept - target)
            if shrunk == bad:
                break
            bad = shrunk
    return all_states - _can_reach(g.states, edges, bad)


# -- opponents and simulation -------------------------------------------------

def _sample(rng: random.Random, d: ActionDistribution) -> str:
    u = rng.random()
    cum = 0.0
    for a, p in d.probs:
        cum += p
        if u < cum:
            return a
    return d.probs[-1][0]


class UniformRandom:
    """Opponent playing uniformly at random at every state."""

    def pick(self, g: GameGraph, v: str, d1: ActionDistribution, rng: random.Random) -> str:
        return _sample(rng, ActionDistribution.uniform(g.p2_actions(v)))


@dataclass(frozen=True)
class FixedSchedule:
    """Stationary stochastic opponent: a fixed distribution per state.

    States missing from the table fall back to the lexicographically first
    action.
    """

    table: Mapping[str, ActionDistribution] = field(default_factory=dict)
    # (game, state) pairs whose row has been checked against the game
    _checked: set = field(default_factory=set, init=False, repr=False, compare=False)

    @staticmethod
    def from_dict(raw: Mapping, g: Optional[GameGraph] = None) -> "FixedSchedule":
        """Read {state: {action: weight}}; each row must be a distribution."""
        if not (isinstance(raw, Mapping) and _all_of(dict, raw.values())
                and _all_finite(chain.from_iterable(map(dict.values, raw.values())))):
            raise InputError("opponent must map states to JSON objects of finite weights")
        for v in raw:
            if g is not None and v not in g:
                raise InputError(f"opponent file mentions unknown state {v!r}")
        return FixedSchedule({v: ActionDistribution.from_mapping(row) for v, row in raw.items()})

    def pick(self, g: GameGraph, v: str, d1: ActionDistribution, rng: random.Random) -> str:
        d = self.table.get(v)
        if d is None:
            return g.p2_actions(v)[0]
        if (g, v) not in self._checked:
            for b in d.support:
                if b not in g.p2_actions(v):
                    raise UnknownAction(v, b, player=2)
            self._checked.add((g, v))
        return _sample(rng, d)


@dataclass(frozen=True)
class GreedyAdversary:
    """One-step minimizer of P1 progress: picks the opponent action that
    maximizes the expected rank of the successor under P1's mixed action
    (losing states count as one past the last rank).  Ties go lexicographic.
    """

    ranks: tuple[frozenset[str], ...]

    def _score(self, w: str) -> int:
        return next((i for i, x in enumerate(self.ranks) if w in x), len(self.ranks))

    def pick(self, g: GameGraph, v: str, d1: ActionDistribution, rng: random.Random) -> str:
        best, best_score = None, -1.0
        for b in g.p2_actions(v):
            score = sum(p * self._score(g.succ(v, a, b)) for a, p in d1.probs)
            if score > best_score + 1e-12:
                best, best_score = b, score
        assert best is not None
        return best


Opponent = Union[UniformRandom, FixedSchedule, GreedyAdversary]


@dataclass
class EpisodeLog:
    episode: int
    seed: int
    start: str
    steps: list[tuple[str, str, str, str]]  # (state, p1, p2, next)
    visits: dict[str, int]
    target_visits: int
    longest_target_suffix: int

    def to_dict(self) -> dict:
        return {
            "episode": self.episode,
            "seed": self.seed,
            "start": self.start,
            "steps": [list(step) for step in self.steps],
            "visits": dict(sorted(self.visits.items())),
            "target_visits": self.target_visits,
            "longest_target_suffix": self.longest_target_suffix,
        }


def _run_episode(
    g: GameGraph,
    s: ScheduleStrategy,
    opponent: Opponent,
    horizon: int,
    seed: int,
    start: str,
    target: frozenset[str],
    episode: int,
) -> EpisodeLog:
    rng = random.Random(seed)
    v = start
    visits: dict[str, int] = {}
    # the distribution of each visited row whose schedules are all constant
    fixed: dict[str, ActionDistribution] = {}
    steps: list[tuple[str, str, str, str]] = []
    state_seq = [v]
    for _ in range(horizon):
        n = visits.get(v, 0)
        visits[v] = n + 1
        d1 = fixed.get(v)
        if d1 is None:
            d1 = s.distribution(v, n)
            if not n and all(isinstance(x, Constant) for x in s.schedules[v].values()):
                fixed[v] = d1
        a = _sample(rng, d1)
        b = opponent.pick(g, v, d1, rng)
        w = g.succ(v, a, b)
        steps.append((v, a, b, w))
        state_seq.append(w)
        v = w
    visits[v] = visits.get(v, 0) + 1
    target_visits = sum(1 for u in state_seq if u in target)
    suffix = 0
    for u in reversed(state_seq):
        if u not in target:
            break
        suffix += 1
    return EpisodeLog(
        episode=episode, seed=seed, start=start, steps=steps,
        visits=visits, target_visits=target_visits,
        longest_target_suffix=suffix,
    )


def simulate(
    g: GameGraph,
    s: ScheduleStrategy,
    opponent: Opponent,
    horizon: int,
    episodes: int,
    seed: int,
    start: Optional[str] = None,
    target: Iterable[str] = (),
    jobs: int = 1,
) -> list[EpisodeLog]:
    """Run independent episodes; episode i uses seed `seed + i`.

    All randomness flows through random.Random (Mersenne Twister) with the
    per-episode derived seed; P1 samples first, then the opponent, from the
    same stream.  With jobs > 1 episodes may run in a process pool
    (:func:`~congame.model.map_tasks`) and are merged back in episode order,
    byte-identical to the sequential run.
    """
    validate_strategy(g, s)
    if start is None:
        start = g.states[0]
    if start not in g:
        raise UnknownState(start)
    tgt = frozenset(target)
    for u in tgt:
        if u not in g:
            raise UnknownState(u)
    if horizon < 0 or episodes < 0:
        raise InputError("horizon and episodes must be nonnegative")
    tasks = [
        (g, s, opponent, horizon, seed + i, start, tgt, i)
        for i in range(episodes)
    ]
    return map_tasks(_run_episode, tasks, jobs)
