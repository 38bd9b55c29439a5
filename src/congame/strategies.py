"""Randomized strategies with per-visit schedules, template extraction,
compliance checking, exact verification and simulation.

A strategy assigns each state a weight schedule per action, from one family:
weight c * r**n at the n-th visit (0-based), the positive weights renormalized
into the mixed action.  Ratio r = 1 is a constant weight (persistent mass) and
0 < r < 1 decaying mass; JSON names the two kinds:

    {state: {action: {"kind": "constant", "p": 0.5}
                   | {"kind": "geometric", "c": 0.25, "r": 0.5}}}

P1's support at a state is its row's actions of positive weight; compliance
and exact verification read it, never float shares, in which weights underflow.

Compliance against a template is decided by limit analysis, which is exact
within this schedule family up to one honest gap: a live group whose
normalized mass is positive but vanishing cannot be classified per state
(other states of its cell may carry the requirement), and is reported as
Unknown rather than guessed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, chain, takewhile
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import partial
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from .model import (
    ActionDistribution,
    GameGraph,
    InputError,
    Objective,
    ObjectiveKind,
    UnknownState,
    _EMPTY,
    _all_finite,
    _all_of,
    _MAX_FLOAT,
    _NUMBER,
    _sum_lr,
    map_tasks,
)
from .operators import apre2_mask, pre2_mask
from .solvers import _shrink
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


class Schedule(NamedTuple):
    """Weight c * r**n at the n-th visit; the default ratio 1.0 is constant."""

    c: float
    r: float = 1.0


class ScheduleStrategy(NamedTuple):
    """Per-state action schedules; weights renormalized at every visit."""

    schedules: Mapping[str, Mapping[str, Schedule]]

    def distribution(self, v: str, visit: int) -> ActionDistribution:
        """P1's mixed action at the `visit`-th visit of `v`.  A row of one
        schedule with positive finite c and r is that action alone, at 1.0 as
        the general body computes it: c * (r / r) ** n is c, and c / c is 1.0."""
        table = self.schedules.get(v)
        if not table:
            raise UnknownState(v)
        if len(table) == 1:
            ((a, s),) = table.items()
            if 0.0 < s.c <= _MAX_FLOAT and 0.0 < s.r <= _MAX_FLOAT:
                return ActionDistribution(((a, 1.0),))
        # a row is scaled by its largest ratio, so that an all-decaying row's weights
        # cannot all underflow (r / 1.0 is r exactly, and 1.0 ** n is 1.0)
        r_max = max(s.r for s in table.values())
        weights = {a: s.c * (s.r / r_max) ** visit for a, s in table.items()}
        total = _sum_lr(weights.values())
        if total > _MAX_FLOAT:  # finite weights that sum past the float range
            top = max(weights.values())
            weights = {a: w / top for a, w in weights.items()}
            total = _sum_lr(weights.values())
        if total <= 0.0:
            raise InputError(f"strategy has no positive weight at {v!r}")
        return ActionDistribution.from_mapping(
            {a: w / total for a, w in weights.items() if w > 0.0})

    def to_dict(self) -> dict:
        return {v: {a: {"kind": "constant", "p": s.c} if s.r == 1.0
                    else {"kind": "geometric", "c": s.c, "r": s.r}
                    for a, s in sorted(row.items())}
                for v, row in sorted(self.schedules.items())}


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
                table[a] = Schedule(float(p))
            elif kind == "geometric":
                c, r = spec.get("c"), spec.get("r")
                if not (type(c) in _NUMBER and type(r) in _NUMBER
                        and 0.0 < c <= _MAX_FLOAT and 0.0 < r < 1.0):
                    raise InputError(f"bad geometric schedule at {v!r}/{a!r}")
                table[a] = Schedule(float(c), float(r))
            else:
                raise InputError(f"unknown schedule kind at {v!r}/{a!r}: {spec!r}")
        if not table:
            raise InputError(f"strategy has no schedules at {v!r}")
        schedules[v] = table
    return ScheduleStrategy(schedules)


def _positive(table: Mapping[str, Schedule]) -> dict[str, Schedule]:
    """The schedules of `table` whose weight is positive: P1's support."""
    return {a: s for a, s in table.items() if s.c > 0.0}


def validate_strategy(g: GameGraph, s: ScheduleStrategy) -> list[int]:
    """Check `s`'s names and rows against `g`; return per state index the mask
    of P1's support, its actions of positive weight (all keys unless built in
    code, so a row's own mask is its support mask where every weight is positive)."""
    for v in g.states:
        if v not in s.schedules:
            raise InputError(f"strategy has no schedules at {v!r}")
    support: dict[str, int] = {}
    for v, table in s.schedules.items():
        mask = g.action_mask(v, table)
        if not mask:
            raise InputError(f"strategy has no schedules at {v!r}")
        support[v] = (mask if all(x.c > 0.0 for x in table.values())
                      else g.action_mask(v, _positive(table)))
    return [support[v] for v in g.states]


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
            table[a] = Schedule(colive_base, 0.5)

        groups = [h for h in t.groups_at(v) if h & r_acts]
        k0 = len(c_set) * colive_base
        floor = t.live_floor(v, eps_live) * (1.0 + k0)
        if not floor * len(groups) < 0.9:  # NaN (inf * 0) fails too
            raise InputError(
                f"cannot fit live floors at {v!r}: eps_live/colive_base too large")
        weights = dict.fromkeys(sorted(r_acts), (1.0 - floor * len(groups)) / len(r_acts))
        for h in groups:
            weights[min(h & r_acts)] += floor
        total = _sum_lr(weights.values())
        for a, w in weights.items():
            table[a] = Schedule(w / total)
        schedules[v] = table

    # the floors must survive visit-0 renormalization (`distribution(v, 0)`) against colive mass
    for v in g.states:
        if v in t.winning and any(t.groups_at(v)):
            w0 = {a: s.c for a, s in schedules[v].items()}
            total, need = _sum_lr(w0.values()), t.live_floor(v, eps_live)
            for h in filter(None, t.groups_at(v)):
                mass = _sum_lr(w / total for a, w in sorted(w0.items()) if a in h)
                if mass < need - 1e-12:
                    raise LiveFloorViolation(v, h, mass, need)
    return ScheduleStrategy(schedules)


# -- compliance --------------------------------------------------------------

class ComplianceVerdict(NamedTuple):
    status: str  # "compliant" | "noncompliant" | "unknown"
    state: Optional[str] = None
    clause: Optional[str] = None  # "unsafe" | "colive" | "live"

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.status}
        if self.state is not None:
            out["state"] = self.state
            out["clause"] = self.clause
        return out


def _limit_sets(table: Mapping[str, Schedule]) -> tuple[frozenset[str], frozenset[str]]:
    """Actions whose normalized weight has a positive limit / is ever positive.

    Of the positive weights, those of the largest ratio dominate: constants
    if there are any (ratio comparison is exact float equality, which the
    extractor's single shared ratio satisfies).
    """
    table = _positive(table)
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
    on_cell = t.cell_states()
    unknown: Optional[ComplianceVerdict] = None
    for v, support in zip(g.states, validate_strategy(g, s)):
        if not support:
            raise InputError(f"strategy has no positive weight at {v!r}")
        dominant, positive = _limit_sets(s.schedules[v])
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

def verify_memoryless(g: GameGraph, s: ScheduleStrategy, objective: Objective) -> frozenset[str]:
    """States from which the constant strategy `s` wins `objective` almost
    surely against every (even history-dependent) opponent.

    Fixing P1's mixed action to its support ``gamma1`` (its positive weights)
    leaves the opponent a one-player chain, each action giving a successor
    support.  The answer is the complement of the states that can reach
    `bad`, a set that holds every end component (de Alfaro 1997) violating
    the objective and whose states each reach one:

    * safety: the non-target states.
    * buchi: the trim of the non-target states, their greatest subset X with
      X = pre2(X).  It holds every end component outside the target, and an
      opponent keeping to the supports inside it ends in a bottom component
      of its chain, which is such a component.
    * cobuchi: the greatest X equal to the trim of X cut down to the states
      that reach X minus the target inside X, along supports that stay in X
      (apre2).  It holds every end component with a non-target state; from
      X, an opponent mixing uniformly over its staying actions ends in
      bottom components that meet X minus the target.  Each round is linear
      and X only shrinks, so at most |V| + 1 rounds run.
    """
    gamma1 = validate_strategy(g, s)
    for v, support in zip(g.states, gamma1):
        for a, sched in s.schedules[v].items():
            if sched.r != 1.0:
                raise NonConstantSchedule(v, a)
        if not support:
            raise InputError(f"strategy has no positive weight at {v!r}")
    keeps = partial(pre2_mask, g, gamma1)
    not_t = g.full_mask & ~g.mask(objective.target)

    def reach(y: int, x: int) -> int:
        """`x` plus the states of `y` that reach it along supports inside `y`."""
        added = x
        while added:
            added = apre2_mask(g, gamma1, y, x, y & ~x & g.pred_mask(added))
            x |= added
        return x

    if objective.kind is ObjectiveKind.SAFETY:
        bad = not_t
    elif objective.kind is ObjectiveKind.BUCHI:
        bad = _shrink(g, not_t, keeps, "verify trim")
    else:
        bad = g.full_mask
        while True:
            kept = _shrink(g, bad, keeps, "verify trim")
            shrunk = reach(kept, kept & not_t)
            if shrunk == bad:
                break
            bad = shrunk
    return g.unmask(~reach(g.full_mask, bad))


# -- opponents and simulation -------------------------------------------------

def _sample(rng: random.Random, d: ActionDistribution) -> str:
    u = rng.random()
    cum = 0.0
    for a, p in d.probs:
        cum += p
        if u < cum:
            return a
    return d.probs[-1][0]


def _draws(d: ActionDistribution) -> tuple[tuple[str, ...], list[float]]:
    """`d`'s actions, the last one twice, and the running sums of its weights added as
    :func:`_sample` adds them, so ``acts[bisect_right(cums, u)]`` is its choice for ``u``."""
    acts, weights = zip(*d.probs)
    return acts + acts[-1:], list(accumulate(weights))


# An opponent's `rule(g, v)`, built once per visited state by `_walk`: a fixed action
# (no draw), a draw table of `_draws` (one draw) or None (greedy facing several P2
# actions: ask `pick`).  Greedy's pick is a function of (g, v, d1) and takes no draw,
# so at a state whose P1 row is fixed `_walk` keeps its first pick as the state's rule.
Rule = Union[str, tuple[tuple[str, ...], list[float]], None]


class _Stationary:
    """An opponent playing one row per state: a fixed action or a distribution."""

    __slots__ = ()

    def rule(self, g: GameGraph, v: str) -> Rule:
        return row if isinstance(row := self._row(g, v), str) else _draws(row)


class UniformRandom(_Stationary):
    """Opponent playing uniformly at random at every state."""

    def _row(self, g: GameGraph, v: str) -> ActionDistribution:
        return ActionDistribution.uniform(g.p2_actions(v))


class FixedSchedule(_Stationary):
    """Stationary stochastic opponent: a fixed distribution per state.

    States missing from the table fall back to the lexicographically first
    action.  A row is checked against the game whenever it is read.
    """

    __slots__ = ("table",)

    def __init__(self, table: Mapping[str, ActionDistribution] = _EMPTY):
        self.table = table

    @staticmethod
    def from_dict(raw: Mapping, g: GameGraph) -> "FixedSchedule":
        """Read {state: {action: weight}}; each row a distribution over P2's actions."""
        if not (isinstance(raw, Mapping) and _all_of(dict, raw.values())
                and _all_finite(chain.from_iterable(map(dict.values, raw.values())))):
            raise InputError("opponent must map states to JSON objects of finite weights")
        for v, row in raw.items():
            g.action_mask(v, row, player=2)
        return FixedSchedule({v: ActionDistribution.from_mapping(row) for v, row in raw.items()})

    def _row(self, g: GameGraph, v: str) -> Union[str, ActionDistribution]:
        d = self.table.get(v)
        if d is None:
            return g.p2_actions(v)[0]
        g.action_mask(v, d.support, player=2)
        return d


class GreedyAdversary:
    """One-step minimizer of P1 progress: picks the opponent action that
    maximizes the expected rank of the successor under P1's mixed action
    (losing states count as one past the last rank).  Ties go lexicographic.
    """

    __slots__ = ("ranks", "_first_rank")

    def __init__(self, ranks: tuple[frozenset[str], ...]):
        self.ranks = ranks
        self._first_rank = {w: i for i, x in reversed(tuple(enumerate(ranks))) for w in x}

    def rule(self, g: GameGraph, v: str) -> Rule:
        # with several actions the choice depends on P1's mixed action
        return acts[0] if len(acts := g.p2_actions(v)) == 1 else None

    def pick(self, g: GameGraph, v: str, d1: ActionDistribution) -> str:
        rank, lost = self._first_rank.get, len(self.ranks)
        best, best_score = None, -1.0
        for b in g.p2_actions(v):
            score = _sum_lr(p * rank(g.succ(v, a, b), lost) for a, p in d1.probs)
            if score > best_score + 1e-12:
                best, best_score = b, score
        assert best is not None
        return best


Opponent = Union[UniformRandom, FixedSchedule, GreedyAdversary]


class EpisodeLog(NamedTuple):
    episode: int
    seed: int
    start: str
    steps: list[tuple[str, str, str, str]]  # (state, p1, p2, next)
    visits: dict[str, int]
    target_visits: int
    longest_target_suffix: int

    def to_dict(self) -> dict:
        return self._asdict()


def _walk(
    g: GameGraph,
    opponent: Opponent,
    start: str,
    horizon: int,
    rng: random.Random,
    move: Callable[[str, int], tuple[ActionDistribution, bool]],
) -> Iterator[tuple[tuple[str, str, str, str], int]]:
    """Play one episode of `horizon` steps from `start`, yielding each step as
    ``((state, p1, p2, next), times)``, the step played `times` times in a row.

    ``move(v, n)`` gives P1's mixed action at the `n`-th visit of `v` and, read at
    the first visit only, whether it is the same at every visit.  Each step draws
    P1's action from `rng`, then the opponent's, after the errors of `move`, and
    finds its successor with ``g.succ``.  The walk keeps each visited state's
    opponent rule and, where P1's action is fixed, P1's draw table, from which
    every later step there is drawn.  A fixed state of one P1 action, whose rule
    plays one action and whose step loops back, is a sink: the walk yields its
    step once with the steps left, ``horizon - k``, and ends.
    """
    visits: dict[str, int] = {}
    fixed: dict[str, tuple[tuple[str, ...], list[float]]] = {}
    rules: dict[str, Rule] = {}
    v = start
    for k in range(horizon):
        draws = fixed.get(v)
        if draws is None:
            n = visits.get(v, 0)
            visits[v] = n + 1
            d1, same = move(v, n)
            a = _sample(rng, d1)
        else:
            a = draws[0][bisect_right(draws[1], rng.random())]
        if v not in rules:  # built at the first pick
            rules[v] = opponent.rule(g, v)
        rule = rules[v]
        b = opponent.pick(g, v, d1) if rule is None else rule if rule.__class__ is str \
            else rule[0][bisect_right(rule[1], rng.random())]
        w = g.succ(v, a, b)
        if draws is None and not n and same:
            fixed[v] = _draws(d1)
            if rule is None:  # greedy's first pick is the fixed row's action
                rules[v] = rule = b
            if w == v and len(d1.probs) == 1 \
                    and (rule.__class__ is str or len(set(rule[0])) == 1):
                # a sink; `rng` is the episode's own and read by nothing after the walk
                yield (v, a, b, w), horizon - k
                return
        yield (v, a, b, w), 1
        v = w


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
    def move(v: str, n: int) -> tuple[ActionDistribution, bool]:
        return s.distribution(v, n), not n and all(x.r == 1.0 for x in s.schedules[v].values())

    visits: dict[str, int] = {}
    steps: list[tuple[str, str, str, str]] = []
    times = 1
    for step, times in _walk(g, opponent, start, horizon, random.Random(seed), move):
        v = step[0]
        visits[v] = visits.get(v, 0) + times
        steps.append(step)
    w = steps[-1][3] if steps else start
    visits[w] = visits.get(w, 0) + 1  # so `visits` counts the start and each successor
    tail = times - 1  # the steps repeated at a sink
    backwards = chain(map(itemgetter(3), reversed(steps)), (start,))
    suffix = sum(1 for _ in takewhile(target.__contains__, backwards))
    steps += steps[-1:] * tail
    return EpisodeLog(
        episode=episode, seed=seed, start=start, steps=steps,
        visits=visits, target_visits=sum(visits.get(u, 0) for u in target),
        longest_target_suffix=suffix and suffix + tail,  # the walk starts at the sink
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

    Each episode is a :func:`_walk` whose move at a state is the strategy's
    row there, fixed where the row is all-constant.  All randomness flows
    through random.Random (Mersenne Twister) with the per-episode derived
    seed; P1 samples first, then the opponent, from the same stream.  With
    jobs > 1 episodes may run in a process pool
    (:func:`~congame.model.map_tasks`) and are merged back in episode order,
    byte-identical to the sequential run; a script that passes jobs > 1
    must guard its entry point with ``if __name__ == "__main__":``.
    """
    validate_strategy(g, s)
    if start is None:
        start = g.states[0]
    g.index(start)
    tgt = frozenset(target)
    g.mask(tgt)
    if horizon < 0 or episodes < 0:
        raise InputError("horizon and episodes must be nonnegative")
    tasks = [
        (g, s, opponent, horizon, seed + i, start, tgt, i)
        for i in range(episodes)
    ]
    return map_tasks(_run_episode, tasks, jobs)
