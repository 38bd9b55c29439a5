"""Online probability adaptation inside a template's freedom.

The template fixes what must never/finitely/persistently happen; everything
else is free, so a player can redistribute probability toward actions that
look profitable against the opponent observed so far without losing the
almost-sure guarantee.  The adapter is greedy: live groups get their floor
mass on their best-looking action, colive actions respect a geometrically
shrinking budget, the rest rides the one-step expected reward.

Reward (JSON): {state: weight}, states absent default to 0.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from itertools import count, repeat
from operator import mul
from typing import NamedTuple, Optional

from .model import (
    ActionDistribution,
    GameGraph,
    InputError,
    _EMPTY,
    _all_finite,
    _sum_lr,
)
from .strategies import Opponent, _walk
from .templates import Template, check_weight_params


class Infeasible(InputError):
    """The template leaves no way to satisfy all constraints at a state."""

    def __init__(self, state: str, detail: str):
        super().__init__(f"cannot adapt at {state!r}: {detail}")
        self.state = state


class RewardSpec(NamedTuple):
    """State rewards collected on entering a state (absent states pay 0)."""

    weights: Mapping[str, float] = _EMPTY

    def at(self, v: str) -> float:
        return float(self.weights.get(v, 0.0))

    @staticmethod
    def from_dict(raw: Mapping, g: GameGraph) -> "RewardSpec":
        if not (isinstance(raw, Mapping) and _all_finite(raw.values())):
            raise InputError("reward spec must map states to finite numbers")
        g.mask(raw)
        return RewardSpec({v: float(w) for v, w in raw.items()})


class OpponentModel(NamedTuple):
    """Laplace-smoothed per-state frequency estimate of the opponent."""

    alpha: float = 1.0
    counts: Mapping[str, Mapping[str, int]] = _EMPTY

    def estimate(self, g: GameGraph, v: str) -> ActionDistribution:
        acts = g.p2_actions(v)
        row = self.counts.get(v, {})
        total = sum(row.values())
        denom = total + self.alpha * len(acts)
        return ActionDistribution.from_mapping(
            {b: (row.get(b, 0) + self.alpha) / denom for b in acts})


def update_model(g: GameGraph, m: OpponentModel, v: str, b: str) -> OpponentModel:
    g.action_mask(v, (b,), player=2)
    counts = {u: dict(row) for u, row in m.counts.items()}
    row = counts.setdefault(v, {})
    row[b] = row.get(b, 0) + 1
    return OpponentModel(alpha=m.alpha, counts=counts)


class _Plan:
    """What the greedy step reads at one state, for one episode.

    Built on the state's first visit, so a state where the template leaves
    no move raises :class:`Infeasible` on the step that reaches it, and an
    unvisited state never raises.  Action tuples are sorted, so ties still
    break lexicographically.  ``checks`` is what :func:`_complies` holds
    each move to, and ``ok`` is the verdict on the last move built here;
    ``pools`` are the persistent members of each live group that has one;
    ``counts`` are the opponent's, per action of ``p2`` in its order; ``rows``
    give each allowed action's reward against each action of ``p2``.
    """

    __slots__ = ("state", "floor", "checks", "ok", "pools", "colive", "allowed", "rest",
                 "p2", "counts", "rows")

    def __init__(self, g: GameGraph, t: Template, v: str, reward: RewardSpec,
                 eps_live: float):
        unsafe, colive, rest = t.split_at(g, v)
        if not rest:
            raise Infeasible(v, "every non-unsafe action is colive" if colive
                             else "every action is unsafe")
        # a group with no persistent member (empty, or from a hand-built
        # template) is left to its cell
        groups = tuple(h for h in t.groups_at(v) if h & rest)
        self.state = v
        self.floor = t.live_floor(v, eps_live)
        self.checks = (unsafe, colive, self.floor, groups)
        self.pools = tuple(tuple(sorted(h & rest)) for h in groups)
        self.colive = colive
        self.allowed = tuple(sorted(colive | rest))
        self.rest = tuple(sorted(rest))
        self.p2 = g.p2_actions(v)
        self.counts = dict.fromkeys(self.p2, 0)
        offset, row, _ = g.succ_row(v)  # `p2` is sorted, as a run's places are
        k = len(self.p2)
        self.rows = tuple((a, [reward.at(g.states[w]) for w in row[offset[a]:offset[a] + k]])
                          for a in self.allowed)


def _greedy(plan: _Plan, est: list[float], visit: int, colive_base: float) -> ActionDistribution:
    """The greedy move at the plan's state on its `visit`-th visit, given
    the opponent estimate `est` over ``plan.p2``; see :func:`adapt_step`."""
    expected = {a: _sum_lr(map(mul, est, row)) for a, row in plan.rows}

    def best_of(pool: tuple[str, ...]) -> str:
        return max(pool, key=expected.__getitem__)

    floor = plan.floor
    alloc: dict[str, float] = {}
    for pool in plan.pools:
        w = best_of(pool)
        alloc[w] = alloc.get(w, 0.0) + floor
    rem = 1.0 - floor * len(plan.pools)
    if rem < 0:
        raise Infeasible(plan.state, "live floors exceed total mass")

    cap = colive_base * 2.0 ** -visit
    best = best_of(plan.allowed)
    if best in plan.colive:
        spend = min(rem, cap)
        if spend > 0:
            alloc[best] = alloc.get(best, 0.0) + spend
            rem -= spend
        best = best_of(plan.rest)
    if rem > 0:
        alloc[best] = alloc.get(best, 0.0) + rem
    # sorted with zeros dropped, as from_mapping would build it
    return ActionDistribution(tuple(sorted(
        (a, p) for a, p in alloc.items() if p != 0.0)))


def adapt_step(
    g: GameGraph,
    t: Template,
    v: str,
    visit: int,
    model: OpponentModel,
    reward: RewardSpec,
    eps_live: float = 0.1,
    colive_base: float = 0.25,
) -> ActionDistribution:
    """One-step greedy distribution at `v` on its `visit`-th visit (0-based).

    Hard constraints: no mass on unsafe actions; colive mass capped by
    colive_base * 2**-visit; each nonempty live group keeps at least
    eps_live/|H(v)| on its best-reward non-colive member.  Whatever remains
    goes to the action with the best one-step expected reward under the
    opponent model (ties lexicographic).
    """
    plan = _Plan(g, t, v, reward, eps_live)
    est = dict(model.estimate(g, v).probs)
    d = _greedy(plan, [est.get(b, 0.0) for b in plan.p2], visit, colive_base)
    # the weights come unchecked here, so the move gets from_mapping's checks
    return ActionDistribution.from_mapping(dict(d.probs))


class AdaptiveRun(NamedTuple):
    """Trace of one adaptive episode.

    Rows are (step, state, chosen_action, opponent_action, reward,
    cumulative); the reward of a step is the weight of the state it enters.
    """

    rows: list[tuple[int, str, str, str, float, float]]
    total_reward: float
    violations: int
    model: OpponentModel

    def trace_csv(self) -> str:
        lines = ["step,state,chosen_action,opponent_action,reward,cumulative"]
        for step, v, a, b, r, cum in self.rows:
            lines.append(f"{step},{v},{a},{b},{r},{cum}")
        return "\n".join(lines) + "\n"


def _complies(checks: tuple, d: ActionDistribution, visit: int, colive_base: float) -> bool:
    """Whether `d` keeps to ``checks`` (unsafe set, colive set, live floor,
    live groups with a persistent member) on the `visit`-th visit."""
    unsafe, colive, floor, groups = checks
    if d.mass(unsafe) > 0.0:
        return False
    if d.mass(colive) > colive_base * 2.0 ** -visit + 1e-9:
        return False
    for h in groups:
        if d.mass(h) < floor - 1e-9:
            return False
    return True


def run_adaptive(
    g: GameGraph,
    t: Template,
    reward: RewardSpec,
    opponent: Opponent,
    horizon: int,
    seed: int,
    start: Optional[str] = None,
    eps_live: float = 0.1,
    colive_base: float = 0.25,
    alpha: float = 1.0,
) -> AdaptiveRun:
    """Play one episode, re-deriving the mixed action from the template and
    the opponent counts gathered so far at each step where they can change it.

    The episode is a :func:`~congame.strategies._walk` whose move at a state is
    the greedy step, fixed at a state with one P2 action and no colive action
    (the estimate there is 1.0 and no visit cap applies).  Randomness follows
    the same convention as simulation: random.Random seeded once, P1 sampling
    before the opponent each step.  Every emitted distribution is checked
    against the template constraints; violations are counted (and expected to
    be zero), at every step that plays the distribution.
    """
    if start is None:
        start = g.states[0]
    g.index(start)
    if horizon < 0:
        raise InputError("horizon must be nonnegative")
    check_weight_params(eps_live, colive_base)
    if not 0.0 < alpha < math.inf:
        raise InputError("alpha must be positive and finite")
    plans: dict[str, _Plan] = {}

    def move(v: str, n: int) -> tuple[ActionDistribution, bool]:
        plan = plans.get(v)
        if plan is None:
            plan = plans[v] = _Plan(g, t, v, reward, eps_live)
        # OpponentModel.estimate, on the plan's counts
        counts = plan.counts.values()
        denom = sum(counts) + alpha * len(counts)
        est = [(c + alpha) / denom for c in counts]
        if 0.0 in est:
            # an extreme alpha underflowed a share; the estimate drops it (a
            # zero product leaves every sum as it was) or, with no share left,
            # raises
            ActionDistribution.from_mapping(dict(zip(plan.p2, est)))
        d = _greedy(plan, est, n, colive_base)
        plan.ok = _complies(plan.checks, d, n, colive_base)
        return d, len(plan.p2) == 1 and not plan.colive

    rows: list[tuple[int, str, str, str, float, float]] = []
    cum = 0.0
    violations = 0
    walk = _walk(g, opponent, start, horizon, random.Random(seed), move)
    for step, ((v, a, b, w), times) in enumerate(walk):
        plan = plans[v]
        plan.counts[b] += times  # update_model, in place
        if not plan.ok:
            violations += times
        r = reward.at(w)
        cum += r
        rows.append((step, v, a, b, r, cum))
        if times > 1:  # a sink: the same row for the steps left, adding as `cum += r` does
            rows += zip(range(step + 1, horizon), repeat(v), repeat(a), repeat(b), repeat(r),
                        count(cum + r, r))
            cum = rows[-1][5]
    model = OpponentModel(alpha=alpha, counts={
        u: {b: c for b, c in p.counts.items() if c} for u, p in plans.items()})
    return AdaptiveRun(rows=rows, total_reward=cum, violations=violations, model=model)
