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
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    ActionDistribution,
    GameGraph,
    InputError,
    UnknownAction,
    UnknownState,
    _all_finite,
)
from .strategies import Opponent, _sample
from .templates import Template, check_weight_params


class Infeasible(InputError):
    """The template leaves no way to satisfy all constraints at a state."""

    def __init__(self, state: str, detail: str):
        super().__init__(f"cannot adapt at {state!r}: {detail}")
        self.state = state


@dataclass(frozen=True)
class RewardSpec:
    """State rewards collected on entering a state (absent states pay 0)."""

    weights: Mapping[str, float] = field(default_factory=dict)

    def at(self, v: str) -> float:
        return float(self.weights.get(v, 0.0))

    @staticmethod
    def from_dict(raw: Mapping, g: Optional[GameGraph] = None) -> "RewardSpec":
        if not (isinstance(raw, Mapping) and _all_finite(raw.values())):
            raise InputError("reward spec must map states to finite numbers")
        for v in raw:
            if g is not None and v not in g:
                raise UnknownState(v)
        return RewardSpec({v: float(w) for v, w in raw.items()})

    def to_dict(self) -> dict:
        return {v: w for v, w in sorted(self.weights.items())}


@dataclass(frozen=True)
class OpponentModel:
    """Laplace-smoothed per-state frequency estimate of the opponent."""

    alpha: float = 1.0
    counts: Mapping[str, Mapping[str, int]] = field(default_factory=dict)

    def estimate(self, g: GameGraph, v: str) -> ActionDistribution:
        acts = g.p2_actions(v)
        row = self.counts.get(v, {})
        total = sum(row.values())
        denom = total + self.alpha * len(acts)
        return ActionDistribution.from_mapping(
            {b: (row.get(b, 0) + self.alpha) / denom for b in acts})


def update_model(g: GameGraph, m: OpponentModel, v: str, b: str) -> OpponentModel:
    if b not in g.p2_actions(v):
        raise UnknownAction(v, b, player=2)
    counts = {u: dict(row) for u, row in m.counts.items()}
    row = counts.setdefault(v, {})
    row[b] = row.get(b, 0) + 1
    return OpponentModel(alpha=m.alpha, counts=counts)


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
    _, c_set, r_acts = t.split_at(g, v)
    if not r_acts:
        raise Infeasible(v, "every non-unsafe action is colive" if c_set
                         else "every action is unsafe")
    allowed = c_set | r_acts

    est = model.estimate(g, v)
    expected = {
        a: sum(p * reward.at(g.succ(v, a, b)) for b, p in est.probs)
        for a in sorted(allowed)
    }

    def best_of(pool) -> str:
        return max(sorted(pool), key=lambda a: expected[a])

    floor = t.live_floor(v, eps_live)
    alloc: dict[str, float] = {}
    floored = 0
    for h in t.groups_at(v):
        pool = h & r_acts
        if not pool:
            # an empty group, or one of a hand-built template; its cell covers it
            continue
        w = best_of(pool)
        alloc[w] = alloc.get(w, 0.0) + floor
        floored += 1
    rem = 1.0 - floor * floored
    if rem < 0:
        raise Infeasible(v, "live floors exceed total mass")

    cap = colive_base * 2.0 ** -visit
    best = best_of(allowed)
    if best in c_set:
        spend = min(rem, cap)
        if spend > 0:
            alloc[best] = alloc.get(best, 0.0) + spend
            rem -= spend
        best = best_of(r_acts)
    if rem > 0:
        alloc[best] = alloc.get(best, 0.0) + rem
    return ActionDistribution.from_mapping(alloc)


@dataclass
class AdaptiveRun:
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


def _check_step(
    g: GameGraph,
    t: Template,
    v: str,
    visit: int,
    d: ActionDistribution,
    eps_live: float,
    colive_base: float,
) -> bool:
    unsafe, colive, persistent = t.split_at(g, v)
    if d.mass(unsafe) > 0.0:
        return False
    if d.mass(colive) > colive_base * 2.0 ** -visit + 1e-9:
        return False
    floor = t.live_floor(v, eps_live)
    for h in t.groups_at(v):
        if h & persistent and d.mass(h) < floor - 1e-9:
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
    """Play one episode, re-deriving the mixed action each step from the
    template and the opponent counts gathered so far.

    Randomness follows the same convention as simulation: random.Random
    seeded once, P1 sampling before the opponent each step.  Every emitted
    distribution is checked against the template constraints; violations are
    counted (and expected to be zero).
    """
    if start is None:
        start = g.states[0]
    if start not in g:
        raise UnknownState(start)
    if horizon < 0:
        raise InputError("horizon must be nonnegative")
    check_weight_params(eps_live, colive_base)
    if not 0.0 < alpha < math.inf:
        raise InputError("alpha must be positive and finite")
    rng = random.Random(seed)
    model = OpponentModel(alpha=alpha)
    v = start
    visits: dict[str, int] = {}
    rows: list[tuple[int, str, str, str, float, float]] = []
    cum = 0.0
    violations = 0
    for step in range(horizon):
        n = visits.get(v, 0)
        visits[v] = n + 1
        d = adapt_step(g, t, v, n, model, reward, eps_live, colive_base)
        if not _check_step(g, t, v, n, d, eps_live, colive_base):
            violations += 1
        a = _sample(rng, d)
        b = opponent.pick(g, v, d, rng)
        model = update_model(g, model, v, b)
        w = g.succ(v, a, b)
        r = reward.at(w)
        cum += r
        rows.append((step, v, a, b, r, cum))
        v = w
    return AdaptiveRun(rows=rows, total_reward=cum, violations=violations, model=model)
