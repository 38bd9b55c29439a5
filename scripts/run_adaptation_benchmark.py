#!/usr/bin/env python3
"""Benchmark online adaptation against a fixed extracted strategy.

Plays seed-paired episodes of the same game against the same opponent:
one episode driven by the template-constrained adapter, one by the
strategy extracted from the template up front. Reports the mean reward
collected by each controller and the number of template violations the
adapter incurred (zero means every adapted move stayed inside the
template's permissions).

A missing or malformed input file, or one that names a state or action the
game lacks, ends with ``error: <message>`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from congame import (
    CongameError,
    FixedSchedule,
    InputError,
    RewardSpec,
    extract_strategy,
    load_game,
    run_adaptive,
    simulate,
    template_for,
)
from congame.model import read_json

REPO = Path(__file__).resolve().parents[1]


def play_pairs(args: argparse.Namespace) -> tuple[list[float], list[float], int]:
    """Per seed pair, the adaptive and the fixed controller's total reward;
    and the adapter's template violations over all pairs."""
    g, obj = load_game(str(args.game))
    if obj is None:
        raise InputError(f"{args.game} carries no objective")
    reward = RewardSpec.from_dict(read_json(str(args.reward)), g)
    opponent = FixedSchedule.from_dict(read_json(str(args.opponent)), g)
    template = template_for(g, obj)
    fixed_strategy = extract_strategy(g, template)

    adaptive_totals = []
    fixed_totals = []
    violations = 0
    for i in range(args.pairs):
        seed = args.seed + i
        outcome = run_adaptive(g, template, reward, opponent,
                               horizon=args.horizon, seed=seed,
                               start=args.start)
        violations += outcome.violations
        adaptive_totals.append(outcome.total_reward)
        (log,) = simulate(g, fixed_strategy, opponent, horizon=args.horizon,
                          episodes=1, seed=seed, start=args.start)
        fixed_totals.append(
            sum(reward.at(nxt) for *_, nxt in log.steps))
    return adaptive_totals, fixed_totals, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--game", type=Path,
                        default=REPO / "games" / "cobuchi_stabilize.json",
                        help="game file with an embedded objective")
    parser.add_argument("--reward", type=Path,
                        default=REPO / "games" / "reward_s0.json",
                        help="JSON map from state to per-visit reward")
    parser.add_argument("--opponent", type=Path,
                        default=REPO / "games" / "opponent_heavy_d.json",
                        help="JSON map from state to opponent action weights")
    parser.add_argument("--start", default="S2", help="initial state")
    parser.add_argument("--pairs", type=int, default=50,
                        help="seed-paired episode count (default 50)")
    parser.add_argument("--horizon", type=int, default=2000,
                        help="steps per episode (default 2000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed, pair i uses seed+i (default 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        adaptive_totals, fixed_totals, violations = play_pairs(args)
    except (CongameError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    mean_adaptive = statistics.fmean(adaptive_totals)
    mean_fixed = statistics.fmean(fixed_totals)
    print(f"pairs:            {args.pairs}")
    print(f"horizon:          {args.horizon}")
    print(f"adaptive mean:    {mean_adaptive:.2f}")
    print(f"fixed mean:       {mean_fixed:.2f}")
    print(f"lift:             {mean_adaptive - mean_fixed:+.2f}")
    print(f"violations:       {violations}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
