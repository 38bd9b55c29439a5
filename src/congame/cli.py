"""Command line interface.

Subcommands cover the full pipeline: solve a game, synthesize a template,
compose templates, run the incremental batch harness, extract / check /
verify / simulate strategies, adapt probabilities online (and compare
that with the extracted strategy), and convert turn-based games.  All
outputs are byte-deterministic for a given input and seed.  Exit codes: 0
success, 2 input error, 3 internal non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from .adaptation import RewardSpec, run_adaptive
from .algebra import compose, heatmap_csv, run_heatmap
from .convert import convert, load_turn_based
from .model import (
    CongameError,
    GameGraph,
    InputError,
    NonConvergence,
    Objective,
    _sum_lr,
    dump_json,
    game_to_dict,
    load_game,
    read_json,
)
from .solvers import RankDecomposition, solve
from .strategies import (
    FixedSchedule,
    GreedyAdversary,
    UniformRandom,
    check_compliance,
    extract_strategy,
    simulate,
    strategy_from_dict,
    verify_memoryless,
)
from .templates import (
    Template,
    check_conflict_free,
    template_for,
    template_from_dict,
    validate_template,
)


def _write_text(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require_objective(obj: Optional[Objective], path: str) -> Objective:
    if obj is None:
        raise InputError(f"{path}: game file has no objective")
    return obj


def _load_template_file(path: str, g: GameGraph) -> Template:
    t = template_from_dict(read_json(path))
    validate_template(g, t)
    return t


def _opponent(
    args: argparse.Namespace, g: GameGraph, obj: Optional[Objective],
    decomp: Optional[RankDecomposition] = None,
):
    kind = args.opponent
    if kind == "uniform":
        return UniformRandom()
    if kind == "fixed":
        if args.opponent_file:
            return FixedSchedule.from_dict(read_json(args.opponent_file), g)
        return FixedSchedule()
    if kind == "greedy":
        if decomp is None:
            decomp = solve(g, _require_objective(obj, args.game))
        return GreedyAdversary(decomp.ranks)
    raise InputError(f"unknown opponent {kind!r}")


def cmd_solve(args) -> None:
    g, obj = load_game(args.game)
    decomp = solve(g, _require_objective(obj, args.game))
    _write_text(dump_json(decomp.to_dict(), None), args.output)


def cmd_template(args) -> None:
    g, obj = load_game(args.game)
    t = template_for(g, _require_objective(obj, args.game))
    _write_text(dump_json(t.to_dict(), None), args.output)


def cmd_compose(args) -> None:
    g, _ = load_game(args.game)
    parts = [_load_template_file(p, g) for p in args.templates]
    merged, report = compose(g, parts)
    out = {"template": merged.to_dict(), "conflicts": report.to_dict()}
    _write_text(dump_json(out, None), args.output)


def cmd_incremental(args) -> None:
    parts = args.sizes.split(",")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise InputError(f"--sizes must be comma-separated positive integers, got {args.sizes!r}")
    rows = run_heatmap(
        games=args.games,
        sizes=tuple(map(int, parts)),
        max_objectives=args.max_objectives,
        n_states=args.states,
        seed=args.seed,
        jobs=args.jobs,
    )
    _write_text(heatmap_csv(rows), args.output)


def cmd_extract(args) -> None:
    g, obj = load_game(args.game)
    if args.template:
        t = _load_template_file(args.template, g)
    else:
        t = template_for(g, _require_objective(obj, args.game))
    s = extract_strategy(g, t, eps_live=args.eps_live, colive_base=args.colive_base)
    _write_text(dump_json(s.to_dict(), None), args.output)


def cmd_check(args) -> None:
    g, _ = load_game(args.game)
    t = _load_template_file(args.template, g)
    s = strategy_from_dict(read_json(args.strategy))
    conflicts = check_conflict_free(g, t)
    verdict = check_compliance(g, t, s)
    out = verdict.to_dict()
    out["template_conflict_free"] = conflicts.ok
    _write_text(dump_json(out, None), args.output)


def cmd_verify(args) -> None:
    g, obj = load_game(args.game)
    objective = _require_objective(obj, args.game)
    s = strategy_from_dict(read_json(args.strategy))
    verified = verify_memoryless(g, s, objective)
    out = {"objective": objective.to_dict(), "verified": sorted(verified)}
    _write_text(dump_json(out, None), args.output)


def cmd_simulate(args) -> None:
    g, obj = load_game(args.game)
    s = strategy_from_dict(read_json(args.strategy))
    opponent = _opponent(args, g, obj)
    target = obj.target if obj is not None else frozenset()
    logs = simulate(
        g, s, opponent,
        horizon=args.horizon, episodes=args.episodes, seed=args.seed,
        start=args.start, target=target, jobs=args.jobs,
    )
    lines = "".join(
        json.dumps(log.to_dict(), sort_keys=True) + "\n" for log in logs)
    _write_text(lines, args.output)


def cmd_adapt(args) -> None:
    g, obj = load_game(args.game)
    reward = RewardSpec.from_dict(read_json(args.reward), g)
    decomp = None
    if args.template:
        t = _load_template_file(args.template, g)
    else:
        objective = _require_objective(obj, args.game)
        decomp = solve(g, objective)
        t = template_for(g, objective, decomp)
    opponent = _opponent(args, g, obj, decomp)
    run = run_adaptive(
        g, t, reward, opponent,
        horizon=args.horizon, seed=args.seed, start=args.start,
        eps_live=args.eps_live, colive_base=args.colive_base, alpha=args.alpha,
    )
    _write_text(run.trace_csv(), args.output)


def cmd_compare(args) -> None:
    if args.pairs < 1:
        raise InputError("--pairs must be at least 1")
    g, obj = load_game(args.game)
    objective = _require_objective(obj, args.game)
    reward = RewardSpec.from_dict(read_json(args.reward), g)
    opponent = FixedSchedule.from_dict(read_json(args.opponent), g)
    t = template_for(g, objective)
    s = extract_strategy(g, t)
    adaptive, fixed, violations = [], [], 0
    for seed in range(args.seed, args.seed + args.pairs):
        run = run_adaptive(g, t, reward, opponent,
                           horizon=args.horizon, seed=seed, start=args.start)
        violations += run.violations
        adaptive.append(run.total_reward)
        (log,) = simulate(g, s, opponent, horizon=args.horizon, episodes=1,
                          seed=seed, start=args.start)
        fixed.append(_sum_lr(reward.at(nxt) for *_, nxt in log.steps))
    mean_a, mean_f = math.fsum(adaptive) / len(adaptive), math.fsum(fixed) / len(fixed)
    _write_text(f"pairs:            {args.pairs}\nhorizon:          {args.horizon}\n"
                f"adaptive mean:    {mean_a:.2f}\nfixed mean:       {mean_f:.2f}\n"
                f"lift:             {mean_a - mean_f:+.2f}\nviolations:       {violations}\n",
                args.output)


def cmd_convert(args) -> None:
    tb = load_turn_based(args.turn_based)
    g, objective, stats = convert(tb)
    _write_text(dump_json(game_to_dict(g, objective), None), args.output)
    if args.stats:
        dump_json(stats.to_dict(), args.stats)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congame",
        description="Solve concurrent games and work with permissive strategy templates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        return p

    p = add("solve", cmd_solve, "compute the almost-sure winning region and rank chain")
    p.add_argument("game")

    p = add("template", cmd_template, "synthesize the strategy template for the game's objective")
    p.add_argument("game")

    p = add("compose", cmd_compose, "merge templates and report conflicts")
    p.add_argument("game")
    p.add_argument("templates", nargs="+")

    p = add("incremental", cmd_incremental, "batch harness: conflict heatmap over random games")
    p.add_argument("--games", type=int, default=200)
    p.add_argument("--sizes", default="1,2,3", help="comma-separated target sizes")
    p.add_argument("--max-objectives", type=int, default=4)
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)

    p = add("extract", cmd_extract, "extract a randomized strategy from a template")
    p.add_argument("game")
    p.add_argument("template", nargs="?", default=None)
    p.add_argument("--eps-live", type=float, default=0.1)
    p.add_argument("--colive-base", type=float, default=0.25)

    p = add("check", cmd_check, "check a strategy's compliance with a template")
    p.add_argument("game")
    p.add_argument("template")
    p.add_argument("strategy")

    p = add("verify", cmd_verify, "exactly verify a constant strategy against the game objective")
    p.add_argument("game")
    p.add_argument("strategy")

    p = add("simulate", cmd_simulate, "run simulation episodes, one JSON log line each")
    p.add_argument("game")
    p.add_argument("strategy")
    p.add_argument("--opponent", choices=("uniform", "fixed", "greedy"), default="uniform")
    p.add_argument("--opponent-file", default=None)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = add("adapt", cmd_adapt, "adapt action probabilities online within a template")
    p.add_argument("game")
    p.add_argument("reward")
    p.add_argument("--template", default=None)
    p.add_argument("--opponent", choices=("uniform", "fixed", "greedy"), default="uniform")
    p.add_argument("--opponent-file", default=None)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default=None)
    p.add_argument("--eps-live", type=float, default=0.1)
    p.add_argument("--colive-base", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=1.0)

    p = add("compare", cmd_compare, "compare online adaptation with the extracted strategy")
    p.add_argument("game")
    p.add_argument("reward")
    p.add_argument("opponent", help="fixed opponent file: state -> action weights")
    p.add_argument("--start", default=None)
    p.add_argument("--pairs", type=int, default=50, help="pair i uses seed + i")
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = add("convert", cmd_convert, "convert an alternating turn-based game to concurrent form")
    p.add_argument("turn_based")
    p.add_argument("--stats", default=None, help="also write conversion stats JSON here")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call in this process shares, built on first
    use: building it costs milliseconds, parsing with it is stateless."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except NonConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (CongameError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
