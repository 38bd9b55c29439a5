"""adapt workload: seed-paired online-adaptation episodes.

Inputs are those of ``scripts/run_adaptation_benchmark.py``: the cobuchi
stabilization game, reward 1 on S0, the opponent that favours ``d``, start
S2, horizon 2000.  Solving, templating and extraction happen once, in
set-up.  One op is one episode pair on episode seed s: a ``run_adaptive``
episode, then a ``simulate`` episode of the extracted strategy.  The run's
--seed picks where in the reference table the run starts.

Checks per op: no template violations, no chosen action in the template's
unsafe set, and the pair's totals and play digest equal the reference
recorded at the commit that added this benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
from functools import partial

from congame import adaptation, strategies
from congame.model import ActionDistribution, load_game
from congame.templates import template_for

from measure import ROOT, Mismatch, Workload
from spans import REPLAY, Tracer

GAME = os.path.join("games", "cobuchi_stabilize.json")
REWARD = os.path.join("games", "reward_s0.json")
OPPONENT = os.path.join("games", "opponent_heavy_d.json")
START = "S2"
HORIZON = 2000
WARMUP_EPISODE = 0


class Inputs:
    """The harness inputs, solved, templated and extracted once."""

    def __init__(self, root: str):
        self.g, obj = load_game(os.path.join(root, GAME))
        with open(os.path.join(root, REWARD), encoding="utf-8") as fh:
            self.reward = adaptation.RewardSpec.from_dict(json.load(fh), self.g)
        with open(os.path.join(root, OPPONENT), encoding="utf-8") as fh:
            raw = json.load(fh)
        self.opponent = strategies.FixedSchedule(
            {v: ActionDistribution.from_mapping(d) for v, d in raw.items()})
        self.template = template_for(self.g, obj)
        self.fixed = strategies.extract_strategy(self.g, self.template)

    def adaptive(self, seed: int):
        return adaptation.run_adaptive(
            self.g, self.template, self.reward, self.opponent,
            horizon=HORIZON, seed=seed, start=START)

    def fixed_episode(self, seed: int):
        (log,) = strategies.simulate(
            self.g, self.fixed, self.opponent, horizon=HORIZON, episodes=1,
            seed=seed, start=START)
        return log

    def pair(self, seed: int):
        return self.adaptive(seed), self.fixed_episode(seed)

    def summary(self, run, log) -> list:
        """[adaptive total, fixed total, play digest] of one episode pair."""
        fixed_total = sum(self.reward.at(nxt) for *_, nxt in log.steps)
        h = hashlib.sha256()
        for _, v, a, b, _, _ in run.rows:
            h.update(f"{v},{a},{b};".encode())
        h.update(b"|")
        for v, a, b, w in log.steps:
            h.update(f"{v},{a},{b},{w};".encode())
        return [run.total_reward, fixed_total, h.hexdigest()[:16]]

    def check_pair(self, seed: int, run, log, want: list) -> None:
        if run.violations:
            raise Mismatch(f"episode {seed}: {run.violations} template violations")
        for step, v, a, *_ in run.rows:
            if a in self.template.unsafe_at(v):
                raise Mismatch(f"episode {seed} step {step}: unsafe action {a!r} at {v!r}")
        got = self.summary(run, log)
        if got != want:
            raise Mismatch(f"episode {seed}: totals/digest {got}, reference {want}")


class Adapt(Workload):
    name = "adapt"
    tail_pct = 95

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.table = reference["adapt"]["pairs"]
        self.offset = random.Random(seed).randrange(len(self.table))
        self.violations = 0

    def episode(self, i: int) -> int:
        return (self.offset + i) % len(self.table)

    def setup(self):
        self.inputs = Inputs(ROOT)
        yield
        run = self.inputs.adaptive(WARMUP_EPISODE)
        yield
        log = self.inputs.fixed_episode(WARMUP_EPISODE)
        self.inputs.check_pair(WARMUP_EPISODE, run, log, self.table[WARMUP_EPISODE])

    def steps(self, i: int) -> list:
        seed = self.episode(i)
        return [partial(self.inputs.adaptive, seed), partial(self.inputs.fixed_episode, seed)]

    def check(self, i: int, outs) -> None:
        run, log = outs
        seed = self.episode(i)
        self.inputs.check_pair(seed, run, log, self.table[seed])

    def step_metrics(self, step_times: dict[int, list[float]]) -> dict:
        full = [ts for ts in step_times.values() if len(ts) == 2]
        if not full:
            return {}
        return {"adapt_step_us": statistics.median(a for a, _ in full) / HORIZON * 1e6,
                "sim_step_us": statistics.median(s for _, s in full) / HORIZON * 1e6}

    # -- traced run ----------------------------------------------------------

    def traced(self, i: int, tr: Tracer):
        """Run the pair, then replay each adaptive row through estimate,
        adapt_step and update_model, and each simulated step through the
        strategy's distribution."""
        inp = self.inputs
        g, t, seed = inp.g, inp.template, self.episode(i)
        run = tr.call("adaptation.run_adaptive", g, t, inp.reward, inp.opponent,
                      horizon=HORIZON, seed=seed, start=START)
        self.violations += run.violations
        with tr.span(REPLAY):
            model = adaptation.OpponentModel(alpha=run.model.alpha)
            visits: dict[str, int] = {}
            for step, v, a, b, _, _ in run.rows:
                n = visits.get(v, 0)
                visits[v] = n + 1
                tr.call("adaptation.OpponentModel.estimate", model, g, v)
                d = tr.call("adaptation.adapt_step", g, t, v, n, model, inp.reward)
                tr.call("model.ActionDistribution.from_mapping", d.to_dict())
                if a not in d.support or a in t.unsafe_at(v):
                    raise Mismatch(f"episode {seed} step {step}: {a!r} outside the replayed move")
                model = tr.call("adaptation.update_model", g, model, v, b)
            if model.counts != run.model.counts:
                raise Mismatch(f"episode {seed}: replayed opponent counts differ")
        (log,) = tr.call("strategies.simulate", g, inp.fixed, inp.opponent,
                         horizon=HORIZON, episodes=1, seed=seed, start=START)
        with tr.span(REPLAY):
            visits = {}
            for v, a, _, _ in log.steps:
                n = visits.get(v, 0)
                visits[v] = n + 1
                d = tr.call("strategies.ScheduleStrategy.distribution", inp.fixed, v, n)
                if a not in d.support:
                    raise Mismatch(f"episode {seed}: simulated {a!r} outside the strategy at {v!r}")
        return run, log

    def check_traced(self, i: int, out) -> None:
        self.check(i, out)

    def layer_metrics(self, summary: dict) -> dict:
        return {"adaptation.violations": self.violations}
