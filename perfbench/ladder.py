"""ladder workload: deep rank chains through the CLI pipeline.

A ladder of n states is a line of matching-pennies gadgets.  At every state
both players have the same 2 or 3 actions; a matching joint action steps one
state toward the bottom state, any other pair stays put, and the bottom
state stays put whatever is played.  State names are shuffled, so sort
order does not follow the chain.  Each instance admits one new rank per
fixpoint round, so its rank chain is as long as the ladder: the worst case
for the nested fixpoints, which the paper's random 5-state games never
reach.

The pool of one run holds 48 instances, cycling through the objectives
safety (target: all but the bottom), buchi (target: the bottom) and
cobuchi (target: the bottom).  For each kind the sizes follow a fixed
golden-ratio sequence over 32-128, so any run of consecutive ops covers the
size range evenly.  The seed picks where each kind's sequence starts,
shuffles the names and picks which half of the states have 3 actions.
Every seed thus plays the same sizes with the same action counts, and runs
on different seeds, or runs that complete different numbers of ops,
measure the same mix of work.

One op is the user's pipeline run in-process through ``congame.cli.main``
on JSON files: solve, template, extract with the template file, check,
verify.  Known answers follow from the construction, not from the solver:

* safety: winning region empty, rank chain [{}];
* buchi: everything wins, ranks {}, {s0}, {s0,s1}, ... (n+1 of them);
* cobuchi: everything wins, ranks {s0}, {s0,s1}, ... (n of them);
* the extracted strategy is compliant, the template conflict free, and
  ``verify`` returns the winning region.
"""

from __future__ import annotations

import json
import os
import random
from functools import partial
from statistics import median

from congame import cli

from measure import Mismatch, Workload, slope
from spans import REPLAY, Tracer

P1_ACTIONS = ("a", "b", "c")
P2_ACTIONS = ("d", "e", "f")
KINDS = ("safety", "buchi", "cobuchi")
N_RANGE = (32, 128)
POOL = 48
GOLDEN = (5 ** 0.5 - 1) / 2
WARMUP = (50, "buchi")
CHAIN_OPS = 9
STEPS = ("solve", "template", "extract", "check", "verify")


def ladder_game(rng: random.Random, n: int, kind: str) -> tuple[dict, list[str]]:
    """A ladder game description and its states, bottom first."""
    names = [f"v{j:03d}" for j in range(n)]
    rng.shuffle(names)
    three = set(rng.sample(names, n // 2))
    p1, p2, transitions = {}, {}, []
    for pos, v in enumerate(names):
        k = 3 if v in three else 2
        p1[v], p2[v] = list(P1_ACTIONS[:k]), list(P2_ACTIONS[:k])
        for ai in range(k):
            for bi in range(k):
                to = names[pos - 1] if pos and ai == bi else v
                transitions.append(
                    {"from": v, "p1": P1_ACTIONS[ai], "p2": P2_ACTIONS[bi], "to": to})
    target = names[1:] if kind == "safety" else names[:1]
    raw = {
        "states": sorted(names),
        "p1_actions": p1,
        "p2_actions": p2,
        "transitions": transitions,
        "objective": {"kind": kind, "target": sorted(target)},
    }
    return raw, names


def expected_ranks(kind: str, chain: list[str]) -> list[frozenset]:
    if kind == "safety":
        return [frozenset()]
    if kind == "buchi":
        return [frozenset(chain[:j]) for j in range(len(chain) + 1)]
    return [frozenset(chain[:j]) for j in range(1, len(chain) + 1)]


class Instance:
    def __init__(self, directory: str, rng: random.Random, n: int, kind: str):
        self.dir, self.n, self.kind = directory, n, kind
        self.raw, self.chain = ladder_game(rng, n, kind)
        self.ranks = expected_ranks(kind, self.chain)
        self.winning = self.ranks[-1]

    def path(self, step: str) -> str:
        return os.path.join(self.dir, f"{step}.json")

    def write(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        with open(self.path("game"), "w", encoding="utf-8") as fh:
            json.dump(self.raw, fh)

    def argv(self) -> list[list[str]]:
        game, p = self.path("game"), self.path
        return [
            ["solve", game, "-o", p("solve")],
            ["template", game, "-o", p("template")],
            ["extract", game, p("template"), "-o", p("extract")],
            ["check", game, p("template"), p("extract"), "-o", p("check")],
            ["verify", game, p("extract"), "-o", p("verify")],
        ]


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(inst: Instance) -> int:
    """Compare the pipeline's output files with the known answers; returns
    the rank chain length the solver printed."""
    sol = _read(inst.path("solve"))
    ranks = [frozenset(x) for x in sol["ranks"]]
    if ranks != inst.ranks:
        raise Mismatch(f"{inst.kind} n={inst.n}: solver printed {len(ranks)} ranks "
                       f"that differ from the {len(inst.ranks)} expected")
    if frozenset(sol["winning"]) != inst.winning:
        raise Mismatch(f"{inst.kind} n={inst.n}: wrong winning region from solve")
    if frozenset(_read(inst.path("template"))["winning"]) != inst.winning:
        raise Mismatch(f"{inst.kind} n={inst.n}: wrong winning region in the template")
    if set(_read(inst.path("extract"))) != set(inst.chain):
        raise Mismatch(f"{inst.kind} n={inst.n}: strategy does not cover every state")
    chk = _read(inst.path("check"))
    if chk.get("verdict") != "compliant" or chk.get("template_conflict_free") is not True:
        raise Mismatch(f"{inst.kind} n={inst.n}: check printed {chk}")
    ver = _read(inst.path("verify"))
    if frozenset(ver["verified"]) != inst.winning:
        raise Mismatch(f"{inst.kind} n={inst.n}: verify returned {len(ver['verified'])} "
                       f"states, expected {len(inst.winning)}")
    return len(ranks)


class Ladder(Workload):
    name = "ladder"
    tail_pct = 75

    def __init__(self, seed: int, workdir: str, reference: dict,
                 n_range: tuple = N_RANGE, warmup: tuple = WARMUP):
        self.seed = seed
        self.workdir = workdir
        self.n_range = n_range
        self.warmup = warmup
        self.main = cli.main
        self.chain_lens: dict[int, int] = {}

    def setup(self):
        """Make and write the pool, then run one warm-up op on an instance
        that is the same on every seed."""
        rng = random.Random(self.seed)
        lo, hi = self.n_range
        per_kind = POOL // len(KINDS)
        starts = [rng.randrange(per_kind) for _ in KINDS]
        self.pool = []
        for j in range(POOL):
            k = j % len(KINDS)
            slot = (j // len(KINDS) + starts[k]) % per_kind
            u = (k / len(KINDS) + slot * GOLDEN) % 1.0
            n = lo + int(u * (hi - lo + 1))
            kind = KINDS[k]
            inst = Instance(os.path.join(self.workdir, str(j)), rng, n, kind)
            inst.write()
            self.pool.append(inst)
            yield
        n, kind = self.warmup
        warm = Instance(os.path.join(self.workdir, "warmup"), random.Random(0), n, kind)
        warm.write()
        codes = []
        for argv in warm.argv():
            yield
            codes.append(self.main(argv))
        self._check_codes(warm, codes)
        check_outputs(warm)

    def instance(self, i: int) -> Instance:
        return self.pool[i % POOL]

    def prepare(self, i: int) -> None:
        inst = self.instance(i)
        for step in STEPS:
            try:
                os.remove(inst.path(step))
            except FileNotFoundError:
                pass

    def _check_codes(self, inst: Instance, codes: list[int]) -> None:
        for argv, code in zip(inst.argv(), codes):
            if code != 0:
                raise Mismatch(f"congame {argv[0]} exited with {code}")

    def steps(self, i: int) -> list:
        return [partial(self.main, argv) for argv in self.instance(i).argv()]

    def check(self, i: int, codes: list[int]) -> None:
        self._check_codes(self.instance(i), codes)
        self.chain_lens[i % POOL] = check_outputs(self.instance(i))

    def check_traced(self, i: int, _out) -> None:
        self.chain_lens[i % POOL] = check_outputs(self.instance(i))

    # -- traced run ----------------------------------------------------------

    def traced(self, i: int, tr: Tracer) -> None:
        """Re-drive the five subcommands through the functions cli.main
        calls, then time each operator once per rank of the final chain."""
        from congame import strategies, templates

        inst = self.instance(i)
        game, p = inst.path("game"), inst.path

        def load_template(g):
            t = templates.template_from_dict(_read(p("template")))
            templates.validate_template(g, t)
            return t

        def load_strategy(g):
            s = strategies.strategy_from_dict(_read(p("extract")))
            strategies.validate_strategy(g, s)
            return s

        with tr.span("cli.main"):
            g, obj = tr.call("model.load_game", game)
            decomp = tr.call(f"solvers.solve_{inst.kind}", g, obj.target)
            tr.call("model.dump_json", decomp.to_dict(), p("solve"))
        with tr.span("cli.main"):
            g, obj = tr.call("model.load_game", game)
            t = tr.call("templates.template_for", g, obj)
            tr.call("model.dump_json", t.to_dict(), p("template"))
        with tr.span("cli.main"):
            g, _ = tr.call("model.load_game", game)
            s = tr.call("strategies.extract_strategy", g, load_template(g))
            tr.call("model.dump_json", s.to_dict(), p("extract"))
        with tr.span("cli.main"):
            g, _ = tr.call("model.load_game", game)
            t, s = load_template(g), load_strategy(g)
            conflicts = templates.check_conflict_free(g, t)
            out = tr.call("strategies.check_compliance", g, t, s).to_dict()
            out["template_conflict_free"] = conflicts.ok
            tr.call("model.dump_json", out, p("check"))
        with tr.span("cli.main"):
            g, obj = tr.call("model.load_game", game)
            verified = tr.call("strategies.verify_memoryless", g, load_strategy(g), obj)
            tr.call("model.dump_json",
                    {"objective": obj.to_dict(), "verified": sorted(verified)}, p("verify"))
        with tr.span(REPLAY):
            w = g.mask(decomp.winning)
            for rank in decomp.ranks:
                x = g.mask(rank)
                tr.call("operators.pre1_mask", g, x)
                tr.call("operators.apre1_mask", g, w, x)
                tr.call("operators.afpre1_mask", g, w, w, x)

    def layer_metrics(self, summary: dict) -> dict:
        spans = summary["spans"]

        def exponent(name: str, kind: str) -> float:
            """Slope of log time on log n over the span's calls on `kind`."""
            s = spans.get(name, {"durs": [], "ops": []})
            pts = [(self.instance(op).n, d) for d, op in zip(s["durs"], s["ops"])
                   if self.instance(op).kind == kind and d > 0]
            if len({n for n, _ in pts}) < 2:
                return 0.0
            return slope([n for n, _ in pts], [d for _, d in pts])

        solve_ns = {}
        for kind in KINDS:
            s = spans.get(f"solvers.solve_{kind}", {"durs": [], "ops": []})
            solve_ns.update(zip(s["ops"], s["durs"]))
        tmpl = spans.get("templates.template_for", {"durs": [], "ops": []})
        synth = [(d - solve_ns[op]) / 1e6
                 for d, op in zip(tmpl["durs"], tmpl["ops"]) if op in solve_ns]
        return {
            "solvers.rank_chain_len":
                sum(self.chain_lens.get(j, 0) for j in range(CHAIN_OPS)),
            "solvers.solve_buchi.exponent": exponent("solvers.solve_buchi", "buchi"),
            "solvers.solve_cobuchi.exponent": exponent("solvers.solve_cobuchi", "cobuchi"),
            "strategies.verify_memoryless.exponent":
                exponent("strategies.verify_memoryless", "cobuchi"),
            "templates.synthesis_only.ms": median(synth) if synth else 0.0,
        }
