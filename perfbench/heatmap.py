"""heatmap workload: one game of the seeded random corpus per op.

One op is ``run_heatmap(games=1, seed=s)`` with the defaults of
``congame incremental`` (5 states, target sizes 1,2,3, 4 buchi objectives).
Game seed s is the same game as game s of ``run_heatmap(games=N, seed=0)``.
The run's --seed picks where in the reference table the run starts; op i
plays the next game, wrapping at the end of the table.

Every op's twelve conflict flags (one per target size and objective count)
must equal the reference flags recorded at the commit that added this
benchmark.  The traced run replays ``incremental_synthesize`` step by step
and also checks that each exact conjunction region lies inside the
intersection of the single-objective winning regions.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial

from congame import algebra
from congame.corpus import random_subset
from congame.model import Objective, ObjectiveKind

from measure import Mismatch, Workload
from spans import ABSENT, REPLAY, Tracer

SIZES = (1, 2, 3)
MAX_OBJECTIVES = 4
N_STATES = 5
WARMUP_GAME = 0
WATCHED_GAMES = 20  # games played with algebra's products watched


def flags_of(rows) -> str:
    """The conflict flags of a one-game run_heatmap, as a 0/1 string in
    (objective_size, objectives_added) order."""
    keys = [(r.objective_size, r.objectives_added) for r in rows]
    want = [(s, k) for s in SIZES for k in range(1, MAX_OBJECTIVES + 1)]
    if keys != want:
        raise Mismatch(f"heatmap rows are {keys}, expected {want}")
    out = []
    for r in rows:
        if r.conflict_fraction not in (0.0, 1.0):
            raise Mismatch(f"one-game conflict fraction {r.conflict_fraction}")
        out.append("1" if r.conflict_fraction else "0")
    return "".join(out)


def encode_flags(flags: str) -> str:
    return f"{int(flags, 2):03x}"


def decode_flags(code: str) -> str:
    return format(int(code, 16), f"0{len(SIZES) * MAX_OBJECTIVES}b")


def play_game(game_seed: int) -> str:
    return flags_of(algebra.run_heatmap(
        games=1, sizes=SIZES, max_objectives=MAX_OBJECTIVES,
        n_states=N_STATES, seed=game_seed, jobs=1))


def aggregate_csv(all_flags: list[str]) -> str:
    """The CSV run_heatmap prints for these games, built from their flags."""
    games = len(all_flags)
    rows = []
    for j, (size, k) in enumerate((s, k) for s in SIZES for k in range(1, MAX_OBJECTIVES + 1)):
        hits = sum(1 for f in all_flags if f[j] == "1")
        rows.append(algebra.HeatmapRow(size, k, hits / games))
    return algebra.heatmap_csv(rows)


def csv_digest(all_flags: list[str]) -> str:
    return hashlib.sha256(aggregate_csv(all_flags).encode()).hexdigest()


def _watched_frozenset(touched: set):
    """A frozenset subclass that notes, in `touched`, each instance read."""
    def reader(base):
        def method(self, *args):
            touched.add(id(self))
            return base(self, *args)
        return method

    ns = {"__hash__": frozenset.__hash__}
    for meth in ("__iter__", "__contains__", "__len__", "__eq__", "__ne__",
                 "__and__", "__rand__", "__or__", "__ror__", "__sub__", "__rsub__",
                 "__xor__", "__rxor__", "__le__", "__lt__", "__ge__", "__gt__",
                 "issubset", "issuperset", "isdisjoint", "union", "intersection",
                 "difference", "symmetric_difference", "copy"):
        ns[meth] = reader(getattr(frozenset, meth))
    return type("WatchedRegion", (frozenset,), ns)


def watch_products(game_seeds) -> tuple[float, float]:
    """Play these games with buchi_conjunction and counter_product watched.

    Returns the share of buchi_conjunction results that run_heatmap reads
    (1.0 when none is produced) and the states of the counter-product games
    the program builds, per game.  Each exact region returned is wrapped so
    that iterating, testing or combining it is noted (reads through C fast
    paths such as ``frozenset(region)`` are missed).
    """
    conj = getattr(algebra, "buchi_conjunction", None)
    product = getattr(algebra, "counter_product", None)
    touched: set = set()
    watched = _watched_frozenset(touched)
    produced: list = []
    states = 0

    def watch_conj(g, objectives):
        projected, exact = conj(g, objectives)
        region = watched(exact)
        produced.append(region)
        return projected, region

    def watch_product(g, targets):
        nonlocal states
        pg, ptarget = product(g, targets)
        states += pg.n_states
        return pg, ptarget

    if conj is not None:
        algebra.buchi_conjunction = watch_conj
    if product is not None:
        algebra.counter_product = watch_product
    try:
        for seed in game_seeds:
            play_game(seed)
    finally:
        if conj is not None:
            algebra.buchi_conjunction = conj
        if product is not None:
            algebra.counter_product = product
    used = sum(1 for r in produced if id(r) in touched) / len(produced) if produced else 1.0
    return used, states / len(game_seeds)


class Heatmap(Workload):
    name = "heatmap"
    tail_pct = 99

    def __init__(self, seed: int, workdir: str, reference: dict):
        ref = reference["heatmap"]
        self.table = [decode_flags(c) for c in ref["flags"]]
        self.offset = random.Random(seed).randrange(len(self.table))
        self.played: dict[int, str] = {}

    def game(self, i: int) -> int:
        return (self.offset + i) % len(self.table)

    def setup(self):
        self.check_flags(WARMUP_GAME, play_game(WARMUP_GAME))
        yield

    def steps(self, i: int) -> list:
        return [partial(algebra.run_heatmap, games=1, sizes=SIZES,
                        max_objectives=MAX_OBJECTIVES, n_states=N_STATES,
                        seed=self.game(i), jobs=1)]

    def check_flags(self, game: int, flags: str) -> None:
        if flags != self.table[game]:
            raise Mismatch(f"game {game}: conflict flags {flags}, reference {self.table[game]}")

    def check(self, i: int, outs: list) -> None:
        flags = flags_of(outs[0])
        self.check_flags(self.game(i), flags)
        self.played[i] = flags

    # -- traced run ----------------------------------------------------------

    def traced(self, i: int, tr: Tracer) -> str:
        """Replay _heatmap_instance / incremental_synthesize step by step."""
        rng = random.Random(self.game(i))
        g = tr.call("corpus.random_game", rng, n_states=N_STATES)
        flags = []
        for size in SIZES:
            span = min(size, g.n_states)
            objectives = [
                Objective(ObjectiveKind.BUCHI, random_subset(rng, g.states, span))
                for _ in range(MAX_OBJECTIVES)
            ]
            parts = []
            for k in range(1, MAX_OBJECTIVES + 1):
                parts.append(tr.call("templates.template_for", g, objectives[k - 1]))
                _, report = tr.call("algebra.compose", g, parts)
                flags.append("1" if not report.ok else "0")
                res = tr.call("algebra.buchi_conjunction", g, objectives[:k])
                if res is ABSENT:
                    continue
                with tr.span(REPLAY):
                    single = frozenset(g.states)
                    for t in parts:
                        single &= t.winning
                    if not res[1] <= single:
                        raise Mismatch(
                            f"game {self.game(i)}: exact conjunction region "
                            f"{sorted(res[1])} exceeds {sorted(single)}")
        return "".join(flags)

    def check_traced(self, i: int, flags: str) -> None:
        self.check_flags(self.game(i), flags)
        if i in self.played and self.played[i] != flags:
            raise Mismatch(f"game {self.game(i)}: traced flags {flags}, "
                           f"untraced {self.played[i]}")

    def layer_metrics(self, summary: dict) -> dict:
        used, states = watch_products([self.game(i) for i in range(WATCHED_GAMES)])
        return {"algebra.buchi_conjunction.used_frac": used,
                "algebra.product_states": states}
