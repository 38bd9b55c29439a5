"""Combining templates: conjunction by merging, exact buchi conjunction
regions by counter product, and the incremental batch harness.

Merging is per-state union of the unsafe/colive sets and of the live group
collections, with the winning regions intersected; it is commutative and
associative up to the canonical ordering applied here.  Merging can create
conflicts (a state where the union blocks everything); these are detected,
reported, and never silently repaired.  `compose` checks that every part
fits the arena; `incremental_synthesize` merges its own templates unchecked.

For conjunctions of pure buchi objectives the counter product gives the
exact almost-sure region, the reference that shows how much merging loses:
the game is unrolled against a round-robin counter that advances past target
i when it is visited, the product is solved once for its buchi objective,
and the region is the base states winning at counter 0.  The product lays
its copies out one after another, copy c of base state vi at index c·n + vi,
so counter 0 is its low n bits.  No template is built for the product;
`incremental_synthesize` is the only caller.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import NamedTuple, Optional

from .corpus import random_game, random_subset
from .model import (
    GameGraph,
    InputError,
    Objective,
    ObjectiveKind,
    map_tasks,
)
from .solvers import _buchi
from .templates import (
    ConflictReport,
    Template,
    canonical_groups,
    check_conflict_free,
    template_for,
    validate_template,
)


class GameMismatch(InputError):
    """A template mentions states or actions the game does not have."""


def _merge_tag(parts: Sequence[str]) -> str:
    atoms: list[str] = []
    for tag in parts:
        atoms.extend(tag.split("+"))
    return "+".join(sorted(atoms))


def compose(g: GameGraph, templates: Sequence[Template]) -> tuple[Template, ConflictReport]:
    """Merge templates over one arena; returns the merged template and the
    conflict report on the intersected winning region."""
    if not templates:
        raise InputError("compose needs at least one template")
    for t in templates:
        try:
            validate_template(g, t)
        except InputError as e:
            raise GameMismatch(f"template does not fit the game: {e}") from None
    return _merge(g, templates)


def _merge(g: GameGraph, templates: Sequence[Template]) -> tuple[Template, ConflictReport]:
    """:func:`compose` without its checks, for templates known to fit `g`."""
    winning = frozenset(g.states)
    unsafe: dict[str, frozenset[str]] = {}
    colive: dict[str, frozenset[str]] = {}
    live: dict[str, set[frozenset[str]]] = {}
    cells: set[frozenset[str]] = set()
    for t in templates:
        winning &= t.winning
        for v, s in t.unsafe.items():
            if s:
                unsafe[v] = unsafe.get(v, frozenset()) | s
        for v, c in t.colive.items():
            if c:
                colive[v] = colive.get(v, frozenset()) | c
        for v, hs in t.live.items():
            live.setdefault(v, set()).update(hs)
        cells.update(cell for cell in t.partition if cell)
    merged = Template(
        winning=winning,
        unsafe=unsafe,
        live={v: canonical_groups(hs) for v, hs in live.items()},
        partition=tuple(sorted(cells, key=sorted)),
        colive=colive,
        objective_tag=_merge_tag([t.objective_tag for t in templates]),
    )
    return merged, check_conflict_free(g, merged)


# -- exact buchi conjunction via counter product ------------------------------

def counter_product(g: GameGraph, targets: Sequence[frozenset[str]]) -> tuple[GameGraph, int]:
    """Product of `g` with a round-robin counter over the buchi targets, and
    the mask of its target.

    The counter advances past index c when the current base state lies in
    targets[c]; the product target is "counter at the last objective and on
    it", so visiting the product target infinitely often is equivalent to
    visiting every base target infinitely often.

    Copy c of base state vi is product state ``c * n + vi``
    (:meth:`GameGraph._copies`): its successors are those of vi, moved to the
    copy at vi's next counter value.
    """
    k, n = len(targets), g.n_states
    shift = [[((c + 1) % k if v in t else c) * n for v in g.states] for c, t in enumerate(targets)]
    return GameGraph._copies(g, shift), g.mask(targets[-1]) << (k - 1) * n


def _conjunction_region(g: GameGraph, targets: Sequence[frozenset[str]]) -> frozenset[str]:
    """The exact almost-sure region of the conjunction of the buchi `targets`:
    the base states winning at counter 0, the product's low n bits, in one
    solve of the counter product.
    """
    winning, _ = _buchi(*counter_product(g, targets))
    return g.unmask(winning)


# -- incremental synthesis -----------------------------------------------------

class IncrementalStep(NamedTuple):
    """State of the incremental pipeline after adding one more objective."""

    index: int
    objective: Objective
    template: Template
    conflicts: ConflictReport
    exact_winning: Optional[frozenset[str]]


def incremental_synthesize(
    g: GameGraph, objectives: Sequence[Objective],
) -> list[IncrementalStep]:
    """Add objectives one at a time, merging each new template into the
    previous step's merged template (`compose` is associative, so this
    equals composing the whole prefix) and reporting conflicts at each
    step; templates built here on `g` skip `compose`'s checks.  For
    all-buchi prefixes the exact conjunction region is computed alongside as
    a permissiveness reference: one solve of the prefix's counter product.
    A one-objective prefix needs no product, since its one-counter product
    is the base game renamed ``v@0``: its region is the new template's
    winning region.
    """
    if not objectives:
        raise InputError("incremental synthesis needs at least one objective")
    merged: Optional[Template] = None
    steps: list[IncrementalStep] = []
    for i, obj in enumerate(objectives, start=1):
        t = template_for(g, obj)
        merged, report = _merge(g, [t] if merged is None else [merged, t])
        exact: Optional[frozenset[str]] = None
        if all(o.kind is ObjectiveKind.BUCHI for o in objectives[:i]):
            exact = t.winning if i == 1 else _conjunction_region(
                g, [o.target for o in objectives[:i]])
        steps.append(IncrementalStep(i, obj, merged, report, exact))
    return steps


# -- randomized batch harness --------------------------------------------------

class HeatmapRow(NamedTuple):
    objective_size: int
    objectives_added: int
    conflict_fraction: float


def _heatmap_instance(seed, sizes, max_objectives, n_states) -> dict[int, list[bool]]:
    rng = random.Random(seed)
    g = random_game(rng, n_states=n_states)
    out: dict[int, list[bool]] = {}
    for size in sizes:
        span = min(size, g.n_states)
        objectives = [
            Objective(ObjectiveKind.BUCHI, random_subset(rng, g.states, span))
            for _ in range(max_objectives)
        ]
        steps = incremental_synthesize(g, objectives)
        out[size] = [not step.conflicts.ok for step in steps]
    return out


def run_heatmap(
    games: int = 200,
    sizes: Sequence[int] = (1, 2, 3),
    max_objectives: int = 4,
    n_states: int = 5,
    seed: int = 0,
    jobs: int = 1,
) -> list[HeatmapRow]:
    """Conflict frequency of merged buchi templates on random games.

    Game i is drawn from seed `seed + i`; for each target size the harness
    composes `max_objectives` random buchi templates incrementally and
    records where conflicts appear.  Rows are averaged over the games and
    sorted by (objective_size, objectives_added).  The games may run in a
    process pool (:func:`~congame.model.map_tasks`): a script passing jobs > 1
    must guard its entry point with ``if __name__ == "__main__":``.
    """
    if games <= 0:
        raise InputError("games must be positive")
    if not all(type(size) is int and size > 0 for size in sizes):
        raise InputError(f"target sizes must be positive integers, got {list(sizes)}")
    tasks = [(seed + i, tuple(sizes), max_objectives, n_states) for i in range(games)]
    results = map_tasks(_heatmap_instance, tasks, jobs)
    rows = []
    for size in sizes:
        for k in range(1, max_objectives + 1):
            hits = sum(1 for res in results if res[size][k - 1])
            rows.append(HeatmapRow(size, k, hits / games))
    return rows


def heatmap_csv(rows: Sequence[HeatmapRow]) -> str:
    lines = ["objective_size,objectives_added,conflict_fraction"]
    for row in rows:
        lines.append(f"{row.objective_size},{row.objectives_added},{row.conflict_fraction}")
    return "\n".join(lines) + "\n"
