"""Template composition, exact conjunction and the batch harness."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congame import (
    GameGraph,
    GameMismatch,
    InputError,
    Objective,
    ObjectiveKind,
    Template,
    check_compliance,
    check_conflict_free,
    compose,
    extract_strategy,
    game_to_dict,
    heatmap_csv,
    incremental_synthesize,
    random_game,
    run_heatmap,
    solve_buchi,
    template_for,
    validate_game,
)
from congame.algebra import _conjunction_region, counter_product
from congame.operators import pre1_mask

from .conftest import game_graphs
from .digests import synthesis_digest
from .oracles import oracle_solve_buchi


@st.composite
def games_with_buchi_pair(draw):
    g = draw(game_graphs(max_states=4))
    t1 = frozenset(draw(st.sets(st.sampled_from(g.states), min_size=1)))
    t2 = frozenset(draw(st.sets(st.sampled_from(g.states), min_size=1)))
    return g, t1, t2


class TestCompose:
    def test_single_template_is_preserved(self, cobuchi_game, cobuchi_objective):
        t = template_for(cobuchi_game, cobuchi_objective)
        merged, report = compose(cobuchi_game, [t])
        assert report.ok
        assert merged.winning == t.winning
        assert dict(merged.unsafe) == dict(t.unsafe)
        assert dict(merged.colive) == dict(t.colive)
        assert dict(merged.live) == dict(t.live)
        assert set(merged.partition) == set(t.partition)
        assert merged.objective_tag == "cobuchi"

    def test_commutative(self, buchi_game):
        t1 = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        t2 = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["A"])))
        m12, _ = compose(buchi_game, [t1, t2])
        m21, _ = compose(buchi_game, [t2, t1])
        assert m12.to_dict() == m21.to_dict()

    def test_associative(self, buchi_game):
        t1 = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        t2 = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["A"])))
        t3 = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["B"])))
        nested, _ = compose(buchi_game, [compose(buchi_game, [t1, t2])[0], t3])
        flat, _ = compose(buchi_game, [t1, t2, t3])
        assert nested.to_dict() == flat.to_dict()

    def test_winning_is_intersection(self, buchi_game):
        t1 = template_for(buchi_game, Objective(
            ObjectiveKind.BUCHI, frozenset(["C"])))  # wins everywhere
        t2 = template_for(buchi_game, Objective(
            ObjectiveKind.BUCHI, frozenset(["A"])))  # loses at the absorbing C
        merged, _ = compose(buchi_game, [t1, t2])
        assert t2.winning == {"A", "B"}
        assert merged.winning == t1.winning & t2.winning

    def test_tag_atoms_are_sorted(self, buchi_game, safety_game):
        t1 = template_for(buchi_game, Objective(ObjectiveKind.BUCHI, frozenset(["C"])))
        t2 = Template(
            winning=frozenset(buchi_game.states), unsafe={}, live={},
            partition=(), colive={}, objective_tag="safety")
        merged, _ = compose(buchi_game, [t2, t1])
        assert merged.objective_tag == "buchi+safety"

    def test_mismatched_template_rejected(self, buchi_game, safety_game):
        t = template_for(safety_game,
                         Objective(ObjectiveKind.SAFETY, frozenset({"g"})))
        with pytest.raises(GameMismatch):
            compose(buchi_game, [t])

    def test_empty_input_rejected(self, buchi_game):
        with pytest.raises(InputError):
            compose(buchi_game, [])

    def test_merge_can_conflict(self, safety_game):
        t1 = Template(
            winning=frozenset({"g"}), unsafe={"g": frozenset({"u"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        t2 = Template(
            winning=frozenset({"g"}), unsafe={"g": frozenset({"s"})},
            live={}, partition=(), colive={}, objective_tag="safety")
        merged, report = compose(safety_game, [t1, t2])
        assert merged.unsafe_at("g") == {"s", "u"}
        assert not report.ok
        assert report.conflicts[0].clause == "no-safe-action"

    @given(games_with_buchi_pair())
    @settings(max_examples=40)
    def test_merged_constraints_contain_parts(self, gtt):
        g, tgt1, tgt2 = gtt
        t1 = template_for(g, Objective(ObjectiveKind.BUCHI, frozenset(tgt1)))
        t2 = template_for(g, Objective(ObjectiveKind.BUCHI, frozenset(tgt2)))
        merged, _ = compose(g, [t1, t2])
        for part in (t1, t2):
            for v in g.states:
                assert part.unsafe_at(v) <= merged.unsafe_at(v)
                assert set(part.groups_at(v)) <= set(merged.groups_at(v))
            for cell in part.partition:
                if cell:
                    assert cell in merged.partition


def reference_counter_product(g, targets):
    """The counter product built name by name from `g.succ`."""
    k = len(targets)
    p1, p2, delta = {}, {}, {}
    for v in g.states:
        for c in range(k):
            name = f"{v}@{c}"
            p1[name], p2[name] = g.p1_actions(v), g.p2_actions(v)
            nxt_c = (c + 1) % k if v in targets[c] else c
            for a in g.p1_actions(v):
                for b in g.p2_actions(v):
                    delta[(name, a, b)] = f"{g.succ(v, a, b)}@{nxt_c}"
    return GameGraph(list(p1), p1, p2, delta), frozenset(f"{v}@{k - 1}" for v in targets[-1])


def assert_same_arena(pg, ref):
    # by name: the product keeps its states in copy order, the reference sorts them
    assert sorted(pg.states) == list(ref.states)
    for v in ref.states:
        assert pg.p1_actions(v) == ref.p1_actions(v)
        assert pg.p2_actions(v) == ref.p2_actions(v)
        for a in ref.p1_actions(v):
            for b in ref.p2_actions(v):
                assert pg.succ(v, a, b) == ref.succ(v, a, b)
        assert pg.unmask(pg.pred_mask(pg.mask([v]))) == ref.unmask(ref.pred_mask(ref.mask([v])))


@st.composite
def games_with_targets(draw, max_targets: int = 4):
    g = draw(game_graphs())
    target = st.frozensets(st.sampled_from(g.states), min_size=1)
    return g, draw(st.lists(target, min_size=1, max_size=max_targets))


class TestCounterProduct:
    @given(games_with_targets())
    @settings(max_examples=60)
    def test_equals_name_level_construction(self, gts):
        g, targets = gts
        pg, ptarget = counter_product(g, targets)
        ref, ref_target = reference_counter_product(g, targets)
        assert pg.unmask(ptarget) == ref_target
        assert_same_arena(pg, ref)

    def test_base_names_with_at_and_digits(self):
        # "a" at counter 10 and "a@1" at counter 0 are "a@10" and "a@1@0": the
        # text after the last "@" is the counter, so no two names meet
        raw = game_to_dict(random_game(random.Random(7), n_states=4))
        new = dict(zip(raw["states"], ("a", "a@1", "a0", "b")))
        g = validate_game({
            "states": list(new.values()),
            "p1_actions": {new[v]: acts for v, acts in raw["p1_actions"].items()},
            "p2_actions": {new[v]: acts for v, acts in raw["p2_actions"].items()},
            "transitions": [dict(t, **{"from": new[t["from"]], "to": new[t["to"]]})
                            for t in raw["transitions"]]})
        targets = [frozenset({g.states[c % 4], g.states[c % 3]}) for c in range(11)]
        pg, ptarget = counter_product(g, targets)
        ref, ref_target = reference_counter_product(g, targets)
        assert len(set(pg.states)) == pg.n_states == 44
        assert pg.unmask(ptarget) == ref_target
        assert_same_arena(pg, ref)

    def test_builds_predecessors_only_on_first_use(self):
        g = random_game(random.Random(4), n_states=3)
        pg, _ = counter_product(g, [frozenset(g.states[:1]), frozenset(g.states[1:])])
        # the operators read the copied successor table alone
        assert pre1_mask(pg, pg.full_mask) == pg.full_mask
        assert not any(hasattr(game, "_pred") for game in (g, pg))
        pg.pred_mask(1)
        assert hasattr(pg, "_pred") and not hasattr(g, "_pred")

    def test_single_target_mirrors_base(self, buchi_game):
        pg, ptarget = counter_product(buchi_game, [frozenset({"C"})])
        assert pg.unmask(ptarget) == {"C@0"}
        assert pg.n_states == buchi_game.n_states
        assert solve_buchi(pg, pg.unmask(ptarget)).winning == {"A@0", "B@0", "C@0"}

    def test_counter_advances_on_target(self, buchi_game):
        pg, _ = counter_product(
            buchi_game, [frozenset({"C"}), frozenset({"A"})])
        # at A@0 the counter holds (A not in targets[0]) ...
        assert pg.succ("A@0", "a", "a") == "C@0"
        # ... and at C@0 it advances while the play stays in C
        assert pg.succ("C@0", "a", "a") == "C@1"
        # at A@1 the counter wraps to 0
        assert pg.succ("A@1", "b", "a") == "B@0"


class TestBuchiConjunction:
    def test_incompatible_targets_empty_region(self, buchi_game):
        # visiting the absorbing C infinitely often forbids revisiting A
        steps = incremental_synthesize(
            buchi_game,
            [Objective(ObjectiveKind.BUCHI, frozenset({"C"})),
             Objective(ObjectiveKind.BUCHI, frozenset({"A"}))])
        assert steps[-1].exact_winning == frozenset()

    def test_single_objective_matches_direct_solution(self, buchi_game):
        # a one-objective prefix takes its region from the template; the
        # one-counter product must agree with it
        obj = Objective(ObjectiveKind.BUCHI, frozenset({"C"}))
        base = solve_buchi(buchi_game, obj.target).winning
        assert incremental_synthesize(buchi_game, [obj])[-1].exact_winning == base
        assert _conjunction_region(buchi_game, [obj.target]) == base

    @given(games_with_buchi_pair())
    @settings(max_examples=25)
    def test_exact_region_within_merged_and_parts(self, gtt):
        g, tgt1, tgt2 = gtt
        objs = [Objective(ObjectiveKind.BUCHI, tgt1),
                Objective(ObjectiveKind.BUCHI, tgt2)]
        exact = incremental_synthesize(g, objs)[-1].exact_winning
        merged, _ = compose(
            g, [template_for(g, Objective(ObjectiveKind.BUCHI, frozenset(tgt1))),
                template_for(g, Objective(ObjectiveKind.BUCHI, frozenset(tgt2)))])
        assert exact <= merged.winning
        assert exact <= solve_buchi(g, tgt1).winning
        assert exact <= solve_buchi(g, tgt2).winning


@st.composite
def games_with_objectives(draw):
    """An arena plus one to four objectives of any kind."""
    g = draw(game_graphs())
    objective = st.builds(
        Objective,
        st.sampled_from(list(ObjectiveKind)),
        st.frozensets(st.sampled_from(g.states), min_size=1))
    return g, draw(st.lists(objective, min_size=1, max_size=4))


class TestIncremental:
    @given(games_with_objectives())
    @settings(max_examples=40)
    def test_steps_equal_composing_each_prefix(self, gos):
        # each step merges into the previous merged template; the reference
        # composes the whole prefix at once
        g, objs = gos
        steps = incremental_synthesize(g, objs)
        for k, step in enumerate(steps, start=1):
            ref, report = compose(g, [template_for(g, o) for o in objs[:k]])
            assert step.template == ref
            assert step.conflicts == report

    @given(games_with_targets())
    @settings(max_examples=40)
    def test_exact_region_is_the_products_counter_zero(self, gts):
        # the conjunction region equals the brute-force solve on the product,
        # built name by name here, for every all-buchi prefix
        g, targets = gts
        objs = [Objective(ObjectiveKind.BUCHI, t) for t in targets]
        steps = incremental_synthesize(g, objs)
        for k, step in enumerate(steps, start=1):
            pg, ptarget = reference_counter_product(g, targets[:k])
            oracle, _ = oracle_solve_buchi(pg, ptarget)
            expected = frozenset(v for v in g.states if f"{v}@0" in oracle)
            assert step.exact_winning == expected

    def test_steps_accumulate(self, buchi_game):
        objs = [Objective(ObjectiveKind.BUCHI, frozenset({"C"})),
                Objective(ObjectiveKind.BUCHI, frozenset({"A"})),
                Objective(ObjectiveKind.SAFETY, frozenset({"A", "B", "C"}))]
        steps = incremental_synthesize(buchi_game, objs)
        assert [s.index for s in steps] == [1, 2, 3]
        assert steps[0].exact_winning is not None
        assert steps[1].exact_winning == frozenset()
        assert steps[2].exact_winning is None  # prefix no longer all-buchi
        for earlier, later in zip(steps, steps[1:]):
            assert later.template.winning <= earlier.template.winning

    def test_step_fields(self, buchi_game):
        objective = Objective(ObjectiveKind.BUCHI, frozenset({"C"}))
        (step,) = incremental_synthesize(buchi_game, [objective])
        assert step.index == 1
        assert step.objective == objective
        assert step.template.winning == frozenset({"A", "B", "C"})
        assert step.conflicts.ok and step.conflicts.conflicts == ()
        assert step.exact_winning == frozenset({"A", "B", "C"})

    def test_empty_objectives_rejected(self, buchi_game):
        with pytest.raises(InputError):
            incremental_synthesize(buchi_game, [])

    def test_seeded_syntheses_match_the_recorded_digest(self):
        # templates of every objective kind and incremental steps with their
        # merged templates on 800 seeded arenas (tests/digests.py)
        assert synthesis_digest(range(800)) == (
            "336cf91c4396c7b1c8c3689332631937b001bbae91545fcfd777ea5f36c28e91")


class TestHeatmap:
    def test_deterministic_and_job_invariant(self):
        kw = dict(games=6, sizes=(1, 2), max_objectives=2, n_states=4, seed=5)
        rows1 = run_heatmap(**kw)
        rows2 = run_heatmap(**kw)
        rows_par = run_heatmap(jobs=2, **kw)
        assert rows1 == rows2 == rows_par

    def test_row_grid_shape(self):
        rows = run_heatmap(games=4, sizes=(1, 3), max_objectives=3, n_states=4, seed=1)
        assert [(r.objective_size, r.objectives_added) for r in rows] == [
            (1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)]
        assert all(0.0 <= r.conflict_fraction <= 1.0 for r in rows)

    def test_csv_format(self):
        rows = run_heatmap(games=3, sizes=(2,), max_objectives=2, n_states=4, seed=2)
        text = heatmap_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "objective_size,objectives_added,conflict_fraction"
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_zero_games_rejected(self):
        with pytest.raises(InputError):
            run_heatmap(games=0)

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(InputError, match="jobs must be at least 1"):
            run_heatmap(games=2, jobs=0)

    @pytest.mark.parametrize("sizes", [(0,), (1, -2), (1.5,), ("1",), (True,)])
    def test_bad_sizes_rejected(self, sizes):
        with pytest.raises(InputError, match="target sizes must be positive integers"):
            run_heatmap(games=2, sizes=sizes)

    def test_compose_soundness_on_random_instances(self):
        # a strategy compliant with a merged template is compliant with
        # every part
        rng = random.Random(11)
        checked = 0
        for _ in range(25):
            g = random_game(rng, n_states=4)
            parts = [
                template_for(g, Objective(ObjectiveKind.BUCHI, frozenset(
                    [g.states[min(int(rng.random() * g.n_states),
                                  g.n_states - 1)]])))
                for _ in range(2)
            ]
            merged, report = compose(g, parts)
            if not report.ok:
                continue
            s = extract_strategy(g, merged)
            if check_compliance(g, merged, s).status != "compliant":
                continue
            checked += 1
            for part in parts:
                assert check_compliance(g, part, s).status == "compliant"
        assert checked >= 5
