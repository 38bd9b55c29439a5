"""Acceptance checklist: ten end-to-end criteria with wall-clock budgets.

Each test covers one criterion and prints a single PASS/FAIL summary line,
so a captured verbose run reads as a checklist. A criterion fails when an
assertion inside it fails or when it exceeds its time budget.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from congame import (
    ActionDistribution,
    Constant,
    FixedSchedule,
    GameGraph,
    GreedyAdversary,
    Objective,
    ObjectiveKind,
    RewardSpec,
    ScheduleStrategy,
    UniformRandom,
    check_compliance,
    check_conflict_free,
    compose,
    extract_strategy,
    heatmap_csv,
    load_game,
    random_game,
    random_subset,
    run_adaptive,
    run_heatmap,
    simulate,
    solve,
    template_for,
    verify_memoryless,
)
from congame.cli import main
from congame.operators import afpre1_mask, afpre_fix_mask, apre1_mask, pre1_mask

from .conftest import GAMES, golden_text
from .oracles import oracle_afpre1, oracle_apre1, oracle_pre1

BUCHI = str(GAMES / "buchi_cycle.json")
COBUCHI = str(GAMES / "cobuchi_stabilize.json")
TB = str(GAMES / "tb_handshake.json")
STRAT_B = str(GAMES / "strategy_buchi_nonmax.json")
STRAT_C = str(GAMES / "strategy_cobuchi_nonmax.json")

HEAVY_D = {"S2": ActionDistribution.from_mapping({"d": 0.8, "e": 0.1, "f": 0.1})}


@contextmanager
def criterion(num: int, label: str, budget: float):
    start = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - start
        verdict = "FAIL" if failed or elapsed > budget else "PASS"
        print(f"[criterion {num:02d}] {verdict} {label} "
              f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {num:02d} blew its {budget:.0f}s budget"


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def support_profiles(g: GameGraph):
    """Yield one support set per state, over every nonempty combination."""
    per_state = []
    for v in g.states:
        acts = g.p1_actions(v)
        options = []
        for k in range(1, len(acts) + 1):
            options.extend(frozenset(c) for c in combinations(acts, k))
        per_state.append(options)
    yield from product(*per_state)


def test_c01_buchi_cycle_goldens(capsys):
    with criterion(1, "buchi example reproduces solve and template goldens", 1.0):
        code, out = run_cli(capsys, "solve", BUCHI)
        assert code == 0
        assert out == golden_text("solve_buchi_cycle.json")
        code, out = run_cli(capsys, "template", BUCHI)
        assert code == 0
        assert out == golden_text("template_buchi_cycle.json")


def test_c02_cobuchi_stabilize_goldens(capsys):
    with criterion(2, "cobuchi example reproduces goldens and fixpoint detail", 1.0):
        code, out = run_cli(capsys, "solve", COBUCHI)
        assert code == 0
        assert out == golden_text("solve_cobuchi_stabilize.json")
        code, out = run_cli(capsys, "template", COBUCHI)
        assert code == 0
        assert out == golden_text("template_cobuchi_stabilize.json")
        g, obj = load_game(COBUCHI)
        x1 = g.mask({"S0", "S1", "S2", "S3"})
        fix = afpre_fix_mask(g, g.index("S2"), g.full_mask, x1, x1)
        assert fix == g.action_mask("S2", {"a", "b", "x", "y"})
        tpl = template_for(g, Objective(ObjectiveKind.COBUCHI, frozenset(obj.target)))
        assert tpl.live["S2"] == (frozenset({"a", "y"}), frozenset({"b"}),
                                  frozenset({"x"}))


def test_c03_operators_match_enumeration_oracles():
    with criterion(3, "support operators agree with brute-force oracles on 500 games", 60.0):
        subset_rng = random.Random(0)
        for i in range(500):
            g = random_game(random.Random(1000 + i),
                            n_states=2 + i % 4, max_actions=3)
            def pick() -> frozenset[str]:
                return frozenset(v for v in g.states if subset_rng.random() < 0.5)
            x, y, z = pick(), pick(), pick()
            assert g.unmask(pre1_mask(g, g.mask(x))) == oracle_pre1(g, x)
            assert g.unmask(apre1_mask(g, g.mask(y), g.mask(x))) == oracle_apre1(g, y, x)
            assert g.unmask(afpre1_mask(g, g.mask(z), g.mask(y), g.mask(x))) \
                == oracle_afpre1(g, z, y, x)


def test_c04_random_templates_are_conflict_free():
    with criterion(4, "templates from 200 random games per objective are conflict free", 60.0):
        nonempty = {kind: 0 for kind in ObjectiveKind}
        for kind in ObjectiveKind:
            for i in range(200):
                seed = 5000 + i
                g = random_game(random.Random(seed), n_states=5, max_actions=3)
                target = random_subset(random.Random(seed ^ 0xFF), g.states,
                                       1 + seed % g.n_states)
                tpl = template_for(g, Objective(kind, target))
                report = check_conflict_free(g, tpl)
                assert report.ok, (kind, seed, report.conflicts)
                if tpl.winning:
                    nonempty[kind] += 1
        # the sweep should exercise plenty of nontrivial instances
        assert all(count >= 100 for count in nonempty.values()), nonempty


def test_c05_winning_region_equals_exhaustive_strategy_union():
    with criterion(5, "solver output matches exhaustive fixed-support verification", 120.0):
        for i in range(60):
            g = random_game(random.Random(7000 + i), n_states=5, max_actions=2)
            kind = ObjectiveKind.BUCHI if i % 2 else ObjectiveKind.SAFETY
            target = random_subset(random.Random(7000 - i), g.states,
                                   1 + i % g.n_states)
            objective = Objective(kind, target)
            winning = solve(g, objective).winning
            union: frozenset[str] = frozenset()
            for profile in support_profiles(g):
                strat = ScheduleStrategy({
                    v: {a: Constant(1.0) for a in support}
                    for v, support in zip(g.states, profile)})
                union |= verify_memoryless(g, strat, objective)
            assert union == winning, (i, sorted(union), sorted(winning))


def test_c06_extracted_strategy_stabilizes_under_pressure():
    with criterion(6, "cobuchi extraction stabilizes against three opponents", 60.0):
        g, obj = load_game(COBUCHI)
        tpl = template_for(g, Objective(ObjectiveKind.COBUCHI, frozenset(obj.target)))
        strat = extract_strategy(g, tpl)
        assert check_compliance(g, tpl, strat).status == "compliant"
        opponents = (UniformRandom(), FixedSchedule(HEAVY_D),
                     GreedyAdversary(solve(g, obj).ranks))
        for opponent in opponents:
            logs = simulate(g, strat, opponent, horizon=500, episodes=200,
                            seed=0, start="S4", target=obj.target)
            settled = sum(1 for log in logs if log.longest_target_suffix >= 101)
            assert settled >= 190, (type(opponent).__name__, settled)


def test_c07_noncompliant_strategies_get_expected_verdicts(capsys, tmp_path):
    with criterion(7, "known noncompliant strategies reproduce verdict goldens", 10.0):
        tpl_b = tmp_path / "tb.json"
        run_cli(capsys, "template", BUCHI, "-o", str(tpl_b))
        code, out = run_cli(capsys, "check", BUCHI, str(tpl_b), STRAT_B)
        assert code == 0
        assert out == golden_text("verdict_buchi_nonmax.json")
        tpl_c = tmp_path / "tc.json"
        run_cli(capsys, "template", COBUCHI, "-o", str(tpl_c))
        code, out = run_cli(capsys, "check", COBUCHI, str(tpl_c), STRAT_C)
        assert code == 0
        assert out == golden_text("verdict_cobuchi_nonmax.json")


def test_c08_heatmap_determinism_and_merge_soundness():
    with criterion(8, "heatmap is reproducible and merged compliance implies parts", 120.0):
        rows = run_heatmap(games=200, sizes=(1, 2, 3), max_objectives=4, seed=0)
        again = run_heatmap(games=200, sizes=(1, 2, 3), max_objectives=4, seed=0)
        fanned = run_heatmap(games=200, sizes=(1, 2, 3), max_objectives=4,
                             seed=0, jobs=2)
        assert heatmap_csv(rows) == heatmap_csv(again) == heatmap_csv(fanned)

        rng = random.Random(2024)
        checked = 0
        for _ in range(40):
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
            strat = extract_strategy(g, merged)
            if check_compliance(g, merged, strat).status != "compliant":
                continue
            checked += 1
            for part in parts:
                assert check_compliance(g, part, strat).status == "compliant"
        assert checked >= 15, checked


def test_c09_adaptation_collects_at_least_fixed_reward():
    with criterion(9, "online adaptation matches or beats the fixed extraction", 60.0):
        g, obj = load_game(COBUCHI)
        tpl = template_for(g, Objective(ObjectiveKind.COBUCHI, frozenset(obj.target)))
        strat = extract_strategy(g, tpl)
        reward = RewardSpec({"S0": 1.0})
        opponent = FixedSchedule(HEAVY_D)
        adaptive_total = fixed_total = 0.0
        violations = 0
        for i in range(50):
            outcome = run_adaptive(g, tpl, reward, opponent,
                                   horizon=2000, seed=i, start="S2")
            violations += outcome.violations
            adaptive_total += outcome.total_reward
            (log,) = simulate(g, strat, opponent, horizon=2000, episodes=1,
                              seed=i, start="S2")
            fixed_total += sum(1.0 for *_, nxt in log.steps if nxt == "S0")
        assert violations == 0
        assert adaptive_total / 50 >= fixed_total / 50, (adaptive_total / 50,
                                                         fixed_total / 50)


def test_c10_turn_based_conversion_golden(capsys):
    with criterion(10, "turn based conversion reproduces its golden", 1.0):
        code, out = run_cli(capsys, "convert", TB)
        assert code == 0
        assert out == golden_text("convert_tb_handshake.json")
