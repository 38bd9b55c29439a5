"""The package's records: named tuples, plus two small opponent classes.

A record is an immutable tuple of its fields: built by position or keyword,
printed as ``Name(field=value, ...)``, equal to the plain tuple of its
fields.  The types that cross the process pool pickle, and a default table
is an immutable empty mapping, so no two records share a dict.
"""

from __future__ import annotations

import pickle
from collections.abc import MutableMapping

import pytest

from congame import (
    ActionDistribution,
    AdaptiveRun,
    ComplianceVerdict,
    Conflict,
    ConflictReport,
    Constant,
    ConversionStats,
    EpisodeLog,
    FixedSchedule,
    Geometric,
    GreedyAdversary,
    HeatmapRow,
    IncrementalStep,
    Objective,
    ObjectiveKind,
    OpponentModel,
    RankDecomposition,
    RewardSpec,
    ScheduleStrategy,
    Template,
    TurnBasedGame,
    UniformRandom,
    extract_strategy,
    simulate,
    solve,
    template_for,
    update_model,
)

OBJ = Objective(ObjectiveKind.BUCHI, frozenset({"A"}))
TEMPLATE = Template(frozenset({"A"}), {}, {"A": (frozenset({"a"}),)}, (), {}, "buchi")
RECORDS = [
    OBJ,
    ActionDistribution.uniform(("a",)),
    RankDecomposition(frozenset({"A"}), (frozenset({"A"}),)),
    TEMPLATE,
    Conflict("A", "no-safe-action", ("a",)),
    ConflictReport(()),
    Constant(0.5),
    Geometric(1.0, 0.5),
    ScheduleStrategy({"A": {"a": Constant(1.0)}}),
    ComplianceVerdict("compliant"),
    EpisodeLog(0, 7, "A", [("A", "a", "d", "A")], {"A": 2}, 2, 2),
    RewardSpec({"A": 1.0}),
    OpponentModel(),
    AdaptiveRun([(0, "A", "a", "d", 1.0, 1.0)], 1.0, 0, OpponentModel()),
    IncrementalStep(1, OBJ, TEMPLATE, ConflictReport(()), None),
    HeatmapRow(1, 1, 0.0),
    TurnBasedGame({"A": 1}, {"A": {}}, "states", frozenset(), ObjectiveKind.BUCHI),
    ConversionStats(1, 0, 0, 0, 1),
]


def _id(rec) -> str:
    return type(rec).__name__


@pytest.mark.parametrize("rec", RECORDS, ids=_id)
def test_positional_and_keyword_construction_agree(rec):
    assert type(rec)(*rec) == rec
    assert type(rec)(**rec._asdict()) == rec


def test_defaults_fill_the_trailing_fields():
    assert ComplianceVerdict("compliant") == ComplianceVerdict(
        status="compliant", state=None, clause=None)
    assert OpponentModel(2.0) == OpponentModel(alpha=2.0, counts={})
    assert RewardSpec() == RewardSpec(weights={})


@pytest.mark.parametrize("rec", RECORDS, ids=_id)
def test_a_record_is_the_tuple_of_its_fields(rec):
    assert isinstance(rec, tuple)
    assert rec == tuple(rec)


@pytest.mark.parametrize("rec, text", [
    (Constant(0.5), "Constant(p=0.5)"),
    (OBJ, "Objective(kind=<ObjectiveKind.BUCHI: 'buchi'>, target=frozenset({'A'}))"),
    (ComplianceVerdict("compliant"),
     "ComplianceVerdict(status='compliant', state=None, clause=None)"),
    (ComplianceVerdict("noncompliant", "S1", "live"),
     "ComplianceVerdict(status='noncompliant', state='S1', clause='live')"),
    (RewardSpec(), "RewardSpec(weights={})"),
    (OpponentModel(), "OpponentModel(alpha=1.0, counts={})"),
], ids=lambda x: x if isinstance(x, str) else _id(x))
def test_repr_names_every_field(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec", RECORDS, ids=_id)
def test_fields_cannot_be_reassigned(rec):
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


@pytest.mark.parametrize("make, field", [
    (RewardSpec, "weights"), (OpponentModel, "counts"), (FixedSchedule, "table"),
])
def test_default_tables_share_no_mutable_mapping(make, field):
    a, b = getattr(make(), field), getattr(make(), field)
    assert a == b == {}
    for table in (a, b):
        assert not isinstance(table, MutableMapping)
        with pytest.raises(TypeError):
            table["S0"] = {}
    assert pickle.loads(pickle.dumps(a)) == {}


def test_update_model_leaves_the_default_model_empty(cobuchi_game):
    m = update_model(cobuchi_game, OpponentModel(), "S2", "d")
    assert m.counts == {"S2": {"d": 1}}
    assert OpponentModel().counts == {}


def _round_trip(x):
    return pickle.loads(pickle.dumps(x))


def test_pool_crossing_types_pickle(cobuchi_game, cobuchi_objective):
    g = cobuchi_game
    s = extract_strategy(g, template_for(g, cobuchi_objective))
    assert _round_trip(s) == s
    heavy = FixedSchedule({"S2": ActionDistribution.from_mapping({"d": 0.75, "e": 0.25})})
    greedy = GreedyAdversary(solve(g, cobuchi_objective).ranks)
    opponents = [UniformRandom(), FixedSchedule(), heavy, greedy]
    for opp in opponents:
        back = _round_trip(opp)
        assert type(back) is type(opp)
        if isinstance(opp, FixedSchedule):
            assert back.table == opp.table
        elif isinstance(opp, GreedyAdversary):
            assert back.ranks == opp.ranks
        logs = simulate(g, s, opp, horizon=30, episodes=2, seed=5, start="S2")
        assert simulate(g, _round_trip(s), back, horizon=30, episodes=2, seed=5,
                        start="S2") == logs
        assert [_round_trip(log) for log in logs] == logs
