"""Almost-sure solving of concurrent two-player games and synthesis of
permissive strategy templates, with extraction, composition, online
adaptation and turn-based conversion."""

from .adaptation import (
    AdaptiveRun,
    Infeasible,
    OpponentModel,
    RewardSpec,
    adapt_step,
    run_adaptive,
    update_model,
)
from .algebra import (
    GameMismatch,
    HeatmapRow,
    IncrementalStep,
    compose,
    heatmap_csv,
    incremental_synthesize,
    run_heatmap,
)
from .convert import (
    ConversionStats,
    NonRectangularActions,
    NotAlternating,
    TurnBasedGame,
    convert,
    load_turn_based,
    tb_from_dict,
)
from .corpus import random_game, random_subset
from .model import (
    ActionDistribution,
    CongameError,
    DuplicateTransition,
    EmptyActionSet,
    GameGraph,
    InputError,
    MissingTransition,
    NonConvergence,
    Objective,
    ObjectiveKind,
    UnknownAction,
    UnknownState,
    dump_json,
    game_to_dict,
    load_game,
    parse_objective,
    validate_game,
)
from .solvers import RankDecomposition, solve, solve_buchi, solve_cobuchi, solve_safety
from .strategies import (
    ComplianceVerdict,
    ConflictError,
    Constant,
    EpisodeLog,
    FixedSchedule,
    Geometric,
    GreedyAdversary,
    LiveFloorViolation,
    NonConstantSchedule,
    ScheduleStrategy,
    UniformRandom,
    check_compliance,
    extract_strategy,
    simulate,
    strategy_from_dict,
    validate_strategy,
    verify_memoryless,
)
from .templates import (
    Conflict,
    ConflictReport,
    Template,
    canonical_groups,
    check_conflict_free,
    check_weight_params,
    template_for,
    template_from_dict,
    validate_template,
)

__all__ = [
    # adaptation
    "AdaptiveRun", "Infeasible", "OpponentModel", "RewardSpec", "adapt_step",
    "run_adaptive", "update_model",
    # algebra
    "GameMismatch", "HeatmapRow", "IncrementalStep", "compose", "heatmap_csv",
    "incremental_synthesize", "run_heatmap",
    # convert
    "ConversionStats", "NonRectangularActions", "NotAlternating",
    "TurnBasedGame", "convert", "load_turn_based", "tb_from_dict",
    # corpus
    "random_game", "random_subset",
    # model
    "ActionDistribution", "CongameError", "DuplicateTransition",
    "EmptyActionSet", "GameGraph", "InputError", "MissingTransition",
    "NonConvergence", "Objective", "ObjectiveKind", "UnknownAction",
    "UnknownState", "dump_json", "game_to_dict", "load_game",
    "parse_objective", "validate_game",
    # solvers
    "RankDecomposition", "solve", "solve_buchi", "solve_cobuchi",
    "solve_safety",
    # strategies
    "ComplianceVerdict", "ConflictError", "Constant", "EpisodeLog",
    "FixedSchedule", "Geometric", "GreedyAdversary", "LiveFloorViolation",
    "NonConstantSchedule", "ScheduleStrategy", "UniformRandom",
    "check_compliance", "extract_strategy", "simulate", "strategy_from_dict",
    "validate_strategy", "verify_memoryless",
    # templates
    "Conflict", "ConflictReport", "Template", "canonical_groups",
    "check_conflict_free", "check_weight_params", "template_for",
    "template_from_dict", "validate_template",
]
