"""Deterministic simulator and analysis toolkit for budgeted
resource-allocation games on social networks."""

from .analysis import (
    OptimizerConfig,
    OptimumResult,
    RankingSystem,
    SymmetricProfile,
    brute_force_optimum,
    continuous_equilibrium_polish,
    convex_combine,
    global_optimum,
    global_ranking_weights,
    grid_reference_welfare,
    match_down,
    ne_quality,
    poa_grid_ratio,
    potential_value,
)
from .bestresponse import (
    BRResult,
    best_response,
    brute_force_best_response,
    is_best_response,
)
from .dynamics import (
    Converged,
    CycleDetected,
    DynamicsConfig,
    Given,
    InvariantViolation,
    MaxRoundsExceeded,
    NotEquilibrium,
    OptimisticNE,
    PessimisticNE,
    RandomFeasible,
    RandomSeeded,
    RoundRecord,
    RoundRobin,
    Trace,
    Zero,
    classify_equilibrium,
    init_profile,
    run_sequential,
    run_simultaneous,
)
from .experiment import (
    ExperimentConfig,
    HistogramReport,
    RunOutcome,
    run_batch_experiment,
    write_histogram_csv,
    write_runs_jsonl,
    write_summary_json,
    write_trace_jsonl,
)
from .game import (
    Behavior,
    FrequencyProfile,
    GameSpec,
    InfeasibleProfileError,
    OutcomeSummary,
    ValidationReport,
    check_feasible,
    outcome_summary,
    player_utility,
    social_welfare,
    validate_game,
)
from .instances import (
    EdgeSpec,
    InstanceDocument,
    InstanceFormatError,
    gen_k5_cycle_instance,
    gen_poa_grid_instance,
    gen_random_instance,
    gen_ranked_instance,
    gen_torus_grid,
)
from .utility import UtilitySpec
from .verify import CheckResult, verify_reference_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
