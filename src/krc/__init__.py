"""Dynamic ranking from timestamped pairwise comparisons.

Scores are the stationary distribution of a comparison chain whose
off-diagonal entries are kernel-smoothed win fractions, evaluated at any
time of interest.  The package also provides exact online updating of the
scores via group-inverse rank-one formulas, asymptotic confidence
intervals, classical baselines (static rank centrality and pooled and
kernel-weighted maximum likelihood, with Elo as a walk-forward method of
the season backtest), a simulator with known ground truth, and experiment
drivers behind a CLI.
"""

from .baselines import (
    EloConfig,
    MMConfig,
    bt_mle_mm,
    elo_expected,
    static_rank_centrality,
    wmle,
)
from .data import (
    ComparisonDataset,
    ComparisonRecord,
    ConnectivityReport,
    TimeEncoding,
    check_strong_connectivity,
    ingest_csv,
    season_of_time,
)
from .errors import (
    ConnectivityError,
    ConvergenceError,
    DataFormatError,
    EstimationError,
    InferenceError,
    KrcError,
    RosterError,
    UpdateBreakdownError,
)
from .estimator import (
    ScoreVector,
    TransitionMatrix,
    build_ideal_transition,
    default_teleport,
    estimate_curve,
    fit_scores,
    regularize,
    stationary,
)
from .experiments import (
    BacktestReport,
    BenchRow,
    CoverageReport,
    MetricReport,
    SeasonResult,
    SweepCell,
    SweepTable,
    backtest,
    bandwidth_sweep,
    coverage_experiment,
    evaluate_metrics,
    metric_grid,
    timing_bench,
)
from .inference import (
    AsymptoticParams,
    DiagonalApproxGroupInverse,
    ExpansionReport,
    IntervalEstimate,
    diagonal_approx_error,
    diagonal_group_inverse_approx,
    expansion_diagnostic,
    normal_quantile,
    oracle_beta,
    pairwise_win_ci,
    plug_in_alpha,
    score_ci,
)
from .kernels import BOXCAR, EPANECHNIKOV, GAUSSIAN, Kernel, kernel_by_name
from .online import (
    GroupInverse,
    OnlineState,
    apply_observation,
    group_inverse,
    group_inverse_residuals,
    rank_one_update,
    refresh,
)
from .simulate import (
    GroundTruth,
    SimConfig,
    export_truth_csv,
    generate,
    generate_season_dataset,
    truth_probability,
)

__version__ = "0.1.0"
