"""permatch: matching noisy feature sets by permutation estimation.

Observation model, estimators (greedy, LSS, LSNS, LSL and variants), exact
assignment solvers, separation-rate formulas, symmetric-group packing
utilities, and a seeded Monte Carlo experiment harness with a CLI.
"""

from .assignment import (
    AssignmentSolution,
    CostMatrix,
    certify,
    solve_bruteforce,
    solve_hungarian,
)
from .estimators import (
    GREEDY,
    LSL,
    LSNS,
    LSS,
    VARIANCE_GREEDY,
    CriterionReduction,
    EstimatorKind,
    cost_general_lsl,
    cost_lsl,
    cost_lsns,
    cost_lss,
    estimate,
    estimate_greedy,
    estimate_variance_greedy,
    reduce_criterion,
)
from .harness import (
    ExperimentConfig,
    SummaryRow,
    TrialRecord,
    aggregate,
    emit,
    run_experiment,
)
from .metrics import (
    SeparationReport,
    chi2_tail_bound,
    l2_distance,
    loss_01,
    loss_hamming,
    minimax_separation_rate,
    mismatch_probability_bound,
    mismatch_probability_bound_raw,
    separation,
    separation_threshold,
    separation_threshold_conservative,
)
from .model import (
    FeatureSet,
    HypothesisRangeWarning,
    MatchInstance,
    NoiseSpec,
    Permutation,
    adversarial_pair_features,
    generate_instance,
    greedy_adversarial_instance,
    least_favorable_features,
    load_instance_csv,
    random_permutation,
    read_features_csv,
    scaled_identity_features,
    standard_gaussian,
    uniform_box_features,
    write_features_csv,
)
from .permgroup import (
    PackingResult,
    ball_cardinality,
    derangement_count,
    pack_greedy,
    separated_family,
    verify_near_identity_bound,
)

__version__ = "0.1.0"
