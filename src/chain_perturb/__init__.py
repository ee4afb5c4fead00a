"""Coupling-based closeness certificates for finite Markov chains and their approximations.

Given a kernel and a nearby approximating kernel, this package computes their
closeness constants exactly, builds the minimum-overlap coupling together
with its dominating two-state chain, evaluates every closed-form bound those
constants imply, and verifies the bounds empirically by simulation.  It also
ships the two-state family attaining the averaged-law bound with equality and
a Gibbs-sampler application where the approximating kernel comes from a
low-rank Gram matrix truncation.
"""

__version__ = "0.1.0"

from .errors import DimensionMismatchError, InvalidRegimeError, NumericalFailureError
from .kernels import (
    FiniteKernel,
    ProbDist,
    StateFunction,
    as_dist,
    as_kernel,
    as_state_function,
    cross_doeblin_constant,
    doeblin_constant,
    f_star_norm,
    invariant_measure,
    kernel_from_json,
    local_epsilon,
    n_step_average_law,
    tv_distance,
)
from .bounds import (
    BoundParams,
    BoundReport,
    avg_disagreement_bound,
    base_concentration_bound,
    base_concentration_threshold,
    coupled_concentration_bound,
    coupled_concentration_threshold,
    coupled_variance_bound,
    decoupling_time_bound,
    evaluate_report_table,
    remark_perturbation_bounds,
    remark_tail_threshold,
    stationary_gap_bound,
    variance_of_time_average_bound,
)
from .coupling import (
    CoupledBatch,
    iter_coupled_batches,
    product_kernel_row,
)
from .montecarlo import (
    ExperimentConfig,
    StoppingRule,
    VerificationResult,
    closeness_params,
    empirical_average_difference,
    empirical_base_tail,
    empirical_decoupling,
    empirical_disagreement,
    empirical_path_law_distance,
    empirical_tail,
    expected_hitting_time,
    initial_disagreement_prob,
    run_experiments,
)
from .sharpness import (
    base_matrix,
    kernel_pair,
    perturbed_matrix,
    tightness_table,
)
from .gp_mcmc import (
    GPConfig,
    SweepRow,
    config_snapshot,
    figure_sweep,
    generate_data,
    gram_matrix,
    lowrank_log_table,
    squared_distances,
)
