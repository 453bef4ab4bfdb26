"""Generalization-bound calculators and Monte Carlo validators for finite learning problems.

The package computes, on exactly solvable finite problems, a family of
compressibility, rate-distortion, PAC-Bayes and trajectory-based
generalization bounds, and validates each bound's probabilistic guarantee
(tail violation rate, in-expectation domination, 1/n scaling) against exact
ground truth.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    fixed_size_bound,
    pac_bayes_eq22,
    prop5_bound,
    rd_tail_bound,
    reconstruct_bound,
    seeger_fast_rate_bound,
    thm1_bound,
    thm5_expectation_bound,
    toy_example_bound,
)
from .counterexample import (
    ScoInstance,
    assemble_bound,
    bad_coord_stats,
    quantize_w,
    run_gd,
    scaling_study,
)
from .info import (
    Channel,
    Joint,
    Pmf,
    binary_kl,
    binary_kl_inverse,
    binary_kl_inverse_cap,
    entropy,
    gdelta_sup,
    kl_divergence,
    mutual_information,
    renyi_divergence,
)
from .learning import (
    Dataset,
    FiniteLearningProblem,
    GibbsAlgorithm,
    induced_joint,
    sample_dataset,
)
from .ratedistortion import (
    DistortionSpec,
    RdSolution,
    blahut_arimoto,
    rd_curve,
    rd_dimension,
    rd_gen,
)
from .trajectory import (
    LogisticToy,
    QuadraticToy,
    estimate_M,
    gen_trajectory,
    lr_sweep,
    simulate_trajectory,
    thm7_bound,
    thm8_bound,
)
from .validation import (
    ValidationReport,
    covering_failure_estimate,
    mc_expectation_validate,
    mc_tail_validate,
)
