"""Wasserstein perturbation bounds for Markov chains.

Exact Wasserstein-1 machinery on finite metric spaces, ergodicity and
drift estimation for finite kernels, the perturbation bounds themselves,
and three worked model families (AR(1), approximate Metropolis-Hastings,
noisy Langevin for Gibbs random fields).
"""

from .errors import (
    ConfigError,
    HypothesisViolation,
    NoContractionError,
    NonUniqueStationaryError,
    SpaceMismatchError,
)
from .otcore import (
    Coupling,
    DiscreteDistribution,
    FiniteMetricSpace,
    WeightFunction,
    dv_metric,
    empirical_w1_1d,
    line_metric,
    point_mass,
    total_variation,
    trivial_metric,
    vnorm_distance,
    wasserstein1_exact,
)
from .kernels import (
    DriftCheck,
    DriftEstimate,
    ErgodicityEstimate,
    FiniteKernel,
    compose,
    evolve,
    fit_drift_L,
    fit_geometric_constants,
    kernel_gamma_tv,
    kernel_gamma_vnorm,
    kernel_gamma_wasserstein,
    stationary_distribution,
    tau,
    tau_v,
    trajectory,
    verify_drift,
)
from .bounds import (
    WHICH_CHOICES,
    BoundInputs,
    PerturbationReport,
    geom2_bound,
    geom3_bound,
    geom3_stationary_bound,
    geom4_bound,
    kappa,
    stationary_wasserstein_bound,
    thm31_bound,
    verify_on_finite,
)
from .ar1 import (
    Ar1BoundReport,
    Ar1CoupledSim,
    Ar1Params,
    Innovation,
    ar1_constants,
    ar1_gaussian_stationary_w1,
    ar1_kappa,
    ar1_nstep_bound,
    ar1_report,
    ar1_simulate_coupled,
    ar1_stationary_bound,
    ar1_stationary_lower_bound,
    ar1_tv_final_bound,
    ar1_tv_gamma,
    gaussian_abs_mean,
)
from .mh import (
    AcceptancePerturbation,
    FiniteMhProblem,
    MetroGeomConstants,
    MhProblem,
    Proposal,
    approx_mh_step,
    delta_v_transfer,
    finite_mh_acceptance,
    finite_mh_kernel,
    gamma_from_acceptance,
    independent_mh_perturbation_bound,
    lambda_constant,
    metro_geom_bound,
    mh_metro_geom_report,
    mh_step,
)
from .cli import (
    ExperimentConfig,
    generate_random_instance,
    load_config,
    run,
)
from .langevin import (
    GibbsModel,
    LangevinDriftReport,
    LangevinParams,
    empirical_tv_binned,
    grad_log_posterior,
    langevin_drift_check,
    langevin_drift_constants,
    langevin_final_bound,
    langevin_simulate_pair,
    langevin_step,
    langevin_tv_perturbation_bound,
    langevin_update,
    likelihood_mean_s,
    noisy_grad,
)

__version__ = "0.1.0"
