"""Variance-components estimation in linear random-effects models, exact
quadratic-form moment algebra, and a seeded Monte Carlo verification harness."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateDataError,
    NonIdentifiableError,
    NumericalError,
    TailGridError,
    UnsupportedLawError,
    VcompError,
)
from .laws import (
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    SeedSpec,
    SubGaussianLaw,
    law_by_name,
    sample_vector,
)
from .spectrum import (
    GramSpectrum,
    decompose_gram,
    eigvar,
)
from .qform import (
    QuadraticForm,
    WVector,
    build_w,
    napprox_rate,
    qf_covariance,
    qf_variance,
    sigma_k_sq,
)
from .model import (
    CouplingSpec,
    Dataset,
    DesignSpec,
    ModelParams,
    gen_coupled,
    gen_design,
    gen_independent,
    save_dataset,
)
from .estimator import (
    FitOptions,
    FitResult,
    ScoreState,
    asymptotic_cov,
    expected_hessian,
    expected_hessian_det,
    fit_mle,
    gaussian_fisher,
    hessian,
    loglik,
    pop_profile_loglik,
    pop_profile_score,
    pop_profile_score_moment,
    profile_loglik,
    profile_score,
    score,
    score_covariance,
    sigma0_sq_of,
    sigma_star_sq,
)
from .experiments import (
    ExperimentPlan,
    ExperimentReport,
    SmoothTestFn,
    run_consistency,
    run_coupling,
    run_experiment,
    run_normality,
    run_stein,
    run_tail,
    tanh_product,
)
