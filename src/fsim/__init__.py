"""Estimation of the link function, its curvature, and the coefficient function
in functional single index models.

The model is y = g(integral of x(t) beta(t) dt) + noise with both the link g
and the coefficient function beta unknown.  Estimation nests a local quadratic
kernel smoother (for g, g', g'') inside a derivative-free search over the
basis coefficients of beta, with cross-validated bandwidths and a power-law
bandwidth rescale for the curvature target.
"""

from .bandwidth import (
    BandwidthGrid,
    CVReport,
    SelectionError,
    curvature_bandwidth,
    fit_pipeline,
    fit_pipelines,
    gcv_score,
    kfold_score,
    select_bandwidth,
)
from .basis import BasisExpansion, FourierBasis, inner_product, project_samples
from .ingest import EcologyRecord, EcologyTruth, load_csv, synth_ecology, to_dataset
from .kernel import kernel_moment, smooth_kernel
from .locfit import (
    EstimationError,
    LocalQuadFit,
    SingularFitError,
    curve_estimates,
    local_quad_fit,
    nw_loo_all,
    nw_predict,
    smoother_matrix,
)
from .model import (
    Dataset,
    DegenerateObjectiveError,
    FunctionalBlock,
    IndexModelSpec,
    NormalizationError,
    ObjectiveReport,
    canonical_sign,
    compute_index,
    objective_loo_mse,
    spec_from_raw,
)
from .optimize import InitStrategy, OptResult, init_equal, init_linear, init_random, minimize
from .simulate import (
    LINKS,
    ExperimentConfig,
    GroundTruth,
    SimScenario,
    generate,
    rase,
    rse,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthGrid", "CVReport", "SelectionError", "curvature_bandwidth",
    "fit_pipeline", "fit_pipelines", "gcv_score", "kfold_score", "select_bandwidth",
    "BasisExpansion", "FourierBasis", "inner_product", "project_samples",
    "EcologyRecord", "EcologyTruth", "load_csv", "synth_ecology", "to_dataset",
    "kernel_moment", "smooth_kernel",
    "EstimationError", "LocalQuadFit", "SingularFitError", "curve_estimates",
    "local_quad_fit", "nw_loo_all", "nw_predict", "smoother_matrix",
    "Dataset", "DegenerateObjectiveError", "FunctionalBlock", "IndexModelSpec",
    "NormalizationError", "ObjectiveReport", "canonical_sign", "compute_index",
    "objective_loo_mse", "spec_from_raw",
    "InitStrategy", "OptResult", "init_equal", "init_linear",
    "init_random", "minimize",
    "LINKS", "ExperimentConfig", "GroundTruth", "SimScenario", "generate",
    "rase", "rse", "run_experiment",
    "__version__",
]
