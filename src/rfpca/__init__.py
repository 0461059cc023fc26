"""Robust functional principal components for sparse longitudinal data.

Fits reduced-rank models with spline mean and component functions to
irregularly sampled curves under a multivariate t likelihood, so that
outlying trajectories are automatically downweighted. Includes dimension
selection, outlier diagnostics, asymptotic confidence bands for the mean,
and a Monte Carlo study harness.
"""

from .basis import SplineBasis, build_basis
from .diagnostics import (
    CurveDiagnostics,
    MeanInference,
    curve_diagnostics,
    g_weight,
    mean_confidence_band,
    mean_covariance,
)
from .errors import (
    ConditioningError,
    CsvParseError,
    DegenerateFitError,
    DimensionMismatchError,
    InvalidDomainError,
    InvalidInputError,
    InvalidParamsError,
    NumericalOverflowError,
    OutOfDomainError,
    RfpcaError,
    UnsupportedOrderError,
)
from .model import (
    Curves,
    Dataset,
    FitResult,
    ModelConfig,
    ModelParams,
    Trajectory,
    em_step,
    estimating_equation_residuals,
    fit,
    fit_from,
    log_likelihood,
    sigma_solve,
)
from .selection import (
    SelectionError,
    SelectionReport,
    cross_validate,
    degrees_of_freedom,
    select_dimension,
)
from .simulate import (
    Contamination,
    GridDesign,
    MonteCarloStudy,
    SimulationRecord,
    StudyScenario,
    TrueModel,
    doppler_phi3,
    error_norms,
    l2_error,
    monte_carlo,
    simulate_dataset,
)

__version__ = "0.1.0"
