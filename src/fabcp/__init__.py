"""Exact FAB conformal prediction intervals with small-area information sharing.

The package computes conformal prediction intervals whose conformity
measure is the posterior predictive density of a conjugate normal working
model. The resulting intervals keep distribution-free frequentist coverage
while borrowing strength from prior information, and are computed exactly
in O(n log n). A leave-one-area-out empirical-Bayes pipeline extends the
method to many small areas with spatial structure, and a seeded Monte
Carlo harness reproduces the coverage and expected-width comparisons
against the distance-to-average conformal, pivot, and empirical-Bayes
baselines.
"""

from .baselines import (
    dta_g,
    dta_interval,
    eb_interval,
    normal_quantile,
    pivot_interval,
    student_t_quantile,
)
from .conformal import (
    ConformityMeasure,
    DTAMeasure,
    FABMeasure,
    GridRegion,
    GridSpec,
    conformal_pvalue,
    default_grid,
    grid_region,
    step_profile,
)
from .fab import SubRegion, fab_interval, fab_interval_from_precision, g_map, sub_regions
from .intervals import PredictionInterval
from .simulate import (
    SimConfig,
    SimReport,
    SimRow,
    bayes_risk_ratio,
    bounds_profile,
    coverage_experiment,
    expected_width,
    sample_population,
)
from .small_area import (
    AreaConformalParams,
    AreaPrediction,
    AreaTable,
    EstimationError,
    MeanModelFit,
    area_pipeline,
    conditional_params,
    eb_variances,
    estimate_ab,
    exact_alpha,
    fit_mean_model,
    generate_table,
    sar_covariance,
    sq_exp_weights,
)
from .working_model import (
    PosteriorPredictive,
    WorkingModelParams,
    log_predictive_density,
    posterior_mean_theta,
    posterior_params,
    predictive_density,
)

__version__ = "0.1.0"
