"""Spatial association via Bergsma's correlation.

A library and CLI for the spatial Bergsma statistic: Bergsma's U-statistic
correlation between all region pairs of a time-by-region panel, aggregated
through a spatial proximity matrix, with Monte Carlo and eigenvalue-based
asymptotic null distributions, SAR/SMA dependence simulators, bootstrap
confidence intervals, and AR pre-whitening for temporally dependent panels.

Every record exported here but ReferenceDistribution holds arrays, directly
or through another record, and compares and hashes by identity: an array
has no single truth value, so field-by-field equality could only raise.
Records hold read-only float64 copies of the arrays given, so lists work and
no caller's array is frozen; a count is an integer, not a bool, >= its bound.
"""

__version__ = "0.1.0"

from .bergsma import rho_tilde
from .depmodels import SweepResult, simulate_panel, theta_sweep
from .inference import (
    TestReport,
    bootstrap_ci,
    independence_rho_quantile,
    pairwise_screen,
    test_spatial_independence,
)
from .nulldist import (
    EigenSpectrum,
    NullDistribution,
    asymptotic_null_sample,
    monte_carlo_null,
    nystrom_eigenvalues,
    p_value,
)
from .reference import ReferenceDistribution
from .statistic import SBResult, SpatialPanel, sb_statistic, sb_values_batch
from .timeseries import ARFit, acf, fit_ar, moments, residual_panel
from .weights import (
    ProximityMatrix,
    adjacency_from_edges,
    inverse_distance,
    linear_chain,
    row_standardize,
)

__all__ = [
    "ARFit",
    "EigenSpectrum",
    "NullDistribution",
    "ProximityMatrix",
    "ReferenceDistribution",
    "SBResult",
    "SpatialPanel",
    "SweepResult",
    "TestReport",
    "acf",
    "adjacency_from_edges",
    "asymptotic_null_sample",
    "bootstrap_ci",
    "fit_ar",
    "independence_rho_quantile",
    "inverse_distance",
    "linear_chain",
    "moments",
    "monte_carlo_null",
    "nystrom_eigenvalues",
    "p_value",
    "pairwise_screen",
    "residual_panel",
    "rho_tilde",
    "row_standardize",
    "sb_statistic",
    "sb_values_batch",
    "simulate_panel",
    "test_spatial_independence",
    "theta_sweep",
]
