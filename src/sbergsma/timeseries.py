"""Temporal pre-whitening and diagnostics.

Per-region AR(p) fits by least squares (QR), residual panel assembly, sample
autocorrelation with the 95% white-noise band, and moment summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bergsma import check_count, frozen_array
from .exceptions import (
    LagError,
    RankDeficientError,
    SampleSizeError,
    ShortSeriesError,
)
from .statistic import SpatialPanel


@dataclass(frozen=True, eq=False)
class ARFit:
    """One region's AR(p) fit: intercept-first coefficients and residuals."""

    coefficients: np.ndarray  # beta_0 (intercept), beta_1, ..., beta_p
    residuals: np.ndarray  # length T - p, aligned to times p+1..T

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           frozen_array(self.coefficients, 1, "AR coefficients"))
        object.__setattr__(self, "residuals", frozen_array(self.residuals, 1, "AR residuals"))


def fit_ar(series, p: int) -> ARFit:
    """OLS fit of x_t on an intercept and its first p lags.

    Requires T > 2p + 2 so the design is comfortably overdetermined; rank
    deficiency (e.g. a constant series, whose lags are collinear with the
    intercept) raises rather than silently pseudo-inverting.
    """
    x = frozen_array(series, 1, "series")
    check_count(p, "p", 1, ShortSeriesError)
    T = x.size
    if T <= 2 * p + 2:
        raise ShortSeriesError(f"need T > 2p + 2 = {2*p+2}, got T = {T}")
    y = x[p:]
    X = np.column_stack([np.ones(T - p)] + [x[p - k : T - k] for k in range(1, p + 1)])
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diagonal(r))
    if np.any(diag < 1e-10 * max(diag.max(), 1.0)):
        raise RankDeficientError(f"collinear AR design (order {p})")
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    return ARFit(beta, resid)


def residual_panel(panel: SpatialPanel, p: int) -> SpatialPanel:
    """Columnwise AR(p) residuals assembled into a (T - p) x R panel."""
    cols = []
    for i, label in enumerate(panel.region_labels):
        try:
            cols.append(fit_ar(panel.data[:, i], p).residuals)
        except (RankDeficientError, ShortSeriesError) as err:
            raise type(err)(f"region {label}: {err}") from err
    return SpatialPanel(np.column_stack(cols), panel.region_labels)


def acf(series, max_lag: int):
    """Sample autocorrelations for lags 0..max_lag and the 95% band.

    Returns ``(values, threshold)`` with threshold = 1.96 / sqrt(T).
    """
    x = frozen_array(series, 1, "series")
    check_count(max_lag, "max_lag", 0, LagError)
    T = x.size
    if max_lag >= T:
        raise LagError(f"need 0 <= max_lag < T = {T}, got {max_lag}")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise SampleSizeError("constant series has no autocorrelation")
    vals = np.array([1.0] + [float(xc[k:] @ xc[:-k]) / denom for k in range(1, max_lag + 1)])
    return vals, 1.96 / np.sqrt(T)


def moments(samples):
    """(mean, sd, skewness, kurtosis) with raw (non-excess) kurtosis.

    A normal sample has kurtosis near 3.
    """
    x = frozen_array(samples, 1, "sample")
    if x.size < 4:
        raise SampleSizeError(f"need at least 4 samples, got {x.size}")
    m = x.mean()
    d = x - m
    m2 = float(np.mean(d**2))
    if m2 == 0.0:
        raise SampleSizeError("constant sample has undefined skewness/kurtosis")
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    return m, np.sqrt(m2), m3 / m2**1.5, m4 / m2**2
