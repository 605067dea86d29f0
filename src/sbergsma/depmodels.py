"""SMA / SAR spatially dependent panel simulators and theta sweeps.

    SMA:  y = (I + theta W) eps
    SAR:  y = (I - theta W)^{-1} eps

with row-standardized W and i.i.d. noise rows over time, so the temporal
i.i.d. assumption behind the asymptotics is preserved; theta = 0 is the null
case of no spatial association.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    DegenerateRegionError,
    InvalidParameterError,
    SampleSizeError,
    SingularSystemError,
)
from .reference import STANDARD_NORMAL, ReferenceDistribution
from .rng import stream
from .statistic import SpatialPanel, replicate_values, sb_values_batch
from .timeseries import moments
from .weights import ProximityMatrix

_COND_LIMIT = 1e12
_COND_WARN = 1e3


def _spectral_radius(W: ProximityMatrix) -> float:
    if W.standardized:
        # the all-ones vector is an eigenvector with eigenvalue exactly 1
        return 1.0
    return float(np.max(np.abs(np.linalg.eigvals(W.weights))))


@dataclass(frozen=True)
class DependenceSpec:
    """Model family, dependence strength and ingredients of one simulator."""

    model: str  # "SMA" | "SAR"
    theta: float
    W: ProximityMatrix
    noise: ReferenceDistribution = STANDARD_NORMAL

    def __post_init__(self):
        if self.model not in ("SMA", "SAR"):
            raise InvalidParameterError(f"model must be SMA or SAR, got {self.model!r}")
        if not np.isfinite(self.theta):
            raise InvalidParameterError("theta must be finite")
        if self.model == "SAR":
            radius = _spectral_radius(self.W)
            if abs(self.theta) * radius >= 1.0:
                raise InvalidParameterError(
                    f"SAR needs |theta| < 1/spectral_radius(W) = {1.0/radius:.6g}, "
                    f"got theta = {self.theta}"
                )

    @cached_property
    def matrix(self) -> np.ndarray:
        """R x R map M with y_t = M eps_t, built on first use.

        I + theta W for SMA; (I - theta W)^{-1} for SAR, after a conditioning
        check that raises if I - theta W is numerically singular and warns if
        it is badly conditioned.
        """
        I = np.eye(self.W.n_regions)
        if self.model == "SMA":
            return I + self.theta * self.W.weights
        A = I - self.theta * self.W.weights
        cond = np.linalg.cond(A)
        if cond > _COND_LIMIT:
            raise SingularSystemError(
                f"I - theta W is numerically singular (theta = {self.theta}, "
                f"condition {cond:.3g})"
            )
        if cond > _COND_WARN:
            warnings.warn(
                f"I - theta W is badly conditioned (theta = {self.theta}, "
                f"condition {cond:.3g})",
                RuntimeWarning,
                stacklevel=3,
            )
        return np.linalg.inv(A)


def _apply_dependence(spec: DependenceSpec, eps: np.ndarray) -> np.ndarray:
    """Transform noise rows eps (..., T, R) by the SMA or SAR model of spec."""
    if spec.theta == 0.0:
        return eps  # bitwise-identical to the raw noise draw
    return eps @ spec.matrix.T


def sb_replicates(model: str, thetas, W: ProximityMatrix, noise: ReferenceDistribution,
                  T: int, reps: int, seed: int, n_jobs: int = 1) -> np.ndarray:
    """S~_B of replicates 0..reps-1 under each theta, shape (len(thetas), reps).

    Replicate r's noise is one ``noise.sample((T, R))`` draw from stream
    (seed, r); each range of :func:`sbergsma.statistic.replicate_values` draws
    its noise once and maps it by the ``model`` of every theta (common random
    numbers), so theta = 0 gives the Monte Carlo null.  No value depends on
    ``n_jobs`` or on where ranges start and end, so each thread gets a range:
    20 replicates on 2 threads are two ranges of 10.
    """
    specs = [DependenceSpec(model, theta, W, noise) for theta in thetas]
    for spec in specs:
        spec.matrix  # builds each map, and checks SAR conditioning, before any draw

    def values(lo, hi):
        # filled in place, so the range's noise is held once
        eps = np.empty((hi - lo, T, W.n_regions))
        for i in range(hi - lo):
            eps[i] = noise.sample((T, W.n_regions), stream(seed, lo + i))
        return np.stack([sb_values_batch(_apply_dependence(spec, eps), W) for spec in specs])

    return replicate_values(values, reps, n_jobs, size=None)


def simulate_panel(spec: DependenceSpec, T: int, seed: int = 0) -> SpatialPanel:
    """Draw a T x R panel with rows i.i.d. under the model; no column may be constant."""
    if T < 3:
        raise InvalidParameterError(f"need T >= 3, got {T}")
    eps = spec.noise.sample((T, spec.W.n_regions), stream(seed))
    y = _apply_dependence(spec, eps)
    flat = [name for name, col in zip(spec.W.region_labels, y.T) if np.ptp(col) == 0]
    if flat:
        raise DegenerateRegionError(f"simulated panel has constant columns: {', '.join(flat)}")
    return SpatialPanel(y, spec.W.region_labels)


@dataclass(frozen=True)
class SweepResult:
    """Per-theta S~_B samples and moment summaries from a sweep, each dict keyed
    by theta in the order the thetas were given."""

    model: str
    samples: dict  # theta -> np.ndarray of S~_B values
    summaries: dict = field(default_factory=dict)  # theta -> (mean, sd, skew, kurt)


def theta_sweep(
    model: str,
    W: ProximityMatrix,
    thetas,
    T: int,
    reps: int = 2000,
    seed: int = 0,
    noise: ReferenceDistribution = STANDARD_NORMAL,
    n_jobs: int = 1,
) -> SweepResult:
    """reps independent panels per theta, each reduced to its S~_B value.

    Replicate r draws its noise from stream (seed, r) once and reuses it for
    every theta (common random numbers), so per-theta means are compared on
    shared noise and the theta = 0 samples coincide bitwise with a Monte
    Carlo null run at the same seed, up to the T scaling.  Replicates run on
    ``n_jobs`` threads; no value depends on it.
    """
    if reps < 4:
        raise SampleSizeError(f"need reps >= 4 for moment summaries, got {reps}")
    if T < 3:
        raise InvalidParameterError(f"need T >= 3, got {T}")
    thetas = tuple(float(t) for t in thetas)
    if not thetas:
        raise InvalidParameterError("need at least one theta")
    if len(set(thetas)) != len(thetas):
        raise InvalidParameterError(f"thetas must be distinct, got {thetas}")
    samples = dict(zip(thetas, sb_replicates(model, thetas, W, noise, T, reps, seed, n_jobs)))
    summaries = {theta: moments(vals) for theta, vals in samples.items()}
    return SweepResult(model, samples, summaries)
