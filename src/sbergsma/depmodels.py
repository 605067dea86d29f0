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

import numpy as np
from scipy import linalg

from .exceptions import InvalidParameterError, SingularSystemError
from .reference import STANDARD_NORMAL, ReferenceDistribution
from .rng import replicate_draws, stream
from .statistic import SpatialPanel, sb_values_batch
from .timeseries import moments
from .weights import ProximityMatrix

_COND_LIMIT = 1e12
_COND_WARN = 1e3

#: noise replicates a theta sweep draws at once; results do not depend on it
_CHUNK = 200


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


def _sar_lu(spec: DependenceSpec):
    """LU factorization of I - theta W, checked for conditioning."""
    A = np.eye(spec.W.n_regions) - spec.theta * spec.W.weights
    cond = np.linalg.cond(A)
    if cond > _COND_LIMIT:
        raise SingularSystemError(
            f"I - theta W is numerically singular (theta = {spec.theta}, "
            f"condition {cond:.3g})"
        )
    if cond > _COND_WARN:
        warnings.warn(
            f"I - theta W is badly conditioned (theta = {spec.theta}, "
            f"condition {cond:.3g})",
            RuntimeWarning,
            stacklevel=3,
        )
    return linalg.lu_factor(A)


def _apply_dependence(spec: DependenceSpec, eps: np.ndarray, lu=None) -> np.ndarray:
    """Transform noise rows eps (..., T, R) by the SMA or SAR model of spec.

    ``lu`` is a precomputed :func:`_sar_lu` factor, reused across calls.
    """
    if spec.theta == 0.0:
        return eps  # bitwise-identical to the raw noise draw
    R = spec.W.n_regions
    if spec.model == "SMA":
        return eps @ (np.eye(R) + spec.theta * spec.W.weights).T
    if lu is None:
        lu = _sar_lu(spec)
    return linalg.lu_solve(lu, eps.reshape(-1, R).T).T.reshape(eps.shape)


def simulate_panel(spec: DependenceSpec, T: int, seed: int = 0) -> SpatialPanel:
    """Draw a T x R panel with rows i.i.d. under the chosen dependence model."""
    if T < 3:
        raise InvalidParameterError(f"need T >= 3, got {T}")
    eps = spec.noise.sample((T, spec.W.n_regions), stream(seed))
    return SpatialPanel(_apply_dependence(spec, eps), spec.W.region_labels)


@dataclass(frozen=True)
class SweepResult:
    """Per-theta S~_B samples and moment summaries from a sweep."""

    model: str
    thetas: tuple[float, ...]
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
) -> SweepResult:
    """reps independent panels per theta, each reduced to its S~_B value.

    Replicate r draws its noise from stream (seed, r) once and reuses it for
    every theta (common random numbers), so per-theta means are compared on
    shared noise and the theta = 0 samples coincide bitwise with a Monte
    Carlo null run at the same seed, up to the T scaling.
    """
    thetas = tuple(float(t) for t in thetas)
    specs = [DependenceSpec(model, theta, W, noise) for theta in thetas]
    lus = [_sar_lu(s) if model == "SAR" and s.theta != 0.0 else None for s in specs]
    samples = {theta: np.empty(reps) for theta in thetas}
    for lo in range(0, reps, _CHUNK):
        hi = min(lo + _CHUNK, reps)
        eps = replicate_draws(noise, (T, W.n_regions), seed, lo, hi)
        for spec, lu in zip(specs, lus):
            panels = _apply_dependence(spec, eps, lu)
            samples[spec.theta][lo:hi] = sb_values_batch(panels, W)
    summaries = {theta: moments(vals) for theta, vals in samples.items()}
    return SweepResult(model, thetas, samples, summaries)
