"""SMA / SAR spatially dependent panel simulators and theta sweeps.

    SMA:  y_t = (I + theta W) eps_t
    SAR:  y_t = (I - theta W)^{-1} eps_t

with i.i.d. noise rows eps_t, so the temporal i.i.d. assumption behind the
asymptotics is preserved.  A model is (model, theta, W) everywhere; theta = 0
is the null case of no spatial association.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .bergsma import check_count, check_time_points, frozen_array
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


def dependence_maps(model: str, thetas, W: ProximityMatrix) -> list:
    """The R x R map M with y_t = M eps_t of each theta: I + theta W for SMA,
    (I - theta W)^{-1} for SAR, and None at theta = 0, the raw noise bit for bit.

    Each theta must be a real, finite number, and SAR needs |theta| <
    1/spectral_radius(W).  Every map is checked here, before any noise is
    drawn: a numerically singular I - theta W raises, and a badly conditioned
    one warns, naming the line that called simulate_panel or theta_sweep.
    """
    if model not in ("SMA", "SAR"):
        raise InvalidParameterError(f"model must be SMA or SAR, got {model!r}")
    checked = []
    for theta in thetas:
        if isinstance(theta, bool) or not isinstance(theta, Real) or not math.isfinite(theta):
            raise InvalidParameterError(f"theta must be a real, finite number, got {theta!r}")
        checked.append(float(theta))
    if model == "SAR" and any(checked):
        # a row-stochastic W has the all-ones eigenvector, eigenvalue exactly 1
        radius = 1.0 if W.standardized else np.max(np.abs(np.linalg.eigvals(W.weights)))
        for theta in checked:
            if abs(theta) * radius >= 1.0:
                raise InvalidParameterError(f"SAR needs |theta| < 1/spectral_radius(W) = "
                                            f"{1.0/radius:.6g}, got theta = {theta}")
    I, maps = np.eye(W.n_regions), []
    # a loop, not a comprehension: on Python 3.10 and 3.11 a comprehension is
    # a frame of its own, which the warning's frame count would include
    for theta in checked:
        if theta == 0.0:
            maps.append(None)
        elif model == "SMA":
            maps.append(I + theta * W.weights)
        else:
            A = I - theta * W.weights
            cond = np.linalg.cond(A)
            where = f"(theta = {theta}, condition {cond:.3g})"
            if cond > _COND_LIMIT:
                raise SingularSystemError(f"I - theta W is numerically singular {where}")
            if cond > _COND_WARN:
                # this frame, simulate_panel or theta_sweep, then their caller
                warnings.warn(f"I - theta W is badly conditioned {where}", RuntimeWarning,
                              stacklevel=3)
            maps.append(np.linalg.inv(A))
    return maps


def sb_replicates(maps, W: ProximityMatrix, noise: ReferenceDistribution,
                  T: int, reps: int, seed: int, n_jobs: int = 1) -> np.ndarray:
    """S~_B of replicates 0..reps-1 under each :func:`dependence_maps` map M,
    shape (len(maps), reps).

    Replicate r's noise is one ``noise.sample((T, R))`` draw from stream
    (seed, r); each range of :func:`sbergsma.statistic.replicate_values` draws
    it once and maps it as ``eps @ M.T`` for every M, or keeps it at M = None
    (common random numbers), so ``[None]`` is the Monte Carlo null.  A range
    holds 2 T R doubles a replicate, noise and one mapped copy, within the
    batch byte budget: 20 replicates on 2 threads are two ranges of 10.
    """
    def values(lo, hi):
        # filled in place, so the range's noise is held once
        eps = np.empty((hi - lo, T, W.n_regions))
        for i in range(hi - lo):
            eps[i] = noise.sample((T, W.n_regions), stream(seed, lo + i))
        return np.stack([sb_values_batch(eps if M is None else eps @ M.T, W) for M in maps])

    return replicate_values(values, reps, 2 * T * W.n_regions * 8, n_jobs)


def simulate_panel(model: str, theta: float, W: ProximityMatrix, T: int, seed: int = 0,
                   noise: ReferenceDistribution = STANDARD_NORMAL) -> SpatialPanel:
    """Draw a T x R panel with rows i.i.d. under the model; no column may be constant."""
    check_time_points(T)
    (M,) = dependence_maps(model, [theta], W)
    eps = noise.sample((T, W.n_regions), stream(seed))
    y = eps if M is None else eps @ M.T
    flat = [name for name, col in zip(W.region_labels, y.T) if np.ptp(col) == 0]
    if flat:
        raise DegenerateRegionError(f"simulated panel has constant columns: {', '.join(flat)}")
    return SpatialPanel(y, W.region_labels)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-theta S~_B samples and moment summaries from a sweep, each dict keyed
    by theta in the order the thetas were given."""

    model: str
    samples: dict  # theta -> read-only np.ndarray of S~_B values
    summaries: dict = field(default_factory=dict)  # theta -> (mean, sd, skew, kurt)

    def __post_init__(self):
        object.__setattr__(self, "samples", {
            theta: frozen_array(v, 1, f"samples at theta = {theta}")
            for theta, v in self.samples.items()})


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
    check_count(reps, "reps", 4, SampleSizeError)  # for moment summaries
    check_time_points(T)
    thetas = tuple(thetas)
    if not thetas:
        raise InvalidParameterError("need at least one theta")
    maps = dependence_maps(model, thetas, W)
    thetas = tuple(map(float, thetas))
    if len(set(thetas)) != len(thetas):
        raise InvalidParameterError(f"thetas must be distinct, got {thetas}")
    samples = dict(zip(thetas, sb_replicates(maps, W, noise, T, reps, seed, n_jobs)))
    summaries = {theta: moments(vals) for theta, vals in samples.items()}
    return SweepResult(model, samples, summaries)
