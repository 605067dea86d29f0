"""Null distribution of T * S~_B under spatial pairwise independence.

Two generation routes:

* ``monte_carlo_null``  -- simulate i.i.d. panels and recompute the statistic;
* ``asymptotic_null_sample`` -- draw from the weighted-chi-square limit

      T S~_B  ->D  (1/S0) sum_{i<j} (w_ij + w_ji)
                   * sum_{k,l} lam_k^(i) lam_l^(j) (Z_{ik,jl}^2 - 1)
                     / sqrt( sum_k (lam_k^(i))^2 * sum_l (lam_l^(j))^2 ),

  with all Z i.i.d. standard normal, using the leading eigenvalues of the
  population kernel on an equal-probability-mass grid (Nystrom), by Lanczos
  on a matrix-free product, checked against its trace and square sum.  The sum
  is one law Q, whose CDF is tabulated once from its characteristic function,
  with the small weights made one normal (Lindsay, Pilla & Basak 2000).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bergsma import check_time_points
from .depmodels import sb_replicates
from .exceptions import (
    ConvergenceError,
    DegenerateRegionError,
    EmptyNullError,
    InvalidParameterError,
    NonFiniteError,
    SizeError,
    SpectraMismatchError,
)
from .reference import ReferenceDistribution
from .rng import stream
from .weights import ProximityMatrix

#: relative tolerance for the Nystrom trace / squared-trace consistency checks
TRACE_TOL = 0.02
#: midpoint grid size of the mean behind the squared-trace target; twice as
#: many points move it by under 1e-7 relative, far inside TRACE_TOL
_CHECK_GRID = 2**15
#: Ritz residual, relative to the top Ritz value, below which Lanczos stops
_RITZ_TOL = 1e-13

#: weights of the limit law kept exactly, the largest in magnitude; the rest
#: become one normal
_KEEP = 100
#: probability mass the CDF table may leave beyond each end of its grid
_TAIL_MASS = 1e-12
#: grid sizes a CDF table may take, and its target truncation error
_GRIDS = 2 ** np.arange(14, 21)
_TRUNC_TOL = 1e-7
#: (t, c) entries of log phi computed at once
_PHI_BLOCK = 2**18


@dataclass(frozen=True)
class EigenSpectrum:
    """Leading eigenvalues of the population kernel operator for one F."""

    eigenvalues: np.ndarray  # K values, decreasing by magnitude

    def __post_init__(self):
        if self.eigenvalues.size == 0:
            raise SizeError("an eigen spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(self.eigenvalues)):
            raise NonFiniteError("eigen spectrum has NaN or infinite eigenvalues")
        if not np.any(self.eigenvalues):
            raise DegenerateRegionError("eigen spectrum is all zero: the law's kernel vanishes")
        self.eigenvalues.setflags(write=False)


@dataclass(frozen=True)
class NullDistribution:
    """Sampled law of T * S~_B under the independence null.  ``meta`` holds only
    diagnostics the draw computed, not the arguments it was drawn from."""

    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples)):
            raise NonFiniteError("null distribution has NaN or infinite samples")
        self.samples.setflags(write=False)


def nystrom_eigenvalues(dist: ReferenceDistribution, K: int = 100, m: int = 2000) -> EigenSpectrum:
    """Approximate the K leading kernel-operator eigenvalues on an m-point grid.

    The grid places equal probability mass 1/m at inverse-CDF midpoints, so
    the discretized operator is the symmetric matrix h_F(x_a, x_b) / m whose
    eigenvalues estimate the operator spectrum directly.  The K leading ones
    come from Lanczos iteration on v -> H v in O(m) (:func:`_top_eigenvalues`),
    with no m x m matrix: at K = 100, m = 2000 any law takes about 60 ms and
    peaks near 4 MiB in tracemalloc, on 1 or 2 BLAS threads with the same bits.
    Two checks guard against a too-coarse grid or too small a K, each within
    2%: the eigenvalue sum must match the trace g(F)/2 and the square sum
    E h_F(Z1, Z2)^2.  A failed or NaN comparison raises ConvergenceError.  No
    random numbers are drawn; the spectrum is read-only.
    """
    if K < 1 or K > m:
        raise InvalidParameterError(f"need 1 <= K <= m, got K={K}, m={m}")
    lam = _top_eigenvalues(_grid_operator(dist, m), m, K)

    checks = [("sum", lam.sum(), dist.mean_abs_gap() / 2),
              ("square sum", np.sum(lam**2), _kernel_square_mean(dist))]
    for name, got, want in checks:
        if not abs(got - want) <= TRACE_TOL * abs(want):
            raise ConvergenceError(f"eigenvalue {name} {got:.6g} misses its target "
                                   f"{want:.6g}; grid too coarse or K too small")
    return EigenSpectrum(lam)


def _grid_operator(dist: ReferenceDistribution, m: int):
    """v -> H v, H = h_F(x_a, x_b) / m on the sorted midpoint grid x, in O(m).

    h_F(a, b) = -(|a - b| - g0(a) - g0(b)) / 2 with g0 = g_F - g(F)/2, so the g0
    terms are rank one; with s = x - x_0, C1 = cumsum(v) and C2 = cumsum(s v),
    sum_b |x_a - x_b| v_b = s_a (2 C1_a - C1_m) - (2 C2_a - C2_m).
    """
    x = dist.ppf((np.arange(m) + 0.5) / m)
    s, g0 = x - x[0], dist.mean_abs_from(x) - dist.mean_abs_gap() / 2

    def apply(v):
        c1, c2 = np.cumsum(v), np.cumsum(s * v)
        return (s * (2 * c1 - c1[-1]) - (2 * c2 - c2[-1]) - g0 * c1[-1] - g0 @ v) * (-0.5 / m)

    return apply


def _top_eigenvalues(apply, m: int, K: int) -> np.ndarray:
    """The K eigenvalues of largest magnitude of the symmetric m x m operator
    ``apply``, in decreasing magnitude, by n Lanczos steps, each orthogonalised
    against the whole basis twice: one pass let in spurious copies of converged
    values (Parlett, *The Symmetric Eigenvalue Problem*).  n = min(m, 2K) doubles
    until the top K Ritz residuals |beta_n s_ni| are <= _RITZ_TOL |theta_1|, or
    until n = m, where they are exact.  A zero beta stops at the Ritz values
    found, those of an invariant subspace.  The start frac(phi a^2) - 1/2 draws
    nothing and has no symmetry under the grid's reflection, which would hide
    half the spectrum of a symmetric law."""
    # the golden ratio's fractional part, (sqrt(5) - 1) / 2
    start = np.mod(np.arange(1.0, m + 1) ** 2 * 0.6180339887498949, 1.0) - 0.5
    n = min(m, 2 * K)
    while True:
        alpha, beta, basis = [], [], np.empty((n, m))
        q = start / np.linalg.norm(start)
        for j in range(n):
            basis[j] = q
            w = apply(q)
            alpha.append(q @ w)
            for _ in range(2):
                w -= (basis[:j + 1] @ w) @ basis[:j + 1]
            beta.append(np.linalg.norm(w))
            if beta[-1] == 0.0:
                break
            q = w / beta[-1]
        theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        top = np.argsort(-np.abs(theta), kind="stable")[:K]
        # a NaN residual stops too, and the caller's checks reject the NaN values
        if n == m or not np.any(beta[-1] * np.abs(S[-1, top]) > _RITZ_TOL * abs(theta[top[0]])):
            return theta[top]
        n = min(m, 2 * n)


def _kernel_square_mean(dist: ReferenceDistribution) -> float:
    """E h_F(Z1, Z2)^2 = g(F)^2/4 + E[(Z - EZ)^2 - g_F(Z)^2]/2, the mean taken on
    the same _CHECK_GRID inverse-CDF midpoints for every law."""
    z = dist.ppf((np.arange(_CHECK_GRID) + 0.5) / _CHECK_GRID)
    spread = np.mean((z - z.mean()) ** 2 - dist.mean_abs_from(z) ** 2)
    return dist.mean_abs_gap() ** 2 / 4 + spread / 2


# -- asymptotic draws --------------------------------------------------------

def _chi2_edge(a, d, log_eps):
    """x with P(sum_j a_j chi2_{d_j} > x) <= exp(-log_eps), all a_j >= 0 (Chernoff)."""
    # the mgf is finite for s < 1 / (2 max a); with all a_j = 0 the bound is x ~ 0
    s = (1.0 - 0.5 ** np.arange(1, 20)) / (2.0 * a.max(initial=np.finfo(float).tiny))
    log_mgf = -0.5 * (np.log1p(-2.0 * np.multiply.outer(s, a)) @ d)
    return float(np.min((log_eps + log_mgf) / s))


def _largest(c, d):
    """The _KEEP weights c of largest |c|, their counts d, and 2 sum d c^2 of the rest."""
    kept, dropped = np.split(np.argsort(-np.abs(c), kind="stable"), [_KEEP])
    return c[kept], d[kept], 2.0 * float(d[dropped] @ c[dropped] ** 2)


def _cdf_table(c, d, var_rest):
    """CDF table (y, F) of sum_j c_j (chi2_{d_j} - d_j) + N(0, var_rest).

    F(y) = 1/2 - int_0^inf Im(exp(-ity) phi(t)) / (pi t) dt (Gil-Pelaez; Imhof
    1961) is summed by the midpoint rule with one FFT on a grid between Chernoff
    bounds that leave mass _TAIL_MASS beyond each end, of the fewest _GRIDS
    points with truncation error |phi(t_max)| / (pi t_max) below _TRUNC_TOL.
    log phi is summed over blocks of weights of at most _PHI_BLOCK (t, c)
    entries, or of one weight on a larger grid: the paper's null then peaks at
    about 10 MiB in tracemalloc, where blocks of 2^21 entries took 63 MiB.
    """
    log_eps, mu = -np.log(_TAIL_MASS), float(d @ c)
    z = np.sqrt(2.0 * log_eps * var_rest)
    lo = -mu - _chi2_edge(np.maximum(-c, 0.0), d, log_eps) - z
    span = -mu + _chi2_edge(np.maximum(c, 0.0), d, log_eps) + z - lo
    # |phi(t)| / (pi t) falls with t, so count the grid sizes that miss the bound
    t_max = 2 * np.pi * _GRIDS / span
    log_err = (-0.25 * (np.log1p(np.multiply.outer(2 * t_max, c) ** 2) @ d)
               - 0.5 * var_rest * t_max**2 - np.log(np.pi * t_max))
    n = int(_GRIDS[min(np.sum(log_err > np.log(_TRUNC_TOL)), _GRIDS.size - 1)])
    t = (np.arange(n) + 0.5) * (2 * np.pi / span)
    # log phi(t) - i t lo, summed over blocks of weights
    log_phi = -1j * t * (mu + lo) - 0.5 * var_rest * t * t
    step = max(1, _PHI_BLOCK // n)
    for j in range(0, c.size, step):
        x = np.multiply.outer(2.0 * t, c[j:j + step])
        log_phi += (0.5j * np.arctan(x) - 0.25 * np.log1p(x * x)) @ d[j:j + step]
    S = np.fft.fft(np.exp(log_phi) / t) * np.exp(-1j * np.pi * np.arange(n) / n)
    F = np.maximum.accumulate(np.clip(0.5 - 2.0 * S.imag / span, 0.0, 1.0))
    return lo + span / n * np.arange(n), F


def asymptotic_null_sample(
    spectra, W: ProximityMatrix, n_draws: int = 10_000, seed: int = 0
) -> NullDistribution:
    """Sample the weighted-chi-square limit law of T * S~_B.

    ``spectra`` is one :class:`EigenSpectrum` per region.  Each distinct pair of
    spectra finds its distinct weights c_kl and their counts once; each pair p
    keeps its _KEEP largest, scaled by w_p / S0, as no other can be among Q's
    _KEEP largest, so memory is O(K^2 + pairs * _KEEP).  Equal weights of all
    pairs merge, and one table of Q is inverted at ``n_draws`` uniforms of
    ``stream(seed)``.  ``meta`` holds only what the draw computed: the table's
    weights kept, remainder variance and tail mass beyond its grid.
    """
    if n_draws < 1:
        raise EmptyNullError("n_draws must be >= 1")
    R = W.n_regions
    if len(spectra) != R:
        raise SpectraMismatchError(f"{len(spectra)} spectra for {R} regions")
    iu = np.triu_indices(R, k=1)
    w_pair = (W.weights + W.weights.T)[iu] / W.s0
    laws, scaled, counts, var_rest = {}, [], [], 0.0
    for p in np.flatnonzero(w_pair):
        lam_i, lam_j = spectra[iu[0][p]].eigenvalues, spectra[iu[1][p]].eigenvalues
        key = frozenset((lam_i.tobytes(), lam_j.tobytes()))
        if key not in laws:
            c = np.multiply.outer(lam_i, lam_j) / np.sqrt(np.sum(lam_i**2) * np.sum(lam_j**2))
            laws[key] = _largest(*np.unique(c, return_counts=True))
        c, d, rest = laws[key]
        scaled.append(w_pair[p] * c)
        counts.append(d)
        var_rest += rest * float(w_pair[p]) ** 2
    c, merged = np.unique(np.concatenate(scaled), return_inverse=True)
    c, d, rest = _largest(c, np.bincount(merged, weights=np.concatenate(counts)))
    y, F = _cdf_table(c, d, var_rest + rest)
    meta = {"weights_kept": c.size, "remainder_variance": var_rest + rest,
            "table_tail_mass": float(1.0 - F[-1])}
    return NullDistribution(np.interp(stream(seed).random(n_draws), F, y), meta)


# -- Monte Carlo route -------------------------------------------------------

def monte_carlo_null(
    dist: ReferenceDistribution,
    T: int,
    W: ProximityMatrix,
    reps: int = 10_000,
    seed: int = 0,
    n_jobs: int = 1,
) -> NullDistribution:
    """Simulate reps independent T x R i.i.d. panels, R = ``W.n_regions``, and
    collect T * S~_B.

    These are the theta = 0 replicates of :func:`sbergsma.depmodels.sb_replicates`:
    replicate r's panel depends only on (seed, r), and results are identical
    for any ``n_jobs``.  ``meta`` is empty: every input is an argument.
    """
    if reps < 1:
        raise EmptyNullError("reps must be >= 1")
    check_time_points(T)
    samples = T * sb_replicates("SMA", [0.0], W, dist, T, reps, seed, n_jobs)[0]
    return NullDistribution(samples)


def p_value(observed_scaled: float, null: NullDistribution) -> float:
    """Upper-tail Monte Carlo p-value with the add-one correction.

    p = (1 + #{samples >= observed}) / (N + 1); never exactly zero.  A NaN
    or infinite observed value raises instead of yielding the smallest p.
    """
    s = null.samples
    if s.size == 0:
        raise EmptyNullError("null distribution has no samples")
    if not np.isfinite(observed_scaled):
        raise NonFiniteError(f"observed statistic is not finite: {observed_scaled!r}")
    return (1 + int(np.count_nonzero(s >= observed_scaled))) / (s.size + 1)
