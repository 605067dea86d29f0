"""Null distribution of T * S~_B under spatial pairwise independence.

Two generation routes:

* ``monte_carlo_null``  -- simulate i.i.d. panels and recompute the statistic;
* ``asymptotic_null_sample`` -- draw from the weighted-chi-square limit

      T S~_B  ->D  (1/S0) sum_{i<j} (w_ij + w_ji)
                   * sum_{k,l} lam_k^(i) lam_l^(j) (Z_{ik,jl}^2 - 1)
                     / sqrt( sum_k (lam_k^(i))^2 * sum_l (lam_l^(j))^2 ),

  with all Z i.i.d. standard normal, using the leading eigenvalues of the
  population kernel on an equal-probability-mass grid (Nystrom), by Lanczos
  on a matrix-free product, and the grid operator's exact square sum, so the
  eigenvalues not found still count.  The sum is one law Q, whose CDF is
  tabulated once from its characteristic function up to its truncation
  point, the small weights made one normal (Lindsay, Pilla & Basak 2000);
  ``asymptotic_null`` draws it from F's min(16, K) leading eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergsma import batch_rows, check_count, check_time_points, frozen_array
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

#: relative tolerance of the grid's trace against g(F)/2
TRACE_TOL = 0.02
#: Ritz residual, relative to the top Ritz value, below which Lanczos stops
_RITZ_TOL = 1e-13
#: relative rounding a square sum may show below the sum of its eigenvalues' squares
_SQUARE_ROUNDING = 1e-12

#: weights of the limit law kept exactly, the largest in magnitude; the rest
#: become one normal
_KEEP = 100
#: eigenvalues the asymptotic test finds
_FIRST = 16
#: probability mass the CDF table may leave beyond each end of its grid
_TAIL_MASS = 1e-12
#: numbers of points at which a CDF table may evaluate its characteristic
#: function, the fewest points of a table, and its target truncation error
_GRIDS = 2 ** np.arange(4, 21)
_TABLE = 2**14
_TRUNC_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Leading eigenvalues of the population kernel operator for one F, and
    the square sum of its whole spectrum, by default that of the values given."""

    eigenvalues: np.ndarray  # decreasing by magnitude
    square_sum: float | None = None

    def __post_init__(self):
        lam = frozen_array(self.eigenvalues, 1, "eigen spectrum")
        if lam.size == 0:
            raise SizeError("an eigen spectrum needs at least one eigenvalue")
        if not np.any(lam):
            raise DegenerateRegionError("eigen spectrum is all zero: the law's kernel vanishes")
        object.__setattr__(self, "eigenvalues", lam)
        found = float(np.sum(lam**2))
        if self.square_sum is None:
            object.__setattr__(self, "square_sum", found)
        elif not math.isfinite(self.square_sum):
            raise NonFiniteError(f"eigen spectrum square sum is {self.square_sum!r}")
        elif self.square_sum <= 0.0:
            raise InvalidParameterError(f"eigen spectrum square sum {self.square_sum!r} <= 0")
        elif self.square_sum < found * (1.0 - _SQUARE_ROUNDING):
            # a smaller one would give a pair a negative remainder variance
            raise ConvergenceError(f"eigen spectrum square sum {self.square_sum!r} is below "
                                   f"its eigenvalues' {found!r}")


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Sampled law of T * S~_B under the independence null.  ``meta`` holds only
    diagnostics the draw computed, not the arguments it was drawn from."""

    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "samples", frozen_array(self.samples, 1, "null distribution"))


def nystrom_eigenvalues(dist: ReferenceDistribution, K: int = 100, m: int = 2000) -> EigenSpectrum:
    """Approximate the K leading kernel-operator eigenvalues on an m-point grid.

    The grid places equal probability mass 1/m at inverse-CDF midpoints, so
    the discretized operator is the symmetric matrix H = h_F(x_a, x_b) / m
    whose eigenvalues estimate the operator spectrum directly.  Its exact
    trace and square sum take O(m) (:func:`_grid_moments`); the trace must be
    within 2% of g(F)/2, or the grid is too coarse and ConvergenceError is
    raised, and the square sum goes with the spectrum, so no K is too small.
    The K leading eigenvalues come from Lanczos iteration on v -> H v in O(m)
    (:func:`_top_eigenvalues`), with no m x m matrix: at K = 100, m = 2000 any
    law peaks near 4 MiB in tracemalloc, on 1 or 2 BLAS threads with the same
    bits.  Lanczos returns fewer than K values only when its Krylov space
    holds no more.  No random numbers are drawn; the spectrum is read-only.
    """
    check_count(K, "K", 1)
    check_count(m, "m", 1)
    if K > m:
        raise InvalidParameterError(f"need K <= m, got K={K}, m={m}")
    want = dist.mean_abs_gap() / 2
    x = dist.ppf((np.arange(m) + 0.5) / m)
    s, g0 = x - x[0], dist.mean_abs_from(x) - want
    trace, square_sum = _grid_moments(s, g0)
    if not abs(trace - want) <= TRACE_TOL * want:
        raise ConvergenceError(f"grid trace {trace:.6g} misses its target g(F)/2 = "
                               f"{want:.6g}; grid too coarse")
    return EigenSpectrum(_top_eigenvalues(_grid_operator(s, g0), m, K), square_sum)


def _grid_operator(s: np.ndarray, g0: np.ndarray):
    """v -> H v, H = h_F(x_a, x_b) / m on the sorted midpoint grid x, in O(m).

    h_F(a, b) = -(|a - b| - g0(a) - g0(b)) / 2 with g0 = g_F - g(F)/2, so the g0
    terms are rank one; with s = x - x_0, C1 = cumsum(v) and C2 = cumsum(s v),
    sum_b |x_a - x_b| v_b = s_a (2 C1_a - C1_m) - (2 C2_a - C2_m).
    """
    m = s.size

    def apply(v):
        c1, c2 = np.cumsum(v), np.cumsum(s * v)
        return (s * (2 * c1 - c1[-1]) - (2 * c2 - c2[-1]) - g0 * c1[-1] - g0 @ v) * (-0.5 / m)

    return apply


def _grid_moments(s: np.ndarray, g0: np.ndarray) -> tuple[float, float]:
    """trace H = sum g0 / m and ||H||_F^2 = sum_ab (|x_a - x_b| - g0_a - g0_b)^2 /
    (4 m^2) = [2m s's - 2(sum s)^2 - 4 g0'D1 + 2m g0'g0 + 2(sum g0)^2] / (4 m^2),
    where D1_a = sum_b |x_a - x_b| = s_a (2(a + 1) - m) - (2 C2_a - C2_m), C2 = cumsum(s)."""
    m, c2 = s.size, np.cumsum(s)
    d1 = s * (2.0 * np.arange(1, m + 1) - m) - (2 * c2 - c2[-1])
    square_sum = (2 * m * (s @ s) - 2 * c2[-1] ** 2 - 4 * (g0 @ d1)
                  + 2 * m * (g0 @ g0) + 2 * g0.sum() ** 2) / (4.0 * m * m)
    return float(g0.sum() / m), float(square_sum)


def _top_eigenvalues(apply, m: int, K: int) -> np.ndarray:
    """The K eigenvalues of largest magnitude of the symmetric m x m operator
    ``apply``, in decreasing magnitude, by n Lanczos steps.  A step takes the
    three-term recurrence off H q, leaving only rounding-sized parts along the
    basis, then one Gram-Schmidt pass against the whole basis, so no spurious
    copies of converged values come in.  n = min(m, 2K) grows by max(1, n/4)
    steps, so by at least K/2, the basis kept and its buffer grown, until the
    top K Ritz residuals |beta_n s_ni| are <= _RITZ_TOL |theta_1|, or until
    n = m, where they are exact: K = 16 on the six laws' m = 2000 grids
    converges by step 42 and stops at n = 50.
    A beta within m eps max|alpha| of 0 means the Krylov space is invariant:
    the Ritz values found are then eigenvalues, which may be fewer than K.
    The start frac(phi a^2) - 1/2 draws nothing and has no symmetry under the
    grid's reflection, which would hide half the spectrum of a symmetric law."""
    # the golden ratio's fractional part, (sqrt(5) - 1) / 2
    start = np.mod(np.arange(1.0, m + 1) ** 2 * 0.6180339887498949, 1.0) - 0.5
    basis, alpha, beta, size = np.empty((min(m, 2 * K), m)), [], [], 0.0
    tiny = m * np.finfo(float).eps
    q = start / np.linalg.norm(start)
    while True:
        for j in range(len(alpha), len(basis)):
            basis[j] = q
            w = apply(q)
            alpha.append(q @ w)
            size = max(size, abs(alpha[-1]))
            w -= alpha[-1] * q + (beta[-1] * basis[j - 1] if j else 0.0)
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
            beta.append(np.linalg.norm(w))
            if beta[-1] <= tiny * size:
                break
            q = w / beta[-1]
        theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        top = np.argsort(-np.abs(theta), kind="stable")[:K]
        # a NaN residual stops too, and the spectrum rejects the NaN values
        if (len(alpha) == m or beta[-1] <= tiny * size
                or not np.any(beta[-1] * np.abs(S[-1, top]) > _RITZ_TOL * abs(theta[top[0]]))):
            return theta[top]
        n = len(basis)
        grown = np.empty((min(m, n + max(1, n // 4)), m))
        grown[:n] = basis
        basis = grown


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
    1961) is summed by the midpoint rule on a grid between Chernoff bounds
    that leave mass _TAIL_MASS beyond each end, with phi at the fewest _GRIDS
    points k whose truncation error |phi(t_k)| / (pi t_k) is below _TRUNC_TOL,
    and one FFT zero-padded to n = max(k, _TABLE) points: the paper's null
    takes k = 32 for n = 2^14 and peaks at about 0.8 MiB in tracemalloc.
    """
    log_eps, mu = -np.log(_TAIL_MASS), float(d @ c)
    z = np.sqrt(2.0 * log_eps * var_rest)
    lo = -mu - _chi2_edge(np.maximum(-c, 0.0), d, log_eps) - z
    span = -mu + _chi2_edge(np.maximum(c, 0.0), d, log_eps) + z - lo
    # |phi(t)| / (pi t) falls with t, so count the grid sizes that miss the bound
    t_max = 2 * np.pi * _GRIDS / span
    log_err = (-0.25 * (np.log1p(np.multiply.outer(2 * t_max, c) ** 2) @ d)
               - 0.5 * var_rest * t_max**2 - np.log(np.pi * t_max))
    k = int(_GRIDS[min(np.sum(log_err > np.log(_TRUNC_TOL)), _GRIDS.size - 1)])
    n = max(k, _TABLE)
    t = (np.arange(k) + 0.5) * (2 * np.pi / span)
    # log phi(t) - i t lo, summed over blocks of weights that fit the byte budget
    log_phi = -1j * t * (mu + lo) - 0.5 * var_rest * t * t
    step = batch_rows(8 * k)  # weights per block, at k float64 (t, c) entries each
    for j in range(0, c.size, step):
        x = np.multiply.outer(2.0 * t, c[j:j + step])
        log_phi += (0.5j * np.arctan(x) - 0.25 * np.log1p(x * x)) @ d[j:j + step]
    S = np.fft.fft(np.exp(log_phi) / t, n) * np.exp(-1j * np.pi * np.arange(n) / n)
    F = np.maximum.accumulate(np.clip(0.5 - 2.0 * S.imag / span, 0.0, 1.0))
    return lo + span / n * np.arange(n), F


def _limit_law(spectra, W: ProximityMatrix):
    """Q's _KEEP weights of largest magnitude, their counts, and the variance of
    the normal that stands for all its other weights.

    Each distinct pair of spectra finds its distinct weights c_kl =
    lam_k lam_l / sqrt(S_i S_j), S the square sums, and their counts once, and
    keeps its _KEEP largest: no other can be among Q's _KEEP largest.  Over
    the whole spectra the pair's d c^2 sum to 1, so its normal takes
    2 (1 - sum_kept d c^2), the values not found included.  Scaled by
    w_p / S0, equal weights of all pairs merge.
    """
    iu = np.triu_indices(W.n_regions, k=1)
    w_pair = (W.weights + W.weights.T)[iu] / W.s0
    laws, scaled, counts, var_rest = {}, [], [], 0.0
    for p in np.flatnonzero(w_pair):
        a, b = spectra[iu[0][p]], spectra[iu[1][p]]
        key = frozenset(((a.eigenvalues.tobytes(), a.square_sum),
                         (b.eigenvalues.tobytes(), b.square_sum)))
        if key not in laws:
            c = np.multiply.outer(a.eigenvalues, b.eigenvalues)
            c, d, _ = _largest(*np.unique(c / np.sqrt(a.square_sum * b.square_sum),
                                          return_counts=True))
            laws[key] = c, d, 2.0 * max(0.0, 1.0 - float(d @ c**2))
        c, d, rest = laws[key]
        scaled.append(w_pair[p] * c)
        counts.append(d)
        var_rest += rest * float(w_pair[p]) ** 2
    c, merged = np.unique(np.concatenate(scaled), return_inverse=True)
    c, d, rest = _largest(c, np.bincount(merged, weights=np.concatenate(counts)))
    return c, d, var_rest + rest


def asymptotic_null_sample(
    spectra, W: ProximityMatrix, n_draws: int = 10_000, seed: int = 0
) -> NullDistribution:
    """Sample the weighted-chi-square limit law of T * S~_B.

    ``spectra`` is one :class:`EigenSpectrum` per region.  One table of Q,
    from :func:`_limit_law` in O(K^2 + pairs * _KEEP) memory, is inverted at
    ``n_draws`` uniforms of ``stream(seed)``.  ``meta`` holds only what the
    draw computed: the table's weights kept, remainder variance and tail mass
    beyond its grid.
    """
    check_count(n_draws, "n_draws", 1, EmptyNullError)
    if len(spectra) != W.n_regions:
        raise SpectraMismatchError(f"{len(spectra)} spectra for {W.n_regions} regions")
    c, d, var_rest = _limit_law(spectra, W)
    y, F = _cdf_table(c, d, var_rest)
    meta = {"weights_kept": c.size, "remainder_variance": var_rest,
            "table_tail_mass": float(1.0 - F[-1])}
    return NullDistribution(np.interp(stream(seed).random(n_draws), F, y), meta)


def asymptotic_null(dist: ReferenceDistribution, W: ProximityMatrix, K: int = 100,
                    m: int = 2000, n_draws: int = 10_000, seed: int = 0) -> NullDistribution:
    """:func:`asymptotic_null_sample` with F at every region, from its
    min(16, K) leading eigenvalues on the m-point grid, which must hold them.
    The square sum S of the grid operator counts the values not found through
    the table's remainder normal: against the K = 100 law, F moves by at most
    1.0e-7 on a 14-region chain and 2.8e-6 on one pair, the size of the
    m = 2000 grid's own error and far below the Monte Carlo error of a p-value.
    """
    check_count(n_draws, "n_draws", 1, EmptyNullError)
    # checked here, so the message names the K the caller gave
    check_count(K, "K", 1)
    check_count(m, "m", 1)
    if min(_FIRST, K) > m:
        raise InvalidParameterError(f"need min(K, {_FIRST}) <= m, got K={K}, m={m}")
    spectrum = nystrom_eigenvalues(dist, K=min(_FIRST, K), m=m)
    return asymptotic_null_sample([spectrum] * W.n_regions, W, n_draws, seed)


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
    check_count(reps, "reps", 1, EmptyNullError)
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
