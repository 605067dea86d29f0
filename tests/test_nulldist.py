"""Null distribution tests: Nystrom spectra, asymptotic draws, p-values."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from sbergsma import (
    EigenSpectrum,
    ProximityMatrix,
    ReferenceDistribution,
    asymptotic_null_sample,
    inverse_distance,
    monte_carlo_null,
    nystrom_eigenvalues,
    p_value,
    row_standardize,
    linear_chain,
)
from sbergsma.exceptions import (
    ConvergenceError,
    EmptyNullError,
    InvalidParameterError,
    LengthError,
    NonFiniteError,
    SpectraMismatchError,
)
from sbergsma import nulldist
from sbergsma.nulldist import NullDistribution
from sbergsma.reference import FAMILIES, SYMMETRIC
from sbergsma.rng import stream

NORMAL = ReferenceDistribution("normal")
UNIFORM = ReferenceDistribution("uniform")

W2 = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _synthetic_spectrum(lam) -> EigenSpectrum:
    return EigenSpectrum(np.asarray(lam, dtype=float))


def _pair_summands(lam_i, lam_j, n_draws, rng, chunk=500):
    """Oracle: draws of sum_{k,l} lam_i[k] lam_j[l] (Z_kl^2 - 1) from K^2 normals."""
    out = np.empty(n_draws)
    for lo in range(0, n_draws, chunk):
        hi = min(lo + chunk, n_draws)
        G = rng.standard_normal((hi - lo, lam_i.size, lam_j.size))
        out[lo:hi] = (G**2 @ lam_j) @ lam_i
    return out - lam_i.sum() * lam_j.sum()


def _oracle_null(spectra, W, n_draws, seed):
    """The limit law drawn term by term: sum_{i<j} (w_ij + w_ji) Y_ij / S0."""
    R = len(spectra)
    out = np.zeros(n_draws)
    for p, (i, j) in enumerate(zip(*np.triu_indices(R, k=1))):
        lam_i, lam_j = spectra[i].eigenvalues, spectra[j].eigenvalues
        y = _pair_summands(lam_i, lam_j, n_draws, stream(seed, p))
        y /= np.sqrt(np.sum(lam_i**2) * np.sum(lam_j**2))
        out += (W.weights[i, j] + W.weights[j, i]) * y
    return out / W.s0


def test_nystrom_trace_normal():
    spec = nystrom_eigenvalues(NORMAL, K=100, m=1000)
    assert spec.eigenvalues.sum() == pytest.approx(1 / np.sqrt(np.pi), rel=0.02)


def test_nystrom_trace_uniform():
    spec = nystrom_eigenvalues(UNIFORM, K=100, m=1000)
    assert spec.eigenvalues.sum() == pytest.approx(1 / 6, rel=0.02)
    # leading eigenvalues are 1/(pi^2 k^2) for the uniform kernel
    ks = np.arange(1, 11)
    assert np.allclose(spec.eigenvalues[:10], 1 / (np.pi * ks) ** 2, rtol=0.01)
    # the one array every pair of a null reads, so no caller may write to it
    assert not spec.eigenvalues.flags.writeable


def test_nystrom_grid_refinement():
    # doubling the grid barely moves the retained eigenvalues; the deepest
    # tail modes (lambda ~ 1e-5) converge slightly slower, hence the looser
    # bound there
    a = nystrom_eigenvalues(NORMAL, K=100, m=1000).eigenvalues
    b = nystrom_eigenvalues(NORMAL, K=100, m=2000).eigenvalues
    rel = np.abs(a - b) / np.abs(b)
    assert np.all(rel[:50] <= 0.005)
    assert np.all(rel <= 0.01)


@pytest.mark.parametrize(
    "dist",
    [ReferenceDistribution(f) for f in FAMILIES]
    + [ReferenceDistribution("chi-square", df=df) for df in (2.5, 4.0)],
    ids=str,
)
def test_kernel_square_mean_matches_sampling(dist):
    rng = stream(31)
    h2 = dist.kernel(dist.sample(200_000, rng), dist.sample(200_000, rng)) ** 2
    se = h2.std() / np.sqrt(h2.size)
    assert abs(nulldist._kernel_square_mean(dist) - h2.mean()) < 4 * se


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_square_mean_grid_is_fine_enough(family):
    # every law takes the mean on one grid of 2^15 midpoints; on twice that
    # grid it moves by at most 1.6e-8 relative, against the check's 2%
    dist = ReferenceDistribution(family)
    z = dist.ppf((np.arange(2**16) + 0.5) / 2**16)
    spread = np.mean((z - z.mean()) ** 2 - dist.mean_abs_from(z) ** 2)
    finer = dist.mean_abs_gap() ** 2 / 4 + spread / 2
    assert nulldist._CHECK_GRID == 2**15
    assert nulldist._kernel_square_mean(dist) == pytest.approx(finer, rel=1e-7, abs=0)


def test_kernel_square_mean_uniform_is_exact():
    # the uniform kernel's eigenvalues are 1/(pi k)^2, whose squares sum to 1/90
    assert nulldist._kernel_square_mean(UNIFORM) == pytest.approx(1 / 90, rel=1e-6)


def test_nystrom_trace_check_fires_when_k_is_too_small():
    # the 20 leading eigenvalues hold 4.3% less than the trace g(F)/2
    with pytest.raises(ConvergenceError, match="eigenvalue sum"):
        nystrom_eigenvalues(NORMAL, K=20, m=2000)


def _patch_eigvalsh(monkeypatch, change):
    """Route the eigensolve of the next spectrum through ``change``."""
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: change(eigvalsh(a)))


@pytest.mark.parametrize("m", [400, 401])
@pytest.mark.parametrize("family", SYMMETRIC)
def test_nystrom_reflection_fold_matches_full_solve(family, m):
    dist = ReferenceDistribution(family)
    grid = dist.ppf((np.arange(m) + 0.5) / m)
    full = np.linalg.eigvalsh(dist.kernel(grid[:, None], grid[None, :]) / m)
    want = full[np.argsort(np.abs(full))[::-1][:100]]
    got = nystrom_eigenvalues(dist, K=100, m=m).eigenvalues
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "dist,m,sizes",
    [(ReferenceDistribution("exponential"), 400, [400]),
     (ReferenceDistribution("chi-square", df=3.0), 401, [401]),
     (ReferenceDistribution("normal"), 400, [200, 200]),
     (ReferenceDistribution("logistic"), 401, [201, 200])],
    ids=["exponential", "chi-square", "normal-even", "logistic-odd"],
)
def test_nystrom_folds_only_symmetric_laws(monkeypatch, dist, m, sizes):
    solved = []
    _patch_eigvalsh(monkeypatch, lambda e: solved.append(e.size) or e)
    nystrom_eigenvalues(dist, K=100, m=m)
    assert solved == sizes


@pytest.mark.parametrize("family,m,shapes", [("normal", 400, []), ("logistic", 401, []),
                                             ("exponential", 400, [(400, 400)])],
                         ids=["normal-400", "logistic-401", "exponential-400"])
def test_nystrom_builds_a_kernel_matrix_only_for_asymmetric_laws(monkeypatch, family, m,
                                                                  shapes):
    calls = []
    kernel = ReferenceDistribution.kernel
    monkeypatch.setattr(ReferenceDistribution, "kernel",
                        lambda self, a, b: calls.append(np.broadcast_shapes(
                            np.shape(a), np.shape(b))) or kernel(self, a, b))
    nystrom_eigenvalues(ReferenceDistribution(family), K=100, m=m)
    assert calls == shapes


@pytest.mark.parametrize("m", [400, 401])
@pytest.mark.parametrize("family", SYMMETRIC)
def test_nystrom_closed_form_halves_match_the_kernel_fold(monkeypatch, family, m):
    # the even and odd halves of H = h_F(x_a, x_b) / m under the grid's
    # reflection, folded from the kernel matrix itself
    dist = ReferenceDistribution(family)
    grid = dist.ppf((np.arange(m) + 0.5) / m)
    H = dist.kernel(grid[:, None], grid[None, :]) / m
    h = m // 2
    B = H[:h, ::-1][:, :h]
    odd = H[:h, :h] - B
    even = H[:m - h, :m - h].copy()
    even[:h, :h] += B
    even[:h, h:] *= np.sqrt(2.0)
    even[h:, :h] *= np.sqrt(2.0)

    halves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: halves.append(a.copy()) or eigvalsh(a))
    nystrom_eigenvalues(dist, K=100, m=m)
    assert [a.shape for a in halves] == [even.shape, odd.shape]
    tol = 1e-15 * np.abs(H).max()
    np.testing.assert_allclose(halves[0], even, rtol=0, atol=tol)
    np.testing.assert_allclose(halves[1], odd, rtol=0, atol=tol)


def _peak_mib(f, *args, **kw):
    """Peak memory that tracemalloc sees while ``f`` runs, in MiB."""
    tracemalloc.start()
    try:
        f(*args, **kw)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_nystrom_paper_spectrum_memory_is_bounded():
    # one 8 MB half at a time, built in closed form; building the kernel's
    # half-grid rows next to the odd half peaked at 23.3 MiB
    assert _peak_mib(nystrom_eigenvalues, NORMAL, K=100, m=2000) < 12


def test_asymptotic_paper_null_memory_is_bounded(w_adjacency):
    # R = 14, K = 100 and 50 draws, the benchmark's paper_asym size
    spectrum = nystrom_eigenvalues(NORMAL, K=100, m=2000)
    assert _peak_mib(asymptotic_null_sample, [spectrum] * 14, w_adjacency,
                     n_draws=50, seed=1) < 16


def test_asymptotic_null_memory_does_not_grow_with_the_pairs():
    # a spectrum per region gives every pair its own CDF table of at least
    # 2^14 points; holding all of them peaked at 17.3 MiB at R = 8 and
    # 40.2 MiB at R = 16, where one table at a time stays near 11 MiB
    def peak(R):
        rng = stream(5)
        spectra = [_synthetic_spectrum(np.sort(rng.uniform(0.1, 1.0, 4))[::-1])
                   for _ in range(R)]
        W = inverse_distance(rng.uniform(0.0, 10.0, (R, 2)))
        return _peak_mib(asymptotic_null_sample, spectra, W, n_draws=100, seed=1)

    assert peak(16) <= 1.1 * peak(8)


def test_asymptotic_null_holds_one_table_at_a_time(monkeypatch):
    # interleaved spectra: the pairs of one table are not consecutive
    A, B = _synthetic_spectrum([1.0, 0.5]), _synthetic_spectrum([1.0, -0.3, 0.2])
    W = ProximityMatrix(np.ones((8, 8)) - np.eye(8))
    tables, alive = [], []
    pair_law = nulldist._pair_law

    def tracked(*args, **kw):
        alive.append(sum(ref() is not None for ref in tables))
        y, F, kept, var_rest = pair_law(*args, **kw)
        tables.append(weakref.ref(F))
        return y, F, kept, var_rest

    monkeypatch.setattr(nulldist, "_pair_law", tracked)
    asymptotic_null_sample([A, B] * 4, W, n_draws=100, seed=1)
    assert alive == [0, 0, 0]


def test_nystrom_square_sum_check_fires(monkeypatch):
    def spread(e):
        # same sum, 5% more square sum
        c = e.mean()
        s = np.sqrt((1.05 * np.sum(e**2) - e.size * c**2) / np.sum((e - c) ** 2))
        return c + s * (e - c)

    _patch_eigvalsh(monkeypatch, spread)
    with pytest.raises(ConvergenceError, match="eigenvalue square sum"):
        nystrom_eigenvalues(NORMAL, K=400, m=400)


def test_nystrom_nan_spectrum_fails_its_checks(monkeypatch):
    _patch_eigvalsh(monkeypatch, lambda e: np.full_like(e, np.nan))
    with pytest.raises(ConvergenceError):
        nystrom_eigenvalues(NORMAL, K=50, m=400)


def test_nystrom_draws_no_random_numbers(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(nulldist, "stream", no_stream)
    assert nystrom_eigenvalues(UNIFORM, K=50, m=400).eigenvalues.size == 50


def test_nystrom_rejects_bad_k():
    # a size argument, like n_draws and reps, not an unsupported law
    with pytest.raises(InvalidParameterError):
        nystrom_eigenvalues(NORMAL, K=0, m=100)
    with pytest.raises(InvalidParameterError):
        nystrom_eigenvalues(NORMAL, K=200, m=100)


def test_asymptotic_single_eigenvalue_is_centered_chi_square():
    spectra = [_synthetic_spectrum([1.0])] * 2
    null = asymptotic_null_sample(spectra, W2, n_draws=40_000, seed=3)
    # each draw is Z^2 - 1
    assert null.samples.mean() == pytest.approx(0.0, abs=0.03)
    assert null.samples.var() == pytest.approx(2.0, rel=0.05)
    assert null.samples.min() >= -1.0 - 1e-12
    assert null.meta["weights_kept"] == 1
    assert null.meta["remainder_variance"] == 0.0


def test_single_eigenvalue_table_is_exact_chi_square_cdf():
    y, F, kept, var_rest = nulldist._pair_law(np.array([1.0]), np.array([1.0]))
    # the grid starts at the support edge -1 and never reads below it
    assert y[0] == -1.0
    assert np.all(np.diff(F) >= 0) and F[0] >= 0 and F[-1] <= 1
    # P(Z^2 - 1 <= y) = 2 Phi(sqrt(y + 1)) - 1; the first 0.1 above the edge
    # holds the ringing of the Fourier sum around the 1/sqrt density spike
    far = y >= -0.9
    exact = 2 * norm.cdf(np.sqrt(y[far] + 1)) - 1
    assert np.max(np.abs(F[far] - exact)) <= 1e-6


def test_truncated_table_matches_all_weights():
    lam = nystrom_eigenvalues(NORMAL, K=100, m=2000).eigenvalues
    c, d = np.unique(np.outer(lam, lam) / np.sum(lam**2), return_counts=True)
    assert c.size == 100 * 101 // 2
    y, F, kept, var_rest = nulldist._pair_law(lam, lam)
    y_all, F_all, kept_all, _ = nulldist._pair_law(lam, lam, keep=c.size)
    assert (kept, kept_all) == (100, c.size)
    order = np.argsort(-np.abs(c))
    assert var_rest == pytest.approx(2 * np.sum((d * c**2)[order[100:]]), rel=1e-12)
    at = [-1.0, 0.0, 2.0, 5.0]
    assert np.max(np.abs(np.interp(at, y, F) - np.interp(at, y_all, F_all))) <= 1e-6
    # the table has the variance of the normalized term, sum of 2 d c^2 = 2
    mid, mass = (y[1:] + y[:-1]) / 2, np.diff(F)
    assert mass @ mid == pytest.approx(0.0, abs=1e-6)
    assert mass @ mid**2 == pytest.approx(2.0, rel=1e-5)


def test_asymptotic_negative_eigenvalue_draws_centered():
    spectra = [_synthetic_spectrum([1.0, -0.6, 0.3, -0.1])] * 2
    null = asymptotic_null_sample(spectra, W2, n_draws=10_000, seed=5)
    s = null.samples
    assert np.all(np.isfinite(s))
    assert abs(s.mean()) < 5 * s.std(ddof=1) / np.sqrt(s.size)
    assert s.var() == pytest.approx(2.0, rel=0.05)
    # negative weights leave the law unbounded below: the table reaches past
    # the -sum of the positive weights where a nonnegative law would stop
    assert s.min() < -1.0


def test_asymptotic_distinct_spectra_match_oracle_sampler():
    spectra = [
        _synthetic_spectrum(1.0 / np.arange(1.0, 21.0) ** 2),
        _synthetic_spectrum(1.0 / np.arange(1.0, 21.0) ** 1.5),
        _synthetic_spectrum(np.r_[1.0, -0.4, 0.5 ** np.arange(2.0, 20.0)]),
    ]
    W = ProximityMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [0.0, 3.0, 0.0]]))
    new = asymptotic_null_sample(spectra, W, n_draws=10_000, seed=8).samples
    old = _oracle_null(spectra, W, n_draws=10_000, seed=9)
    assert ks_2samp(new, old).statistic < 0.02


def test_asymptotic_draws_do_not_depend_on_w():
    spectra = [_synthetic_spectrum(1.0 / np.arange(1.0, 11.0) ** 2)] * 4
    Wa = np.zeros((4, 4))
    Wa[0, 1] = 1.0
    Wb = np.zeros((4, 4))
    Wb[1, 3], Wb[2, 0] = 2.0, 0.5
    parts = [asymptotic_null_sample(spectra, ProximityMatrix(w), 2000, seed=6)
             for w in (Wa, Wb, Wa + Wb)]
    # each pair keeps its own draws, so S0-weighted samples add over W
    lhs = parts[2].samples * 3.5
    rhs = parts[0].samples * 1.0 + parts[1].samples * 2.5
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))
    again = asymptotic_null_sample(spectra, ProximityMatrix(Wa + Wb), 2000, seed=6)
    assert np.array_equal(again.samples, parts[2].samples)
    assert again.meta == parts[2].meta


def test_asymptotic_pair_summand_centered():
    lam = 1.0 / np.arange(1.0, 21.0) ** 2
    spectra = [_synthetic_spectrum(lam)] * 2
    null = asymptotic_null_sample(spectra, W2, n_draws=10_000, seed=4)
    se = null.samples.std() / 100.0
    assert abs(null.samples.mean()) < 3 * se


def test_asymptotic_common_vs_general_path_agree():
    lam = 1.0 / np.arange(1.0, 31.0) ** 2
    W = row_standardize(linear_chain(5))
    common = [_synthetic_spectrum(lam)] * 5
    # distinct objects with equal values exercise the general normalization
    general = [_synthetic_spectrum(lam.copy()) for _ in range(5)]
    a = asymptotic_null_sample(common, W, n_draws=10_000, seed=10)
    b = asymptotic_null_sample(general, W, n_draws=10_000, seed=11)
    assert ks_2samp(a.samples, b.samples).statistic < 0.02


def test_asymptotic_spectra_count_checked():
    with pytest.raises(SpectraMismatchError):
        asymptotic_null_sample([_synthetic_spectrum([1.0])] * 3, W2, 100, 0)


def test_asymptotic_rejects_zero_draws():
    with pytest.raises(EmptyNullError):
        asymptotic_null_sample([_synthetic_spectrum([1.0])] * 2, W2, 0, 0)


@pytest.mark.parametrize("T", [1, 2])
def test_monte_carlo_rejects_short_series_before_any_draw(monkeypatch, T):
    # unchecked, T = 1 divides by C(T, 2) = 0 and T = 2 fails as a constant series
    def no_draw(*args, **kw):
        raise AssertionError("replicates were simulated")

    monkeypatch.setattr(nulldist, "sb_replicates", no_draw)
    with pytest.raises(LengthError, match="T >= 3"):
        monte_carlo_null(NORMAL, T, row_standardize(linear_chain(4)), reps=10)


def test_monte_carlo_determinism_and_threads():
    W = row_standardize(linear_chain(6))
    a = monte_carlo_null(NORMAL, 20, W, reps=300, seed=5)
    b = monte_carlo_null(NORMAL, 20, W, reps=300, seed=5)
    c = monte_carlo_null(NORMAL, 20, W, reps=300, seed=5, n_jobs=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)
    d = monte_carlo_null(NORMAL, 20, W, reps=300, seed=6)
    assert not np.array_equal(a.samples, d.samples)


def test_monte_carlo_single_rep():
    W = row_standardize(linear_chain(4))
    null = monte_carlo_null(NORMAL, 10, W, reps=1, seed=9)
    assert null.samples.shape == (1,)
    assert np.isfinite(null.samples).all()


def test_monte_carlo_replicate_prefix_stable():
    # the first r samples do not depend on the total rep count
    W = row_standardize(linear_chain(4))
    small = monte_carlo_null(NORMAL, 12, W, reps=150, seed=2)
    large = monte_carlo_null(NORMAL, 12, W, reps=450, seed=2)
    assert np.array_equal(small.samples, large.samples[:150])


def test_p_value_rules():
    null = NullDistribution(np.arange(9999, dtype=float))
    assert p_value(1e12, null) == pytest.approx(1 / 10_000)
    assert p_value(-1e12, null) == pytest.approx(1.0)
    med = float(np.median(null.samples))
    assert p_value(med, null) == pytest.approx(0.5, abs=1e-4)


def test_p_value_empty():
    with pytest.raises(EmptyNullError):
        p_value(0.0, NullDistribution(np.array([])))


@pytest.mark.parametrize("observed", [np.nan, np.inf, -np.inf])
def test_p_value_rejects_non_finite_observed(observed):
    # a NaN statistic must not read as the smallest possible p-value
    null = NullDistribution(np.arange(99, dtype=float))
    with pytest.raises(NonFiniteError):
        p_value(observed, null)
