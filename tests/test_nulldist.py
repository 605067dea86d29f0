"""Null distribution tests: Nystrom spectra, asymptotic draws, p-values."""

import warnings

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
    DegenerateRegionError,
    EmptyNullError,
    InvalidParameterError,
    LengthError,
    NonFiniteError,
    SizeError,
    SpectraMismatchError,
)
from sbergsma import nulldist
from sbergsma.nulldist import NullDistribution, asymptotic_null
from sbergsma.reference import FAMILIES
from sbergsma.rng import stream

from conftest import peak_bytes

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


#: every family, chi-square at its default df = 1, plus chi-square at df = 3
ALL_LAWS = [ReferenceDistribution(f) for f in FAMILIES] + [
    ReferenceDistribution("chi-square", df=3.0)]


def _grid(dist, m):
    """The midpoint grid x, s = x - x_0 and g0 = g_F - g(F)/2 of an m-point spectrum."""
    x = dist.ppf((np.arange(m) + 0.5) / m)
    return x, x - x[0], dist.mean_abs_from(x) - dist.mean_abs_gap() / 2


@pytest.mark.parametrize("m", [400, 401])
@pytest.mark.parametrize("dist", ALL_LAWS, ids=str)
def test_grid_moments_match_the_kernel_matrix(dist, m):
    x, s, g0 = _grid(dist, m)
    H = dist.kernel(x[:, None], x[None, :]) / m
    trace, square_sum = nulldist._grid_moments(s, g0)
    assert trace == pytest.approx(np.trace(H), rel=1e-13, abs=0)
    assert square_sum == pytest.approx(np.sum(H * H), rel=1e-13, abs=0)
    assert nystrom_eigenvalues(dist, K=10, m=m).square_sum == square_sum


@pytest.mark.parametrize(
    "dist",
    ALL_LAWS + [ReferenceDistribution("chi-square", df=df) for df in (2.5, 4.0)],
    ids=str,
)
def test_grid_square_sum_matches_sampling(dist):
    # the grid's ||H||_F^2 estimates E h_F(Z1, Z2)^2 within the trace's tolerance
    rng = stream(31)
    h2 = dist.kernel(dist.sample(200_000, rng), dist.sample(200_000, rng)) ** 2
    square_sum = nystrom_eigenvalues(dist, K=1, m=2000).square_sum
    assert abs(square_sum - h2.mean()) <= nulldist.TRACE_TOL * h2.mean()


def test_uniform_grid_square_sum_is_the_operators():
    # the uniform kernel's eigenvalues are 1/(pi k)^2, whose squares sum to 1/90
    assert nystrom_eigenvalues(UNIFORM, K=1, m=2000).square_sum == pytest.approx(1 / 90, rel=1e-6)


def test_nystrom_k_20_succeeds():
    # the 20 leading eigenvalues hold 4.3% less than the trace g(F)/2, which
    # failed a check; the square sum now carries the values not found
    spec = nystrom_eigenvalues(NORMAL, K=20, m=2000)
    assert spec.eigenvalues.size == 20
    full = nystrom_eigenvalues(NORMAL, K=100, m=2000)
    assert spec.square_sum == full.square_sum > np.sum(full.eigenvalues**2) > np.sum(
        spec.eigenvalues**2)
    np.testing.assert_allclose(spec.eigenvalues, full.eigenvalues[:20], rtol=0,
                               atol=1e-13 * full.eigenvalues[0])


def _patch_eigensolve(monkeypatch, change):
    """Route the eigenvalues of the next spectrum through ``change``."""
    solve = nulldist._top_eigenvalues
    monkeypatch.setattr(nulldist, "_top_eigenvalues", lambda *a: change(solve(*a)))


@pytest.mark.parametrize("m", [400, 401, 60])
@pytest.mark.parametrize("dist", ALL_LAWS, ids=str)
def test_nystrom_lanczos_matches_full_solve(dist, m):
    K = min(m, 100)
    grid = dist.ppf((np.arange(m) + 0.5) / m)
    full = np.linalg.eigvalsh(dist.kernel(grid[:, None], grid[None, :]) / m)
    want = full[np.argsort(np.abs(full))[::-1][:K]]
    got = nystrom_eigenvalues(dist, K=K, m=m).eigenvalues
    # K = m takes the whole spectrum, down to 1.7e-5 |lambda_1|, which the
    # dense solve itself finds only to rounding of |lambda_1|
    atol = 1e-15 * abs(want[0]) if K == m else 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("m", [400, 401])
@pytest.mark.parametrize("dist", ALL_LAWS, ids=str)
def test_nystrom_sixteen_values_match_full_solve(dist, m):
    # the asymptotic test's K, whose Lanczos stops after at most 50 steps
    grid = dist.ppf((np.arange(m) + 0.5) / m)
    full = np.linalg.eigvalsh(dist.kernel(grid[:, None], grid[None, :]) / m)
    want = full[np.argsort(np.abs(full))[::-1][:16]]
    got = nystrom_eigenvalues(dist, K=16, m=m).eigenvalues
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * abs(want[0]))


@pytest.mark.parametrize("m", [400, 401])
@pytest.mark.parametrize("dist", ALL_LAWS, ids=str)
def test_grid_operator_matches_the_kernel_matrix(dist, m):
    grid, s, g0 = _grid(dist, m)
    H = dist.kernel(grid[:, None], grid[None, :]) / m
    apply = nulldist._grid_operator(s, g0)
    a = np.arange(m)
    for v in (np.ones(m), a / m, np.cos(0.7 * a) + 0.3):
        np.testing.assert_allclose(apply(v), H @ v, rtol=0, atol=1e-15 * np.abs(H).max() * m)


def test_lanczos_grows_its_steps_by_a_quarter_until_the_ritz_values_converge():
    # evenly spaced eigenvalues converge slowly: 2K = 10 steps are not enough,
    # and n = 10, 12, 15, ..., 235, 293 grows the basis it has, so 293 products
    # in all; doubling n took 320, and restarting at each doubling 630
    d = np.linspace(1.0, 2.0, 1000)
    steps = []
    lam = nulldist._top_eigenvalues(lambda v: steps.append(1) or d * v, d.size, 5)
    np.testing.assert_allclose(lam, d[::-1][:5], rtol=1e-13, atol=0)
    assert len(steps) == 293


@pytest.mark.parametrize("dist", ALL_LAWS, ids=str)
def test_lanczos_finds_the_tests_sixteen_values_in_at_most_50_products(dist, monkeypatch):
    # every law converges by step 42 on the m = 2000 grid, so n = 32, 40, 50
    # stops at 50 products
    products = []
    grid_operator = nulldist._grid_operator

    def counted(s, g0):
        apply = grid_operator(s, g0)
        return lambda v: products.append(1) or apply(v)

    monkeypatch.setattr(nulldist, "_grid_operator", counted)
    assert nystrom_eigenvalues(dist, K=16, m=2000).eigenvalues.size == 16
    assert len(products) <= 50


def test_lanczos_finds_a_fast_decaying_spectrum():
    # 1/j^2: the top 100 span four decades; orthogonalising H q against the
    # whole basis in one pass, without the recurrence first, was 4.3e-12 off
    d = 1.0 / np.arange(1.0, 2001.0) ** 2
    lam = nulldist._top_eigenvalues(lambda v: d * v, d.size, 100)
    np.testing.assert_allclose(lam, d[:100], rtol=1e-12, atol=0)


def test_lanczos_stops_where_the_residual_reaches_rounding():
    # eigenvalues 1 down to 1e-30: once the values left are below rounding the
    # residual beta falls to m eps max|alpha| and the values found are returned;
    # going on from that residual, with one Gram-Schmidt pass per step, the
    # basis lost orthogonality and the top value came out as 1.9e3
    d = 10.0 ** -np.linspace(0.0, 30.0, 60)
    lam = nulldist._top_eigenvalues(lambda v: d * v, d.size, d.size)
    np.testing.assert_allclose(lam, d[:lam.size], rtol=0, atol=nulldist._RITZ_TOL)
    assert np.all(d[lam.size:] <= nulldist._RITZ_TOL)


def _assert_finds_the_eigenvalues(apply, H, K):
    """Lanczos on ``apply`` returns eigenvalues of the dense H, within
    1e-13 |lambda_1|, each no more often than H has it, and every distinct one."""
    full = np.linalg.eigvalsh(H)
    tol = 1e-13 * np.abs(full).max()
    got = nulldist._top_eigenvalues(apply, len(H), K)
    near_got = np.abs(got[:, None] - got[None, :]) <= tol
    near_full = np.abs(got[:, None] - full[None, :]) <= tol
    assert np.all(near_full.sum(axis=1) >= near_got.sum(axis=1))
    assert np.all(np.any(np.abs(full[:, None] - got[None, :]) <= tol, axis=1))
    return got


def test_lanczos_stops_on_an_invariant_krylov_space():
    # two distinct eigenvalues span a 2-dimensional Krylov space; stopping
    # only at beta == 0.0 went on from rounding noise and returned +-1.1e51
    d = np.r_[np.ones(5), np.zeros(55)]
    got = _assert_finds_the_eigenvalues(lambda v: d * v, np.diag(d), 30)
    assert got.size == 2 and got[0] == pytest.approx(1.0, rel=1e-13, abs=0)


def test_lanczos_finds_a_tied_sample_operator():
    # the kernel of a 700-point sample on 8 levels, through the grid
    # operator's formula: 7 nonzero eigenvalues, and 0 693 times; Lanczos
    # returned NaN
    x = np.sort(stream(12).integers(0, 8, 700).astype(float))
    g = np.abs(x[:, None] - x[None, :]).mean(axis=1)
    H = -(np.abs(x[:, None] - x[None, :]) - g[:, None] - g[None, :] + g.mean()) / (2 * x.size)
    apply = nulldist._grid_operator(x - x[0], g - g.mean() / 2)
    got = _assert_finds_the_eigenvalues(apply, H, 16)
    assert got.size < 16 and np.count_nonzero(np.abs(got) > 1e-13 * got[0]) == 7


def test_nystrom_single_point_grid_fails_its_trace_check_without_a_warning():
    # one grid point: its trace misses g(F)/2 by half; and a one-point
    # operator's first Lanczos residual is zero, which stops the iteration
    # instead of dividing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="trace"):
            nystrom_eigenvalues(UNIFORM, K=1, m=1)
        assert nulldist._top_eigenvalues(lambda v: 2.0 * v, 1, 1) == [2.0]


@pytest.mark.parametrize("m", [400, 401])
@pytest.mark.parametrize("family", FAMILIES)
def test_nystrom_builds_no_kernel_matrix(monkeypatch, family, m):
    calls = []
    kernel = ReferenceDistribution.kernel
    monkeypatch.setattr(ReferenceDistribution, "kernel",
                        lambda self, a, b: calls.append(1) or kernel(self, a, b))
    nystrom_eigenvalues(ReferenceDistribution(family), K=100, m=m)
    assert calls == []


@pytest.mark.parametrize("family", ["normal", "exponential"])
def test_nystrom_paper_spectrum_memory_is_bounded(family):
    # a Lanczos basis of 2K = 200 vectors of 2000 points, 3.2 MB; the dense
    # exponential solve peaked at 30.7 MiB and the normal fold at 8.0
    dist = ReferenceDistribution(family)
    assert peak_bytes(nystrom_eigenvalues, dist, K=100, m=2000) < 6 * 2**20


def test_asymptotic_paper_null_memory_is_bounded(w_adjacency):
    # R = 14, K = 100 and 50 draws, the benchmark's paper_asym size: 0.8 MiB,
    # and 10.4 MiB when phi was evaluated at all 2^14 table points
    spectrum = nystrom_eigenvalues(NORMAL, K=100, m=2000)
    assert peak_bytes(asymptotic_null_sample, [spectrum] * 14, w_adjacency,
                      n_draws=50, seed=1) < 2 * 2**20


def test_asymptotic_null_memory_does_not_grow_with_the_pairs():
    # a spectrum per region gives every pair its own weights, but the null
    # builds one CDF table of at least 2^14 points; R = 16 has 92 pairs more
    # than R = 8, and each pair's weights add about 1 KiB, where one more
    # table's y and F take 256 KiB; holding a table per pair peaked at
    # 17.3 MiB at R = 8 and 40.2 MiB at R = 16
    def peak(R):
        rng = stream(5)
        spectra = [_synthetic_spectrum(np.sort(rng.uniform(0.1, 1.0, 4))[::-1])
                   for _ in range(R)]
        W = inverse_distance(rng.uniform(0.0, 10.0, (R, 2)))
        return peak_bytes(asymptotic_null_sample, spectra, W, n_draws=100, seed=1)

    assert peak(16) - peak(8) < 2 * 8 * nulldist._TABLE


def test_asymptotic_null_memory_stays_below_the_pairs_weights():
    # R = 50 has 1225 pairs, whose K^2 = 10^4 weights each would take 98 MB;
    # each pair keeps 100 and the null peaks at 7.8 MiB
    spectrum = nystrom_eigenvalues(NORMAL, K=100, m=2000)
    W = inverse_distance(stream(5).uniform(0.0, 10.0, (50, 2)))
    assert peak_bytes(asymptotic_null_sample, [spectrum] * 50, W, n_draws=100, seed=1) < 16 * 2**20


def test_asymptotic_null_builds_one_table_and_opens_one_stream(monkeypatch):
    # interleaved spectra: the pairs of one pair of spectra are not consecutive
    A, B = _synthetic_spectrum([1.0, 0.5]), _synthetic_spectrum([1.0, -0.3, 0.2])
    W = ProximityMatrix(np.ones((8, 8)) - np.eye(8))
    tables, streams = [], []
    cdf_table, open_stream = nulldist._cdf_table, nulldist.stream
    monkeypatch.setattr(nulldist, "_cdf_table", lambda *a: tables.append(a) or cdf_table(*a))
    monkeypatch.setattr(nulldist, "stream", lambda *ids: streams.append(ids) or open_stream(*ids))
    null = asymptotic_null_sample([A, B] * 4, W, n_draws=100, seed=1)
    assert len(tables) == 1
    assert streams == [(1,)]
    again = asymptotic_null_sample([A, B] * 4, W, n_draws=100, seed=1)
    assert np.array_equal(again.samples, null.samples)
    assert again.meta == null.meta


def test_one_pair_table_is_the_pair_law(monkeypatch):
    # with one nonzero pair, w_p / S0 = 1 and the null's table is that pair's
    # law: its 100 largest distinct weights, normalised by the square sums of
    # the whole spectra, and a normal of the rest, found or not
    spec_i = nystrom_eigenvalues(NORMAL, K=100, m=2000)
    lam_i, lam_j = spec_i.eigenvalues, 1.0 / np.arange(1.0, 41.0) ** 1.5
    assert spec_i.square_sum > np.sum(lam_i**2)
    c, d = np.unique(np.outer(lam_i, lam_j) / np.sqrt(spec_i.square_sum * np.sum(lam_j**2)),
                     return_counts=True)
    kept = np.argsort(-np.abs(c), kind="stable")[:100]
    want = nulldist._cdf_table(c[kept], d[kept], 2.0 * (1.0 - float(d[kept] @ c[kept] ** 2)))
    tables = []
    cdf_table = nulldist._cdf_table
    monkeypatch.setattr(nulldist, "_cdf_table",
                        lambda *a: tables.append(cdf_table(*a)) or tables[-1])
    w = np.zeros((3, 3))
    w[2, 0] = 3.0
    spectra = [spec_i, _synthetic_spectrum([1.0]), _synthetic_spectrum(lam_j)]
    asymptotic_null_sample(spectra, ProximityMatrix(w), n_draws=10, seed=0)
    (y, F), = tables
    assert np.array_equal(y, want[0]) and np.array_equal(F, want[1])


def test_nystrom_square_sum_check_fires(monkeypatch):
    def spread(e):
        # same sum, 5% more square sum than the whole grid operator has
        c = e.mean()
        s = np.sqrt((1.05 * np.sum(e**2) - e.size * c**2) / np.sum((e - c) ** 2))
        return c + s * (e - c)

    _patch_eigensolve(monkeypatch, spread)
    with pytest.raises(ConvergenceError, match="square sum .* is below its eigenvalues'"):
        nystrom_eigenvalues(NORMAL, K=400, m=400)


def test_nystrom_nan_spectrum_fails_its_checks(monkeypatch):
    _patch_eigensolve(monkeypatch, lambda e: np.full_like(e, np.nan))
    with pytest.raises(NonFiniteError):
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
    y, F = nulldist._cdf_table(np.array([1.0]), np.array([1]), 0.0)
    # the grid starts at the support edge -1 and never reads below it
    assert y[0] == -1.0
    assert np.all(np.diff(F) >= 0) and F[0] >= 0 and F[-1] <= 1
    # P(Z^2 - 1 <= y) = 2 Phi(sqrt(y + 1)) - 1; the first 0.1 above the edge
    # holds the ringing of the Fourier sum around the 1/sqrt density spike
    far = y >= -0.9
    exact = 2 * norm.cdf(np.sqrt(y[far] + 1)) - 1
    assert np.max(np.abs(F[far] - exact)) <= 1e-6


def _full_table(c, d, var_rest):
    """Oracle: the CDF table with phi evaluated at every one of its n points,
    n the fewest of 2^14, ..., 2^20 whose truncation bound is met."""
    log_eps, mu = -np.log(nulldist._TAIL_MASS), float(d @ c)
    z = np.sqrt(2.0 * log_eps * var_rest)
    lo = -mu - nulldist._chi2_edge(np.maximum(-c, 0.0), d, log_eps) - z
    span = -mu + nulldist._chi2_edge(np.maximum(c, 0.0), d, log_eps) + z - lo
    for n in 2 ** np.arange(14, 21):
        t_max = 2 * np.pi * n / span
        log_err = (-0.25 * (np.log1p((2 * t_max * c) ** 2) @ d)
                   - 0.5 * var_rest * t_max**2 - np.log(np.pi * t_max))
        if log_err <= np.log(nulldist._TRUNC_TOL):
            break
    t = (np.arange(n) + 0.5) * (2 * np.pi / span)
    log_phi = -1j * t * (mu + lo) - 0.5 * var_rest * t * t
    for j in range(c.size):
        x = np.multiply.outer(2.0 * t, c[j:j + 1])
        log_phi += (0.5j * np.arctan(x) - 0.25 * np.log1p(x * x)) @ d[j:j + 1]
    S = np.fft.fft(np.exp(log_phi) / t) * np.exp(-1j * np.pi * np.arange(n) / n)
    F = np.maximum.accumulate(np.clip(0.5 - 2.0 * S.imag / span, 0.0, 1.0))
    return lo + span / n * np.arange(n), F


@pytest.mark.parametrize("case", ["paper null", "chi2_1", "normal remainder"])
def test_table_matches_phi_at_every_table_point(monkeypatch, w_adjacency, case):
    # phi is evaluated only up to where the truncation bound is met, on the
    # same y-grid; a single chi2_1 weight meets it only at 2^18 points, so
    # there it is evaluated at every table point and gives the same bits
    if case == "paper null":
        # the kept weights and remainder variance of the paper design's null
        tables, cdf_table = [], nulldist._cdf_table
        monkeypatch.setattr(nulldist, "_cdf_table", lambda *a: tables.append(a) or cdf_table(*a))
        spectrum = nystrom_eigenvalues(NORMAL, K=100, m=2000)
        asymptotic_null_sample([spectrum] * 14, w_adjacency, n_draws=1, seed=1)
        monkeypatch.undo()
        (c, d, var_rest), = tables
    elif case == "chi2_1":
        c, d, var_rest = np.array([1.0]), np.array([1]), 0.0
    else:
        c, d, var_rest = np.array([0.3, -0.2, 0.1]), np.array([1, 2, 1]), 4.0
    y, F = nulldist._cdf_table(c, d, var_rest)
    y_full, F_full = _full_table(c, d, var_rest)
    assert np.array_equal(y, y_full)
    if case == "chi2_1":
        assert np.array_equal(F, F_full)
    assert np.max(np.abs(F - F_full)) <= nulldist._TRUNC_TOL


def test_truncated_table_matches_all_weights():
    lam = nystrom_eigenvalues(NORMAL, K=100, m=2000).eigenvalues
    c, d = np.unique(np.outer(lam, lam) / np.sum(lam**2), return_counts=True)
    assert c.size == 100 * 101 // 2
    kept, counts, var_rest = nulldist._largest(c, d)
    assert kept.size == 100
    order = np.argsort(-np.abs(c))
    assert var_rest == pytest.approx(2 * np.sum((d * c**2)[order[100:]]), rel=1e-12)
    y, F = nulldist._cdf_table(kept, counts, var_rest)
    y_all, F_all = nulldist._cdf_table(c, d, 0.0)
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


@pytest.mark.parametrize("lam, error", [
    ([], SizeError),
    ([1.0, np.nan], NonFiniteError),
    ([np.inf, 1.0], NonFiniteError),
    ([0.0, 0.0, 0.0], DegenerateRegionError),
], ids=["empty", "nan", "inf", "zero"])
def test_eigen_spectrum_rejects_degenerate_eigenvalues(lam, error):
    # an all-zero spectrum gave all-NaN null samples, and p = 1/101 from 100
    with pytest.raises(error):
        _synthetic_spectrum(lam)


@pytest.mark.parametrize("square_sum, error", [
    (np.nan, NonFiniteError),
    (np.inf, NonFiniteError),
    (0.0, InvalidParameterError),
    (-1.0, InvalidParameterError),
    (1.0 + 0.25 - 1e-9, ConvergenceError),
], ids=["nan", "inf", "zero", "negative", "below"])
def test_eigen_spectrum_rejects_a_bad_square_sum(square_sum, error):
    # a square sum below the eigenvalues' own gave a pair a negative remainder
    with pytest.raises(error):
        EigenSpectrum(np.array([1.0, -0.5]), square_sum)


def test_eigen_spectrum_square_sum_defaults_to_its_eigenvalues():
    lam = np.array([1.0, -0.5, 0.1])
    assert EigenSpectrum(lam).square_sum == 1.26
    # a rounding below the eigenvalues' own passes; more than it counts
    assert EigenSpectrum(lam, 1.26 * (1 - 1e-14)).square_sum == 1.26 * (1 - 1e-14)
    assert EigenSpectrum(lam, 2.0).square_sum == 2.0


def _spectrum_calls(monkeypatch):
    """The K of every spectrum the next asymptotic test path finds."""
    calls, solve = [], nulldist.nystrom_eigenvalues
    monkeypatch.setattr(nulldist, "nystrom_eigenvalues",
                        lambda dist, K, m: calls.append(K) or solve(dist, K, m))
    return calls


def _one_pair_w():
    w = np.zeros((3, 3))
    w[2, 0] = 3.0
    return ProximityMatrix(w)


def test_asymptotic_null_finds_16_eigenvalues_for_the_district_w(monkeypatch, w_adjacency):
    # one spectrum of 16 values for every family: the square sum counts the rest
    calls = _spectrum_calls(monkeypatch)
    for family in FAMILIES:
        calls.clear()
        asymptotic_null(ReferenceDistribution(family), w_adjacency, n_draws=10, seed=1)
        assert calls == [16]


def test_asymptotic_null_finds_min_16_k_eigenvalues_for_any_w(monkeypatch, w_chain):
    # a chain and one pair, whose law keeps weights past lam_16, find no more;
    # a K under 16 caps the one solve
    calls = _spectrum_calls(monkeypatch)
    for W in (w_chain, _one_pair_w()):
        for K, want in ((100, [16]), (10, [10]), (40, [16])):
            calls.clear()
            asymptotic_null(NORMAL, W, K=K, n_draws=10, seed=1)
            assert calls == want


def _table_at_the_parent(spectra, W):
    """Oracle: the table with each pair normalised by the square sum of the
    eigenvalues found and its remainder the square sum of its weights dropped."""
    iu = np.triu_indices(W.n_regions, k=1)
    w_pair = (W.weights + W.weights.T)[iu] / W.s0
    scaled, counts, var_rest = [], [], 0.0
    for p in np.flatnonzero(w_pair):
        lam_i, lam_j = spectra[iu[0][p]].eigenvalues, spectra[iu[1][p]].eigenvalues
        c = np.multiply.outer(lam_i, lam_j) / np.sqrt(np.sum(lam_i**2) * np.sum(lam_j**2))
        c, d, rest = nulldist._largest(*np.unique(c, return_counts=True))
        scaled.append(w_pair[p] * c)
        counts.append(d)
        var_rest += rest * w_pair[p] ** 2
    c, merged = np.unique(np.concatenate(scaled), return_inverse=True)
    c, d, rest = nulldist._largest(c, np.bincount(merged, weights=np.concatenate(counts)))
    return nulldist._cdf_table(c, d, var_rest + rest)


@pytest.mark.parametrize("family", FAMILIES)
def test_fewest_eigenvalue_table_matches_the_k_100_table(w_adjacency, w_chain, family):
    # the table from 16 eigenvalues and the square sum against the K = 100
    # table normalised by the values found: the tail past them moves F
    dist = ReferenceDistribution(family)
    spectrum = nystrom_eigenvalues(dist, K=100, m=2000)
    few = nystrom_eigenvalues(dist, K=16, m=2000)
    for W, tol in ((w_adjacency, 3e-7), (w_chain, 3e-7), (_one_pair_w(), 4e-6)):
        y, F = nulldist._cdf_table(*nulldist._limit_law([few] * W.n_regions, W))
        y_want, F_want = _table_at_the_parent([spectrum] * W.n_regions, W)
        assert np.max(np.abs(np.interp(y_want, y, F) - F_want)) <= tol
        # the test path draws this table
        assert np.array_equal(asymptotic_null(dist, W, n_draws=50, seed=1).samples,
                              asymptotic_null_sample([few] * W.n_regions, W,
                                                     n_draws=50, seed=1).samples)


def test_asymptotic_null_checks_its_sizes_before_any_eigensolve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("an eigensolve ran")

    with monkeypatch.context() as patch:
        patch.setattr(nulldist, "_top_eigenvalues", no_solve)
        # a grid of 10 points cannot hold the 16 eigenvalues the test finds;
        # the message names the K given, not the min(16, K) passed on
        with pytest.raises(InvalidParameterError, match=r"min\(K, 16\) <= m, got K=100, m=10$"):
            asymptotic_null(NORMAL, W2, K=100, m=10)
        with pytest.raises(InvalidParameterError, match=r"^K must be an integer of at least 1"):
            asymptotic_null(NORMAL, W2, K=0, m=50)
        with pytest.raises(EmptyNullError):
            asymptotic_null(NORMAL, W2, n_draws=0)
    # K = 100 exceeds a grid of 50 points, which holds the 16 values the test finds
    sixteen = nystrom_eigenvalues(NORMAL, K=16, m=50)
    assert sixteen.eigenvalues.size == 16
    assert np.array_equal(asymptotic_null(NORMAL, W2, K=100, m=50, n_draws=20, seed=1).samples,
                          asymptotic_null_sample([sixteen] * 2, W2, n_draws=20, seed=1).samples)


@pytest.mark.parametrize("T", [1, 2])
def test_monte_carlo_rejects_short_series_before_any_draw(monkeypatch, T):
    # unchecked, T = 1 divides by C(T, 2) = 0 and T = 2 fails as a constant series
    def no_draw(*args, **kw):
        raise AssertionError("replicates were simulated")

    monkeypatch.setattr(nulldist, "sb_replicates", no_draw)
    with pytest.raises(LengthError, match="T must be an integer of at least 3"):
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


@pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
def test_null_distribution_rejects_non_finite_samples(sample):
    # a NaN null, from any route, must not yield a p-value
    with pytest.raises(NonFiniteError):
        NullDistribution(np.array([0.0, sample, 1.0]))


@pytest.mark.parametrize("observed", [np.nan, np.inf, -np.inf])
def test_p_value_rejects_non_finite_observed(observed):
    # a NaN statistic must not read as the smallest possible p-value
    null = NullDistribution(np.arange(99, dtype=float))
    with pytest.raises(NonFiniteError):
        p_value(observed, null)
