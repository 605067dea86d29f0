"""Null distribution tests: Nystrom spectra, asymptotic draws, p-values."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sbergsma import (
    EigenSpectrum,
    ProximityMatrix,
    ReferenceDistribution,
    asymptotic_null_sample,
    monte_carlo_null,
    nystrom_eigenvalues,
    p_value,
    row_standardize,
    linear_chain,
)
from sbergsma.exceptions import (
    DimensionMismatchError,
    EmptyNullError,
    NonFiniteError,
    SpectraMismatchError,
    UnsupportedDistributionError,
)
from sbergsma.nulldist import NullDistribution

NORMAL = ReferenceDistribution("normal")
UNIFORM = ReferenceDistribution("uniform")

W2 = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _synthetic_spectrum(lam) -> EigenSpectrum:
    return EigenSpectrum(np.asarray(lam, dtype=float))


def test_nystrom_trace_normal():
    spec = nystrom_eigenvalues(NORMAL, K=100, m=1000)
    assert spec.eigenvalues.sum() == pytest.approx(1 / np.sqrt(np.pi), rel=0.02)


def test_nystrom_trace_uniform():
    spec = nystrom_eigenvalues(UNIFORM, K=100, m=1000)
    assert spec.eigenvalues.sum() == pytest.approx(1 / 6, rel=0.02)
    # leading eigenvalues are 1/(pi^2 k^2) for the uniform kernel
    ks = np.arange(1, 11)
    assert np.allclose(spec.eigenvalues[:10], 1 / (np.pi * ks) ** 2, rtol=0.01)


def test_nystrom_memoised_per_arguments():
    spec = nystrom_eigenvalues(UNIFORM, K=100, m=1000)
    assert nystrom_eigenvalues(ReferenceDistribution("uniform"), K=100, m=1000) is spec
    assert nystrom_eigenvalues(UNIFORM, K=50, m=1000) is not spec
    # every caller shares the one array, so no caller may write to it
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


def test_nystrom_rejects_bad_k():
    with pytest.raises(UnsupportedDistributionError):
        nystrom_eigenvalues(NORMAL, K=0, m=100)
    with pytest.raises(UnsupportedDistributionError):
        nystrom_eigenvalues(NORMAL, K=200, m=100)


def test_asymptotic_single_eigenvalue_is_centered_chi_square():
    spectra = [_synthetic_spectrum([1.0])] * 2
    null = asymptotic_null_sample(spectra, W2, n_draws=40_000, seed=3)
    # each draw is Z^2 - 1
    assert null.samples.mean() == pytest.approx(0.0, abs=0.03)
    assert null.samples.var() == pytest.approx(2.0, rel=0.05)
    assert null.samples.min() >= -1.0 - 1e-12


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
    assert a.meta["common_spectrum"]
    assert ks_2samp(a.samples, b.samples).statistic < 0.02


def test_asymptotic_spectra_count_checked():
    with pytest.raises(SpectraMismatchError):
        asymptotic_null_sample([_synthetic_spectrum([1.0])] * 3, W2, 100, 0)


def test_asymptotic_rejects_zero_draws():
    with pytest.raises(EmptyNullError):
        asymptotic_null_sample([_synthetic_spectrum([1.0])] * 2, W2, 0, 0)


def test_monte_carlo_rejects_w_of_another_size():
    with pytest.raises(DimensionMismatchError):
        monte_carlo_null(NORMAL, 5, 10, row_standardize(linear_chain(4)), reps=10)


def test_monte_carlo_determinism_and_threads():
    W = row_standardize(linear_chain(6))
    a = monte_carlo_null(NORMAL, 6, 20, W, reps=300, seed=5)
    b = monte_carlo_null(NORMAL, 6, 20, W, reps=300, seed=5)
    c = monte_carlo_null(NORMAL, 6, 20, W, reps=300, seed=5, n_jobs=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)
    d = monte_carlo_null(NORMAL, 6, 20, W, reps=300, seed=6)
    assert not np.array_equal(a.samples, d.samples)


def test_monte_carlo_single_rep():
    W = row_standardize(linear_chain(4))
    null = monte_carlo_null(NORMAL, 4, 10, W, reps=1, seed=9)
    assert null.samples.shape == (1,)
    assert np.isfinite(null.samples).all()


def test_monte_carlo_replicate_prefix_stable():
    # the first r samples do not depend on the total rep count
    W = row_standardize(linear_chain(4))
    small = monte_carlo_null(NORMAL, 4, 12, W, reps=150, seed=2)
    large = monte_carlo_null(NORMAL, 4, 12, W, reps=450, seed=2)
    assert np.array_equal(small.samples, large.samples[:150])


def test_p_value_rules():
    null = NullDistribution(np.arange(9999, dtype=float), "monte_carlo")
    assert p_value(1e12, null) == pytest.approx(1 / 10_000)
    assert p_value(-1e12, null) == pytest.approx(1.0)
    med = float(np.median(null.samples))
    assert p_value(med, null) == pytest.approx(0.5, abs=1e-4)


def test_p_value_empty():
    with pytest.raises(EmptyNullError):
        p_value(0.0, NullDistribution(np.array([]), "monte_carlo"))


@pytest.mark.parametrize("observed", [np.nan, np.inf, -np.inf])
def test_p_value_rejects_non_finite_observed(observed):
    # a NaN statistic must not read as the smallest possible p-value
    null = NullDistribution(np.arange(99, dtype=float), "monte_carlo")
    with pytest.raises(NonFiniteError):
        p_value(observed, null)
