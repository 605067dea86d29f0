"""AR pre-whitening, autocorrelation and moment summary tests."""

import numpy as np
import pytest

from sbergsma import (
    SpatialPanel,
    acf,
    fit_ar,
    linear_chain,
    moments,
    residual_panel,
    row_standardize,
    sb_statistic,
)
from sbergsma.exceptions import (
    DimensionMismatchError,
    LagError,
    NonFiniteError,
    RankDeficientError,
    SampleSizeError,
    ShortSeriesError,
)
from sbergsma.rng import stream


def test_exact_ar1_recursion_recovered():
    x = np.empty(30)
    x[0] = 1.0
    for t in range(1, 30):
        x[t] = 0.5 * x[t - 1]
    fit = fit_ar(x, 1)
    assert fit.coefficients == pytest.approx([0.0, 0.5], abs=1e-12)
    assert np.max(np.abs(fit.residuals)) < 1e-12
    assert fit.residuals.size == 29


def test_constant_series_rank_deficient():
    with pytest.raises(RankDeficientError):
        fit_ar(np.full(40, 3.0), 1)


def test_ar3_coefficients_recovered_within_se():
    phi = np.array([0.4, 0.2, 0.1])
    rng = stream(606)
    T = 500
    x = np.zeros(T + 100)
    eps = rng.standard_normal(T + 100)
    for t in range(3, T + 100):
        x[t] = phi @ x[t - 3 : t][::-1] + eps[t]
    x = x[100:]
    fit = fit_ar(x, 3)
    # OLS standard errors from the fitted design
    X = np.column_stack(
        [np.ones(T - 3)] + [x[3 - k : T - k] for k in range(1, 4)]
    )
    sigma2 = float(fit.residuals @ fit.residuals) / (T - 3 - 4)
    se = np.sqrt(sigma2 * np.diagonal(np.linalg.inv(X.T @ X)))
    assert np.all(np.abs(fit.coefficients - np.r_[0.0, phi]) < 3 * se)


def _with(bad):
    x = stream(45).standard_normal(30)
    x[10] = bad
    return x


def test_fit_ar_errors():
    with pytest.raises(ShortSeriesError):
        fit_ar(np.arange(7.0), 3)  # needs T > 8
    with pytest.raises(ShortSeriesError):
        fit_ar(np.arange(20.0), 0)
    # NaN or inf used to give NaN coefficients, a 2-d series numpy's ValueError
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            fit_ar(_with(bad), 1)
    with pytest.raises(DimensionMismatchError):
        fit_ar(np.ones((30, 2)), 1)


def test_residuals_orthogonal_to_design():
    rng = stream(44)
    x = rng.standard_normal(60)
    fit = fit_ar(x, 2)
    X = np.column_stack([np.ones(58), x[1:59], x[0:58]])
    assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8


def test_residual_panel_shape_and_labels():
    rng = stream(13)
    panel = SpatialPanel(rng.standard_normal((50, 4)), ("a", "b", "c", "d"))
    res = residual_panel(panel, 2)
    assert res.data.shape == (48, 4)
    assert res.region_labels == ("a", "b", "c", "d")


def test_residual_panel_columns_match_fits_of_contiguous_series():
    # the fit takes its own contiguous copy, so a panel column, a strided
    # view, gives the same bits as its values stored alone; on a view, numpy
    # took Q'y by another loop and 6 of these 14 columns differed in the last bit
    data = stream(45).standard_normal((50, 14))
    res = residual_panel(SpatialPanel(data), 3)
    for i in range(14):
        assert np.array_equal(res.data[:, i], fit_ar(data[:, i].copy(), 3).residuals)


def test_residual_panel_names_failing_region():
    data = np.column_stack([np.arange(30.0), np.full(30, 1.0)])
    panel = SpatialPanel(data, ("ok", "flat"))
    with pytest.raises(RankDeficientError, match="flat"):
        residual_panel(panel, 1)


def test_residual_panel_error_names_region_once():
    data = np.column_stack([np.arange(30.0), np.full(30, 1.0)])
    panel = SpatialPanel(data, ("ok", "flat"))
    with pytest.raises(RankDeficientError) as exc:
        residual_panel(panel, 1)
    assert str(exc.value).count("flat") == 1


def test_identical_columns_keep_unit_statistic_after_whitening():
    rng = stream(21)
    base = rng.standard_normal(40)
    panel = SpatialPanel(np.column_stack([base] * 3))
    res = residual_panel(panel, 1)
    W = row_standardize(linear_chain(3))
    assert sb_statistic(res, W).value == pytest.approx(1.0, abs=1e-10)


def test_acf_basics():
    vals, thr = acf([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2)
    assert vals[0] == 1.0
    assert vals[1] > vals[2] > 0.0
    assert thr == pytest.approx(1.96 / np.sqrt(6))


def test_acf_alternating_series():
    x = np.tile([1.0, -1.0], 10)
    vals, _ = acf(x, 3)
    assert vals[1] < 0 < vals[2]


def test_acf_errors():
    with pytest.raises(LagError):
        acf(np.arange(5.0), 5)
    with pytest.raises(SampleSizeError):
        acf(np.full(10, 2.0), 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            acf(_with(bad), 3)
    with pytest.raises(DimensionMismatchError):
        acf(np.ones((30, 2)), 3)


def test_moments_hand_case():
    m, sd, skew, kurt = moments([-1.0, 1.0, -1.0, 1.0])
    assert (m, sd, skew, kurt) == (0.0, 1.0, 0.0, 1.0)


def test_moments_normal_sample():
    rng = stream(2)
    m, sd, skew, kurt = moments(rng.standard_normal(200_000))
    assert abs(m) < 0.01
    assert sd == pytest.approx(1.0, abs=0.01)
    assert abs(skew) < 0.03
    assert kurt == pytest.approx(3.0, abs=0.05)


def test_moments_errors():
    with pytest.raises(SampleSizeError):
        moments([1.0, 2.0, 3.0])
    with pytest.raises(SampleSizeError):
        moments(np.full(10, 5.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            moments(_with(bad))
