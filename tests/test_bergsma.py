"""Kernel matrix and U-statistic estimator tests, and the intake rules of
records and count arguments."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbergsma import (
    ARFit,
    DependenceSpec,
    EigenSpectrum,
    NullDistribution,
    ProximityMatrix,
    ReferenceDistribution,
    SBResult,
    SpatialPanel,
    SweepResult,
    acf,
    adjacency_from_edges,
    asymptotic_null_sample,
    bootstrap_ci,
    fit_ar,
    independence_rho_quantile,
    linear_chain,
    monte_carlo_null,
    nystrom_eigenvalues,
    rho_tilde,
    sb_statistic,
    sb_values_batch,
    simulate_panel,
    theta_sweep,
)
from sbergsma import depmodels, inference, nulldist
from sbergsma.bergsma import _centring, panel_kernel_stack, pairwise_kappa
from sbergsma.exceptions import (
    DegenerateRegionError,
    DimensionMismatchError,
    EmptyNullError,
    InvalidParameterError,
    LagError,
    LengthError,
    NonFiniteError,
    RegionIndexError,
    SampleSizeError,
    ShortSeriesError,
    SizeError,
)
from sbergsma.nulldist import asymptotic_null
from sbergsma.rng import stream

from conftest import (
    dense_kappa,
    dense_kernel,
    naive_kappa,
    naive_kernel,
    naive_rho,
    peak_bytes,
)

series_strategy = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=25,
).filter(lambda v: max(v) - min(v) > 1e-6)


def test_every_export_resolves():
    import sbergsma

    assert len(set(sbergsma.__all__)) == len(sbergsma.__all__)
    for name in sbergsma.__all__:
        assert getattr(sbergsma, name) is not None, name


def centred_kernel(z):
    """h~ from the library's centring vector: -1/2 (|z_m - z_n| - a_m - a_n)."""
    z = np.asarray(z, dtype=float)
    a = _centring(z)
    return -0.5 * (np.abs(z[:, None] - z) - a[:, None] - a)


def test_kernel_hand_values():
    z = np.array([0.0, 1.0, 2.0])
    expected = np.array(
        [
            [5 / 6, 1 / 12, -1 / 6],
            [1 / 12, 1 / 3, 1 / 12],
            [-1 / 6, 1 / 12, 5 / 6],
        ]
    )
    assert np.max(np.abs(centred_kernel(z) - expected)) < 1e-15
    assert abs(pairwise_kappa(z[:, None])[0, 0] - 1 / 72) < 1e-15


def test_kernel_t2_off_diagonal_cancels():
    # at T = 2 the bracketed term cancels exactly for m != n, so the one
    # pair that enters kappa~ contributes zero
    z = np.array([0.0, 1.0])
    assert centred_kernel(z)[0, 1] == 0.0


@given(series_strategy)
@settings(max_examples=50, deadline=None)
def test_centring_matches_naive_kernel(values):
    assert np.allclose(centred_kernel(values), naive_kernel(values), rtol=1e-12, atol=1e-12)


def test_kernel_shift_invariance():
    z = np.array([0.3, -1.2, 5.0, 2.2])
    y = np.array([1.0, 0.5, -2.0, 4.0])
    assert np.allclose(_centring(z + 17.5), _centring(z), rtol=0, atol=1e-12)
    K = pairwise_kappa(np.column_stack([z, y]))
    K2 = pairwise_kappa(np.column_stack([z + 17.5, y]))
    assert np.allclose(K2, K, rtol=0, atol=1e-12)


@given(series_strategy, st.sampled_from([-2.0, 0.5, 3.0]))
@settings(max_examples=30, deadline=None)
def test_kernel_scale_equivariance(values, c):
    z = np.asarray(values)
    y = np.random.default_rng(len(z)).standard_normal(len(z))
    a = _centring(z)
    assert np.allclose(_centring(c * z), abs(c) * a, rtol=1e-10, atol=1e-10)
    # kappa~(c x, y) = |c| kappa~(x, y) and kappa~(c x, c x) = c^2 kappa~(x, x)
    K = pairwise_kappa(np.column_stack([z, y]))
    K2 = pairwise_kappa(np.column_stack([c * z, y]))
    scale = abs(c) * np.sqrt(K[0, 0] * K[1, 1])
    assert abs(K2[0, 1] - abs(c) * K[0, 1]) <= 1e-10 * scale
    assert K2[0, 0] == pytest.approx(c**2 * K[0, 0], rel=1e-10)
    assert K2[1, 1] == K[1, 1]


def test_kappa_annihilator():
    # a constant series has an all-zero kernel, so it annihilates any other
    K = pairwise_kappa(np.column_stack([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]]))
    assert K[0, 1] == 0.0 and K[1, 0] == 0.0 and K[1, 1] == 0.0


def test_rho_self_and_affine():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert rho_tilde(x, x) == pytest.approx(1.0, abs=1e-12)
    assert rho_tilde(x, -3 * x + 7) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [-2.0, 0.5, 3.0])
@pytest.mark.parametrize("b", [-1.0, 0.0, 10.0])
def test_rho_affine_invariance(a, b):
    rng = stream(101)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    base = rho_tilde(x, y)
    assert rho_tilde(a * x + b, y) == pytest.approx(base, abs=1e-12)
    assert rho_tilde(x, a * y + b) == pytest.approx(base, abs=1e-12)


def test_rho_symmetry_exact():
    rng = stream(17)
    x = rng.standard_normal(15)
    y = rng.standard_normal(15)
    assert rho_tilde(x, y) == rho_tilde(y, x)


@pytest.mark.parametrize("power", [-400, 400])
def test_rho_bitwise_unchanged_by_power_of_two_scale(power):
    rng = stream(18)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    assert rho_tilde(x * 2.0**power, y) == rho_tilde(x, y)
    assert rho_tilde(x, y * 2.0**power) == rho_tilde(x, y)


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_spread_too_small_to_square_is_degenerate(scale):
    # at 1e-160 the self-covariance is subnormal and rho~ would be off in the
    # 4th digit; at 1e-200 it underflows to 0, though no series is constant
    rng = stream(19)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    with pytest.raises(DegenerateRegionError, match="too small a spread.*: x$"):
        rho_tilde(x * scale, y)
    data = rng.standard_normal((30, 3))
    data[:, 1] *= scale
    panel = SpatialPanel(data, ("north", "middle", "south"))
    with pytest.raises(DegenerateRegionError, match="too small a spread.*: middle$"):
        sb_statistic(panel, linear_chain(3))


_SHORT_PANEL_ENTRIES = {
    "SpatialPanel": lambda T: SpatialPanel(np.ones((T, 3))),
    "pairwise_kappa": lambda T: pairwise_kappa(np.ones((T, 3))),
    "sb_values_batch": lambda T: sb_values_batch(np.ones((4, T, 3)), linear_chain(3)),
    "rho_tilde": lambda T: rho_tilde(np.arange(T), np.arange(T)),
    "simulate_panel": lambda T: simulate_panel(DependenceSpec("SMA", 0.5, linear_chain(3)), T),
    "theta_sweep": lambda T: theta_sweep("SMA", linear_chain(3), [0.0], T, reps=10),
    "monte_carlo_null": lambda T: monte_carlo_null(
        ReferenceDistribution("normal"), T, linear_chain(3), reps=10),
    "independence_rho_quantile": lambda T: independence_rho_quantile(T, n_sim=10),
}


@pytest.mark.parametrize("entry", sorted(_SHORT_PANEL_ENTRIES))
def test_every_entry_point_rejects_short_panels_alike(entry, monkeypatch):
    # one check, so one category and one message, and nothing drawn first
    def no_draw(*args, **kw):
        raise AssertionError("a random stream was opened")

    for module in (depmodels, inference, nulldist):
        monkeypatch.setattr(module, "stream", no_draw)
    with pytest.raises(LengthError, match=r"^T must be an integer of at least 3, got 2$"):
        _SHORT_PANEL_ENTRIES[entry](2)


#: each record: how it is built from one array, the arrays it holds, and a
#: value of the right ndim
_RECORDS = {
    "SpatialPanel": (SpatialPanel, lambda r: [r.data], [[1.0, 2.0], [3.0, 5.0], [4.0, 1.0]]),
    "ProximityMatrix": (ProximityMatrix, lambda r: [r.weights], [[0.0, 1.0], [1.0, 0.0]]),
    "SBResult": (lambda a: SBResult(0.1, a, 0.3), lambda r: [r.pair_rho], [[1.0, 0.0], [0.0, 1.0]]),
    "EigenSpectrum": (EigenSpectrum, lambda r: [r.eigenvalues], [1.0, 0.5]),
    "NullDistribution": (NullDistribution, lambda r: [r.samples], [1.0, 2.0]),
    "ARFit": (lambda a: ARFit(a, a), lambda r: [r.coefficients, r.residuals], [0.5, -0.5]),
    "SweepResult": (lambda a: SweepResult("SMA", {0.0: a}), lambda r: list(r.samples.values()),
                    [1.0, 2.0]),
}


@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_every_record_holds_a_read_only_float64_copy(record):
    build, arrays, value = _RECORDS[record]
    for held in arrays(build(value)):
        assert held.dtype == np.float64 and not held.flags.writeable
    given = np.array(value, dtype=np.float32)
    rec = build(given)
    assert given.flags.writeable
    given[...] = 9.0
    for held in arrays(rec):
        assert np.array_equal(held, value)
    with pytest.raises(DimensionMismatchError, match=r"-d, got shape \(1, "):
        build(np.array(value)[None])
    bad = np.array(value)
    bad.flat[1] = np.nan
    with pytest.raises(NonFiniteError, match="contains NaN or infinite values$"):
        build(bad)


_W3, _NORMAL = linear_chain(3), ReferenceDistribution("normal")
_PANEL = SpatialPanel(stream(3).standard_normal((8, 3)))
_SERIES = stream(4).standard_normal(12)

#: each count argument: a call that passes it, the error it raises, its
#: bound, and a value that runs
_COUNTS = {
    "monte_carlo_null T": (lambda n: monte_carlo_null(_NORMAL, n, _W3, reps=2), LengthError, 3, 5),
    "monte_carlo_null reps": (lambda n: monte_carlo_null(_NORMAL, 5, _W3, reps=n),
                              EmptyNullError, 1, 2),
    "monte_carlo_null n_jobs": (lambda n: monte_carlo_null(_NORMAL, 5, _W3, reps=2, n_jobs=n),
                                InvalidParameterError, 1, 2),
    "monte_carlo_null seed": (lambda n: monte_carlo_null(_NORMAL, 5, _W3, reps=2, seed=n),
                              InvalidParameterError, 0, 1),
    "test_spatial_independence reps": (
        lambda n: inference.test_spatial_independence(_PANEL, _W3, reps=n),
        EmptyNullError, 1, 2),
    "test_spatial_independence n_jobs": (
        lambda n: inference.test_spatial_independence(_PANEL, _W3, reps=2, n_jobs=n),
        InvalidParameterError, 1, 1),
    "bootstrap_ci B": (lambda n: bootstrap_ci(_PANEL, _W3, B=n), InvalidParameterError, 200, 200),
    "independence_rho_quantile T": (lambda n: independence_rho_quantile(n, n_sim=2),
                                    LengthError, 3, 5),
    "independence_rho_quantile n_sim": (lambda n: independence_rho_quantile(5, n_sim=n),
                                        InvalidParameterError, 1, 2),
    "theta_sweep reps": (lambda n: theta_sweep("SMA", _W3, [0.0], 5, reps=n),
                         SampleSizeError, 4, 4),
    "nystrom_eigenvalues K": (lambda n: nystrom_eigenvalues(_NORMAL, K=n, m=50),
                              InvalidParameterError, 1, 2),
    "nystrom_eigenvalues m": (lambda n: nystrom_eigenvalues(_NORMAL, K=1, m=n),
                              InvalidParameterError, 1, 50),
    "asymptotic_null K": (lambda n: asymptotic_null(_NORMAL, _W3, K=n, m=50, n_draws=2),
                          InvalidParameterError, 1, 2),
    "asymptotic_null m": (lambda n: asymptotic_null(_NORMAL, _W3, K=2, m=n, n_draws=2),
                          InvalidParameterError, 1, 50),
    "asymptotic_null n_draws": (lambda n: asymptotic_null(_NORMAL, _W3, K=2, m=50, n_draws=n),
                                EmptyNullError, 1, 2),
    "asymptotic_null_sample n_draws": (
        lambda n: asymptotic_null_sample([EigenSpectrum([1.0])] * 3, _W3, n_draws=n),
        EmptyNullError, 1, 2),
    "adjacency_from_edges R": (lambda n: adjacency_from_edges([(1, 2)], n), SizeError, 2, 3),
    "adjacency_from_edges edge": (lambda n: adjacency_from_edges([(n, 2)], 3),
                                  RegionIndexError, 1, 1),
    "linear_chain R": (linear_chain, SizeError, 2, 3),
    "fit_ar p": (lambda n: fit_ar(_SERIES, n), ShortSeriesError, 1, 1),
    "acf max_lag": (lambda n: acf(_SERIES, n), LagError, 0, 2),
}


@pytest.mark.parametrize("count", sorted(_COUNTS))
def test_every_count_is_an_integer_of_at_least_its_bound(count):
    # a float or a bool used to end in a bare TypeError or IndexError, or
    # to count as 1
    call, error, least, runs = _COUNTS[count]
    for bad in (10.5, True, least - 1):
        with pytest.raises(error, match=re.escape(f"at least {least}, got {bad!r}") + "$"):
            call(bad)
    call(np.int64(runs))


def test_rho_degenerate_and_length_errors():
    with pytest.raises(DegenerateRegionError):
        rho_tilde([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(LengthError):
        rho_tilde([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        rho_tilde([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(LengthError):
        rho_tilde([1.0], [1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            rho_tilde([1.0, bad, 2.0], [0.0, 1.0, 2.0])
        with pytest.raises(NonFiniteError):
            rho_tilde([0.0, 1.0, 2.0], [1.0, 2.0, bad])
    with pytest.raises(DimensionMismatchError):
        rho_tilde(np.ones((3, 2)), [0.0, 1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        rho_tilde([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0]])


@given(series_strategy)
@settings(max_examples=30, deadline=None)
def test_rho_matches_naive(values):
    rng = np.random.default_rng(len(values))
    y = rng.standard_normal(len(values))
    if np.ptp(y) < 1e-6:
        return
    assert rho_tilde(values, y) == pytest.approx(naive_rho(values, y), rel=1e-10, abs=1e-10)


def test_kappa_unbiased_under_independence():
    # mean of kappa~ over independent pairs is 0 within Monte Carlo error
    reps, T = 10_000, 50
    vals = np.empty(reps)
    for lo in range(0, reps, 500):
        X = stream(300, lo).standard_normal((500, T, 2))
        vals[lo : lo + 500] = pairwise_kappa(X)[:, 0, 1]
    se = vals.std() / np.sqrt(reps)
    assert abs(vals.mean()) < 3 * se


def test_rho_bound_logged_not_asserted():
    # |rho~| <= 1 is an empirical observation, not a proven finite-sample bound
    rng = stream(55)
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(3, 30))
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        worst = max(worst, abs(rho_tilde(x, y)))
    if worst > 1 + 1e-12:
        print(f"note: |rho~| bound exceeded: {worst}")
    assert worst < 1.5  # sanity only


def test_nonlinear_dependence_detected_where_pearson_fails():
    # y = x^2 is uncorrelated with x but not independent of it
    T, reps, null_sims = 100, 1000, 2000
    W2 = linear_chain(2)

    null_vals = np.empty(null_sims)
    for lo in range(0, null_sims, 500):
        rng = stream(71, lo)
        X = rng.standard_normal((500, T, 2))
        null_vals[lo : lo + 500] = sb_values_batch(X, W2)
    rho_cut = np.quantile(null_vals, 0.95)

    pearson_null = np.empty(null_sims)
    for lo in range(0, null_sims, 500):
        rng = stream(72, lo)
        X = rng.standard_normal((500, T, 2))
        Xc = X - X.mean(axis=1, keepdims=True)
        num = np.einsum("bt,bt->b", Xc[:, :, 0], Xc[:, :, 1])
        den = np.sqrt(
            np.einsum("bt,bt->b", Xc[:, :, 0], Xc[:, :, 0])
            * np.einsum("bt,bt->b", Xc[:, :, 1], Xc[:, :, 1])
        )
        pearson_null[lo : lo + 500] = num / den
    pearson_cut = np.quantile(pearson_null, 0.95)

    rho_rej = 0
    pearson_rej = 0
    for lo in range(0, reps, 500):
        rng = stream(73, lo)
        x = rng.standard_normal((500, T))
        panels = np.stack([x, x**2], axis=2)
        rho_rej += int(np.count_nonzero(sb_values_batch(panels, W2) > rho_cut))
        xc = x - x.mean(axis=1, keepdims=True)
        y = x**2
        yc = y - y.mean(axis=1, keepdims=True)
        r = np.einsum("bt,bt->b", xc, yc) / np.sqrt(
            np.einsum("bt,bt->b", xc, xc) * np.einsum("bt,bt->b", yc, yc)
        )
        pearson_rej += int(np.count_nonzero(r > pearson_cut))
    # Pearson is not powerless here: its population correlation is zero but
    # the dependence inflates the sample correlation's variance (r is
    # approximately N(0, 15/(2T)) against a cutoff calibrated to N(0, 1/T)),
    # giving roughly 25% rejection; rho~ still dominates decisively
    assert rho_rej / reps >= 0.80
    assert pearson_rej / reps < 0.40


def test_pairwise_kappa_matches_elementwise():
    data = stream(5).standard_normal((12, 4))
    K = pairwise_kappa(data)
    H = [naive_kernel(data[:, i]) for i in range(4)]
    for i in range(4):
        for j in range(4):
            assert K[i, j] == pytest.approx(naive_kappa(H[i], H[j]), rel=1e-12)


def naive_offsets(z):
    """Offset layout by loops: [k-1, m] = |z[(m+k) % T] - z[m]| - c for the
    first listing of each pair, 0 for the second (offset T/2, even T), where
    c is the mean pair distance."""
    T = len(z)
    c = sum(abs(z[m] - z[n]) for m in range(T) for n in range(T)) / (T * (T - 1))
    P = np.zeros((T // 2, T))
    seen = set()
    for k in range(1, T // 2 + 1):
        for m in range(T):
            pair = frozenset((m, (m + k) % T))
            if pair not in seen:
                seen.add(pair)
                P[k - 1, m] = abs(z[(m + k) % T] - z[m]) - c
    assert len(seen) == T * (T - 1) // 2
    return P


def offset_tiles(data, n):
    """(..., T, R) panels -> (..., T//2, T, R): every panel_kernel_stack tile
    of n offsets, each written into a NaN-filled buffer, concatenated."""
    T, R = data.shape[-2:]
    K = T // 2
    wrapped = np.concatenate([data, data[..., :K, :]], axis=-2)
    c = np.abs(data[..., :, None, :] - data[..., None, :, :]).sum(axis=(-3, -2)) / (T * (T - 1))
    c = np.broadcast_to(c[..., None, :], data.shape)
    tiles = []
    for k in range(1, K + 1, n):
        out = np.full((*data.shape[:-2], min(n, K + 1 - k), T, R), np.nan)
        assert panel_kernel_stack(wrapped, c, k, out) is out
        tiles.append(out)
    return np.concatenate(tiles, axis=-3)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_batched_tiles_and_kappa_match_naive_oracle(n):
    # (B, T, R) panels -> (B, T//2, T, R) shifted pair distances, in tiles of
    # n offsets -> (B, R, R) kappa~, checked against the strict-upper-triangle
    # definition
    data = stream(6).standard_normal((3, 9, 4))
    D = offset_tiles(data, n)
    assert D.shape == (3, 4, 9, 4)
    K = pairwise_kappa(data)
    assert K.shape == (3, 4, 4)
    for b in range(3):
        for i in range(4):
            assert np.allclose(D[b, ..., i], naive_offsets(data[b, :, i]), rtol=0, atol=1e-14)
            for j in range(4):
                want = naive_kappa(naive_kernel(data[b, :, i]), naive_kernel(data[b, :, j]))
                assert K[b, i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("T", [2, 3, 4, 5, 50, 51])
def test_offset_tiles_match_naive_at_every_parity(T):
    data = stream(7, T).standard_normal((T, 3))
    D = offset_tiles(data, max(1, T // 3))
    assert D.shape == (T // 2, T, 3)
    for i in range(3):
        assert np.allclose(D[..., i], naive_offsets(data[:, i]), rtol=0, atol=1e-13)
    if T < 3:
        return  # the tile layout holds at T = 2 too, but pairwise_kappa needs T >= 3
    K = pairwise_kappa(data)
    kernels = [naive_kernel(data[:, i]) for i in range(3)]
    for i in range(3):
        for j in range(3):
            want = naive_kappa(kernels[i], kernels[j])
            assert K[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("T", [2, 4, 50])
def test_half_offset_second_listing_is_exactly_zero(T):
    # zeroed after the shift by c, so the second listing adds nothing
    D = offset_tiles(stream(8, T).standard_normal((2, T, 3)), 3)
    assert np.all(D[..., -1, T // 2 :, :] == 0.0)
    if T > 2:
        assert np.all(D[..., -1, : T // 2, :] != 0.0)


def test_kappa_spans_several_tiles(monkeypatch):
    # one panel cut into tiles of 7, 10 and all 30 offsets gives kappa~ that
    # differs from the one-tile value by rounding only
    import sbergsma.bergsma as bergsma

    data = stream(10).standard_normal((60, 3))
    whole = pairwise_kappa(data)
    for offsets in (7, 10):
        monkeypatch.setattr(bergsma, "_BATCH_BYTES", 3 * 60 * 8 * offsets)
        assert np.allclose(pairwise_kappa(data), whole, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "B,T,R,scale,offset",
    [(4, 50, 14, 1e3, 1e3), (3, 50, 14, 1e-3, -1e3), (3, 80, 6, 1.0, 0.0),
     (5, 23, 4, 1e-3, 1e3), (2, 64, 9, 1e3, -5.0)],
)
def test_batch_sb_matches_naive_oracle_across_groups_and_tiles(B, T, R, scale, offset,
                                                              monkeypatch):
    # kappa~ -> rho~ -> S~_B of shifted, scaled panels, against the naive
    # kernels, with the batch in one group and tile, in one-panel groups cut
    # into tiles of 7 offsets, and in groups of two whole stacks
    import sbergsma.bergsma as bergsma

    rng = stream(30, T)
    data = offset + scale * rng.standard_normal((B, T, R))
    w = rng.random((R, R))
    np.fill_diagonal(w, 0.0)
    want, term_scale = np.empty(B), np.empty(B)
    for b in range(B):
        H = [naive_kernel(data[b, :, i]) for i in range(R)]
        kappa = np.array([[naive_kappa(Hi, Hj) for Hj in H] for Hi in H])
        terms = w * kappa / np.sqrt(np.outer(np.diag(kappa), np.diag(kappa)))
        want[b] = terms.sum() / w.sum()
        term_scale[b] = np.abs(terms).sum() / w.sum()
    W = ProximityMatrix(w)
    stack = R * T * 8 * (T // 2)
    for budget in (1 << 30, R * T * 8 * 7, 2 * stack):
        monkeypatch.setattr(bergsma, "_BATCH_BYTES", budget)
        assert np.all(np.abs(sb_values_batch(data, W) - want) <= 1e-12 * term_scale)


def test_kappa_memory_bounded_for_any_batch():
    # 1000 panels of R=14, T=50 hold 140 MB of pair distances; the panels run
    # in groups within the byte budget, so the peak is about the tile
    # buffer plus the 1.6 MB of kappa~
    data = stream(12).standard_normal((1000, 50, 14))
    assert peak_bytes(pairwise_kappa, data) < 8 * 2**20


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_long_series_rho_matches_dense_oracle(offset):
    # the shift by the mean pair distance keeps the row-sum expansion from
    # cancelling: unshifted, offset 0 misses by about 1e-14
    T = 1000
    x, y = offset + stream(11).standard_normal((2, T))
    Hx, Hy = dense_kernel(x), dense_kernel(y)
    want = dense_kappa(Hx, Hy) / np.sqrt(dense_kappa(Hx, Hx) * dense_kappa(Hy, Hy))
    assert abs(rho_tilde(x, y) - want) < 2e-15


def test_centring_row_sums_exact_at_large_offset():
    # the sorted prefix sums are taken after a shift by the minimum; without
    # it they cancel at offset 1e8 and lose about eight digits
    T = 51
    x = 1e8 + stream(9).standard_normal(T)
    A = np.abs(x[:, None] - x).sum(axis=1) / T
    want = (T / (T - 1)) * (A - 0.5 * A.mean())
    assert np.max(np.abs(_centring(x) / want - 1)) < 1e-13
