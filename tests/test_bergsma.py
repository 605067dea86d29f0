"""Kernel matrix and U-statistic estimator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbergsma import (
    empirical_kernel_matrix,
    kappa_tilde,
    linear_chain,
    rho_tilde,
    sb_values_batch,
)
from sbergsma.bergsma import _centring, panel_kernel_stack, pairwise_kappa
from sbergsma.exceptions import (
    DegenerateSeriesError,
    DimensionMismatchError,
    LengthError,
    NonFiniteError,
)
from sbergsma.rng import stream

from conftest import naive_kappa, naive_kernel, naive_rho

series_strategy = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=25,
).filter(lambda v: max(v) - min(v) > 1e-6)


def test_kernel_hand_values():
    H = empirical_kernel_matrix([0.0, 1.0, 2.0]).entries
    expected = np.array(
        [
            [5 / 6, 1 / 12, -1 / 6],
            [1 / 12, 1 / 3, 1 / 12],
            [-1 / 6, 1 / 12, 5 / 6],
        ]
    )
    assert np.max(np.abs(H - expected)) < 1e-15


def test_kernel_t2_off_diagonal_cancels():
    # at T = 2 the bracketed term cancels exactly for m != n, so every
    # entry that enters kappa~ (the strict upper triangle) is zero
    H = empirical_kernel_matrix([0.0, 1.0]).entries
    assert H[0, 1] == 0.0 and H[1, 0] == 0.0


def test_kernel_shift_invariance():
    z = np.array([0.3, -1.2, 5.0, 2.2])
    H1 = empirical_kernel_matrix(z).entries
    H2 = empirical_kernel_matrix(z + 17.5).entries
    assert np.allclose(H1, H2, rtol=0, atol=1e-12)


def test_kernel_errors():
    with pytest.raises(LengthError):
        empirical_kernel_matrix([1.0])
    with pytest.raises(NonFiniteError):
        empirical_kernel_matrix([1.0, np.nan, 2.0])


@given(series_strategy)
@settings(max_examples=50, deadline=None)
def test_kernel_matches_naive_and_is_symmetric(values):
    H = empirical_kernel_matrix(values).entries
    assert np.allclose(H, H.T, rtol=0, atol=1e-12)
    assert np.allclose(H, naive_kernel(values), rtol=1e-12, atol=1e-12)


@given(series_strategy, st.sampled_from([-2.0, 0.5, 3.0]))
@settings(max_examples=30, deadline=None)
def test_kernel_scale_equivariance(values, c):
    z = np.asarray(values)
    H1 = empirical_kernel_matrix(z).entries
    H2 = empirical_kernel_matrix(c * z).entries
    assert np.allclose(H2, abs(c) * H1, rtol=1e-10, atol=1e-10)


def test_kappa_self_hand_value():
    H = empirical_kernel_matrix([0.0, 1.0, 2.0])
    assert kappa_tilde(H, H) == pytest.approx(1 / 72, rel=1e-12)


def test_kappa_annihilator_and_t2():
    H2 = empirical_kernel_matrix([0.0, 1.0])
    assert kappa_tilde(H2, H2) == 0.0
    H = empirical_kernel_matrix([0.0, 1.0, 2.0])
    Z = empirical_kernel_matrix([5.0, 5.0, 5.0])
    assert kappa_tilde(H, Z) == 0.0


def test_kappa_dimension_mismatch():
    H3 = empirical_kernel_matrix([0.0, 1.0, 2.0])
    H4 = empirical_kernel_matrix([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        kappa_tilde(H3, H4)


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


def test_rho_degenerate_and_length_errors():
    with pytest.raises(DegenerateSeriesError):
        rho_tilde([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(LengthError):
        rho_tilde([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        rho_tilde([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])


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
    for i in range(4):
        for j in range(4):
            Hi = empirical_kernel_matrix(data[:, i])
            Hj = empirical_kernel_matrix(data[:, j])
            assert K[i, j] == pytest.approx(kappa_tilde(Hi, Hj), rel=1e-12)


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
    """(..., T, R) panels -> (..., R, T//2, T): every panel_kernel_stack tile
    of n offsets, each written into a NaN-filled buffer, concatenated."""
    X = np.swapaxes(data, -1, -2)
    T = X.shape[-1]
    K = T // 2
    wrapped = np.concatenate([X, X[..., :K]], axis=-1)
    c = np.abs(X[..., :, None] - X[..., None, :]).sum(axis=(-2, -1)) / (T * (T - 1))
    tiles = []
    for k in range(1, K + 1, n):
        out = np.full((*X.shape[:-1], min(n, K + 1 - k), T), np.nan)
        assert panel_kernel_stack(wrapped, c, k, out) is out
        tiles.append(out)
    return np.concatenate(tiles, axis=-2)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_batched_tiles_and_kappa_match_naive_oracle(n):
    # (B, T, R) panels -> (B, R, T//2, T) shifted pair distances, in tiles of
    # n offsets -> (B, R, R) kappa~, checked against the strict-upper-triangle
    # definition
    data = stream(6).standard_normal((3, 9, 4))
    D = offset_tiles(data, n)
    assert D.shape == (3, 4, 4, 9)
    K = pairwise_kappa(data)
    assert K.shape == (3, 4, 4)
    for b in range(3):
        for i in range(4):
            assert np.allclose(D[b, i], naive_offsets(data[b, :, i]), rtol=0, atol=1e-14)
            for j in range(4):
                want = naive_kappa(naive_kernel(data[b, :, i]), naive_kernel(data[b, :, j]))
                assert K[b, i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("T", [2, 3, 4, 5, 50, 51])
def test_offset_tiles_match_naive_at_every_parity(T):
    data = stream(7, T).standard_normal((T, 3))
    D = offset_tiles(data, max(1, T // 3))
    assert D.shape == (3, T // 2, T)
    K = pairwise_kappa(data)
    kernels = [naive_kernel(data[:, i]) for i in range(3)]
    for i in range(3):
        assert np.allclose(D[i], naive_offsets(data[:, i]), rtol=0, atol=1e-13)
        for j in range(3):
            want = naive_kappa(kernels[i], kernels[j])
            assert K[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("T", [2, 4, 50])
def test_half_offset_second_listing_is_exactly_zero(T):
    # zeroed after the shift by c, so the second listing adds nothing
    D = offset_tiles(stream(8, T).standard_normal((2, T, 3)), 3)
    assert np.all(D[..., -1, T // 2 :] == 0.0)
    if T > 2:
        assert np.all(D[..., -1, : T // 2] != 0.0)


def test_kappa_spans_several_tiles(monkeypatch):
    # one panel cut into tiles of 7, 10 and all 30 offsets gives kappa~ that
    # differs from the one-tile value by rounding only
    import sbergsma.bergsma as bergsma

    data = stream(10).standard_normal((60, 3))
    whole = pairwise_kappa(data)
    for offsets in (7, 10):
        monkeypatch.setattr(bergsma, "_KERNEL_BYTES", 3 * 60 * 8 * offsets)
        assert np.allclose(pairwise_kappa(data), whole, rtol=1e-13, atol=0)


def test_kappa_memory_bounded_for_any_batch():
    # 1000 panels of R=14, T=50 hold 140 MB of pair distances; the panels run
    # in groups within the kernel budget, so the peak is about the tile
    # buffer plus the 1.6 MB of kappa~
    import tracemalloc

    data = stream(12).standard_normal((1000, 50, 14))
    tracemalloc.start()
    try:
        pairwise_kappa(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_long_series_rho_matches_kernel_matrix_route(offset):
    # the shift by the mean pair distance keeps the row-sum expansion from
    # cancelling: unshifted, offset 0 misses by about 1e-14
    T = 1000
    x, y = offset + stream(11).standard_normal((2, T))
    Hx, Hy = empirical_kernel_matrix(x), empirical_kernel_matrix(y)
    want = kappa_tilde(Hx, Hy) / np.sqrt(kappa_tilde(Hx, Hx) * kappa_tilde(Hy, Hy))
    assert abs(rho_tilde(x, y) - want) < 2e-15


def test_centring_row_sums_exact_at_large_offset():
    # the sorted prefix sums are taken after a shift by the minimum; without
    # it they cancel at offset 1e8 and lose about eight digits
    T = 51
    x = 1e8 + stream(9).standard_normal(T)
    A = np.abs(x[:, None] - x).sum(axis=1) / T
    want = (T / (T - 1)) * (A - 0.5 * A.mean())
    assert np.max(np.abs(_centring(x) / want - 1)) < 1e-13
