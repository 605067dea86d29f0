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
        rng = stream(300, lo)
        X = rng.standard_normal((500, T, 2))
        for r in range(500):
            # the stack holds -2 h~ once per pair (and zeros), so the pair sum
            # of products is U[0] @ U[1] / 4
            U = panel_kernel_stack(X[r]).reshape(2, -1)
            vals[lo + r] = (U[0] @ U[1]) / (4 * (T * (T - 1) // 2))
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
    rng = stream(5)
    data = rng.standard_normal((12, 4))
    H = panel_kernel_stack(data)
    K = pairwise_kappa(H)
    for i in range(4):
        for j in range(4):
            Hi = empirical_kernel_matrix(data[:, i])
            Hj = empirical_kernel_matrix(data[:, j])
            assert K[i, j] == pytest.approx(kappa_tilde(Hi, Hj), rel=1e-12)


def naive_pairs(z):
    """Circulant layout by loops: [m, k-1] = h~[m, (m+k) % T] for the first
    listing of each pair, 0 for the second (offset T/2, even T)."""
    T = len(z)
    H = naive_kernel(z)
    P = np.zeros((T, T // 2))
    seen = set()
    for m in range(T):
        for k in range(1, T // 2 + 1):
            pair = frozenset((m, (m + k) % T))
            if pair not in seen:
                seen.add(pair)
                P[m, k - 1] = H[m, (m + k) % T]
    assert len(seen) == T * (T - 1) // 2
    return P


def test_batched_stack_and_kappa_match_naive_oracle():
    # (B, T, R) panels -> (B, R, T, T//2) pair kernels -> (B, R, R) kappa~,
    # checked against the strict-upper-triangle definition
    data = stream(6).standard_normal((3, 9, 4))
    H = panel_kernel_stack(data)
    assert H.shape == (3, 4, 9, 4)
    K = pairwise_kappa(H)
    assert K.shape == (3, 4, 4)
    for b in range(3):
        for i in range(4):
            # the stack holds -2 h~
            assert np.allclose(-0.5 * H[b, i], naive_pairs(data[b, :, i]), rtol=0, atol=1e-14)
            for j in range(4):
                want = naive_kappa(naive_kernel(data[b, :, i]), naive_kernel(data[b, :, j]))
                assert K[b, i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("T", [2, 3, 4, 5, 50, 51])
def test_pair_stack_matches_naive_at_every_parity(T):
    data = stream(7, T).standard_normal((T, 3))
    H = panel_kernel_stack(data)
    assert H.shape == (3, T, T // 2)
    K = pairwise_kappa(H)
    kernels = [naive_kernel(data[:, i]) for i in range(3)]
    for i in range(3):
        assert np.allclose(-0.5 * H[i], naive_pairs(data[:, i]), rtol=0, atol=1e-13)
        for j in range(3):
            want = naive_kappa(kernels[i], kernels[j])
            assert K[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("T", [2, 4, 50])
def test_half_offset_second_listing_is_exactly_zero(T):
    H = panel_kernel_stack(stream(8, T).standard_normal((2, T, 3)))
    assert np.all(H[..., T // 2 :, -1] == 0.0)
    if T > 2:
        assert np.all(H[..., : T // 2, -1] != 0.0)


def test_centring_row_sums_exact_at_large_offset():
    # the sorted prefix sums are taken after a shift by the minimum; without
    # it they cancel at offset 1e8 and lose about eight digits
    T = 51
    x = 1e8 + stream(9).standard_normal(T)
    A = np.abs(x[:, None] - x).sum(axis=1) / T
    want = (T / (T - 1)) * (A - 0.5 * A.mean())
    assert np.max(np.abs(_centring(x) / want - 1)) < 1e-13
