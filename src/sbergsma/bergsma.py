"""Empirical Bergsma kernel and U-statistic covariance/correlation estimators.

For a series z_1..z_T the empirically centered kernel is

    h~[m, n] = -1/2 [ |z_m - z_n| - a_m - a_n ],   a = T/(T-1) (A - B/2),

where A_m is the m-th row mean of the absolute-difference matrix and B its
grand mean.  The covariance estimator is the average over the C(T,2) pairs

    kappa~(x, y) = C(T,2)^{-1} * sum_{m<n} Hx[m,n] * Hy[m,n],

and rho~ = kappa~(x,y) / sqrt(kappa~(x,x) kappa~(y,y)).

h~ defines the estimator here as mathematics only: the library never forms
it, nor any T x T matrix.  With c a series' mean pair distance, shift
d' = |z_m - z_n| - c and a' = a - c/2, which sums to zero.  Then still
-2 h~ = d' - a'_m - a'_n, and the row-sum expansion of Huo & Szekely (2016)
collapses to

    2 T (T - 1) kappa~(x, y) = sum_{m<n} d'x[m,n] d'y[m,n] - T sum_m a'x_m a'y_m.

The shift keeps this difference from cancelling.  :func:`pairwise_kappa`
accumulates the first term as F^T F over tiles of time offsets k = 1..T//2
(pair {m, (m+k) mod T}; for even T the second listing of offset T/2 is
zero) that :func:`panel_kernel_stack` builds in the panel's own (time,
region) order, (..., n, T, R): each offset is one contiguous T x R block, and
F is the tile read as (n T, R).  Every caller (single series, panels, batches
of simulated panels) goes through :func:`pairwise_kappa` and
:func:`rho_from_kappa`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import (
    DegenerateRegionError,
    DimensionMismatchError,
    LengthError,
    NonFiniteError,
)

#: Bytes of pair distances built at once, the one memory budget of every
#: kernel caller; only :func:`pairwise_kappa` reads it.  A tile holds as many
#: time offsets of one panel as fit, n = _KERNEL_BYTES // (T R 8), at least
#: one, so a panel whose T//2 x T x R stack fits is one tile and memory stays
#: bounded in T.  Panels run in groups of as many n-offset stacks as fit, at
#: least one, so memory stays bounded in the batch too.  n and the group size
#: depend on R and T alone, so a panel's kappa~ is bitwise the same in any
#: batch.  2 MiB is one L2 cache of the 2-vCPU Xeon it was tuned on.
_KERNEL_BYTES = 1 << 21


def _validated_series(z, min_length: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d series, got shape {z.shape}")
    if z.size < min_length:
        raise LengthError(f"series length {z.size} < required {min_length}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("series contains NaN or infinite values")
    return z


def _centring(X: np.ndarray) -> np.ndarray:
    """a = T/(T-1) (A - B/2) of each series in (..., T), from sorted prefix sums."""
    T = X.shape[-1]
    order = np.argsort(X, axis=-1)
    order += np.arange(0, X.size, T).reshape(*X.shape[:-1], 1)  # flat indices
    # shifted by the minimum, so the prefix sums do not cancel at a large offset
    s = X.take(order)
    s -= s[..., :1]
    c = np.cumsum(s, axis=-1)
    # row sum of |x_m - x_n| for the j-th smallest: sum_{i<j} (s_j - s_i) + sum_{i>j} (s_i - s_j)
    sums = (2 * np.arange(T) + 2 - T) * s + (c[..., -1:] - 2 * c)
    A = np.empty(X.shape)
    A.reshape(-1)[order] = sums / T
    return (T / (T - 1.0)) * (A - 0.5 * A.mean(axis=-1, keepdims=True))


def panel_kernel_stack(wrapped, c, k: int, out: np.ndarray) -> np.ndarray:
    """Fill one (..., n, T, R) tile: out[..., j, m, r] = |x[m+k+j, r] - x[m, r]| - c[m, r].

    Time indices are taken mod T: ``wrapped`` holds the (..., T, R) panels,
    each followed by its first T//2 rows, and ``c`` each series' mean pair
    distance repeated at every time point, (..., T, R).  Each offset is one
    contiguous T x R block, so every pass runs over whole blocks.  For even T
    the second listing of offset T/2 is zero.
    """
    n, T = out.shape[-3:-1]
    # copied, then updated in place: an out-of-place subtract into the cold
    # tile costs more than the copy and an in-place subtract together
    out[...] = np.swapaxes(sliding_window_view(wrapped, T, axis=-2)[..., k : k + n, :, :], -1, -2)
    out -= wrapped[..., None, :T, :]
    np.abs(out, out=out)
    out -= c[..., None, :, :]
    if T % 2 == 0 and k + n > T // 2:
        out[..., -1, T // 2 :, :] = 0.0
    return out


def pairwise_kappa(data) -> np.ndarray:
    """All-pairs kappa~ (..., R, R) of (..., T, R) panels, group by group, tile by tile."""
    data = np.asarray(data, dtype=float)
    *lead, T, R = data.shape
    if T < 2:
        raise LengthError(f"series length {T} < required 2")
    X = data.reshape(-1, T, R)
    P, K = len(X), T // 2
    n = min(K, max(1, _KERNEL_BYTES // (R * T * X.itemsize)))  # offsets per tile
    g = max(1, _KERNEL_BYTES // (R * T * n * X.itemsize))  # panels per group
    G = np.empty((P, R, R))
    buf = np.empty(min(g, P) * n * T * R)  # one tile buffer, reused
    # a series that overflows ends in a non-finite self-covariance, which
    # rho_from_kappa reports as one error, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, P, g):
            x, out = X[lo : lo + g], G[lo : lo + g]
            a = _centring(np.swapaxes(x, -1, -2))  # (g, R, T)
            c = 2.0 * a.mean(axis=-1)  # the mean pair distance
            a -= 0.5 * c[..., None]
            out[...] = -T * (a @ np.swapaxes(a, -1, -2))
            wrapped = np.concatenate([x, x[:, :K]], axis=-2)
            c = np.tile(c, T).reshape(x.shape)  # c at every time point
            for k in range(1, K + 1, n):
                tile = buf[: x.size * min(n, K + 1 - k)].reshape(len(x), -1, T, R)
                F = panel_kernel_stack(wrapped, c, k, tile).reshape(len(x), -1, R)
                out += np.swapaxes(F, -1, -2) @ F
    G /= 2 * T * (T - 1)
    return G.reshape(*lead, R, R)


def rho_from_kappa(kappa: np.ndarray, labels=None) -> np.ndarray:
    """rho~ matrices (..., R, R) with unit diagonal from kappa~ matrices.

    Raises :class:`NonFiniteError` if a self-covariance overflows or is NaN,
    and :class:`DegenerateRegionError` naming every series (by label, or
    1-based position) whose self-covariance is not positive in any matrix of
    the batch: a constant series has an all-zero kernel, at any scale.
    """
    diag = np.diagonal(kappa, axis1=-2, axis2=-1)
    if not np.all(np.isfinite(diag)):
        raise NonFiniteError("self-covariance is not finite: a series is NaN or overflows")
    bad = diag <= 0.0
    if bad.any():
        cols = np.flatnonzero(bad.reshape(-1, diag.shape[-1]).any(axis=0))
        names = ", ".join(labels[i] if labels else f"#{i + 1}" for i in cols)
        raise DegenerateRegionError(f"degenerate (constant) series: {names}")
    # square roots first, so the product cannot overflow or underflow
    sd = np.sqrt(diag)
    rho = kappa / (sd[..., :, None] * sd[..., None, :])
    ii = np.arange(diag.shape[-1])
    rho[..., ii, ii] = 1.0
    return rho


def rho_tilde(x, y) -> float:
    """Bergsma correlation estimate rho~ between two equal-length series.

    Invariant under separate affine maps of each argument (including sign
    flips); raises on constant series, whose self-covariance vanishes.
    """
    x = _validated_series(x, min_length=3)
    y = _validated_series(y, min_length=3)
    if x.size != y.size:
        raise DimensionMismatchError(f"series lengths differ: {x.size} vs {y.size}")
    return float(rho_from_kappa(pairwise_kappa(np.column_stack([x, y])), ("x", "y"))[0, 1])
