"""Shared fixtures, independent oracles and a memory probe for the test suite."""

import tracemalloc

import numpy as np
import pytest

from sbergsma import (
    ProximityMatrix,
    adjacency_from_edges,
    inverse_distance,
    linear_chain,
    row_standardize,
)

# 14-district adjacency graph arranged roughly north to south, mirroring a
# coastal Indian state: mostly a chain with a few extra cross edges.
DISTRICT_EDGES = [
    (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7),
    (6, 7), (7, 8), (8, 9), (8, 10), (9, 10), (10, 11), (10, 12),
    (11, 12), (11, 13), (12, 13), (13, 14), (12, 14),
]

# planar headquarters coordinates (latitude, longitude) for the same layout
DISTRICT_COORDS = [
    (12.50, 75.00), (11.87, 75.37), (11.61, 76.08), (11.25, 75.78),
    (11.07, 76.07), (10.78, 76.65), (10.52, 76.21), (9.98, 76.28),
    (9.85, 76.97), (9.59, 76.52), (9.49, 76.33), (9.26, 76.78),
    (8.89, 76.61), (8.52, 76.94),
]


@pytest.fixture(scope="session")
def w_adjacency() -> ProximityMatrix:
    return row_standardize(adjacency_from_edges(DISTRICT_EDGES, 14))


@pytest.fixture(scope="session")
def w_invdist() -> ProximityMatrix:
    return row_standardize(inverse_distance(DISTRICT_COORDS))


@pytest.fixture(scope="session")
def w_chain() -> ProximityMatrix:
    return row_standardize(linear_chain(14))


@pytest.fixture(scope="session")
def three_ws(w_adjacency, w_invdist, w_chain):
    return {"adjacency": w_adjacency, "inverse_distance": w_invdist, "chain": w_chain}


def peak_bytes(f, *args, **kw):
    """Peak memory that tracemalloc sees while ``f(*args, **kw)`` runs, in bytes."""
    tracemalloc.start()
    try:
        f(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- naive oracles: direct nested-loop transcriptions -----------------------

def naive_kernel(z):
    """Unoptimized elementwise evaluation of the centered empirical kernel."""
    z = np.asarray(z, dtype=float)
    T = len(z)
    row = [sum(abs(z[m] - z[k]) for k in range(T)) / T for m in range(T)]
    grand = sum(abs(z[k] - z[l]) for k in range(T) for l in range(T)) / T**2
    H = np.empty((T, T))
    for m in range(T):
        for n in range(T):
            H[m, n] = -0.5 * (
                abs(z[m] - z[n]) - (T / (T - 1)) * (row[m] + row[n] - grand)
            )
    return H


def naive_kappa(Hx, Hy):
    T = Hx.shape[0]
    total = 0.0
    for m in range(T):
        for n in range(m + 1, T):
            total += Hx[m, n] * Hy[m, n]
    return total / (T * (T - 1) / 2)


def dense_kernel(z):
    """The centered kernel as one T x T array, from the absolute-difference
    matrix and its row means: the definition vectorised, for long series."""
    z = np.asarray(z, dtype=float)
    T = len(z)
    D = np.abs(z[:, None] - z)
    A = D.mean(axis=1)
    a = (T / (T - 1)) * (A - 0.5 * A.mean())
    return -0.5 * (D - a[:, None] - a)


def dense_kappa(Hx, Hy):
    """naive_kappa over the strict upper triangle, vectorised."""
    T = len(Hx)
    return 2.0 * np.triu(Hx * Hy, 1).sum() / (T * (T - 1))


def naive_rho(x, y):
    Hx, Hy = naive_kernel(x), naive_kernel(y)
    return naive_kappa(Hx, Hy) / np.sqrt(naive_kappa(Hx, Hx) * naive_kappa(Hy, Hy))


def naive_sb(data, W):
    """Per-pair rho~ computed independently, then weighted; no kernel reuse."""
    R = data.shape[1]
    rho = np.eye(R)
    for i in range(R):
        for j in range(i + 1, R):
            rho[i, j] = rho[j, i] = naive_rho(data[:, i], data[:, j])
    return float((W * rho).sum() / W.sum())
