"""Proximity matrix construction and standardization tests."""

import numpy as np
import pytest

from sbergsma import (
    ProximityMatrix,
    adjacency_from_edges,
    inverse_distance,
    linear_chain,
    row_standardize,
)
from sbergsma.exceptions import (
    DimensionMismatchError,
    DuplicatePointError,
    IsolatedRegionError,
    NegativeWeightError,
    NonFiniteError,
    RegionIndexError,
    SelfLoopError,
    SizeError,
)


def test_adjacency_examples():
    W = adjacency_from_edges([(1, 2), (2, 3)], 3)
    assert np.array_equal(W.weights, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert not W.standardized
    # no edge at all gives S0 = 0, which would make S~_B NaN
    with pytest.raises(IsolatedRegionError, match="S0 = 0"):
        adjacency_from_edges([], 2)


def test_adjacency_errors():
    with pytest.raises(SelfLoopError):
        adjacency_from_edges([(1, 1)], 3)
    with pytest.raises(RegionIndexError):
        adjacency_from_edges([(1, 4)], 3)
    # a float or bool index used to end in numpy's bare IndexError, or count as 1
    for i in (1.5, True):
        with pytest.raises(RegionIndexError, match=rf"^a region index of edge \({i},2\) "):
            adjacency_from_edges([(i, 2)], 3)


@pytest.mark.parametrize("R", [1, 0, -3])
def test_adjacency_needs_two_regions(R):
    # R = -3 used to end in numpy's "negative dimensions are not allowed"
    with pytest.raises(SizeError, match="R must be an integer of at least 2"):
        adjacency_from_edges([], R)


def test_inverse_distance_examples():
    W = inverse_distance([(0, 0), (0, 2)])
    assert W.weights[0, 1] == pytest.approx(0.5)
    W3 = inverse_distance([(0, 0), (1, 0), (2, 0)])
    assert W3.weights[0, 2] == pytest.approx(0.5)
    assert W3.weights[0, 1] == pytest.approx(1.0)
    assert W3.weights[1, 2] == pytest.approx(1.0)
    with pytest.raises(DuplicatePointError):
        inverse_distance([(0, 0), (0, 0), (1, 1)])
    # an infinite coordinate used to give its region all-zero weights
    pts = [(0.0, 0.0), (1.0, 0.0), (np.inf, 0.0), (0.0, np.nan)]
    with pytest.raises(NonFiniteError, match=r"region\(s\) C, D$"):
        inverse_distance(pts, ["A", "B", "C", "D"])
    with pytest.raises(NonFiniteError, match=r"region\(s\) R3, R4$"):
        inverse_distance(pts)
    # the label count is checked first; naming the region ended in an IndexError
    with pytest.raises(DimensionMismatchError, match=r"^1 labels for 3 regions$"):
        inverse_distance([(0, 0), (1, np.inf), (2, 2)], ["a"])
    with pytest.raises(DimensionMismatchError, match=r"R x 2 coordinates, got \(2, 3\)$"):
        inverse_distance([(0, 0, 0), (1, 1, 1)])


def test_linear_chain_examples():
    assert np.array_equal(
        linear_chain(3).weights, [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    )
    assert np.array_equal(linear_chain(2).weights, [[0, 1], [1, 0]])
    with pytest.raises(SizeError):
        linear_chain(1)


def test_linear_chain_14_sparsity():
    w = linear_chain(14).weights
    sparsity = np.count_nonzero(w == 0) / w.size
    assert sparsity == pytest.approx(0.87, abs=0.005)


def test_row_standardize_examples():
    W = row_standardize(ProximityMatrix(np.array([[0.0, 2.0], [3.0, 0.0]])))
    assert np.array_equal(W.weights, [[0, 1], [1, 0]])
    Wc = row_standardize(linear_chain(3))
    assert np.allclose(Wc.weights, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
    assert Wc.standardized
    assert Wc.s0 == pytest.approx(3.0, abs=1e-12)


def test_row_standardize_isolated_region():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(IsolatedRegionError, match="R3"):
        row_standardize(ProximityMatrix(w))


def test_row_sums_and_s0(w_adjacency, w_invdist, w_chain):
    for W in (w_adjacency, w_invdist, w_chain):
        assert np.allclose(W.weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert W.s0 == pytest.approx(14.0, abs=1e-10)


def test_standardization_breaks_symmetry():
    Wc = row_standardize(linear_chain(3))
    assert not np.array_equal(Wc.weights, Wc.weights.T)


def test_row_standardize_idempotent():
    rng = np.random.default_rng(3)
    w = rng.random((5, 5))
    np.fill_diagonal(w, 0.0)
    once = row_standardize(ProximityMatrix(w))
    twice = row_standardize(once)
    assert np.allclose(once.weights, twice.weights, rtol=0, atol=1e-15)


def test_relabeling_equivariance():
    rng = np.random.default_rng(9)
    pts = [tuple(p) for p in rng.random((6, 2))]
    perm = rng.permutation(6)
    W = inverse_distance(pts).weights
    Wp = inverse_distance([pts[i] for i in perm]).weights
    P = np.eye(6)[perm]
    assert np.allclose(Wp, P @ W @ P.T, rtol=1e-12, atol=1e-12)


def test_diagonal_must_be_zero():
    w = np.array([[0.0, 1.0], [1.0, 0.1]])
    w[1, 1] = 0.1
    with pytest.raises(SelfLoopError):
        ProximityMatrix(w)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeightError):
        ProximityMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_all_zero_weights_rejected():
    with pytest.raises(IsolatedRegionError, match="S0 = 0"):
        ProximityMatrix(np.zeros((3, 3)))


@pytest.mark.parametrize("w,kw,error,match", [
    ([[0.0]], {}, SizeError, "R must be an integer of at least 2, got 1"),
    ([[0.0, np.inf], [1.0, 0.0]], {}, NonFiniteError, "^W contains NaN or infinite values$"),
    ([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.9, 0.0]], {"standardized": True},
     IsolatedRegionError, "rows not summing to 1"),
], ids=["1x1", "inf", "row-off-1"])
def test_invalid_w_rejected(w, kw, error, match):
    with pytest.raises(error, match=match):
        ProximityMatrix(np.array(w), **kw)


@pytest.mark.parametrize("flag", [{}, {"standardized": False}, {"standardized": True}])
def test_standardized_is_read_from_the_rows(flag):
    # rows within 1e-12 of 1 count as standardized, however W was built
    w = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]])
    w[0, 1] += 5e-13
    assert ProximityMatrix(w, **flag).standardized
    w[0, 1] += 1e-12
    assert not ProximityMatrix(w).standardized


def test_weights_leave_the_callers_array_writable():
    w = linear_chain(3).weights.copy()
    W = ProximityMatrix(w)
    w[0, 1] = 5.0
    assert W.weights[0, 1] == 1.0
    assert not W.weights.flags.writeable


def test_weights_do_not_follow_writes_to_their_source():
    base = np.ones((3, 4))
    np.fill_diagonal(base, 0.0)
    W = ProximityMatrix(base[:, :3])
    base[0, 0] = 2.0
    assert W.weights[0, 0] == 0.0 and W.s0 == 6.0
