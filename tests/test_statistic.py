"""Spatial statistic tests: hand cases, invariances, kernel-reuse equivalence."""

import os
import threading
import time

import numpy as np
import pytest

from sbergsma import (
    ProximityMatrix,
    SpatialPanel,
    inverse_distance,
    linear_chain,
    rho_tilde,
    row_standardize,
    sb_statistic,
    sb_values_batch,
)
from sbergsma.exceptions import (
    DegenerateRegionError,
    DimensionMismatchError,
    DuplicateLabelError,
    InvalidParameterError,
    LengthError,
    NonFiniteError,
    SizeError,
)
from sbergsma.rng import stream
from sbergsma.bergsma import _BATCH_BYTES
from sbergsma.statistic import replicate_values

from conftest import naive_sb, peak_bytes


def test_identical_columns_give_one():
    base = np.array([0.3, 1.9, -0.5, 2.2, 0.0])
    panel = SpatialPanel(np.column_stack([base] * 4))
    W = row_standardize(linear_chain(4))
    res = sb_statistic(panel, W)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_two_regions_reduce_to_rho():
    rng = stream(12)
    data = rng.standard_normal((30, 2))
    W = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = sb_statistic(SpatialPanel(data), W)
    assert res.value == pytest.approx(rho_tilde(data[:, 0], data[:, 1]), rel=1e-12)


def test_matches_naive_pairwise_recomputation():
    rng = stream(77)
    for trial in range(10):
        data = rng.standard_normal((5, 6))
        w = rng.random((6, 6))
        np.fill_diagonal(w, 0.0)
        W = ProximityMatrix(w)
        res = sb_statistic(SpatialPanel(data), W)
        assert res.value == pytest.approx(naive_sb(data, w), rel=1e-12, abs=1e-12)


def test_relabeling_invariance():
    rng = stream(31)
    data = rng.standard_normal((20, 6))
    w = rng.random((6, 6))
    np.fill_diagonal(w, 0.0)
    perm = rng.permutation(6)
    P = np.eye(6)[perm]
    base = sb_statistic(SpatialPanel(data), ProximityMatrix(w)).value
    permuted = sb_statistic(
        SpatialPanel(data[:, perm]), ProximityMatrix(P @ w @ P.T)
    ).value
    assert permuted == pytest.approx(base, abs=1e-12)


def test_columnwise_affine_invariance():
    rng = stream(41)
    data = rng.standard_normal((25, 5))
    W = row_standardize(linear_chain(5))
    base = sb_statistic(SpatialPanel(data), W).value
    a = np.array([-2.0, 0.5, 3.0, -1.0, 10.0])
    b = np.array([-1.0, 0.0, 10.0, 2.5, -7.0])
    res = sb_statistic(SpatialPanel(data * a + b), W).value
    assert res == pytest.approx(base, abs=1e-12)


def test_scaled_value_identity():
    rng = stream(8)
    data = rng.standard_normal((17, 3))
    W = row_standardize(linear_chain(3))
    res = sb_statistic(SpatialPanel(data), W)
    assert res.scaled_value == 17 * res.value


def test_result_recomputable_from_fields():
    rng = stream(88)
    data = rng.standard_normal((20, 5))
    w = rng.random((5, 5))
    np.fill_diagonal(w, 0.0)
    W = ProximityMatrix(w)
    res = sb_statistic(SpatialPanel(data), W)
    iu = np.triu_indices(5, k=1)
    # S0 is the raw weight sum of an unstandardized W
    recomputed = ((w + w.T)[iu] * res.pair_rho[iu]).sum() / w.sum()
    assert recomputed == pytest.approx(res.value, abs=1e-12)
    assert np.allclose(np.diagonal(res.pair_rho), 1.0)


def test_degenerate_column_named():
    data = np.column_stack([np.arange(5.0), np.full(5, 2.0), np.arange(5.0) ** 2])
    panel = SpatialPanel(data, ("a", "b", "c"))
    with pytest.raises(DegenerateRegionError, match="b"):
        sb_statistic(panel, row_standardize(linear_chain(3)))


def test_dimension_mismatch():
    rng = stream(1)
    panel = SpatialPanel(rng.standard_normal((10, 3)))
    with pytest.raises(DimensionMismatchError):
        sb_statistic(panel, row_standardize(linear_chain(4)))


def test_panel_validation():
    with pytest.raises(LengthError):
        SpatialPanel(np.zeros((2, 3)))
    with pytest.raises(SizeError):
        SpatialPanel(np.zeros((5, 1)))
    with pytest.raises(DimensionMismatchError, match="2-d"):
        SpatialPanel(np.zeros(5))


_LABELLED_RECORDS = pytest.mark.parametrize(
    "record", [lambda labels: SpatialPanel(np.eye(4)[:, :3], labels),
               lambda labels: ProximityMatrix(1 - np.eye(3), labels),
               lambda labels: inverse_distance([(0, 0), (1, 0), (0, 1)], labels)],
    ids=["SpatialPanel", "ProximityMatrix", "inverse_distance"])


@_LABELLED_RECORDS
def test_panel_and_w_label_their_regions_alike(record):
    assert record(()).region_labels == ("R1", "R2", "R3")
    assert record(None).region_labels == ("R1", "R2", "R3")
    for labels in (["a", "b", "c"], ("a", "b", "c"), np.array(["a", "b", "c"])):
        got = record(labels).region_labels
        assert got == ("a", "b", "c") and {type(label) for label in got} == {str}
    with pytest.raises(DimensionMismatchError, match=r"^2 labels for 3 regions$"):
        record(("a", "b"))


@_LABELLED_RECORDS
@pytest.mark.parametrize("labels,error,message", [
    ("abc", InvalidParameterError, "region labels must be a sequence of strings, got 'abc'"),
    ({"a", "b", "c"}, InvalidParameterError, "region labels must be a sequence of strings"),
    ((1, 2, 3), InvalidParameterError, "region label 1 is not a non-blank string"),
    (np.array("abc"), InvalidParameterError, "region labels must be a sequence of strings"),
    (np.arange(3), InvalidParameterError, "region label 0 is not a non-blank string"),
    (np.array([["a"], ["b"], ["c"]]), InvalidParameterError, r"region label \['a'\] is not a"),
    (("a", None, "c"), InvalidParameterError, "region label None is not a non-blank string"),
    (("a", " ", "c"), InvalidParameterError, "region label ' ' is not a non-blank string"),
    (("a", "b", "a"), DuplicateLabelError, "duplicate region label 'a'"),
])
def test_labels_are_distinct_non_blank_strings(record, labels, error, message):
    # non-str labels used to end in a bare TypeError wherever a message named
    # regions, a numpy array in a ValueError, and a string split into characters
    with pytest.raises(error, match=f"^{message}"):
        record(labels)


def test_panel_leaves_the_callers_array_writable():
    x = stream(3).standard_normal((6, 3))
    panel = SpatialPanel(x)
    x[0, 0] = 1.0
    assert panel.data[0, 0] != 1.0
    assert not panel.data.flags.writeable


def test_panel_does_not_follow_writes_to_its_source():
    # a panel built from a view keeps the values it was validated with
    base = stream(4).standard_normal((6, 5))
    panel = SpatialPanel(base[:, :3])
    want = sb_statistic(panel, row_standardize(linear_chain(3))).value
    base[:, 0] = 7.0
    assert sb_statistic(panel, row_standardize(linear_chain(3))).value == want


def test_batch_matches_single():
    rng = stream(22)
    panels = rng.standard_normal((8, 12, 5))
    W = row_standardize(linear_chain(5))
    vals = sb_values_batch(panels, W)
    for b in range(8):
        assert vals[b] == pytest.approx(
            sb_statistic(SpatialPanel(panels[b]), W).value, rel=1e-12
        )


def test_batch_bitwise_independent_of_split(monkeypatch):
    import sbergsma.bergsma as bergsma

    panels = stream(23).standard_normal((10, 9, 4))
    W = row_standardize(linear_chain(4))
    whole = sb_values_batch(panels, W)
    for size in (1, 3, 7):
        parts = [sb_values_batch(panels[lo : lo + size], W) for lo in range(0, 10, size)]
        assert np.array_equal(np.concatenate(parts), whole)
    # from one replicate's 4 x 9 x 4 pair stack up, the byte budget
    # only sets how many replicates share a group; test_kappa_spans_several_tiles
    # covers smaller budgets, which cut one replicate into tiles
    for budget in (4 * 9 * 4 * 8, 4 * 9 * 4 * 8 * 3, 1 << 30):
        monkeypatch.setattr(bergsma, "_BATCH_BYTES", budget)
        assert np.array_equal(sb_values_batch(panels, W), whole)
    # R = 4, T = 400: one replicate's 2.56 MB pair stack spans two offset
    # tiles (163 and 37 offsets), so each replicate is a group of its own
    monkeypatch.undo()
    panels = stream(25).standard_normal((3, 400, 4))
    whole = sb_values_batch(panels, W)
    for size in (1, 2):
        parts = [sb_values_batch(panels[lo : lo + size], W) for lo in range(0, 3, size)]
        assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize(
    "shape,error",
    [((2, 1, 3), LengthError), ((2, 2, 3), LengthError),
     ((5, 3), DimensionMismatchError), ((1, 2, 5, 3), DimensionMismatchError),
     ((2, 5, 4), DimensionMismatchError), ((2, 0, 3), LengthError)],
)
def test_batch_rejects_bad_shapes(shape, error):
    with pytest.raises(error):
        sb_values_batch(np.ones(shape), row_standardize(linear_chain(3)))


def test_long_series_memory_bounded_in_T():
    # one replicate's R x T x T//2 pair stack is 504 MB here; the offset
    # tiles keep the whole call within a few MiB
    panel = SpatialPanel(stream(27).standard_normal((3000, 14)))
    W = row_standardize(linear_chain(14))
    assert peak_bytes(sb_statistic, panel, W) < 16 * 2**20


def test_batch_degenerate_replicate_named():
    panels = stream(24).standard_normal((3, 8, 3))
    panels[1, :, 2] = 5.0
    with pytest.raises(DegenerateRegionError, match="#3"):
        sb_values_batch(panels, row_standardize(linear_chain(3)))


@pytest.mark.parametrize("scale", [1e-150, 1e-7, 1e150])
def test_statistic_does_not_depend_on_scale(scale):
    # sd 1e-7 used to read as degenerate in every region, and at 1e150 the
    # product of two self-covariances overflowed, so every rho~ read 0
    data = stream(26).standard_normal((20, 4))
    W = row_standardize(linear_chain(4))
    base = sb_statistic(SpatialPanel(data), W).value
    assert sb_statistic(SpatialPanel(scale * data), W).value == pytest.approx(base, abs=1e-12)
    assert sb_values_batch(scale * data[None], W)[0] == pytest.approx(base, abs=1e-12)


def test_non_finite_self_covariance_raises():
    W = row_standardize(linear_chain(3))
    # finite entries whose differences overflow used to give a NaN statistic
    data = np.array([[1.5e308, 0.0, 1.0], [-1.5e308, 1.0, 0.0], [0.0, 2.0, 2.0],
                     [1.0, 0.5, 3.0]])
    with pytest.raises(NonFiniteError, match="not finite"), np.errstate(all="ignore"):
        sb_statistic(SpatialPanel(data), W)
    # NaN panels used to give NaN values
    with pytest.raises(NonFiniteError):
        sb_values_batch(np.full((2, 5, 3), np.nan), W)


@pytest.mark.parametrize("n_jobs", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 7, 200])
def test_replicate_ranges_join_in_index_order(n_jobs, size):
    # units of a size-th of the budget, so a range holds at most size of them
    ranges = []

    def values(lo, hi):
        ranges.append(hi - lo)
        return np.arange(lo, hi) * [[1.0], [-1.0]]

    got = replicate_values(values, 50, _BATCH_BYTES // size, n_jobs=n_jobs)
    assert np.array_equal(got, np.arange(50) * [[1.0], [-1.0]])
    assert max(ranges) <= size


@pytest.mark.parametrize("cores", [None, 1, 3])
def test_replicate_threads_capped_at_the_usable_cores(monkeypatch, cores):
    # eight ranges of one replicate each, as each fills the byte budget, so a
    # missing cap starts at most 8 threads
    if cores is None:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
    idents = [None] * 8

    def values(lo, hi):
        idents[lo] = threading.get_ident()
        time.sleep(0.01)  # keeps this thread busy, so the next range needs another
        return np.arange(lo, hi) * [[1.0], [-1.0]]

    got = replicate_values(values, 8, _BATCH_BYTES, n_jobs=64)
    assert np.array_equal(got, np.arange(8) * [[1.0], [-1.0]])
    assert len(set(idents)) <= min(8, cores)
    if cores == 1:
        # one worker runs on the calling thread, with no pool
        assert set(idents) == {threading.get_ident()}


def test_replicate_ranges_stop_at_the_first_error():
    started = []
    lock = threading.Lock()

    def values(lo, hi):
        with lock:
            started.append(lo)
        if lo == 0:
            raise LengthError("range 0 failed")
        time.sleep(0.01)
        return np.zeros(hi - lo)

    with pytest.raises(LengthError, match="range 0 failed"):
        replicate_values(values, 100, _BATCH_BYTES, n_jobs=2)
    # the ranges not yet started are cancelled, not run to the end
    assert len(started) < 100
    with pytest.raises(InvalidParameterError, match="n_jobs must be an integer of at least 1"):
        replicate_values(values, 100, 8, n_jobs=0)
