"""Dependence model simulator and theta sweep tests."""

import os

import numpy as np
import pytest

from sbergsma import (
    ProximityMatrix,
    ReferenceDistribution,
    SpatialPanel,
    linear_chain,
    monte_carlo_null,
    row_standardize,
    sb_statistic,
    sb_values_batch,
    simulate_panel,
    theta_sweep,
)
from sbergsma.depmodels import dependence_maps, sb_replicates
from sbergsma.exceptions import (
    DegenerateRegionError,
    InvalidParameterError,
    LengthError,
    SampleSizeError,
    SingularSystemError,
)
from sbergsma.rng import stream

NORMAL = ReferenceDistribution("normal")


@pytest.fixture(scope="module")
def w_chain6():
    return row_standardize(linear_chain(6))


@pytest.mark.parametrize("model", ["SMA", "SAR"])
def test_theta_zero_is_raw_noise(model, w_chain6):
    assert dependence_maps(model, [0.0, -0.0, 0], w_chain6) == [None] * 3
    panel = simulate_panel(model, 0.0, w_chain6, T=25, seed=4)
    raw = NORMAL.sample((25, 6), stream(4))
    assert np.array_equal(panel.data, raw)


def test_sma_interior_variance(w_chain6):
    # interior region: y = eps + theta/2 (eps_left + eps_right),
    # so Var(y) = 1 + theta^2 / 2
    theta = 0.6
    panel = simulate_panel("SMA", theta, w_chain6, T=100_000, seed=11)
    v = panel.data[:, 2].var()
    target = 1 + theta**2 / 2
    # variance of a sample variance of normals is about 2 sigma^4 / n
    se = np.sqrt(2.0 / 100_000) * target
    assert abs(v - target) < 3 * se


def test_sar_admissibility_bounds(w_chain6):
    with pytest.raises(InvalidParameterError):
        dependence_maps("SAR", [1.0], w_chain6)
    with pytest.raises(InvalidParameterError):
        dependence_maps("SAR", [-1.2], w_chain6)
    # the theta past the bound is named, wherever it stands
    with pytest.raises(InvalidParameterError, match="got theta = 1.5$"):
        dependence_maps("SAR", [0.5, 1.5], w_chain6)
    # SMA has no such restriction
    dependence_maps("SMA", [1.5], w_chain6)


def test_sar_bound_of_an_unstandardized_w_is_its_eigenvalue_radius():
    # the raw chain of 3 has spectral radius sqrt(2)
    W = linear_chain(3)
    dependence_maps("SAR", [0.70], W)
    with pytest.raises(InvalidParameterError, match=r"= 0\.707107, got theta = 0\.71$"):
        dependence_maps("SAR", [0.71], W)


def test_sar_bound_of_a_row_stochastic_w_needs_no_eigensolve(monkeypatch):
    def no_eigensolve(*args, **kw):
        raise AssertionError("eigenvalues were computed")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigensolve)
    # built without row_standardize, W reads as standardized from its rows
    W = ProximityMatrix(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]]))
    assert W.standardized
    dependence_maps("SAR", [0.99], W)
    with pytest.raises(InvalidParameterError, match=r"= 1, got theta = 1\.0$"):
        dependence_maps("SAR", [1.0], W)


@pytest.mark.parametrize("path", ["simulate_panel", "theta_sweep"])
def test_sar_near_unit_theta_warns(path):
    W = row_standardize(linear_chain(14))
    with pytest.warns(RuntimeWarning, match="conditioned") as record:
        if path == "simulate_panel":
            simulate_panel("SAR", 0.999, W, T=5, seed=0)
        else:
            theta_sweep("SAR", W, [0.999], T=5, reps=4)
    # the warning names the caller's line, not one inside the library
    assert record[0].filename == __file__


def test_sweep_checks_sar_conditioning_before_any_draw(monkeypatch):
    import sbergsma.depmodels as depmodels

    def no_draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(depmodels, "stream", no_draw)
    W = row_standardize(linear_chain(14))
    with pytest.warns(RuntimeWarning, match="conditioned"):
        with pytest.raises(AssertionError, match="noise was drawn"):
            theta_sweep("SAR", W, [0.0, 0.999], T=5, reps=10)


def test_sweep_rejects_bad_sizes_before_any_draw(monkeypatch, w_chain6):
    import sbergsma.depmodels as depmodels

    def no_draw(*args, **kw):
        raise AssertionError("replicates were simulated")

    monkeypatch.setattr(depmodels, "sb_replicates", no_draw)
    for reps in (0, 3):
        with pytest.raises(SampleSizeError):
            theta_sweep("SMA", w_chain6, [0.0, 0.5], T=10, reps=reps)
    with pytest.raises(InvalidParameterError):
        theta_sweep("SMA", w_chain6, [], T=10, reps=10)
    for T in (1, 2):
        with pytest.raises(LengthError, match="T must be an integer of at least 3"):
            theta_sweep("SMA", w_chain6, [0.0, 0.5], T=T, reps=10)
    # SweepResult.samples holds one key per theta, so a repeat would be lost
    with pytest.raises(InvalidParameterError, match="distinct"):
        theta_sweep("SMA", w_chain6, [0.0, 0.5, 0.5], T=10, reps=10)


@pytest.mark.parametrize("n_jobs", [0, -4])
def test_thread_counts_below_one_rejected_before_any_draw(monkeypatch, w_chain6, n_jobs):
    # they used to run serially without a word
    import sbergsma.depmodels as depmodels

    def no_draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(depmodels, "stream", no_draw)
    with pytest.raises(InvalidParameterError, match="n_jobs must be an integer of at least 1"):
        sb_replicates([None], w_chain6, NORMAL, T=10, reps=10, seed=0, n_jobs=n_jobs)


def test_sar_numerically_singular_system_raises_before_any_draw(monkeypatch):
    import sbergsma.depmodels as depmodels

    def no_draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(depmodels, "stream", no_draw)
    # theta just inside 1 / spectral radius: I - theta W has condition ~ 1e13
    W = row_standardize(linear_chain(4))
    for path in (lambda: simulate_panel("SAR", 0.9999999999999, W, T=10, seed=0),
                 lambda: theta_sweep("SAR", W, [0.0, 0.9999999999999], T=10, reps=10)):
        with pytest.raises(SingularSystemError, match="numerically singular"):
            path()


@pytest.mark.parametrize("theta", [0.6, -0.4])
def test_sar_transform_solves_the_model(w_chain6, theta):
    # y = (I - theta W)^{-1} eps  <=>  (I - theta W) y_t = eps_t for every row
    (M,) = dependence_maps("SAR", [theta], w_chain6)
    eps = stream(2).standard_normal((3, 8, 6))
    y = eps @ M.T
    A = np.eye(6) - theta * w_chain6.weights
    assert np.allclose(y @ A.T, eps, rtol=0, atol=1e-13)


def test_bad_model_and_short_panel(w_chain6):
    with pytest.raises(InvalidParameterError, match="model must be SMA or SAR, got 'CAR'"):
        simulate_panel("CAR", 0.1, w_chain6, T=10)
    with pytest.raises(InvalidParameterError, match="model must be SMA or SAR, got 'sar'"):
        theta_sweep("sar", w_chain6, [0.1], T=10, reps=10)
    with pytest.raises(LengthError):
        simulate_panel("SMA", 0.1, w_chain6, T=2)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), 1j, "0.5", None, True,
                                   np.array([0.1, 0.2])])
@pytest.mark.parametrize("path", ["simulate_panel", "theta_sweep"])
def test_theta_must_be_a_real_finite_number_before_any_draw(path, theta, monkeypatch, w_chain6):
    import sbergsma.depmodels as depmodels

    def no_draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(depmodels, "stream", no_draw)
    with pytest.raises(InvalidParameterError,
                       match=r"^theta must be a real, finite number, got "):
        if path == "simulate_panel":
            simulate_panel("SMA", theta, w_chain6, T=10)
        else:
            theta_sweep("SMA", w_chain6, [0.0, theta], T=10, reps=10)


def test_real_thetas_of_any_type_are_float_keys(w_chain6):
    sweep = theta_sweep("SMA", w_chain6, [np.int64(0), np.float32(0.5), 1], T=10, reps=4)
    assert [type(theta) for theta in sweep.samples] == [float] * 3
    assert list(sweep.samples) == [0.0, 0.5, 1.0]


def test_simulate_deterministic(w_chain6):
    a = simulate_panel("SAR", 0.4, w_chain6, T=20, seed=7)
    b = simulate_panel("SAR", 0.4, w_chain6, T=20, seed=7)
    c = simulate_panel("SAR", 0.4, w_chain6, T=20, seed=8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_sweep_theta_zero_matches_monte_carlo_null(w_chain6):
    T, reps, seed = 15, 120, 3
    sweep = theta_sweep("SMA", w_chain6, [0.0, 0.4], T=T, reps=reps, seed=seed)
    null = monte_carlo_null(NORMAL, T, w_chain6, reps=reps, seed=seed)
    assert np.array_equal(T * sweep.samples[0.0], null.samples)


def test_sweep_bitwise_same_on_any_thread_count(monkeypatch, w_chain6):
    # at the default byte budget, and at one that holds one replicate per range
    import sbergsma.bergsma as bergsma

    for budget, reps in ((bergsma._BATCH_BYTES, 450), (2 * 10 * 6 * 8, 60)):
        monkeypatch.setattr(bergsma, "_BATCH_BYTES", budget)
        one = theta_sweep("SAR", w_chain6, [0.0, 0.5], T=10, reps=reps, seed=4)
        two = theta_sweep("SAR", w_chain6, [0.0, 0.5], T=10, reps=reps, seed=4, n_jobs=2)
        for theta in (0.0, 0.5):
            assert np.array_equal(one.samples[theta], two.samples[theta])
        assert one.summaries == two.summaries


def test_small_run_gives_each_thread_a_range(monkeypatch, w_chain6):
    # 20 replicates on 2 threads are two ranges of 10, not one range of 20
    import sbergsma.depmodels as depmodels

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    batches = []

    def recording(panels, W):
        batches.append(len(panels))
        return sb_values_batch(panels, W)

    monkeypatch.setattr(depmodels, "sb_values_batch", recording)
    runs = []
    for n_jobs, sizes in ((1, [20, 20]), (2, [10] * 4)):  # one batch per theta and range
        batches.clear()
        runs.append(sb_replicates(dependence_maps("SAR", [0.0, 0.5], w_chain6), w_chain6,
                                  NORMAL, T=10, reps=20, seed=4, n_jobs=n_jobs))
        assert batches == sizes
    assert np.array_equal(runs[0], runs[1])


def test_sweep_mean_increases_with_theta(w_chain6):
    sweep = theta_sweep("SMA", w_chain6, [0.0, 0.3, 0.6], T=40, reps=400, seed=5)
    means = [mean for mean, _, _, _ in sweep.summaries.values()]
    assert means[0] < means[1] < means[2]


def test_sweep_summaries_match_samples(w_chain6):
    sweep = theta_sweep("SAR", w_chain6, [0.2], T=20, reps=200, seed=9)
    vals = sweep.samples[0.2]
    mean, sd, _, _ = sweep.summaries[0.2]
    assert mean == pytest.approx(vals.mean(), rel=1e-12)
    assert sd == pytest.approx(vals.std(), rel=1e-12)


@pytest.mark.parametrize("model,theta", [("SMA", 0.7), ("SAR", 0.6), ("SAR", -0.4)])
def test_sweep_matches_per_replicate_transform(model, theta, w_chain6):
    # each sweep sample is the transform of replicate r's own stream (seed, r)
    # noise; the sweep draws that noise once and shares it across thetas
    T, reps, seed = 12, 25, 8
    sweep = theta_sweep(model, w_chain6, [0.0, theta, 0.3], T=T, reps=reps, seed=seed)
    (M,) = dependence_maps(model, [theta], w_chain6)
    for r in range(reps):
        panel = NORMAL.sample((T, 6), stream(seed, r)) @ M.T
        want = sb_statistic(SpatialPanel(panel), w_chain6).value
        assert abs(sweep.samples[theta][r] - want) <= 1e-12


def test_simulated_constant_columns_named():
    # chi-square draws at df 1e-300 all standardize to 0; the panel used to
    # come back all zero
    with pytest.raises(DegenerateRegionError, match="R1, R2, R3"):
        simulate_panel("SMA", 0.3, row_standardize(linear_chain(3)), 10, seed=1,
                       noise=ReferenceDistribution("chi-square", df=1e-300))
