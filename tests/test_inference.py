"""Inference workflow tests: independence test, bootstrap CI, pair screen."""

import os

import numpy as np
import pytest

from sbergsma import (
    DependenceSpec,
    ReferenceDistribution,
    SpatialPanel,
    asymptotic_null_sample,
    bootstrap_ci,
    independence_rho_quantile,
    linear_chain,
    monte_carlo_null,
    nystrom_eigenvalues,
    p_value,
    pairwise_screen,
    row_standardize,
    sb_statistic,
    sb_values_batch,
    simulate_panel,
    test_spatial_independence,
    theta_sweep,
)
from sbergsma.exceptions import (
    DegenerateRegionError,
    EmptyNullError,
    InvalidParameterError,
    LengthError,
)
from sbergsma.nulldist import asymptotic_null
from sbergsma.rng import stream

from conftest import peak_bytes

NORMAL = ReferenceDistribution("normal")

# not a test class despite the imported function's name
test_spatial_independence.__test__ = False


@pytest.fixture(scope="module")
def w5():
    return row_standardize(linear_chain(5))


@pytest.fixture(scope="module")
def shared_null(w5):
    return monte_carlo_null(NORMAL, 30, w5, reps=2000, seed=100)


def _shared_p(panel, W, null):
    # one null reused over many panels, as test_spatial_independence documents
    return p_value(sb_statistic(panel, W).scaled_value, null)


def test_report_reproducible(w5, shared_null):
    panel = simulate_panel(DependenceSpec("SMA", 0.5, w5), T=30, seed=1)
    assert _shared_p(panel, w5, shared_null) == _shared_p(panel, w5, shared_null)


def test_null_panel_p_value_roughly_uniform(w5, shared_null):
    # size check: under the null about 5% of p-values fall below 0.05
    hits = 0
    reps = 200
    for r in range(reps):
        panel = simulate_panel(DependenceSpec("SMA", 0.0, w5), T=30, seed=500 + r)
        hits += _shared_p(panel, w5, shared_null) <= 0.05
    # binomial(200, 0.05) within 4 sd
    assert abs(hits - 10) < 4 * np.sqrt(200 * 0.05 * 0.95)


def test_dependent_panel_rejects(w5, shared_null):
    rejected = 0
    for r in range(40):
        panel = simulate_panel(DependenceSpec("SAR", 0.7, w5), T=30, seed=900 + r)
        rejected += _shared_p(panel, w5, shared_null) <= 0.05
    assert rejected >= 30


def test_unstandardized_w_noted():
    W = linear_chain(5)
    panel = SpatialPanel(stream(8).standard_normal((30, 5)))
    rep = test_spatial_independence(panel, W, reps=50)
    assert any("row-standardized" in n for n in rep.notes)


def test_n_jobs_threads_the_null_without_changing_the_report(monkeypatch, w5):
    import sbergsma.inference as inference

    seen = []

    def recording(*args, **kw):
        seen.append(kw["n_jobs"])
        return monte_carlo_null(*args, **kw)

    monkeypatch.setattr(inference, "monte_carlo_null", recording)
    panel = simulate_panel(DependenceSpec("SMA", 0.3, w5), T=30, seed=4)
    # 500 replicates are three ranges, one per thread up to the usable cores
    a, b = (test_spatial_independence(panel, w5, reps=500, seed=7, n_jobs=n)
            for n in (1, 3))
    assert seen == [1, 3]
    assert (a.p_value, a.null_meta) == (b.p_value, b.null_meta)


@pytest.mark.parametrize("null_method", ["mc", "asym"])
@pytest.mark.parametrize("n_jobs", [0, -4])
def test_thread_counts_below_one_rejected_before_any_work(monkeypatch, w5, null_method,
                                                          n_jobs):
    import sbergsma.inference as inference

    def no_work(*args, **kw):
        raise AssertionError("work ran")

    for name in ("sb_statistic", "bootstrap_ci", "monte_carlo_null", "asymptotic_null"):
        monkeypatch.setattr(inference, name, no_work)
    panel = SpatialPanel(stream(8).standard_normal((30, 5)))
    with pytest.raises(InvalidParameterError, match="n_jobs must be an integer of at least 1"):
        test_spatial_independence(panel, w5, null_method=null_method, reps=100,
                                  ci_resamples=200, n_jobs=n_jobs)


def test_bootstrap_deterministic(w5):
    panel = SpatialPanel(stream(31).standard_normal((25, 5)))
    a = bootstrap_ci(panel, w5, B=300, seed=6)
    b = bootstrap_ci(panel, w5, B=300, seed=6)
    assert a == b
    assert a[0] < a[1]


def test_bootstrap_identical_columns_ci_is_unit(w5):
    base = stream(9).standard_normal(20)
    panel = SpatialPanel(np.column_stack([base] * 5))
    lo, hi = bootstrap_ci(panel, w5, B=250, seed=0)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_bootstrap_covers_estimate_usually(w5):
    from sbergsma import sb_statistic

    panel = simulate_panel(DependenceSpec("SMA", 0.6, w5), T=60, seed=14)
    lo, hi = bootstrap_ci(panel, w5, B=500, seed=1)
    val = sb_statistic(panel, w5).value
    assert lo <= val <= hi


def test_bootstrap_b_too_small(w5):
    panel = SpatialPanel(stream(1).standard_normal((20, 5)))
    with pytest.raises(InvalidParameterError):
        bootstrap_ci(panel, w5, B=100)
    with pytest.raises(InvalidParameterError):
        bootstrap_ci(panel, w5, B=300, level=1.5)


def test_bootstrap_degenerate_column_exhausts_redraws(monkeypatch):
    # identity panel: column i is constant unless row i is drawn, so a
    # non-degenerate resample needs all 14 rows present (prob ~ 1e-5); resample
    # 0 fails first, in its own range on one thread and on two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    panel = SpatialPanel(np.eye(14))
    messages = []
    for n_jobs in (1, 2):
        with pytest.raises(DegenerateRegionError, match="resample 0: all 100 draws") as err:
            bootstrap_ci(panel, row_standardize(linear_chain(14)), B=600, seed=0,
                         n_jobs=n_jobs)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # the regions named are those constant in the last draw
    rng = stream(0, 0)
    for _ in range(100):
        rows = rng.integers(0, 14, size=14)
    want = ", ".join(f"R{i + 1}" for i in range(14) if i not in rows)
    assert messages[0].endswith(f"the last at {want}")


@pytest.mark.parametrize("n_jobs", [2, 3])
def test_bootstrap_and_cutoff_bitwise_identical_for_any_thread_count(monkeypatch, w5, n_jobs):
    # at the default byte budget, B = 200 and 650 are two or three ranges of
    # the replicate loop, and n_sim = 5000 is three blocks, each drawn at
    # once, in one range per thread; at the second budget of each loop, each
    # of 200 resamples is a range of its own, and so is each block, drawn 83
    # pairs at a time
    import sbergsma.bergsma as bergsma

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    panel = SpatialPanel(stream(33).standard_normal((15, 5)))
    default = bergsma._BATCH_BYTES
    for budget, sizes in ((default, (200, 650)), (15 * 5 * 8, (200,))):
        monkeypatch.setattr(bergsma, "_BATCH_BYTES", budget)
        for B in sizes:
            assert (bootstrap_ci(panel, w5, B=B, seed=2, n_jobs=n_jobs)
                    == bootstrap_ci(panel, w5, B=B, seed=2))
    for budget in (default, 8 * 2000):
        monkeypatch.setattr(bergsma, "_BATCH_BYTES", budget)
        assert (independence_rho_quantile(12, n_sim=5000, seed=3, n_jobs=n_jobs)
                == independence_rho_quantile(12, n_sim=5000, seed=3))


def test_small_bootstrap_gives_each_thread_a_range(monkeypatch, w5):
    # 200 resamples on 2 threads are two ranges of 100, not one range of 200
    import sbergsma.inference as inference

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    batches = []

    def recording(panels, W):
        batches.append(len(panels))
        return sb_values_batch(panels, W)

    monkeypatch.setattr(inference, "sb_values_batch", recording)
    bootstrap_ci(SpatialPanel(stream(35).standard_normal((15, 5))), w5, B=200, n_jobs=2)
    assert batches == [100, 100]


def test_bootstrap_memory_does_not_grow_with_B():
    # the resamples are held a range at a time; one array of all B of them
    # grows by T * R * 8 bytes per resample, 8 MiB from B = 500 to 2000
    panel = SpatialPanel(stream(34).standard_normal((50, 14)))
    W = row_standardize(linear_chain(14))
    peaks = [peak_bytes(bootstrap_ci, panel, W, B=B, seed=1) for B in (500, 2000)]
    assert peaks[1] - peaks[0] < 2**20


@pytest.mark.parametrize("loop", [
    lambda T: monte_carlo_null(NORMAL, T, row_standardize(linear_chain(14)), reps=100, seed=1),
    lambda T: independence_rho_quantile(T, n_sim=500, seed=1),
], ids=["null", "cutoff"])
def test_replicate_loop_memory_does_not_grow_with_T(loop):
    # one byte budget sizes every range and cutoff slice, so the peaks grow
    # 0.4 and 0.2 MiB; drawing the cutoff's 500 pairs whole grew 1.3 MiB, and
    # null ranges of up to 200 replicates 3.7 MiB
    peaks = [peak_bytes(loop, T) for T in (100, 400)]
    assert peaks[1] - peaks[0] < 2**20


def test_independence_rho_quantile_near_published_cutoff():
    cut = independence_rho_quantile(19, n_sim=4000, seed=0)
    assert cut == pytest.approx(0.17, abs=0.02)


def test_pairwise_screen_identical_and_independent():
    base = stream(40).standard_normal(19)
    panel = SpatialPanel(np.column_stack([base, base, stream(41).standard_normal(19)]))
    rho = sb_statistic(panel, linear_chain(3)).pair_rho
    cutoff = independence_rho_quantile(panel.n_time, seed=0, n_sim=2000)
    flags = pairwise_screen(rho, cutoff)
    assert flags[0, 1] and flags[1, 0]
    assert rho[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert not flags.diagonal().any()
    assert 0.1 < cutoff < 0.3


def test_pairwise_screen_explicit_cutoff():
    rng = stream(50)
    panel = SpatialPanel(rng.standard_normal((25, 4)))
    rho = sb_statistic(panel, linear_chain(4)).pair_rho
    assert not pairwise_screen(rho, 1.1).any()


@pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf])
def test_pairwise_screen_rejects_non_finite_cutoff(cutoff):
    with pytest.raises(InvalidParameterError, match="finite"):
        pairwise_screen(np.eye(3), cutoff)


def _per_resample_bootstrap(data, W, B, seed):
    """S~_B of each resample b, redrawn from stream (seed, b) while degenerate,
    and the number of draws of each."""
    T = len(data)
    values, draws = [], []
    for b in range(B):
        rng = stream(seed, b)
        n = 0
        while True:
            n += 1
            sub = data[rng.integers(0, T, size=T)]
            if np.all(np.ptp(sub, axis=0) > 0):
                break
        values.append(sb_statistic(SpatialPanel(sub), W).value)
        draws.append(n)
    return np.array(values), np.array(draws)


def test_bootstrap_ci_is_percentile_of_per_resample_statistics(w5):
    # column 0 has eight equal values out of ten, so about a tenth of the
    # resamples are constant there and get redrawn from the same stream
    T, B, seed = 10, 240, 4
    data = stream(12).standard_normal((T, 5))
    data[:8, 0] = 0.0
    values, draws = _per_resample_bootstrap(data, w5, B, seed)
    assert draws.sum() > B
    lo, hi = bootstrap_ci(SpatialPanel(data), w5, B=B, seed=seed)
    want = np.quantile(values, [0.025, 0.975])
    assert abs(lo - want[0]) <= 1e-12 and abs(hi - want[1]) <= 1e-12


def test_bootstrap_completes_when_most_draws_are_degenerate(w5):
    # column j < 4 is constant in a draw that misses row j, its one distinct
    # value, so a draw is degenerate unless it holds rows 0-3: about 0.85
    T, B, seed = 12, 2000, 5
    data = stream(13).standard_normal((T, 5))
    data[:, :4] = 0.0
    data[np.arange(4), np.arange(4)] = 1.0
    values, draws = _per_resample_bootstrap(data, w5, B, seed)
    assert draws.sum() > 5 * B and draws.max() < 100
    lo, hi = bootstrap_ci(SpatialPanel(data), w5, B=B, seed=seed)
    want = np.quantile(values, [0.025, 0.975])
    assert abs(lo - want[0]) <= 1e-12 and abs(hi - want[1]) <= 1e-12


def test_pair_cutoff_is_the_95th_percentile_of_simulated_rho():
    # the cutoff takes np.quantile's linear rule without calling it; the pairs
    # of each block of 2000 come from the stream of the block's first index
    T, n_sim, seed = 10, 2300, 6
    rho = [sb_statistic(SpatialPanel(x), linear_chain(2)).value
           for lo in range(0, n_sim, 2000)
           for x in stream(seed, lo).standard_normal((min(2000, n_sim - lo), T, 2))]
    want = np.quantile(rho, 0.95)
    assert abs(independence_rho_quantile(T, n_sim=n_sim, seed=seed) - want) <= 1e-12


def test_slices_of_one_stream_draw_the_normals_one_draw_would():
    # the pair cutoff draws each block of 2000 pairs from one stream in
    # slices of as many pairs as fit the byte budget, which changes no value
    whole = stream(7, 2000).standard_normal((2000, 50, 2))
    for sizes in ([7, 993, 1000], [300] * 6 + [200]):
        rng = stream(7, 2000)
        parts = [rng.standard_normal((n, 50, 2)) for n in sizes]
        assert np.array_equal(np.concatenate(parts), whole)


def test_every_loop_hands_the_kernel_batches_within_the_byte_budget(monkeypatch):
    # at T = 200 and a 64 KiB budget, every array pairwise_kappa gets fits
    # the budget, however many replicates, resamples or pairs a loop runs
    import sbergsma.bergsma as bergsma
    import sbergsma.inference as inference
    import sbergsma.statistic as statistic

    budget, T = 1 << 16, 200
    monkeypatch.setattr(bergsma, "_BATCH_BYTES", budget)
    sizes = []

    def recording(data):
        sizes.append(np.asarray(data).nbytes)
        return bergsma.pairwise_kappa(data)

    monkeypatch.setattr(statistic, "pairwise_kappa", recording)
    monkeypatch.setattr(inference, "pairwise_kappa", recording)
    W = row_standardize(linear_chain(4))
    runs = {
        "null": lambda: monte_carlo_null(NORMAL, T, W, reps=30, seed=1, n_jobs=2),
        "sweep": lambda: theta_sweep("SAR", W, [0.0, 0.5], T, reps=30, seed=1),
        "bootstrap": lambda: bootstrap_ci(SpatialPanel(stream(36).standard_normal((T, 4))),
                                          W, B=200, seed=1, n_jobs=2),
        "cutoff": lambda: independence_rho_quantile(T, n_sim=100, seed=1),
    }
    for name, run in runs.items():
        sizes.clear()
        run()
        assert sizes and max(sizes) <= budget, name


def _forbid_nulls(monkeypatch):
    import sbergsma.inference as inference

    def no_null(*args, **kw):
        raise AssertionError("a null was simulated")

    for name in ("monte_carlo_null", "asymptotic_null"):
        monkeypatch.setattr(inference, name, no_null)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"null_method": "bootstrap"},
        {"ci_resamples": 100},
        # the level is read only when a CI is asked for
        {"ci_resamples": 300, "ci_level": 1.5},
        # zero resamples is an error, not a request for no CI
        {"ci_resamples": 0},
        # the asymptotic null's spectrum took its whole solve before these
        {"null_method": "asym", "ci_resamples": 100},
        {"null_method": "asym", "ci_resamples": 200, "ci_level": 1.5},
        # the library takes the names of --null, and no others
        {"null_method": "monte_carlo"},
        {"null_method": "asymptotic_eigen"},
    ],
)
def test_bad_arguments_rejected_before_any_null(monkeypatch, w5, kwargs):
    _forbid_nulls(monkeypatch)
    panel = SpatialPanel(stream(13).standard_normal((20, 5)))
    with pytest.raises(InvalidParameterError):
        test_spatial_independence(panel, w5, reps=20_000, **kwargs)


@pytest.mark.parametrize("null_method", ["mc", "asym"])
def test_zero_reps_rejected_before_any_null(monkeypatch, w5, null_method):
    _forbid_nulls(monkeypatch)
    panel = SpatialPanel(stream(13).standard_normal((20, 5)))
    with pytest.raises(EmptyNullError):
        test_spatial_independence(
            panel, w5, null_method=null_method, reps=0, ci_resamples=300
        )


def test_independence_rho_quantile_rejects_zero_sims():
    with pytest.raises(InvalidParameterError):
        independence_rho_quantile(19, n_sim=0)
    # unchecked, T = 1 divides by C(T, 2) = 0 and T = 2 fails as a constant series
    for T in (1, 2):
        with pytest.raises(LengthError, match="T must be an integer of at least 3"):
            independence_rho_quantile(T, n_sim=10)


@pytest.mark.parametrize("seed", [-1, 1.5, True, False])
@pytest.mark.parametrize("entry", ["monte_carlo_null", "bootstrap_ci", "asymptotic_null_sample",
                                   "asymptotic_null"])
def test_bad_seed_is_an_invalid_parameter(entry, seed, w5):
    # numpy raised its own ValueError for -1 and a TypeError for 1.5, and
    # took True as seed 1 and False as seed 0
    panel = SpatialPanel(stream(13).standard_normal((20, 5)))
    spectrum = nystrom_eigenvalues(NORMAL, K=60, m=800)
    call = {
        "monte_carlo_null": lambda: monte_carlo_null(NORMAL, 20, w5, reps=10, seed=seed),
        "bootstrap_ci": lambda: bootstrap_ci(panel, w5, B=200, seed=seed),
        "asymptotic_null": lambda: asymptotic_null(NORMAL, w5, n_draws=10, seed=seed),
        "asymptotic_null_sample": lambda: asymptotic_null_sample([spectrum] * 5, w5,
                                                                 n_draws=10, seed=seed),
    }[entry]
    with pytest.raises(InvalidParameterError, match="seed must be an integer of at least 0"):
        call()
