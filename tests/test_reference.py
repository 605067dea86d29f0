"""Reference distribution and population kernel tests."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate, special, stats

import sbergsma
from sbergsma import ReferenceDistribution, SpatialPanel, reference
from sbergsma.exceptions import InvalidParameterError, UnsupportedDistributionError
from sbergsma.io import save_panel
from sbergsma.reference import FAMILIES
from sbergsma.rng import stream

ALL_DISTS = [
    ReferenceDistribution("normal"),
    ReferenceDistribution("uniform"),
    ReferenceDistribution("exponential"),
    ReferenceDistribution("laplace"),
    ReferenceDistribution("logistic"),
    ReferenceDistribution("chi-square", df=1.0),
    ReferenceDistribution("chi-square", df=4.0),
]


_SCIPY = {"normal": stats.norm, "uniform": stats.uniform, "exponential": stats.expon,
          "laplace": stats.laplace, "logistic": stats.logistic}


def scipy_frozen(dist: ReferenceDistribution):
    """The same law as a frozen scipy.stats distribution (test oracle)."""
    if dist.family == "chi-square":
        return stats.chi2(dist.df)
    return _SCIPY[dist.family]()


def mean_abs_quad(dist: ReferenceDistribution, z: float, tol: float = 1e-10) -> float:
    """g_F(z) by adaptive quadrature on a domain covering all but 2e-14 mass.

    Independent of the package's closed forms; used as a cross-check oracle.
    """
    fr = scipy_frozen(dist)
    lo, hi = fr.ppf(1e-14), fr.ppf(1.0 - 1e-14)
    val, _ = integrate.quad(
        lambda x: abs(z - x) * fr.pdf(x), lo, hi,
        epsabs=tol, epsrel=tol, limit=400, points=[z] if lo < z < hi else None,
    )
    return val


_PPF_CASES = [ReferenceDistribution(family) for family in FAMILIES] + [
    ReferenceDistribution("chi-square", df=df) for df in (2.5, 4.0)
]


@pytest.mark.parametrize("dist", _PPF_CASES, ids=str)
def test_ppf_matches_scipy_stats(dist):
    # the Nystrom midpoint grid plus tails; not bitwise, since older scipy
    # versions may evaluate the same formulas differently in the last bit
    q = np.concatenate([[1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6],
                        (np.arange(2000) + 0.5) / 2000])
    np.testing.assert_allclose(
        dist.ppf(q), scipy_frozen(dist).ppf(q),
        rtol=1e-14, atol=1e-14,
    )


@pytest.mark.parametrize("q", [(np.arange(2000) + 0.5) / 2000,
                               (np.arange(2**16) + 0.5) / 2**16,
                               np.array([1e-300, 1e-20, 1 - 1e-16])],
                         ids=["grid-2000", "grid-2^16", "tails"])
def test_normal_ppf_matches_ndtri(q):
    # the stdlib's normal quantile (AS241) against the Cephes ndtri that
    # scipy.stats.norm uses
    np.testing.assert_allclose(ReferenceDistribution("normal").ppf(q), special.ndtri(q),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("q", [(np.arange(2000) + 0.5) / 2000,
                               (np.arange(2**16) + 0.5) / 2**16,
                               np.array([5e-324, 1e-300, 1e-20, 1 - 1e-16])],
                         ids=["grid-2000", "grid-2^16", "tails"])
def test_normal_ppf_is_normal_dist_inv_cdf_bit_for_bit(q):
    # the C routine is called without the statistics import, on the same bits
    from statistics import NormalDist

    want = np.array([NormalDist().inv_cdf(p) for p in q])
    assert np.array_equal(ReferenceDistribution("normal").ppf(q), want)


_SUPPORT = {"normal": (-np.inf, np.inf), "uniform": (0.0, 1.0), "exponential": (0.0, np.inf),
            "laplace": (-np.inf, np.inf), "logistic": (-np.inf, np.inf),
            "chi-square": (0.0, np.inf)}


@pytest.mark.parametrize("dist", _PPF_CASES, ids=str)
def test_ppf_gives_the_ends_of_the_support_without_warnings(dist):
    # the laplace branches were both evaluated, so q = 0 and 1 warned of a
    # division by zero; a plain AS241 port returns NaN there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = dist.ppf([0.0, 1.0])
        assert (dist.ppf(0.0), dist.ppf(1.0)) == _SUPPORT[dist.family]
    assert tuple(ends) == _SUPPORT[dist.family]


@pytest.mark.parametrize("q", [-0.1, 1.1, np.nan, -np.inf, [0.5, 1.0 + 1e-12], [[0.2], [np.nan]]],
                         ids=str)
@pytest.mark.parametrize("dist", _PPF_CASES, ids=str)
def test_ppf_rejects_probabilities_outside_the_unit_interval(dist, q, monkeypatch):
    # uniform returned -0.1 and 1.1, exponential -0.095, the others NaN
    monkeypatch.setitem(reference._PPF, dist.family, None)  # no inverse CDF runs
    with pytest.raises(InvalidParameterError, match=r"in \[0, 1\]"):
        dist.ppf(q)


def test_ppf_keeps_the_shape_of_q_and_does_not_alias_it():
    q = np.array([[0.1, 0.5], [0.9, 1.0]])
    for family in FAMILIES:
        dist = ReferenceDistribution(family)
        x = dist.ppf(q)
        assert x.shape == q.shape and not np.shares_memory(x, q)
        # a scalar for a 0-d q, and an empty array for an empty one
        for q0 in (0.25, np.array(0.25)):
            assert np.ndim(dist.ppf(q0)) == 0 and not isinstance(dist.ppf(q0), np.ndarray)
        assert dist.ppf([]).shape == (0,) and dist.ppf(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("df", [1.0, 2.5, 4.0])
def test_chi_square_gap_matches_quadrature(df):
    dist = ReferenceDistribution("chi-square", df=df)
    fr = scipy_frozen(dist)
    want, _ = integrate.quad(
        lambda x: float(dist.mean_abs_from(x)) * fr.pdf(x), 0.0, fr.ppf(1.0 - 1e-14),
        epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    assert dist.mean_abs_gap() == pytest.approx(want, rel=1e-10)


def _python(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter on this checkout's package."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_cli_import_loads_no_scipy_and_loads_numpy_random():
    # numpy.random loads with the package, so the first stream() pays no import
    code = f"import sys, sbergsma.cli; print({_SCIPY_LOADED}, 'numpy.random' in sys.modules)"
    assert _python(code) == "[] True"


def test_cli_import_loads_neither_statistics_nor_scipy():
    code = f"import sys, sbergsma.cli; print('statistics' in sys.modules, {_SCIPY_LOADED})"
    assert _python(code) == "False []"


def test_asymptotic_test_run_loads_neither_statistics_fractions_nor_decimal(tmp_path):
    # the normal quantile calls the C routine behind NormalDist.inv_cdf; the
    # statistics module it sits in imports fractions and decimal, 2.3 ms
    panel = str(tmp_path / "panel.csv")
    save_panel(panel, SpatialPanel(stream(1).standard_normal((20, 3))))
    argv = ["test", panel, "--linear-chain", "3", "--null", "asym", "--reps", "20",
            "--cutoff", "0.2", "--seed", "1", "-o", str(tmp_path / "out.json")]
    code = ("import sys; from sbergsma.cli import main; "
            f"print(main({argv!r}), [m for m in ('statistics', 'fractions', 'decimal') "
            "if m in sys.modules])")
    assert _python(code) == "0 []"


def test_monte_carlo_null_run_loads_no_scipy(tmp_path):
    argv = ["null", "--linear-chain", "3", "--R", "3", "--T", "10", "--reps", "5", "--seed", "1",
            "-o", str(tmp_path / "null.csv")]
    code = f"import sys; from sbergsma.cli import main; print(main({argv!r}), {_SCIPY_LOADED})"
    assert _python(code) == "0 []"


def test_asymptotic_test_loads_no_scipy(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text("a,b,c\n" + "".join(f"{i % 5},{i * 7 % 11},{i * 3 % 13}\n"
                                          for i in range(20)))
    argv = ["test", str(panel), "--linear-chain", "3", "--null", "asym", "--K", "50",
            "--grid", "400", "--reps", "20", "--cutoff", "0.2", "--seed", "1",
            "-o", str(tmp_path / "out.json")]
    code = f"import sys; from sbergsma.cli import main; print(main({argv!r}), {_SCIPY_LOADED})"
    assert _python(code) == "0 []"


def test_bootstrap_test_loads_no_numpy_ma(tmp_path):
    # np.quantile loads numpy.ma on its first call, which a CLI run used to
    # preload; numpy 1.x loads numpy.ma with numpy itself
    panel = tmp_path / "panel.csv"
    panel.write_text("a,b,c\n" + "".join(f"{i % 5},{i * 7 % 11},{i * 3 % 13}\n"
                                          for i in range(20)))
    argv = ["test", str(panel), "--linear-chain", "3", "--reps", "20", "--bootstrap", "200",
            "--cutoff-sims", "200", "--seed", "1", "-o", str(tmp_path / "out.json")]
    code = ("import sys, numpy; bare = 'numpy.ma' in sys.modules; from sbergsma.cli import main; "
            f"print(main({argv!r}), bare or 'numpy.ma' not in sys.modules)")
    assert _python(code) == "0 True"


#: the thread pool and three of the modules it loads
_POOL = ("concurrent.futures", "logging", "queue", "traceback")
_POOL_MODULES = f"[m for m in {_POOL!r} if m in sys.modules]"


def test_one_thread_bootstrap_test_loads_no_thread_pool(tmp_path):
    panel = str(tmp_path / "panel.csv")
    save_panel(panel, SpatialPanel(stream(1).standard_normal((20, 3))))
    argv = ["test", panel, "--linear-chain", "3", "--null", "mc", "--reps", "20",
            "--bootstrap", "200", "--cutoff-sims", "200", "--threads", "1", "--seed", "1",
            "-o", str(tmp_path / "out.json")]
    code = f"import sys; from sbergsma.cli import main; print(main({argv!r}), {_POOL_MODULES})"
    assert _python(code) == "0 []"


def test_two_thread_null_loads_the_pool_and_writes_the_one_thread_bytes(tmp_path):
    # 20 replicates on 2 threads are two ranges of 10; with one usable core
    # they are one range on the calling thread
    argv = ["null", "--linear-chain", "3", "--R", "3", "--T", "10", "--reps", "20", "--seed", "1"]
    outs = [tmp_path / f"null{n}.csv" for n in (1, 2)]
    code = ("import sys; from sbergsma.cli import main; "
            f"print(main({argv + ['--threads', '1', '-o', str(outs[0])]!r}), {_POOL_MODULES}); "
            f"print(main({argv + ['--threads', '2', '-o', str(outs[1])]!r}), {_POOL_MODULES})")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _python(code) == f"0 []\n0 {list(_POOL) if cores > 1 else []}"
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_array_records_compare_and_hash_by_identity():
    W = sbergsma.linear_chain(3)
    panel = SpatialPanel(stream(1).standard_normal((10, 3)))
    sb = sbergsma.sb_statistic(panel, W)
    records = {
        sbergsma.ProximityMatrix: lambda: sbergsma.ProximityMatrix(W.weights),
        SpatialPanel: lambda: SpatialPanel(panel.data),
        sbergsma.SBResult: lambda: sbergsma.sb_statistic(panel, W),
        sbergsma.SweepResult: lambda: sbergsma.theta_sweep("SMA", W, [0.0], T=10, reps=4),
        sbergsma.EigenSpectrum: lambda: sbergsma.EigenSpectrum(np.array([1.0, 0.5])),
        sbergsma.NullDistribution: lambda: sbergsma.NullDistribution(np.array([1.0, 2.0])),
        sbergsma.TestReport: lambda: sbergsma.TestReport(sb, 0.5, None, {}),
        sbergsma.ARFit: lambda: sbergsma.ARFit(np.array([0.0, 0.5]), np.zeros(5)),
    }
    for cls, build in records.items():
        # field-by-field == raised on the arrays' truth value, and hash() a TypeError
        assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__), cls
        a, b = build(), build()
        assert type(a) is cls and a == a and a != b and len({a, a, b}) == 2
    normal = ReferenceDistribution("normal")
    assert normal == ReferenceDistribution("normal") != ReferenceDistribution("uniform")
    assert hash(normal) == hash(ReferenceDistribution("normal"))


@pytest.mark.parametrize("family", FAMILIES)
def test_spectrum_loads_scipy_for_chi_square_only(family, tmp_path):
    argv = ["spectrum", "--dist", family, "--K", "100", "--grid", "400",
            "-o", str(tmp_path / "s.csv")] + ["--df", "3"] * (family == "chi-square")
    code = (f"import sys; from sbergsma.cli import main; "
            f"print(main({argv!r}), 'scipy.special' in sys.modules, {_SCIPY_LOADED} == [])")
    assert _python(code) == ("0 True False" if family == "chi-square" else "0 False True")


def test_normal_g_at_zero():
    d = ReferenceDistribution("normal")
    assert d.mean_abs_from(0.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)


def test_uniform_g_midpoint():
    d = ReferenceDistribution("uniform")
    assert d.mean_abs_from(0.5) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
@pytest.mark.parametrize("z", [-1.7, -0.2, 0.0, 0.4, 2.9])
def test_g_closed_form_matches_quadrature(dist, z):
    assert float(dist.mean_abs_from(z)) == pytest.approx(
        mean_abs_quad(dist, z), abs=1e-8
    )


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
def test_g_jensen_lower_bound(dist):
    mean = scipy_frozen(dist).mean()
    for z in [-3.0, -0.5, 0.0, 1.0, 4.0]:
        assert float(dist.mean_abs_from(z)) >= abs(z - mean) - 1e-12


@pytest.mark.parametrize(
    "dist, gap",
    [
        (ReferenceDistribution("normal"), 2 / math.sqrt(math.pi)),
        (ReferenceDistribution("uniform"), 1 / 3),
        (ReferenceDistribution("exponential"), 1.0),
        (ReferenceDistribution("laplace"), 1.5),
        (ReferenceDistribution("logistic"), 2.0),
    ],
)
def test_mean_abs_gap_closed_forms(dist, gap):
    assert dist.mean_abs_gap() == pytest.approx(gap, rel=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
def test_mean_abs_gap_matches_sampling(dist):
    rng = stream(2024)
    z1 = dist.sample(400_000, rng)
    z2 = dist.sample(400_000, rng)
    diff = np.abs(z1 - z2)
    se = diff.std() / math.sqrt(diff.size)
    assert abs(diff.mean() - dist.mean_abs_gap()) < 4 * se


def test_kernel_diagonal_identity():
    # h(z, z) = g_F(z) - g(F)/2
    d = ReferenceDistribution("normal")
    for z in [-1.0, 0.0, 0.7, 2.4]:
        expect = float(d.mean_abs_from(z)) - d.mean_abs_gap() / 2
        assert float(d.kernel(z, z)) == pytest.approx(expect, rel=1e-12)


def test_kernel_symmetric_distribution_reflection():
    d = ReferenceDistribution("laplace")
    assert float(d.kernel(0.4, -1.3)) == pytest.approx(
        float(d.kernel(-0.4, 1.3)), rel=1e-12
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_zero_mean_under_independence(family):
    d = ReferenceDistribution(family, df=1.0)
    rng = stream(909)
    z1 = d.sample(1_000_000, rng)
    z2 = d.sample(1_000_000, rng)
    h = d.kernel(z1, z2)
    se = h.std() / math.sqrt(h.size)
    assert abs(h.mean()) < 3 * se


def test_invalid_family_and_parameters():
    with pytest.raises(UnsupportedDistributionError):
        ReferenceDistribution("cauchy")
    with pytest.raises(UnsupportedDistributionError):
        ReferenceDistribution("chi-square", df=-1.0)
    # an infinite df used to end the spectrum's eigensolve in a LinAlgError traceback
    with pytest.raises(UnsupportedDistributionError, match="finite"):
        ReferenceDistribution("chi-square", df=math.inf)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "chi-square"])
def test_df_is_rejected_outside_chi_square(family):
    # df is read by chi-square only; elsewhere it used to be recorded and ignored
    assert ReferenceDistribution(family, df=1.0).df == 1.0
    for df in (-7.0, 2.0, float("nan")):
        with pytest.raises(UnsupportedDistributionError, match="chi-square only"):
            ReferenceDistribution(family, df=df)


def test_standard_member_has_family_and_df_only():
    assert [f.name for f in fields(ReferenceDistribution)] == ["family", "df"]
    with pytest.raises(TypeError):
        ReferenceDistribution("normal", loc=1.0)
