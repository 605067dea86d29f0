"""Reference distribution and population kernel tests."""

import math

import numpy as np
import pytest

from sbergsma import ReferenceDistribution
from sbergsma.exceptions import UnsupportedDistributionError
from sbergsma.reference import FAMILIES, mean_abs_quad
from sbergsma.rng import stream

ALL_DISTS = [
    ReferenceDistribution("normal"),
    ReferenceDistribution("uniform"),
    ReferenceDistribution("exponential"),
    ReferenceDistribution("laplace"),
    ReferenceDistribution("logistic"),
    ReferenceDistribution("chi-square", df=1.0),
    ReferenceDistribution("chi-square", df=4.0),
    ReferenceDistribution("normal", loc=-2.0, scale=3.0),
    ReferenceDistribution("laplace", loc=1.0, scale=0.5),
]


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
    mean = dist.frozen().mean()
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
        ReferenceDistribution("normal", scale=0.0)
    with pytest.raises(UnsupportedDistributionError):
        ReferenceDistribution("chi-square", df=-1.0)
