"""Reference distributions and the population Bergsma kernel.

For a distribution F with finite mean, define

    g_F(z)    = E|z - Z|,           Z ~ F,
    g(F)      = E|Z1 - Z2|,         Z1, Z2 iid F,
    h_F(a, b) = -1/2 [ |a - b| - g_F(a) - g_F(b) + g(F) ].

``h_F`` is the centered absolute-distance kernel whose eigenvalues drive the
asymptotic null distribution of the spatial statistic.  Six families are
supported: normal, uniform, exponential, Laplace, logistic and chi-square.

g_F is evaluated from the identity

    E|z - Z| = z (2 F(z) - 1) + E[Z] - 2 * P(z),   P(z) = E[Z ; Z <= z],

which needs only the CDF and the partial expectation; both are in closed form
for all six families, as is g(F).  The inverse CDFs and the normal and
chi-square CDFs are the ``scipy.special`` forms that ``scipy.stats`` uses;
the tests check g_F and g(F) against adaptive quadrature.  ``scipy.special``
is imported only where it is called, so sampling (every Monte Carlo path)
never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedDistributionError

FAMILIES = ("normal", "uniform", "exponential", "laplace", "logistic", "chi-square")
#: the families whose law is symmetric about its median, F(c - z) = 1 - F(c + z)
SYMMETRIC = ("normal", "uniform", "laplace", "logistic")

_SQRT2PI = math.sqrt(2.0 * math.pi)

#: inverse CDF of each family's standard member, in the forms scipy.stats uses;
#: each takes the ``scipy.special`` module, the probabilities and df
_PPF = {
    "normal": lambda sp, q, df: sp.ndtri(q),
    "uniform": lambda sp, q, df: q,
    "exponential": lambda sp, q, df: -sp.log1p(-q),
    "laplace": lambda sp, q, df: np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q)),
    "logistic": lambda sp, q, df: sp.logit(q),
    "chi-square": lambda sp, q, df: 2 * sp.gammaincinv(df / 2, q),
}


@dataclass(frozen=True)
class ReferenceDistribution:
    """The standard member of one of the six reference families.

    ``uniform`` is uniform(0, 1), ``exponential`` has mean 1 and ``chi-square``
    takes ``df`` degrees of freedom; no other family reads ``df``.  rho~ and
    everything built on it do not change under a positive affine map of a
    series, so a location or scale could not move any result.
    """

    family: str
    df: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedDistributionError(
                f"unknown family {self.family!r}; supported: {', '.join(FAMILIES)}"
            )
        if self.family == "chi-square" and not (0 < self.df < math.inf):
            raise UnsupportedDistributionError(f"df must be positive and finite, got {self.df}")
        if self.family != "chi-square" and self.df != 1.0:
            raise UnsupportedDistributionError(f"df is for chi-square only, got {self.df}")

    def ppf(self, q):
        """Inverse CDF at probabilities ``q`` in [0, 1], elementwise."""
        from scipy import special

        return _PPF[self.family](special, np.asarray(q, dtype=float), self.df)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        """Draw using numpy's native samplers (faster than scipy's rvs)."""
        if self.family == "normal":
            return rng.standard_normal(size)
        if self.family == "uniform":
            return rng.random(size)
        if self.family == "exponential":
            return rng.standard_exponential(size)
        if self.family == "laplace":
            return rng.laplace(0.0, 1.0, size)
        if self.family == "logistic":
            return rng.logistic(0.0, 1.0, size)
        return rng.chisquare(self.df, size)

    # -- population quantities ----------------------------------------------

    def mean_abs_from(self, z):
        """g_F(z) = E|z - Z|, elementwise over ``z``."""
        z = np.asarray(z, dtype=float)
        if self.family == "normal":
            from scipy.special import ndtr

            return 2.0 * np.exp(-0.5 * z * z) / _SQRT2PI + z * (2.0 * ndtr(z) - 1.0)
        if self.family == "uniform":
            return np.where(z < 0.0, 0.5 - z, np.where(z > 1.0, z - 0.5, z * z - z + 0.5))
        if self.family == "exponential":
            zp = np.maximum(z, 0.0)
            return np.where(z < 0.0, 1.0 - z, zp - 1.0 + 2.0 * np.exp(-zp))
        if self.family == "laplace":
            return np.abs(z) + np.exp(-np.abs(z))
        if self.family == "logistic":
            # z + 2*log(1 + e^{-z}), written for numerical symmetry
            return np.abs(z) + 2.0 * np.log1p(np.exp(-np.abs(z)))
        # chi-square: partial expectation E[Z; Z<=z] = df * F_{df+2}(z)
        from scipy.special import chdtr

        df, zp = self.df, np.maximum(z, 0.0)
        val = zp * (2.0 * chdtr(df, zp) - 1.0) + df - 2.0 * df * chdtr(df + 2, zp)
        return np.where(z < 0.0, df - z, val)

    def mean_abs_gap(self) -> float:
        """g(F) = E|Z1 - Z2| for two independent copies."""
        if self.family != "chi-square":
            return _GAP[self.family]
        # Gini mean difference of the gamma law with shape df/2 and scale 2
        log_ratio = math.lgamma((self.df + 1.0) / 2.0) - math.lgamma(self.df / 2.0)
        return 4.0 * math.exp(log_ratio) / math.sqrt(math.pi)

    def kernel(self, z1, z2):
        """Population Bergsma kernel h_F(z1, z2), elementwise."""
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        return -0.5 * (
            np.abs(z1 - z2)
            - self.mean_abs_from(z1)
            - self.mean_abs_from(z2)
            + self.mean_abs_gap()
        )


#: g(F) = E|Z1 - Z2| of each family but chi-square
_GAP = {"normal": 2.0 / math.sqrt(math.pi), "uniform": 1.0 / 3.0, "exponential": 1.0,
        "laplace": 1.5, "logistic": 2.0}

#: default law of the null, the simulators' noise and the test's reference F
STANDARD_NORMAL = ReferenceDistribution("normal")
