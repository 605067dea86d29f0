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
for all six families, as is g(F).  The tests check g_F and g(F) against
adaptive quadrature.

Only chi-square needs scipy: its inverse CDF and CDF are the
``scipy.special`` forms that ``scipy.stats`` uses, imported where they are
called.  The normal inverse CDF is the stdlib's ``statistics.NormalDist.inv_cdf``
(Wichura's AS241, good to about 1e-16 relative), also imported on first use,
and the normal g_F reads Phi through ``math.erf``; the other inverse CDFs are
closed forms in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError, UnsupportedDistributionError

FAMILIES = ("normal", "uniform", "exponential", "laplace", "logistic", "chi-square")

_SQRT2PI = math.sqrt(2.0 * math.pi)
_ERF = np.frompyfunc(math.erf, 1, 1)


def _ndtri(q):
    """Standard normal quantile, the stdlib's, with -inf and inf at q = 0 and 1."""
    from statistics import NormalDist

    x = np.where(q < 0.5, -np.inf, np.inf)
    inner = (q > 0.0) & (q < 1.0)
    x[inner] = np.frompyfunc(NormalDist().inv_cdf, 1, 1)(q[inner])
    return x


def _chi2_ppf(q, df):
    from scipy.special import gammaincinv

    return 2 * gammaincinv(df / 2, q)


#: inverse CDF of each family's standard member on probabilities in [0, 1]
_PPF = {
    "normal": lambda q, df: _ndtri(q),
    "uniform": lambda q, df: q.copy(),
    "exponential": lambda q, df: -np.log1p(-q),
    "laplace": lambda q, df: np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q)),
    "logistic": lambda q, df: np.log(q) - np.log1p(-q),
    "chi-square": _chi2_ppf,
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
        """Inverse CDF at probabilities ``q`` in [0, 1], elementwise.

        q = 0 and q = 1 give the ends of the support, which may be infinite; a
        ``q`` outside [0, 1] or NaN raises InvalidParameterError.
        """
        q = np.asarray(q, dtype=float)
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise InvalidParameterError("probabilities must lie in [0, 1]")
        # log(0) at the ends is the infinite end of a support, not an error
        with np.errstate(divide="ignore", invalid="ignore"):
            return _PPF[self.family](q, self.df)[()]  # a scalar for a scalar q

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
            # 2 Phi(z) - 1 = erf(z / sqrt 2)
            erf = np.asarray(_ERF(z / math.sqrt(2.0)), dtype=float)
            return 2.0 * np.exp(-0.5 * z * z) / _SQRT2PI + z * erf
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
        # one array of the broadcast shape, updated in place (0-d for scalars)
        h = np.asarray(z1 - z2)
        np.abs(h, out=h)
        h -= self.mean_abs_from(z1)
        h -= self.mean_abs_from(z2)
        h += self.mean_abs_gap()
        h *= -0.5
        return h[()]


#: g(F) = E|Z1 - Z2| of each family but chi-square
_GAP = {"normal": 2.0 / math.sqrt(math.pi), "uniform": 1.0 / 3.0, "exponential": 1.0,
        "laplace": 1.5, "logistic": 2.0}

#: default law of the null, the simulators' noise and the test's reference F
STANDARD_NORMAL = ReferenceDistribution("normal")
