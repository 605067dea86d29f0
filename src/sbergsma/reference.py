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
the tests check g_F and g(F) against adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .exceptions import UnsupportedDistributionError

FAMILIES = ("normal", "uniform", "exponential", "laplace", "logistic", "chi-square")

_SQRT2PI = math.sqrt(2.0 * math.pi)

#: inverse CDF of each family's standard member, in the forms scipy.stats uses
_PPF = {
    "normal": lambda q, df: special.ndtri(q),
    "uniform": lambda q, df: q,
    "exponential": lambda q, df: -special.log1p(-q),
    "laplace": lambda q, df: np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q)),
    "logistic": lambda q, df: special.logit(q),
    "chi-square": lambda q, df: 2 * special.gammaincinv(df / 2, q),
}


@dataclass(frozen=True)
class ReferenceDistribution:
    """A location-scale member of one of the six reference families.

    ``uniform`` is parameterized as uniform(loc, loc + scale); ``exponential``
    has mean ``scale``; ``chi-square`` takes ``df`` degrees of freedom.
    """

    family: str
    loc: float = 0.0
    scale: float = 1.0
    df: float = field(default=1.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedDistributionError(
                f"unknown family {self.family!r}; supported: {', '.join(FAMILIES)}"
            )
        if not (self.scale > 0):
            raise UnsupportedDistributionError(f"scale must be positive, got {self.scale}")
        if self.family == "chi-square" and not (self.df > 0):
            raise UnsupportedDistributionError(f"df must be positive, got {self.df}")

    def ppf(self, q):
        """Inverse CDF at probabilities ``q`` in [0, 1], elementwise."""
        q = np.asarray(q, dtype=float)
        return _PPF[self.family](q, self.df) * self.scale + self.loc

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        """Draw using numpy's native samplers (faster than scipy's rvs)."""
        if self.family == "normal":
            z = rng.standard_normal(size)
        elif self.family == "uniform":
            z = rng.random(size)
        elif self.family == "exponential":
            z = rng.standard_exponential(size)
        elif self.family == "laplace":
            z = rng.laplace(0.0, 1.0, size)
        elif self.family == "logistic":
            z = rng.logistic(0.0, 1.0, size)
        else:
            z = rng.chisquare(self.df, size)
        return self.loc + self.scale * np.asarray(z)

    # -- population quantities ----------------------------------------------

    def mean_abs_from(self, z):
        """g_F(z) = E|z - Z|, elementwise over ``z``."""
        u = (np.asarray(z, dtype=float) - self.loc) / self.scale
        return self.scale * _g_standard(self.family, self.df, u)

    def mean_abs_gap(self) -> float:
        """g(F) = E|Z1 - Z2| for two independent copies."""
        return self.scale * _gap_standard(self.family, self.df)

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


#: default law of the null, the simulators' noise and the test's reference F
STANDARD_NORMAL = ReferenceDistribution("normal")


# -- standard-member formulas ------------------------------------------------

def _g_standard(family: str, df: float, u):
    """g at u for the standard member (loc=0, scale=1), vectorized."""
    if family == "normal":
        return 2.0 * np.exp(-0.5 * u * u) / _SQRT2PI + u * (2.0 * special.ndtr(u) - 1.0)
    if family == "uniform":
        return np.where(u < 0.0, 0.5 - u, np.where(u > 1.0, u - 0.5, u * u - u + 0.5))
    if family == "exponential":
        up = np.maximum(u, 0.0)
        return np.where(u < 0.0, 1.0 - u, up - 1.0 + 2.0 * np.exp(-up))
    if family == "laplace":
        return np.abs(u) + np.exp(-np.abs(u))
    if family == "logistic":
        # u + 2*log(1 + e^{-u}), written for numerical symmetry
        return np.abs(u) + 2.0 * np.log1p(np.exp(-np.abs(u)))
    # chi-square: partial expectation E[Z; Z<=z] = df * F_{df+2}(z)
    u = np.asarray(u, dtype=float)
    up = np.maximum(u, 0.0)
    val = up * (2.0 * special.chdtr(df, up) - 1.0) + df - 2.0 * df * special.chdtr(df + 2, up)
    return np.where(u < 0.0, df - u, val)


#: g(F) = E|Z1 - Z2| of the standard member of each family but chi-square
_GAP = {"normal": 2.0 / math.sqrt(math.pi), "uniform": 1.0 / 3.0, "exponential": 1.0,
        "laplace": 1.5, "logistic": 2.0}


def _gap_standard(family: str, df: float) -> float:
    """g(F) for the standard member."""
    if family == "chi-square":
        # Gini mean difference of the gamma law with shape df/2 and scale 2
        log_ratio = math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
        return 4.0 * math.exp(log_ratio) / math.sqrt(math.pi)
    return _GAP[family]
