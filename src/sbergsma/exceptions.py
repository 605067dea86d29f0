"""Exception hierarchy for the sbergsma package.

Every error raised by the library derives from :class:`SbergsmaError`.
"""


class SbergsmaError(Exception):
    """Base class for all library errors."""


# --- series / kernel errors -------------------------------------------------

class LengthError(SbergsmaError):
    """Series too short for the requested operation."""


class NonFiniteError(SbergsmaError):
    """Input contains NaN or infinite values."""


class DimensionMismatchError(SbergsmaError):
    """Arrays that must share a shape do not."""


# --- spatial weights errors -------------------------------------------------

class RegionIndexError(SbergsmaError):
    """Region index that is not an integer in [1, R]."""


class SelfLoopError(SbergsmaError):
    """A nonzero diagonal entry of W, from any source; the message names the first."""


class DuplicatePointError(SbergsmaError):
    """Two region coordinates coincide; inverse distance is undefined."""


class SizeError(SbergsmaError):
    """Dimension too small (e.g. fewer than 2 regions)."""


class IsolatedRegionError(SbergsmaError):
    """All-zero weight rows where weight is required: row standardization,
    or a W whose weights are all zero (S0 = 0)."""


class NegativeWeightError(SbergsmaError):
    """Proximity weights must be nonnegative."""


class LabelMismatchError(SbergsmaError):
    """A weight file's region labels are not the panel's labels in the same order."""


# --- panel / statistic errors -----------------------------------------------

class DegenerateRegionError(SbergsmaError):
    """No Bergsma self-covariance: a constant series or column, a spread too small to
    square in float64, a resample constant in every draw, or an all-zero spectrum."""


# --- null distribution errors -----------------------------------------------

class UnsupportedDistributionError(SbergsmaError):
    """Distribution family outside the supported reference set, or a df it does not read."""


class ConvergenceError(SbergsmaError):
    """Numerical approximation failed its internal consistency check."""


class SpectraMismatchError(SbergsmaError):
    """Number of eigen spectra does not match the number of regions."""


class EmptyNullError(SbergsmaError):
    """Null distribution has no samples."""


# --- dependence model errors ------------------------------------------------

class SingularSystemError(SbergsmaError):
    """I - theta*W is singular or numerically close to singular."""


class InvalidParameterError(SbergsmaError):
    """Model parameter outside its admissible range."""


# --- time series errors -----------------------------------------------------

class RankDeficientError(SbergsmaError):
    """Autoregressive design matrix is rank deficient."""


class ShortSeriesError(SbergsmaError):
    """Series too short for the requested AR order."""


class LagError(SbergsmaError):
    """Requested lag not smaller than the series length."""


class SampleSizeError(SbergsmaError):
    """Too few samples for the requested moment summary."""


# --- I/O errors -------------------------------------------------------------

class OutputPathError(SbergsmaError):
    """Output path is empty, or exists and is not a regular file."""


class ParseError(SbergsmaError):
    """Malformed input file; message names the offending location."""


class RaggedRowError(ParseError):
    """A panel or dense W file row whose length differs; the message names it."""


class NonNumericError(ParseError):
    """A cell expected to be numeric is not."""


class NonIntegerError(ParseError):
    """A cell expected to be an integer region index is not."""


class DuplicateLabelError(ParseError):
    """A panel header or a coordinate list names the same region twice."""
