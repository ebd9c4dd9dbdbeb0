"""Exception taxonomy shared across the package.

Two branches matter for the command line tool: ConfigError maps to exit
code 2, DataError to exit code 3. Anything else is a runtime failure (4).
"""


class SleepTrendError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SleepTrendError):
    """A run configuration is malformed or internally inconsistent."""


class DataError(SleepTrendError):
    """Input data cannot be used as requested."""


# EDF / recordings ----------------------------------------------------------

class MalformedHeader(DataError):
    """EDF header bytes do not parse or are internally inconsistent."""


class InconsistentRecordLength(DataError):
    """EDF payload size disagrees with the declared record count."""


class UnsupportedTransducer(DataError):
    """An EDF signal cannot be interpreted as a numeric waveform."""


class MissingChannel(DataError):
    """A requested electrode label is absent from the recording."""


class NegativeDuration(DataError):
    """An annotation row has a negative duration."""


class OverlappingIntervals(DataError):
    """Quiet-sleep annotation intervals overlap."""


# DSP -----------------------------------------------------------------------

class NyquistViolation(DataError):
    """A filter band edge sits at or above a signal's Nyquist frequency."""


class TooShortSignal(DataError):
    """Signal is too short for the requested operation."""


class ShapeMismatch(DataError):
    """Array shapes are incompatible."""


# Model / training ----------------------------------------------------------

class InvalidEpoch(DataError):
    """A channel's epochs do not form an (n_epochs, samples) array."""


class ChecksumMismatch(DataError):
    """A checkpoint blob does not match the digest in its manifest."""


class SingleClassDataset(DataError):
    """A training set contains only one sleep state."""


class TooFewSubjects(DataError):
    """Cross-validation needs at least two subjects."""


# Metrics / trend -----------------------------------------------------------

class LengthMismatch(DataError):
    """Paired sequences differ in length."""


class SingleClassLabels(DataError):
    """Ranking metrics need both classes present."""


class ZeroVariance(DataError):
    """Correlation is undefined for a constant sequence."""


class EvenWindow(ConfigError):
    """Median smoothing windows must be odd."""
