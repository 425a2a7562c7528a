"""Exception hierarchy shared across the package."""


class CelError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVectorError(CelError):
    """Vector norm too small to normalize."""


class DimensionMismatchError(CelError):
    """Operands have incompatible dimensions."""


class BatchTooSmallError(CelError):
    """Batch has fewer utterances than the loss requires."""


class BatchShapeInvalidError(CelError):
    """Labeled batch does not match the required speakers-by-utterances layout."""


class LabelOutOfRangeError(CelError):
    """A class label falls outside [0, num_classes)."""


class SingleClassError(CelError):
    """Classifier loss needs at least two classes."""


class TooShortError(CelError):
    """Signal shorter than one analysis window."""


class UnsupportedWavError(CelError):
    """WAV file is not 16 kHz mono 16-bit PCM."""


class UtteranceTooShortError(CelError):
    """Utterance shorter than the requested crop."""


class EmptyImpulseError(CelError):
    """Impulse response is empty."""


class InvalidParamError(CelError):
    """Parameter outside its legal range."""


class ShapeMismatchError(CelError):
    """Array shape does not match the expected shape."""


class StaleCacheError(CelError):
    """Backward called with a cache from a different parameter set."""


class NormalizationDegenerateError(CelError):
    """Pre-normalization encoder output has near-zero norm."""


class NonFiniteError(CelError):
    """A training step produced a non-finite loss or gradient."""


class CorpusTooSmallError(CelError):
    """Corpus cannot fill one batch under the sampling constraints."""


class CheckpointMismatchError(CelError):
    """Checkpoint config does not match the requested config."""


class UnknownIdError(CelError):
    """Trial references an utterance id with no embedding."""


class DegenerateTrialsError(CelError):
    """Trial set lacks target or nontarget trials."""


class TrialParseError(CelError):
    """Trial list line is malformed."""


class SchemaError(CelError):
    """Config document violates the schema."""
