"""Exception types shared across the package."""


class DataError(Exception):
    """Base class for problems with user-supplied data or configuration."""


class EncodingError(DataError):
    """An input file is not UTF-8 text."""


class ParseError(DataError):
    """A line in an input file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructureError(DataError):
    """Head indices of a sentence do not form a rooted tree."""


class AlignmentError(DataError):
    """Two inputs that must describe the same sentences do not line up."""


class FormatError(DataError):
    """An input file is structurally valid but incompatible (e.g. wrong dimensions)."""


class ConfigError(DataError):
    """Unknown or invalid configuration key/value."""


class ModelIOError(DataError):
    """A model file is truncated, corrupt, or has the wrong version."""


class ScoreError(DataError, ValueError):
    """A model score or a trained parameter is not finite: the model's numbers overflow."""
