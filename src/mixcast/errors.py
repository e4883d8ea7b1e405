"""Exception hierarchy shared by every mixcast module.

Everything user-facing derives from MixcastError so the CLI can map
"our" failures to exit code 1 and anything else to exit code 2.
``reading`` does the same for a file that cannot be read or written.
"""

from __future__ import annotations

from contextlib import contextmanager


class MixcastError(Exception):
    """Base class for all errors raised on purpose by mixcast."""


class RankError(MixcastError):
    """A tensor has (or would get) an unsupported rank."""


class DimensionError(MixcastError):
    """Shapes are rank-compatible but extents disagree."""


class ParameterError(MixcastError):
    """A scalar argument is outside its documented domain."""


class ConfigurationError(MixcastError):
    """A config object is internally inconsistent or unsupported."""


class ContractError(MixcastError):
    """An API was called in a way that violates its call contract."""


class StateError(MixcastError):
    """Saved state does not match the data it is being applied to."""


class DataError(MixcastError):
    """Raw input data is malformed (ragged rows, bad literals, NaNs)."""


class SchemaError(MixcastError):
    """A column-role schema does not match the data it describes."""


class FormatError(MixcastError):
    """A serialized artifact has a bad magic, version, or layout."""


class MetricError(MixcastError):
    """A metric is undefined for the given inputs (e.g. flat history)."""


class NumericError(MixcastError):
    """A computation produced non-finite values from finite inputs."""


@contextmanager
def reading(path, error: type[MixcastError], action: str = "read"):
    """Raise ``error`` naming ``path`` when it cannot be opened for
    ``action`` ("read" or "write") or is not UTF-8 text, so a bad input or
    output path is a user error rather than a crash."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot {action} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason}") from None
