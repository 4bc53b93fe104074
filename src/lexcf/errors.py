"""Exception hierarchy shared across the package.

CLI exit codes map onto these: ConfigError -> 2, DataError -> 3,
InvariantViolation -> 4. An OSError (a file that cannot be read or
written) exits 3 as well.
"""


class LexcfError(Exception):
    """Base class for all package errors."""


class ConfigError(LexcfError):
    """Invalid configuration value or unusable parameter combination."""


class DataError(LexcfError):
    """Problem with input data (files, schemas, labels)."""


class SchemaError(DataError):
    """Column set or feature declaration does not match the data."""


class ParseError(DataError):
    """A cell value could not be parsed for its declared feature kind."""


class TrainingError(DataError):
    """The training set cannot support fitting (e.g. a single class)."""


class ModelFormatError(DataError):
    """A model file is corrupt or has an unsupported format version."""


class InvariantViolation(LexcfError):
    """A documented contract was violated by caller or implementation."""
