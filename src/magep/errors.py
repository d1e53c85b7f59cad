"""Exception types shared across the package."""


class MagepError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MagepError, ValueError):
    """Operand shapes or extents are inconsistent."""


class ValidationError(MagepError, ValueError):
    """A value violates a structural invariant (widths, shapes, keys)."""


class ParseError(MagepError, ValueError):
    """A serialized document could not be decoded.

    ``offset`` is the byte/character position at which decoding failed,
    when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class ConfigurationError(MagepError, ValueError):
    """A layer stack or CLI configuration is inconsistent."""
