"""Exception types shared across the package."""

from __future__ import annotations


class TrajfuseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TrajfuseError):
    """An argument violates a documented precondition."""


class HorizonMismatch(TrajfuseError):
    """Two trajectories (or a record and its manifest) disagree on horizon length."""


class NumericalError(TrajfuseError):
    """A numerical invariant was violated beyond tolerance."""


class ParseError(TrajfuseError):
    """A file or record failed validation while loading.

    Carries optional context so CLI errors can point at the offending
    location.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        self.path = path
        self.line = line
        self.field = field
        parts = []
        if path is not None:
            parts.append(str(path))
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ZeroConfidenceWarning(UserWarning):
    """Emitted when an all-zero confidence set falls back to uniform weights."""
