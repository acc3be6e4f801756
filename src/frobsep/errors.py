"""Exception types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class FrobsepError(Exception):
    """Base class for all package errors."""


# --- curve arithmetic


class BadReduction(FrobsepError):
    """The prime divides the model discriminant; no smooth reduction."""


class CeilingExceeded(FrobsepError):
    """A point count was requested above the configured enumeration ceiling."""


class UnsupportedModel(FrobsepError):
    """The model/prime combination is outside the supported counting paths."""


class NonUnitaryRoots(FrobsepError):
    """Unitarized Euler-factor roots deviate from the unit circle."""


# --- trace tables


class SchemaError(FrobsepError):
    """Trace-table CSV has a malformed header or metadata line."""


class ValidationError(FrobsepError):
    """A table entry violates an invariant (Weil bound, ordering, ...).

    `line` is the input line it was read from; `row` the table row index.
    """

    def __init__(self, message: str, line: int | None = None, row: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line, self.row = line, row


@contextmanager
def parsing(source=None):
    """Raise a KeyError, TypeError, ValueError (json.JSONDecodeError is one)
    or ValidationError met while parsing a document as a ValidationError,
    prefixed with `source` if given."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"{source}: {message}" if source else message) from exc


class ConflictError(FrobsepError):
    """Two tables disagree on a stored value; never silently resolved."""


class IncompleteTable(FrobsepError):
    """A sum requires primes that the table does not cover."""


class MissingEigendata(FrobsepError):
    """Prime-power terms need eigenvalue angles but only traces are stored."""


# --- representation theory


class NonIntegral(FrobsepError):
    """A quantity that must be an integer came out non-integral.  The Haar
    quadrature is exact for every character it integrates, so this is a fault."""


# --- kernels


class DomainError(FrobsepError):
    """Argument outside of the mathematical domain of the function."""


# --- separation


class WeilViolation(FrobsepError):
    """A normalized trace lies outside the Weil box [-2g, 2g]."""
