"""Exception types raised across the package, and the checks of numeric
settings that raise them."""

import math
import numbers


class RfpcaError(Exception):
    """Base class for all package-specific errors."""


class InvalidDomainError(RfpcaError, ValueError):
    """Degenerate or malformed basis domain."""


class OutOfDomainError(RfpcaError, ValueError):
    """Evaluation time outside the basis domain; no extrapolation is done."""


class UnsupportedOrderError(RfpcaError, ValueError):
    """Spline order too low for the requested operation."""


class DimensionMismatchError(RfpcaError, ValueError):
    """Vector/matrix shapes inconsistent with the basis or model."""


class InvalidInputError(RfpcaError, ValueError):
    """An option or data set outside what the requested operation accepts."""


class InvalidParamsError(RfpcaError, ValueError):
    """Model parameters violate their invariants (e.g. sigma2 <= 0)."""


class ConditioningError(RfpcaError, RuntimeError):
    """A linear system or decomposition is singular or rank deficient."""


class DegenerateFitError(RfpcaError, RuntimeError):
    """The data cannot support a fit (e.g. zero residual variance)."""


class NumericalOverflowError(RfpcaError, RuntimeError):
    """A likelihood evaluation produced a non-finite value."""


class CsvParseError(RfpcaError, ValueError):
    """Malformed input CSV; the message carries the offending line number."""


def is_real(value) -> bool:
    """Whether ``value`` is a real number, numpy scalars included; bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_finite_real(name: str, value) -> None:
    """Raise ``InvalidInputError`` naming ``name`` unless ``value`` is finite and real."""
    if not (is_real(value) and math.isfinite(value)):
        raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")


def check_integer(name: str, value) -> None:
    """Raise ``InvalidInputError`` naming ``name`` unless ``value`` is an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
