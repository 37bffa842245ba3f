"""Exception types shared across the package, and the checks that raise them."""

import math

import numpy as np


class SupertimeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SupertimeError, ValueError):
    """An input failed a precondition (wrong sign, unknown tag, bad shape)."""


class DipoleApproximationError(ValidationError):
    """Separation d is too large relative to R for the dipole force formula."""


class RelativisticMotionError(ValidationError):
    """Trajectory would require relativistic speeds (d not small vs c*t0)."""


class DivergentIntegralError(SupertimeError):
    """A quadrature did not converge (e.g. window with a 1/omega tail)."""


class GridError(SupertimeError):
    """Numerical grid is unusable (too narrow, boundary contamination, ...)."""


class NoEntanglementError(ValidationError):
    """Zero force difference: entanglement is never generated."""


def require(ok, error: type, message: str, **values) -> None:
    """Raise ``error(message)`` unless ``ok`` holds at every point.

    ``ok`` and ``values`` are numbers or arrays over the points of one
    sweep.  ``message`` is formatted with ``values`` at the first point
    where ``ok`` fails, so it reads as it would for that point alone.
    """
    # A scalar check yields a Python or numpy bool; np.all costs ~10 us.
    if ok is True or ok is np.True_ or np.all(ok):
        return
    ok, *columns = np.broadcast_arrays(ok, *values.values())
    first = int(np.argmin(ok.ravel()))  # the first False
    raise error(message.format(**{name: column.flat[first].item()
                                  for name, column in zip(values, columns)}))


def require_positive(**values) -> None:
    """Raise ValidationError naming the first of ``values`` not positive and finite.

    Each value is a number or an array of sweep values; the message is
    ``<name> must be positive and finite, got <value>``.
    """
    for name, value in values.items():
        # ``&`` keeps a Python float's check a Python bool, so a value that
        # passes costs neither ``require`` nor its message.
        ok = (value > 0.0) & (value < math.inf)
        if ok is not True:
            require(ok, ValidationError,
                    f"{name} must be positive and finite, got {{value}}", value=value)


def require_nonnegative(**values) -> None:
    """As :func:`require_positive`, for values that may also be zero."""
    for name, value in values.items():
        ok = (value >= 0.0) & (value < math.inf)
        if ok is not True:
            require(ok, ValidationError,
                    f"{name} must be non-negative and finite, got {{value}}", value=value)


def require_finite(**values) -> None:
    """As :func:`require_positive`, for values of either sign or zero."""
    for name, value in values.items():
        ok = abs(value) < math.inf
        if ok is not True:
            require(ok, ValidationError, f"{name} must be finite, got {{value}}", value=value)
