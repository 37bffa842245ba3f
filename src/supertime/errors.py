"""Exception types shared across the package, and the check that raises them."""

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
    if np.all(ok):
        return
    ok, *columns = np.broadcast_arrays(ok, *values.values())
    first = int(np.argmin(ok.ravel()))  # the first False
    raise error(message.format(**{name: column.flat[first].item()
                                  for name, column in zip(values, columns)}))
