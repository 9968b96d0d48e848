"""Exception types shared across the package, and the type checks of
config fields, kept here because this module imports nothing from the
package."""

import numpy as np


class ParseError(ValueError):
    """A file violates one of the documented TSV/JSON formats.

    Carries the offending path and, for line-oriented formats, the
    1-based line number.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}: "
            if line is not None:
                loc = f"{path}:{line}: "
        super().__init__(loc + message)


class UnknownGeneError(ValueError):
    """A gene ID was referenced that is absent from the relevant gene list."""


class InvalidStateError(RuntimeError):
    """An operation was applied to an object in the wrong state,
    e.g. training a frozen network or fine-tuning against an unfrozen one."""


class NumericalError(ArithmeticError):
    """A loss or gradient became non-finite during training/evaluation."""


def integer_field(name: str, value) -> int:
    """``value`` as a Python int, or a ValueError naming the field unless it
    is a Python or numpy integer (a bool or an integral float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_field(name: str, value) -> float:
    """``value`` as a Python float, or a ValueError naming the field unless
    it is a Python or numpy integer or float (a bool, str or None is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)
