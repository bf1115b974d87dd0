"""Exception types shared across the package."""

from __future__ import annotations


class ModshiftError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(ModshiftError, ValueError):
    """A constructor or operation received an out-of-contract argument."""


class ReducibleModulusError(InvalidParameterError):
    """A field modulus factored; carries one factor as evidence."""

    def __init__(self, modulus, factor, p):
        self.modulus = tuple(modulus)
        self.factor = tuple(factor)
        self.p = p
        super().__init__(
            f"modulus {list(modulus)} over Z/{p} is reducible: "
            f"divisible by {list(factor)}"
        )


class UnsupportedCharacteristicError(ModshiftError):
    """Operation requires a prime (or squarefree) characteristic."""


class RingMismatchError(ModshiftError, TypeError):
    """Two operands live over different rings or modules."""


class DomainExhaustedError(ModshiftError):
    """An exact-mode window operation produced an empty output window."""


class OutOfWindowError(ModshiftError):
    """A requested site or sub-window is not contained in the stored window."""


class ConfigParseError(InvalidParameterError):
    """Malformed textual input; reports line/column where known.

    An out-of-contract value in a config is refused while it is parsed, so
    this is an `InvalidParameterError` too.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        at = ""
        if line is not None:
            at = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + at)


class InfeasiblePinError(ModshiftError):
    """Overlapping cylinder pins assign conflicting values to one site."""


class InvalidCosetError(ModshiftError):
    """A configuration fails the coset-shift condition it was required to satisfy."""


# Default bound on the words or characters an exhaustive path may enumerate.
ENUMERATION_CAP = 1 << 20
# Fixed bound on the cells (draws x counters) one Monte Carlo draw may compute.
DRAW_CAP = 1 << 27
# Fixed bound on the tuples the closure check of an explicit word set may sum.
CLOSURE_TUPLE_CAP = 1 << 17
# Fixed bound on the cells (sites x free sites) of a kernel solved by propagation.
KERNEL_CELL_CAP = 1 << 28


class ResourceLimitError(ModshiftError):
    """An exhaustive path would exceed the configured enumeration budget."""

    def __init__(self, message, required):
        self.required = required
        super().__init__(message)


class DrawLimitError(ResourceLimitError):
    """A Monte Carlo draw would exceed DRAW_CAP cells; no option raises it."""


class MissingTrivialCharacterError(ModshiftError):
    """A Haar-criterion sweep did not include the trivial character."""
