"""Exception hierarchy shared by all loopext modules.

The CLI maps every ``LoopextError`` except ``InternalError``, and every
``OSError`` of reading or writing a file, to exit code 2;
``InternalError`` signals a broken invariant inside the library itself and is
allowed to propagate as a crash.
"""


class LoopextError(Exception):
    """Base class for all errors raised by loopext."""


class InputError(LoopextError):
    """Malformed or out-of-range caller input."""


class StructureError(InputError):
    """A table that is not a Latin square; ``index`` is the row or column
    named and ``axis`` (``"row"`` or ``"column"``) says which."""

    def __init__(self, message: str, *, index: int | None = None, axis: str | None = None):
        self.index = index
        self.axis = axis
        super().__init__(message)


class IdentityPositionError(StructureError):
    """Row 0 or column 0 of a loop table is not the identity permutation."""


class CocycleNormalizationError(InputError):
    """A cocycle table violates the required identity boundary."""


class NotNormalError(InputError):
    """Quotient requested by a subloop that is not normal."""


class ParseError(InputError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, *, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        where = source or "<input>"
        if line is not None:
            where = f"{where}:{line}"
        super().__init__(f"{where}: {message}")


class ResourceError(LoopextError):
    """A computation was refused because it exceeds a configured size cap."""


class PreconditionError(LoopextError):
    """A query whose answer is only defined under a structural precondition.

    Raised instead of returning False so that "the condition fails" is never
    conflated with "the question is ill-posed for this loop".
    """


class UndefinedPropertyError(PreconditionError):
    """A property flag was read on a loop where it is undefined."""


class InternalError(LoopextError):
    """A library invariant failed; indicates a bug, not a caller mistake."""
