"""Exception hierarchy shared by all loopext modules.

The CLI maps every ``LoopextError`` except ``InternalError``, and every
``OSError`` of reading or writing a file, to exit code 2;
``InternalError`` signals a broken invariant inside the library itself and is
allowed to propagate as a crash.
"""

from operator import index


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


class InternalError(LoopextError):
    """A library invariant failed; indicates a bug, not a caller mistake."""


def integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints by ``operator.index``, the one door for
    outside integers: a float or str entry is an ``InputError`` "<what> is
    not an integer: ...", never truncated."""
    try:
        return tuple(map(index, values))
    except TypeError as error:
        raise InputError(f"{what} is not an integer: {error}") from None


def decimals(tokens) -> list[int]:
    """The ints of text ``tokens``, each an optional ``-`` then ASCII digits,
    else ``ValueError``; ``int`` alone also takes ``_``, ``+`` and non-ASCII
    digits, and refuses a ``-`` anywhere but first."""
    digits = "".join(tokens).replace("-", "")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not ASCII decimals: {tokens!r}")
    return [int(token) for token in tokens]
