"""Text file formats for loops and cocycles.

Loop files: a ``loop <l>`` header, then l rows of l space-separated 0-based
indices; row 0 and column 0 must be the identity permutation.  Cocycle files:
a ``cocycle l=<l> group=<orders>`` header, a ``P`` line with l index rows,
then a ``Q`` line with l index rows; entries are positions in the canonical
enumeration of Aut(A).  Lines starting with ``#`` are comments; emitters
produce a canonical form so that emit(parse(x)) is byte-identical to a
canonically formatted x.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from pathlib import Path
from typing import Iterable

from .abelian import make_group, parse_group_spec
from .errors import InputError, ParseError, StructureError, decimals
from .extension import LoopCocycle, make_cocycle
from .loops import FiniteLoop, make_loop


def _content_lines(text: str):
    """Yield (1-based line number, stripped content) skipping comments/blanks;
    a line ends at a line feed only, as :func:`_read_text` counts lines."""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _parse_row(line: str, number: int, expected: int, what: str, source: str) -> list[int]:
    parts = line.split()
    if len(parts) != expected:
        raise ParseError(f"{what} row has {len(parts)} entries, expected {expected}",
                         line=number, source=source)
    try:
        return decimals(parts)
    except ValueError:
        raise ParseError(f"{what} row contains a non-integer entry",
                         line=number, source=source) from None


def loads_loop(text: str, *, source: str = "<string>") -> FiniteLoop:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty loop file", source=source)
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "loop":
        raise ParseError(f"expected header 'loop <l>', got {header!r}",
                         line=number, source=source)
    try:
        (l,) = decimals(parts[1:])
    except ValueError:
        raise ParseError(f"bad loop size {parts[1]!r}", line=number, source=source) from None
    if l < 1:
        raise ParseError(f"loop size must be >= 1, got {l}", line=number, source=source)
    rows = lines[1:]
    if len(rows) != l:
        raise ParseError(f"expected {l} table rows, found {len(rows)}",
                         line=number, source=source)
    table = [_parse_row(line, num, l, "loop", source) for num, line in rows]
    try:
        return make_loop(table)
    except StructureError as exc:
        line = rows[exc.index][0] if exc.axis == "row" else rows[0][0]
        raise ParseError(str(exc), line=line, source=source) from exc


def _loop_lines(loop: FiniteLoop, comments: Iterable[str]):
    """The lines of a loop file, each ending in a newline, the rows one at a
    time.  A comment holding any line break of ``str.splitlines`` is an
    ``InputError`` before any line is handed out."""
    head = [f"# {c}\n" for c in comments] + [f"loop {loop.size}\n"]
    for line in head:
        if len(line.splitlines()) > 1:
            raise InputError(f"loop-file comment {line[2:-1]!r} holds a line break")
    decimal = [str(v) for v in range(loop.size)].__getitem__  # entries are in range
    return chain(head, (" ".join(map(decimal, row)) + "\n" for row in loop._lines(0)))


def dumps_loop(loop: FiniteLoop, comments: Iterable[str] = ()) -> str:
    return "".join(_loop_lines(loop, comments))


def _read_text(path: Path) -> tuple[str, str]:
    """The UTF-8 text of a file and the SHA-256 of its bytes, from one read;
    undecodable bytes are a ParseError at their line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", source=str(path),
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def parse_loop_file(path) -> tuple[FiniteLoop, str]:
    """The loop in ``path`` and the SHA-256 of the bytes it was parsed from."""
    text, digest = _read_text(path := Path(path))
    return loads_loop(text, source=str(path)), digest


def emit_loop_file(loop: FiniteLoop, path, comments: Iterable[str] = ()) -> None:
    """Write the text of :func:`dumps_loop` to ``path`` row by row; a comment
    holding a line break is refused before ``path`` is opened."""
    lines = _loop_lines(loop, comments)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)


def loads_cocycle(text: str, loop: FiniteLoop, *, source: str = "<string>") -> LoopCocycle:
    """Parse a cocycle file against the loop it is defined over."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty cocycle file", source=source)
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "cocycle":
        raise ParseError(f"expected header 'cocycle l=<l> group=<orders>', got {header!r}",
                         line=number, source=source)
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(f"bad header field {part!r}", line=number, source=source)
        key, value = part.split("=", 1)
        fields[key] = value
    if set(fields) != {"l", "group"}:
        raise ParseError(f"header must carry exactly 'l' and 'group', got {sorted(fields)}",
                         line=number, source=source)
    try:
        (l,) = decimals([fields["l"]])
    except ValueError:
        raise ParseError(f"bad size {fields['l']!r}", line=number, source=source) from None
    if l != loop.size:
        raise ParseError(f"cocycle is over a loop of size {l}, given loop has size {loop.size}",
                         line=number, source=source)
    try:
        group = make_group(parse_group_spec(fields["group"]))
    except InputError as exc:
        raise ParseError(str(exc), line=number, source=source) from exc

    body = lines[1:]
    if len(body) != 2 * l + 2:
        raise ParseError(f"expected 'P', {l} rows, 'Q', {l} rows; found {len(body)} lines",
                         line=number, source=source)
    if body[0][1] != "P":
        raise ParseError(f"expected 'P' section, got {body[0][1]!r}",
                         line=body[0][0], source=source)
    if body[l + 1][1] != "Q":
        raise ParseError(f"expected 'Q' section, got {body[l + 1][1]!r}",
                         line=body[l + 1][0], source=source)
    ptable = [_parse_row(line, num, l, "P", source) for num, line in body[1:l + 1]]
    qtable = [_parse_row(line, num, l, "Q", source) for num, line in body[l + 2:]]
    try:
        return make_cocycle(loop, group, ptable, qtable)
    except InputError as exc:
        raise ParseError(str(exc), line=number, source=source) from exc


def dumps_cocycle(cocycle: LoopCocycle) -> str:
    spec = ",".join(str(n) for n in cocycle.group.orders)
    lines = [f"cocycle l={cocycle.loop.size} group={spec}", "P"]
    lines.extend(" ".join(str(v) for v in row) for row in cocycle.ptable)
    lines.append("Q")
    lines.extend(" ".join(str(v) for v in row) for row in cocycle.qtable)
    return "\n".join(lines) + "\n"


def parse_cocycle_file(path, loop: FiniteLoop) -> tuple[LoopCocycle, str]:
    """The cocycle in ``path`` over ``loop`` and the SHA-256 of its parsed bytes."""
    text, digest = _read_text(path := Path(path))
    return loads_cocycle(text, loop, source=str(path)), digest


def emit_cocycle_file(cocycle: LoopCocycle, path) -> str:
    """Write the canonical text of ``cocycle`` to ``path`` and return it."""
    text = dumps_cocycle(cocycle)
    Path(path).write_text(text, encoding="utf-8")
    return text


def extension_comments(cocycle: LoopCocycle) -> list[str]:
    """Canonical comment header for an emitted extension loop file."""
    spec = ",".join(str(n) for n in cocycle.group.orders)
    n = cocycle.group.size
    return [
        f"extension of group {spec} by a loop of size {cocycle.loop.size}",
        f"pair encoding: (x, a) -> x*{n} + a",
    ]


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
