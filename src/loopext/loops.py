"""Finite loops as Cayley tables with the identity fixed at index 0.

A loop of size l is an l x l Latin square over ``0..l-1`` whose row 0 and
column 0 are the identity permutation.  Elements are plain integers.  Loops
are immutable after validation, apart from what :func:`kept` keeps: the
report of ``properties()``, computed from the loop and the one home of its
inverse facts (LIP and RIP witnesses, first inverse mismatch, two-sided
inverse map), the first non-commuting pair, and Sigma and the orbit
decompositions of ``loopext.orbits``.  Every predicate here is a pure
function.  Of the divisions only e/x and x\\e are kept, as the two inverse
maps; no library path divides general elements.

A loop is its rows, in the container its order selects: at order
l <= 256 (``_BYTES_ORDER``) each row is one ``bytes`` object, an entry a
byte, and above it each row is a tuple of ints.  Its columns are held
beside the rows, as the Latin check :func:`validate_table` returns them:
strided slices of the joined rows, else a column view.  Only that check
(with :func:`_columns`), ``table`` and :func:`_read_through` know the
container, and every scan here is written once over ``_rows`` and
``_columns``.  A line is read through another by one ``translate`` or one
``itemgetter`` gather, so a law is tested a whole line at a time and only
a failing line is scanned cell by cell: every witness is the cell scan's.
``table`` is the int-tuple rows, a kept view at order <= 256 that no
library scan reads.
"""

from __future__ import annotations

from itertools import repeat, starmap
from operator import eq, getitem, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import InputError, PreconditionError, StructureError, integers

# The largest order whose rows are bytes: every entry then fits a byte.
_BYTES_ORDER = 256


class FiniteLoop:
    """Cayley-table loop: its validated rows (``bytes`` at order <= 256,
    else int tuples) and columns, as :func:`validate_table` returns them, its
    two inverse maps and the facts :func:`kept` keeps: its property report,
    first non-commuting pair, Sigma and orbit decompositions.  ``_checked``
    (entries are ints already, as the extension builder makes them) skips
    only ``integers``."""

    __slots__ = ("size", "_rows", "_columns", "_left_inverse", "_right_inverse", "_kept")

    def __init__(self, table: Sequence[Sequence[int]], *, _checked: bool = False):
        if not _checked:
            table = [integers(row, "loop table entry") for row in table]
        rows, self._columns = validate_table(table)
        self._rows, self.size = rows, len(rows)
        # x\e is where row x holds e; e/z = x exactly when x\e = z, so the
        # left-inverse map is the inverse permutation of the right one
        self._right_inverse = right = tuple(row.index(0) for row in rows)
        self._left_inverse = tuple(sorted(range(self.size), key=right.__getitem__))
        # "table", "report", "noncommuting", "sigma" and each orbit mode -> its fact
        self._kept = {}

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The rows of the Cayley table as int tuples: the rows themselves
        above order 256, else a view of the ``bytes`` rows kept on first read."""
        rows = self._rows
        return rows if self.size > _BYTES_ORDER else kept(self, "table", tuple, map(tuple, rows))

    def left_inverse(self, x: int) -> int:
        """The element e/x, i.e. the solution of z*x = e."""
        self._check(x)
        return self._left_inverse[x]

    def right_inverse(self, x: int) -> int:
        """The element x\\e, i.e. the solution of x*z = e."""
        self._check(x)
        return self._right_inverse[x]

    def is_commutative(self) -> bool:
        return noncommuting_pair(self) is None

    def is_associative(self) -> bool:
        """Whether (x*y)*z = x*(y*z) for all z, pair by pair: row x*y against
        row y read through row x."""
        rows = self._rows
        return all(all(map(eq, map(rows.__getitem__, row), _read_through(rows, repeat(row))))
                   for row in rows)

    def properties(self) -> "LoopPropertyReport":
        """Kept default property analysis (see :func:`analyze_properties`)."""
        return kept(self, "report", analyze_properties, self)

    def _check(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.size:
            raise InputError(f"element index {x!r} out of range for loop of size {self.size}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteLoop):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"FiniteLoop(size={self.size})"


def _columns(rows):
    """The columns of ``rows`` in their container: strided slices of the
    joined ``bytes`` rows, else a :class:`_Columns` view."""
    if isinstance(rows[0], bytes):
        joined, l = b"".join(rows), len(rows)
        return [joined[j::l] for j in range(l)]
    return _Columns(rows)


class _Columns:
    """The columns of a row-tuple table, none of them kept, as a kept
    transpose would double the table: iterating walks them by one ``zip``,
    and column j is gathered from the rows only when it is indexed."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    def __iter__(self):
        return zip(*self.rows)

    def __getitem__(self, j: int) -> tuple[int, ...]:
        return tuple(map(itemgetter(j), self.rows))


def _read_through(lines, throughs):
    """Each line of ``lines`` read through the matching one of ``throughs``,
    in the lines' container: entry y is ``through[line[y]]``.  A ``bytes``
    line is read by one ``translate``, the through padded to its 256-byte
    table with bytes no entry reaches; a tuple line by one ``itemgetter``
    gather.  Beside :func:`validate_table` and :func:`_columns`, the one
    reader that tests the container, once per scan."""
    if isinstance(lines[0], bytes):
        return map(bytes.translate, lines, map(bytes.ljust, throughs, repeat(256)))
    return map(itemgetter.__call__, starmap(itemgetter, lines), throughs)


def kept(owner, key, compute, *args):
    """Fact ``key`` of a loop or cocycle: ``compute(*args)`` once, then kept
    in ``owner._kept``, as the owner's tables never change.  Callers check
    preconditions first.  A miss is found by ``in``, not by catching KeyError,
    which an error that ``compute`` raises or keeps would take as its context,
    with this frame and so the owner."""
    facts = owner._kept
    if key not in facts:
        facts[key] = compute(*args)
    return facts[key]


def validate_table(rows: Sequence[Sequence[int]]) -> tuple:
    """Raise StructureError naming the first defect unless ``rows`` is a loop
    table with identity 0, else return ``(rows, columns)``: ``bytes`` rows at
    order l <= 256 (a ``bytes`` row is kept, not copied), else tuples, and
    their :func:`_columns`.  Each row's length is tested, then its whole line
    (at l <= 256 ``bytes(range(l)).translate(None, row)`` is empty, above it
    its set is that of 0..l-1); only a failing row is scanned cell by cell,
    for the entry to name.  Then the columns, then the identity row and column."""
    l = len(rows)
    if l < 1:
        raise StructureError("loop table must have at least one row")
    packed = l <= _BYTES_ORDER
    identity = bytes(range(l)) if packed else tuple(range(l))
    full = set(identity)
    lines = []
    for i, row in enumerate(rows):
        if len(row) != l:
            raise StructureError(f"row {i} has {len(row)} entries, expected {l}",
                                 index=i, axis="row")
        try:
            line = bytes(row) if packed else tuple(row)
        except ValueError:  # an entry outside 0..255 is no byte: the cell scan names it
            line = None
        if line is None or (identity.translate(None, line) if packed else set(line) != full):
            for v in row:
                if not 0 <= v < l:
                    raise StructureError(f"row {i} contains out-of-range entry {v}", index=i,
                                         axis="row")
            raise StructureError(f"row {i} is not a permutation of 0..{l - 1}", index=i,
                                 axis="row")
        lines.append(line)
    rows = tuple(lines)
    columns = _columns(rows)
    for j, column in enumerate(columns):
        # the rows hold only 0..l-1, so l distinct entries are all of them
        if identity.translate(None, column) if packed else len(set(column)) != l:
            raise StructureError(f"column {j} is not a permutation of 0..{l - 1}", index=j,
                                 axis="column")
    if rows[0] != identity:
        raise StructureError("row 0 is not the identity permutation", index=0, axis="row")
    if columns[0] != identity:
        raise StructureError("column 0 is not the identity permutation", index=0,
                             axis="column")
    return rows, columns


def make_loop(table: Sequence[Sequence[int]]) -> FiniteLoop:
    """Validate a Cayley table and return the loop it defines."""
    return FiniteLoop(table)


class LoopPropertyReport:
    """Inverse-property flags of a loop, with the scan witnesses behind them,
    computed from the loop alone by ``LoopPropertyReport(loop)``.

    ``lip_witness``, ``rip_witness`` and ``inverse_mismatch`` are the first
    finds of :func:`first_lip_counterexample`,
    :func:`first_rip_counterexample` and :func:`first_inverse_mismatch`, or
    None when the property holds.  Both laws are scanned with e/x as x^{-1},
    the only choice: at y = e the LIP law forces e/x, the RIP law x\\e, equal
    under RIP.  ``inverse_map`` is the two-sided inverse table when left and
    right inverses coincide, else None; the diagonal maps p(x) = P(x^{-1}, x)
    and q(x) = Q(x^{-1}, x) of a cocycle are read off it.
    ``has_order3_element`` (x != e with x*x = x^{-1}) is only defined in the
    coinciding case and raises :class:`PreconditionError` otherwise.
    """

    __slots__ = ("lip_witness", "rip_witness", "inverse_mismatch", "has_lip", "has_rip",
                 "has_ip", "two_sided_inverses_coincide", "inverse_map", "_order3")

    def __init__(self, loop: FiniteLoop):
        self.lip_witness = first_lip_counterexample(loop)
        self.rip_witness = first_rip_counterexample(loop)
        self.inverse_mismatch = first_inverse_mismatch(loop)
        self.has_lip = self.lip_witness is None
        self.has_rip = self.rip_witness is None
        self.has_ip = self.has_lip and self.has_rip
        self.two_sided_inverses_coincide = self.inverse_mismatch is None
        self.inverse_map = self._order3 = None
        if self.two_sided_inverses_coincide:
            inverse_map = self.inverse_map = loop._left_inverse
            diagonal = map(getitem, loop._rows[1:], range(1, loop.size))
            self._order3 = any(map(eq, diagonal, inverse_map[1:]))

    @property
    def has_order3_element(self) -> bool:
        if self._order3 is None:
            raise PreconditionError(
                "order-3 elements are undefined: left and right inverses do not coincide"
            )
        return self._order3

    def __repr__(self) -> str:
        order3 = self._order3 if self._order3 is not None else "undefined"
        return (f"LoopPropertyReport(lip={self.has_lip}, rip={self.has_rip}, "
                f"ip={self.has_ip}, coincide={self.two_sided_inverses_coincide}, "
                f"order3={order3})")


def first_inverse_mismatch(loop: FiniteLoop) -> Optional[int]:
    """First element whose left and right inverses differ, if any."""
    for x, (left, right) in enumerate(zip(loop._left_inverse, loop._right_inverse)):
        if left != right:
            return x
    return None


def first_lip_counterexample(loop: FiniteLoop) -> Optional[tuple[int, int]]:
    """First (x, y) with (e/x)*(x*y) != y: row x read through row e/x."""
    return _first_witness(loop._rows, loop._left_inverse)


def first_rip_counterexample(loop: FiniteLoop) -> Optional[tuple[int, int]]:
    """First (x, y) with (y*x)*(e/x) != y: column x read through column e/x.

    This is the LIP law of the opposite loop, whose rows are the columns, in
    the same (x, y) order; above order 256 the columns are walked one at a
    time and only column e/x is built, so no transpose is made.
    """
    return _first_witness(loop._columns, loop._left_inverse)


def _first_witness(lines, inverse: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first (x, y) with ``lines[inverse[x]][lines[x][y]] != y``.  Each
    line x is read whole through line ``inverse[x]`` and compared with line
    0, the identity; only a failing line is scanned cell by cell (a tuple
    of length 1 reads as a scalar, so it fails whole and its cell scan finds
    nothing)."""
    identity = lines[0]
    for x, read in enumerate(_read_through(lines, map(lines.__getitem__, inverse))):
        if read != identity:
            line, through = lines[x], lines[inverse[x]]
            for y, xy in enumerate(line):
                if through[xy] != y:
                    return (x, y)
    return None


def first_noncommuting_pair(loop: FiniteLoop) -> Optional[tuple[int, int]]:
    """First (x, y), x < y, with x*y != y*x: row x against column x."""
    for x, (row, column) in enumerate(zip(loop._rows, loop._columns)):
        if row != column:
            # rows and columns before x agree, so they differ first at a y > x
            return (x, next(y for y in range(x + 1, loop.size) if row[y] != column[y]))
    return None


def noncommuting_pair(loop: FiniteLoop) -> Optional[tuple[int, int]]:
    """The kept :func:`first_noncommuting_pair`, read by every commutativity test."""
    return kept(loop, "noncommuting", first_noncommuting_pair, loop)


def analyze_properties(loop: FiniteLoop) -> LoopPropertyReport:
    """The inverse-property report of a loop, ``LoopPropertyReport(loop)``."""
    return LoopPropertyReport(loop)


def _validate_subloop(loop: FiniteLoop, members: frozenset[int]) -> None:
    """Raise InputError unless ``members`` holds e and is closed under products.

    Closure under both divisions follows.  For x in S, y -> x*y is injective
    (rows are permutations) and maps the finite S into S, so it is onto S:
    each y in S is x*z with z in S, that is x\\y is in S.  Columns give y/x.
    """
    if 0 not in members:
        raise InputError("subloop must contain the identity")
    for x in members:
        loop._check(x)
    rows = loop._rows
    for x in members:
        row = rows[x]
        for y in members:
            if row[y] not in members:
                raise InputError(f"set is not closed under multiplication at ({x}, {y})")


def _quotient_table(loop: FiniteLoop, members: frozenset[int]) -> Optional[list[list[int]]]:
    """Coset multiplication table of a normal subloop, else None; raises
    InputError when ``members`` is not a subloop.

    Left cosets are found by scanning x in ascending order and refusing any
    overlap, so each new coset's least element is x and the labels are the
    canonical ascending-least-element ones, with the identity coset at 0.
    The table is read off the representatives and every row of the loop is
    then checked against it, the classes of a whole row read by one
    :func:`_read_through`, which proves coset multiplication well defined.
    That also gives Nv = vN: take u = n in N, then n*v lies in the class of
    e*v = v, so Nv is inside the class of v, and |Nv| = |N| = |vN|.
    """
    _validate_subloop(loop, members)
    rows = loop._rows
    coset_of: list[Optional[int]] = [None] * loop.size
    reps: list[int] = []
    for x in range(loop.size):
        if coset_of[x] is not None:
            continue
        row = rows[x]
        for m in members:
            if coset_of[row[m]] is not None:
                return None
            coset_of[row[m]] = len(reps)
        reps.append(x)
    table = [[coset_of[row[b]] for b in reps] for row in map(rows.__getitem__, reps)]
    # row u must read, at each v, the class of (class of u)*(class of v):
    # class v read through the table row of class u, spread over the loop
    line = type(rows[0])  # bytes or tuple, the table's container
    labels = line(coset_of)
    spread = list(_read_through([labels] * len(reps), map(line, table)))
    reads = _read_through(rows, repeat(labels))
    return table if all(map(eq, reads, map(spread.__getitem__, coset_of))) else None


def is_normal_subloop(loop: FiniteLoop, members: Iterable[int]) -> bool:
    """Whether a subloop is the kernel of a homomorphism (brute force).

    Checks that left cosets partition the loop and that the induced
    multiplication of cosets is well defined, which implies xN = Nx for
    every x.  Raises InputError when ``members`` is not a subloop at all.
    """
    return _quotient_table(loop, frozenset(members)) is not None


def quotient_loop(loop: FiniteLoop, members: Iterable[int]) -> FiniteLoop:
    """Factor loop on the cosets of a normal subloop.

    Cosets are labeled canonically by ascending minimal element, so the
    identity coset is element 0.  Raises InputError when the subloop is
    not normal, after the same single pass as :func:`is_normal_subloop`.
    """
    table = _quotient_table(loop, frozenset(members))
    if table is None:
        raise InputError("cannot form quotient: subloop is not normal")
    return make_loop(table)
