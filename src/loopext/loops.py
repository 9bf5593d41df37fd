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
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import InputError, PreconditionError, StructureError, integers

class FiniteLoop:
    """Cayley-table loop: the validated table, its two inverse maps and the
    facts :func:`kept` keeps: its property report, first non-commuting pair,
    Sigma and orbit decompositions."""

    __slots__ = ("size", "table", "_left_inverse", "_right_inverse", "_kept")

    def __init__(self, table: Sequence[Sequence[int]], *, _checked: bool = False):
        if _checked:
            rows = tuple(map(tuple, table))
        else:
            rows = tuple(integers(row, "loop table entry") for row in table)
            validate_table(rows)
        self.size = len(rows)
        self.table = rows
        # x\e is where row x holds e; e/z = x exactly when x\e = z, so the
        # left-inverse map is the inverse permutation of the right one
        right = self._right_inverse = tuple(row.index(0) for row in rows)
        self._left_inverse = tuple(sorted(range(self.size), key=right.__getitem__))
        self._kept = {}  # "report", "noncommuting", "sigma" and each orbit mode -> its fact

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
        row y read through row x, one gather.  At size 1 a gather is a scalar."""
        t = self.table
        reads = [itemgetter(*row) for row in t]
        return self.size == 1 or all(t[xy] == reads[y](row) for row in t
                                     for y, xy in enumerate(row))

    def properties(self) -> "LoopPropertyReport":
        """Kept default property analysis (see :func:`analyze_properties`)."""
        return kept(self, "report", analyze_properties, self)

    def _check(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.size:
            raise InputError(f"element index {x!r} out of range for loop of size {self.size}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteLoop):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteLoop(size={self.size})"


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


def validate_table(rows: Sequence[Sequence[int]]) -> None:
    """Raise StructureError unless ``rows`` is a loop table with identity 0:
    one pass over the rows (length, range, permutation), one over the
    columns, then the identity row and column."""
    l = len(rows)
    if l < 1:
        raise StructureError("loop table must have at least one row")
    full = set(range(l))
    for i, row in enumerate(rows):
        if len(row) != l:
            raise StructureError(f"row {i} has {len(row)} entries, expected {l}",
                                 index=i, axis="row")
        if set(row) != full:
            for v in row:
                if not 0 <= v < l:
                    raise StructureError(f"row {i} contains out-of-range entry {v}", index=i,
                                         axis="row")
            raise StructureError(f"row {i} is not a permutation of 0..{l - 1}", index=i,
                                 axis="row")
    for j, col in enumerate(zip(*rows)):
        if len(set(col)) != l:  # the rows hold only 0..l-1, so l distinct entries are all
            raise StructureError(f"column {j} is not a permutation of 0..{l - 1}", index=j,
                                 axis="column")
    identity = tuple(range(l))
    if tuple(rows[0]) != identity:
        raise StructureError("row 0 is not the identity permutation", index=0, axis="row")
    if tuple(row[0] for row in rows) != identity:
        raise StructureError("column 0 is not the identity permutation", index=0,
                             axis="column")


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
            self._order3 = any(row[x] == inverse_map[x] for x, row in enumerate(loop.table) if x)

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
    """First (x, y) with (e/x)*(x*y) != y.

    Each row is checked whole at C speed; only the first failing row is
    scanned cell by cell for its witness.  At size 1 ``itemgetter`` returns a
    scalar, so that row takes the cell scan, which finds nothing.
    """
    t = loop.table
    identity = tuple(range(loop.size))
    for x, (row, ix) in enumerate(zip(t, loop._left_inverse)):
        left = t[ix]
        if itemgetter(*row)(left) != identity:
            for y, xy in enumerate(row):
                if left[xy] != y:
                    return (x, y)
    return None


def first_rip_counterexample(loop: FiniteLoop) -> Optional[tuple[int, int]]:
    """First (x, y) with (y*x)*(e/x) != y.

    This is the LIP law of the opposite loop, but not its row scan: the
    columns of the table (the rows of the opposite loop) are taken one at a
    time and scanned cell by cell, in the same (x, y) order, so an early
    witness costs only the columns before it, not a full transpose.
    """
    t = loop.table
    for x, (column, ix) in enumerate(zip(zip(*t), loop._left_inverse)):
        for y, yx in enumerate(column):
            if t[yx][ix] != y:
                return (x, y)
    return None


def first_noncommuting_pair(loop: FiniteLoop) -> Optional[tuple[int, int]]:
    t = loop.table
    l = loop.size
    for x in range(l):
        for y in range(x + 1, l):
            if t[x][y] != t[y][x]:
                return (x, y)
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
    for x in members:
        for y in members:
            if loop.table[x][y] not in members:
                raise InputError(f"set is not closed under multiplication at ({x}, {y})")


def _quotient_table(loop: FiniteLoop, members: frozenset[int]) -> Optional[list[list[int]]]:
    """Coset multiplication table of a normal subloop, else None; raises
    InputError when ``members`` is not a subloop.

    Left cosets are found by scanning x in ascending order and refusing any
    overlap, so each new coset's least element is x and the labels are the
    canonical ascending-least-element ones, with the identity coset at 0.
    The table is read off the representatives and every row of the loop is
    then checked against it, the classes of a whole row read by one
    ``itemgetter`` gather, which proves coset multiplication well defined.
    That also gives Nv = vN: take u = n in N, then n*v lies in the class of
    e*v = v, so Nv is inside the class of v, and |Nv| = |N| = |vN|.
    """
    _validate_subloop(loop, members)
    t = loop.table
    coset_of: list[Optional[int]] = [None] * loop.size
    reps: list[int] = []
    for x in range(loop.size):
        if coset_of[x] is not None:
            continue
        for u in map(t[x].__getitem__, members):
            if coset_of[u] is not None:
                return None
            coset_of[u] = len(reps)
        reps.append(x)
    table = [[coset_of[t[a][b]] for b in reps] for a in reps]
    # row u must read, at each v, the class of (class of u)*(class of v); both
    # sides are gathers of l indices, so at l = 1 both are scalars
    classes = tuple(coset_of)
    spread = list(map(itemgetter(*classes), table))
    for row, cu in zip(t, classes):
        if itemgetter(*row)(classes) != spread[cu]:
            return None
    return table


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
