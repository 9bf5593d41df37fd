"""Finite loops as Cayley tables with the identity fixed at index 0.

A loop of size l is an l x l Latin square over ``0..l-1`` whose row 0 and
column 0 are the identity permutation.  Elements are plain integers.  Loops
are immutable after validation; every predicate here is a pure function.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import (
    IdentityPositionError,
    InputError,
    NotNormalError,
    StructureError,
    UndefinedPropertyError,
)

LoopElement = int


class FiniteLoop:
    """Cayley-table loop: the validated table and its two inverse maps.

    Nothing else of size l^2 is kept; ``left_div`` and ``right_div`` scan one
    row or one column per call.
    """

    __slots__ = ("size", "table", "_left_inverse", "_right_inverse", "_report")

    def __init__(self, table: Sequence[Sequence[int]], *, _checked: bool = False):
        if _checked:
            rows = tuple(map(tuple, table))
        else:
            rows = tuple(tuple(int(v) for v in row) for row in table)
            validate_table(rows)
        self.size = len(rows)
        self.table = rows
        # x\e is where row x holds e; e/z = x exactly when x\e = z, so the
        # left-inverse map is the inverse permutation of the right one
        right = self._right_inverse = tuple(row.index(0) for row in rows)
        self._left_inverse = tuple(sorted(range(self.size), key=right.__getitem__))
        self._report = None

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.size)

    def mul(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        return self.table[x][y]

    def left_div(self, x: int, y: int) -> int:
        """Unique z with x*z = y (a scan of row x)."""
        self._check(x)
        self._check(y)
        return self.table[x].index(y)

    def right_div(self, x: int, y: int) -> int:
        """Unique z with z*y = x (a scan of column y)."""
        self._check(x)
        self._check(y)
        return [row[y] for row in self.table].index(x)

    def left_inverse(self, x: int) -> int:
        """The element e/x, i.e. the solution of z*x = e."""
        self._check(x)
        return self._left_inverse[x]

    def right_inverse(self, x: int) -> int:
        """The element x\\e, i.e. the solution of x*z = e."""
        self._check(x)
        return self._right_inverse[x]

    def opposite(self) -> "FiniteLoop":
        """Loop with reversed multiplication (transposed table)."""
        return FiniteLoop(tuple(zip(*self.table)), _checked=True)

    def is_commutative(self) -> bool:
        return first_noncommuting_pair(self) is None

    def is_associative(self) -> bool:
        t = self.table
        r = range(self.size)
        return all(t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r)

    def properties(self) -> "LoopPropertyReport":
        """Cached default property analysis (see :func:`analyze_properties`)."""
        if self._report is None:
            self._report = analyze_properties(self)
        return self._report

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
            raise StructureError(f"row {i} has {len(row)} entries, expected {l}", index=i)
        if set(row) != full:
            for v in row:
                if not 0 <= v < l:
                    raise StructureError(f"row {i} contains out-of-range entry {v}", index=i)
            raise StructureError(f"row {i} is not a permutation of 0..{l - 1}", index=i)
    for j, col in enumerate(zip(*rows)):
        if set(col) != full:
            raise StructureError(f"column {j} is not a permutation of 0..{l - 1}", index=j)
    identity = tuple(range(l))
    if tuple(rows[0]) != identity:
        raise IdentityPositionError("row 0 is not the identity permutation", index=0)
    if tuple(row[0] for row in rows) != identity:
        raise IdentityPositionError("column 0 is not the identity permutation", index=0)


def make_loop(table: Sequence[Sequence[int]]) -> FiniteLoop:
    """Validate a Cayley table and return the loop it defines."""
    return FiniteLoop(table)


class LoopPropertyReport:
    """Inverse-property flags of a loop.

    ``inverse_map`` is the two-sided inverse table when left and right
    inverses coincide, else None.  ``has_order3_element`` (x != e with
    x*x = x^{-1}) is only defined in the coinciding case and raises
    :class:`UndefinedPropertyError` otherwise.
    """

    __slots__ = ("has_lip", "has_rip", "has_ip", "two_sided_inverses_coincide",
                 "inverse_map", "_order3")

    def __init__(self, *, has_lip: bool, has_rip: bool,
                 two_sided_inverses_coincide: bool,
                 inverse_map: Optional[tuple[int, ...]], order3: Optional[bool]):
        self.has_lip = has_lip
        self.has_rip = has_rip
        self.has_ip = has_lip and has_rip
        self.two_sided_inverses_coincide = two_sided_inverses_coincide
        self.inverse_map = inverse_map
        self._order3 = order3

    @property
    def has_order3_element(self) -> bool:
        if self._order3 is None:
            raise UndefinedPropertyError(
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
    for x in loop.elements():
        if loop.left_inverse(x) != loop.right_inverse(x):
            return x
    return None


def first_lip_counterexample(loop: FiniteLoop,
                             iota: Optional[Sequence[int]] = None) -> Optional[tuple[int, int]]:
    """First (x, y) with iota(x)*(x*y) != y, using the left-inverse map by default."""
    if iota is None:
        iota = [loop.left_inverse(x) for x in loop.elements()]
    return _first_lip_failure(loop.table, iota)


def first_rip_counterexample(loop: FiniteLoop,
                             iota: Optional[Sequence[int]] = None) -> Optional[tuple[int, int]]:
    """First (x, y) with (y*x)*iota(x) != y, using the left-inverse map by default.

    This is the LIP law of the opposite loop, so the scan is the LIP scan of
    the transposed table, in the same (x, y) order.
    """
    if iota is None:
        iota = [loop.left_inverse(x) for x in loop.elements()]
    return _first_lip_failure(tuple(zip(*loop.table)), iota)


def _first_lip_failure(table: Sequence[Sequence[int]],
                       iota: Sequence[int]) -> Optional[tuple[int, int]]:
    for x, row in enumerate(table):
        left = table[iota[x]]
        for y, xy in enumerate(row):
            if left[xy] != y:
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


def _exhaustive_iota(loop: FiniteLoop) -> Optional[tuple[int, ...]]:
    """Search for any bijection iota witnessing LIP (RIP: pass ``loop.opposite()``).

    For each x the witness value is forced pointwise by each y, so the search
    reduces to checking that the forced value is constant in y and that the
    resulting map is a bijection.  The audit builds its own right-division
    table once, so it stays O(l^2) and shares nothing with the default route.
    """
    over = [[0] * loop.size for _ in loop.elements()]  # over[b][a] = a/b
    for z, row in enumerate(loop.table):
        for b, a in enumerate(row):
            over[b][a] = z
    iota = []
    for row in loop.table:
        forced = {over[xy][y] for y, xy in enumerate(row)}
        if len(forced) != 1:
            return None
        iota.extend(forced)
    return tuple(iota) if sorted(iota) == list(loop.elements()) else None


def analyze_properties(loop: FiniteLoop, *, exhaustive_iota: bool = False) -> LoopPropertyReport:
    """Compute the inverse-property report of a loop.

    By default LIP/RIP are tested with iota = the left-inverse map, which is
    the only possible witness; ``exhaustive_iota=True`` instead searches for
    any witnessing bijection (an audit mode, it must agree with the default).
    """
    if exhaustive_iota:
        has_lip = _exhaustive_iota(loop) is not None
        has_rip = _exhaustive_iota(loop.opposite()) is not None
    else:
        has_lip = first_lip_counterexample(loop) is None
        has_rip = first_rip_counterexample(loop) is None
    coincide = first_inverse_mismatch(loop) is None
    inverse_map = order3 = None
    if coincide:
        inverse_map = tuple(loop.left_inverse(x) for x in loop.elements())
        order3 = any(x != 0 and loop.table[x][x] == inverse_map[x] for x in loop.elements())
    return LoopPropertyReport(has_lip=has_lip, has_rip=has_rip,
                              two_sided_inverses_coincide=coincide,
                              inverse_map=inverse_map, order3=order3)


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


def _normal_cosets(loop: FiniteLoop, members: frozenset[int]):
    """Coset id per element and the left cosets of a normal subloop, else
    (None, None); raises InputError when ``members`` is not a subloop."""
    _validate_subloop(loop, members)
    t = loop.table
    coset_of: list[Optional[int]] = [None] * loop.size
    classes: list[frozenset[int]] = []
    for x in loop.elements():
        if coset_of[x] is not None:
            continue
        coset = frozenset(t[x][n] for n in members)
        for u in coset:
            if coset_of[u] is not None:
                return None, None
            coset_of[u] = len(classes)
        classes.append(coset)
    for x in loop.elements():
        if frozenset(t[n][x] for n in members) != classes[coset_of[x]]:
            return None, None
    k = len(classes)
    qt: list[list[Optional[int]]] = [[None] * k for _ in range(k)]
    for u in loop.elements():
        cu = coset_of[u]
        qrow = qt[cu]
        for v in loop.elements():
            cv = coset_of[v]
            cw = coset_of[t[u][v]]
            if qrow[cv] is None:
                qrow[cv] = cw
            elif qrow[cv] != cw:
                return None, None
    return coset_of, classes


def is_normal_subloop(loop: FiniteLoop, members: Iterable[int]) -> bool:
    """Whether a subloop is the kernel of a homomorphism (brute force).

    Checks that left cosets partition the loop, that xN = Nx for every x, and
    that the induced multiplication of cosets is well defined.  Raises
    InputError when ``members`` is not a subloop at all.
    """
    return _normal_cosets(loop, frozenset(members))[0] is not None


def quotient_loop(loop: FiniteLoop, members: Iterable[int]) -> FiniteLoop:
    """Factor loop on the cosets of a normal subloop.

    Cosets are labeled canonically by ascending minimal element, so the
    identity coset is element 0.  Raises NotNormalError when the subloop is
    not normal, after the same single pass as :func:`is_normal_subloop`.
    """
    coset_of, classes = _normal_cosets(loop, frozenset(members))
    if coset_of is None:
        raise NotNormalError("cannot form quotient: subloop is not normal")
    order = sorted(range(len(classes)), key=lambda c: min(classes[c]))
    relabel = {c: i for i, c in enumerate(order)}
    reps = [min(classes[c]) for c in order]
    t = loop.table
    table = [
        [relabel[coset_of[t[a][b]]] for b in reps]
        for a in reps
    ]
    return make_loop(table)
