"""Bundled corpus of small loops.

Group-based entries are generated from their addition tables.  The genuinely
non-associative entries are found by a deterministic backtracking search over
Cayley tables (never hand-typed): candidate inverse maps are enumerated in a
fixed order and cells are filled row-major, smallest value first, with the
inverse-property equations propagated as forced placements.  The first table
accepted by the search is therefore the same on every run and platform.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional

from .abelian import make_group
from .errors import InputError
from .loops import FiniteLoop, make_loop


def abelian_group_loop(orders: list[int]) -> FiniteLoop:
    """The loop underlying a finite abelian group (its addition table)."""
    group = make_group(orders)
    return make_loop(group.add_table)


def cyclic_loop(n: int) -> FiniteLoop:
    """Z_n by its addition table, of any order n >= 1."""
    if n < 1:
        raise InputError(f"cyclic loop order must be >= 1, got {n}")
    return make_loop([[(x + y) % n for y in range(n)] for x in range(n)])


def klein_loop() -> FiniteLoop:
    return abelian_group_loop([2, 2])


def _involutions(points: tuple[int, ...]) -> Iterator[dict[int, int]]:
    """All involutions of the given points, smallest point resolved first."""
    if not points:
        yield {}
        return
    x = points[0]
    rest = points[1:]
    for sub in _involutions(rest):
        yield {x: x, **sub}
    for i, y in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in _involutions(remaining):
            yield {x: y, y: x, **sub}


def _complete_loop(
    l: int,
    inv: Optional[dict[int, int]] = None,
    *,
    lip: bool = False,
    rip: bool = False,
    forbid_order3: bool = False,
    predicate: Callable[[FiniteLoop], bool],
) -> Optional[FiniteLoop]:
    """First loop table (row-major, ascending values) meeting the constraints.

    ``inv`` is the prescribed two-sided inverse map; with ``lip``/``rip`` the
    corresponding identities are enforced by constraint propagation.  The
    ``predicate`` filters completed tables; the search continues past tables
    it rejects.
    """
    table: list[list[Optional[int]]] = [[None] * l for _ in range(l)]
    row_mask = [0] * l
    col_mask = [0] * l

    def place(r: int, c: int, v: int, trail: list[tuple[int, int]]) -> bool:
        cur = table[r][c]
        if cur is not None:
            return cur == v
        bit = 1 << v
        if row_mask[r] & bit or col_mask[c] & bit:
            return False
        if forbid_order3 and r == c and r != 0 and v == inv[r]:
            return False
        table[r][c] = v
        row_mask[r] |= bit
        col_mask[c] |= bit
        trail.append((r, c))
        if lip and not place(inv[r], v, c, trail):
            return False
        if rip and not place(v, inv[c], r, trail):
            return False
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        while trail:
            r, c = trail.pop()
            v = table[r][c]
            table[r][c] = None
            row_mask[r] &= ~(1 << v)
            col_mask[c] &= ~(1 << v)

    seed: list[tuple[int, int]] = []
    for i in range(l):
        if not (place(0, i, i, seed) and place(i, 0, i, seed)):
            return None
    if inv is not None:
        for x in range(l):
            if not (place(x, inv[x], 0, seed) and place(inv[x], x, 0, seed)):
                return None

    cells = [(r, c) for r in range(1, l) for c in range(1, l)]

    def solve(k: int) -> Optional[FiniteLoop]:
        while k < len(cells) and table[cells[k][0]][cells[k][1]] is not None:
            k += 1
        if k == len(cells):
            loop = make_loop([list(row) for row in table])
            return loop if predicate(loop) else None
        r, c = cells[k]
        for v in range(l):
            trail: list[tuple[int, int]] = []
            if place(r, c, v, trail):
                found = solve(k + 1)
                if found is not None:
                    return found
            undo(trail)
        return None

    return solve(0)


def search_ip_loop(l: int, *, forbid_order3: bool = True) -> Optional[FiniteLoop]:
    """Search for a non-associative inverse-property loop of order l,
    smallest table first."""
    points = tuple(range(1, l))
    for inv_rest in _involutions(points):
        inv = {0: 0, **inv_rest}
        found = _complete_loop(
            l, inv, lip=True, rip=True, forbid_order3=forbid_order3,
            predicate=lambda L: not L.is_associative(),
        )
        if found is not None:
            return found
    return None


@lru_cache(maxsize=None)
def ip_loop7() -> FiniteLoop:
    """A non-associative inverse-property loop of order 7, found by search.

    Exhaustive enumeration over all inverse maps shows every such loop
    contains an element with x*x = x^{-1}, so its orbit walk has orbits of
    two; :func:`ip_loop8` is the smallest searched non-associative base
    whose orbits all have six cells.
    """
    found = search_ip_loop(7, forbid_order3=False)
    if found is None:
        raise InputError("no non-associative IP loop of order 7 was found")
    return found


@lru_cache(maxsize=None)
def ip_loop8() -> FiniteLoop:
    """A non-associative inverse-property loop of order 8 with no element
    satisfying x*x = x^{-1}; found by exhaustive search."""
    found = search_ip_loop(8)
    if found is None:
        raise InputError("no order-3-free non-associative IP loop of order 8 was found")
    return found


@lru_cache(maxsize=None)
def lip_only_loop() -> FiniteLoop:
    """Smallest searched loop with the left but not the right inverse property."""
    for l in (5, 6):
        points = tuple(range(1, l))
        for inv_rest in _involutions(points):
            inv = {0: 0, **inv_rest}
            found = _complete_loop(
                l, inv, lip=True,
                predicate=lambda L: not L.properties().has_rip,
            )
            if found is not None:
                return found
    raise InputError("no LIP-only loop of order 5 or 6 was found")


@lru_cache(maxsize=None)
def inverse_mismatch_loop() -> FiniteLoop:
    """Smallest searched loop where some left and right inverses differ."""
    for l in (5, 6):
        found = _complete_loop(
            l,
            predicate=lambda L: not L.properties().two_sided_inverses_coincide,
        )
        if found is not None:
            return found
    raise InputError("no loop with mismatched inverses of order 5 or 6 was found")


def bundled_corpus() -> dict[str, FiniteLoop]:
    """Named corpus used by the test suite and CLI examples."""
    corpus = {f"z{n}": cyclic_loop(n) for n in (1, 2, 3, 4, 5, 6, 7, 8)}
    corpus["klein"] = klein_loop()
    corpus["z4xz2"] = abelian_group_loop([4, 2])
    corpus["ip7"] = ip_loop7()
    corpus["ip8"] = ip_loop8()
    return corpus
