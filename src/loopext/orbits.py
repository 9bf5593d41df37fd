"""The boundary cell set Sigma and the pair symmetries acting outside it.

Sigma collects the cells of L x L where cocycle values are pinned: the
identity row, the identity column and the inverse diagonal (x^{-1}, x).  Two
involutions act on the complement, ``phi: (x, y) -> (x^{-1}, x*y)`` and
``psi: (x, y) -> (x*y, y^{-1})``; together they generate a six-element group
(isomorphic to S3 when no element satisfies x*x = x^{-1}) that acts both on
complement cells and on pairs of automorphisms.  Each element is a name
such as ``"phi*psi"``, the key of its direct formula in ``CELL_MAPS`` (the
action on cells) and in ``PAIR_MAPS`` (the action on automorphism pairs).

The LIP, RIP and IP orbits are one walk of the complement under the
subgroups {id, phi}, {id, psi} and the whole group: ``phi_orbits``,
``psi_orbits`` and ``gamma_orbits`` each check their precondition on every
call and walk a loop once: the walker builds Sigma once, refuses any orbit
that is not a fresh block of complement cells closed under its generators,
and keeps the decomposition on the loop, where later calls find it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import InternalError, Order3Error, PreconditionError
from .loops import FiniteLoop

Cell = tuple[int, int]


class SigmaSet:
    """The pinned cells of one loop; :meth:`complement` lists the others."""

    __slots__ = ("size", "pairs")

    def __init__(self, size: int, pairs: frozenset[Cell]):
        self.size = size
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def complement(self) -> tuple[Cell, ...]:
        """Cells outside Sigma in row-major order."""
        return tuple(
            (x, y)
            for x in range(self.size)
            for y in range(self.size)
            if (x, y) not in self.pairs
        )


def sigma_set(loop: FiniteLoop) -> SigmaSet:
    """Sigma of a loop with two-sided inverses: identity row, identity
    column, and the inverse diagonal.  Has 3l - 2 cells."""
    report = loop.properties()
    if not report.two_sided_inverses_coincide:
        raise PreconditionError(
            "Sigma is undefined: left and right inverses of the loop do not coincide"
        )
    inv = report.inverse_map
    pairs = set()
    for x in loop.elements():
        pairs.add((x, 0))
        pairs.add((0, x))
        pairs.add((inv[x], x))
    return SigmaSet(loop.size, frozenset(pairs))


# The six elements of the group, each spelled in the generators with the
# rightmost factor applied first, in the order an orbit of (x, y) is listed:
# (x,y), phi, psi, phi*psi*phi, phi*psi, psi*phi images.  Cell maps take
# (table, inverse_map, x, y); pair maps take the ``products`` and
# ``inverses`` memos of the canonical-index algebra plus the pair of
# automorphism indices.
CELL_MAPS: dict[str, Callable] = {
    "id": lambda t, inv, x, y: (x, y),
    "phi": lambda t, inv, x, y: (inv[x], t[x][y]),
    "psi": lambda t, inv, x, y: (t[x][y], inv[y]),
    "phi*psi*phi": lambda t, inv, x, y: (inv[y], inv[x]),
    "phi*psi": lambda t, inv, x, y: (inv[t[x][y]], x),
    "psi*phi": lambda t, inv, x, y: (y, inv[t[x][y]]),
}

PAIR_MAPS: dict[str, Callable] = {
    "id": lambda m, v, p, q: (p, q),
    "phi": lambda m, v, p, q: (m[v[q]][p], v[q]),
    "psi": lambda m, v, p, q: (v[p], m[v[p]][q]),
    "phi*psi*phi": lambda m, v, p, q: (q, p),
    "phi*psi": lambda m, v, p, q: (v[q], m[v[q]][p]),
    "psi*phi": lambda m, v, p, q: (m[v[p]][q], v[p]),
}


class PairOrbit:
    __slots__ = ("representative", "members", "symmetries")

    def __init__(self, representative: Cell, members: tuple[Cell, ...],
                 symmetries: tuple[str, ...]):
        self.representative = representative
        self.members = members
        self.symmetries = symmetries


class OrbitDecomposition:
    __slots__ = ("mode", "orbits", "sigma")

    def __init__(self, mode: str, orbits: tuple[PairOrbit, ...], sigma: SigmaSet):
        self.mode = mode
        self.orbits = orbits
        self.sigma = sigma


def _orbits(loop: FiniteLoop, mode: str, names: tuple[str, ...],
            inverse_map: Sequence[int]) -> OrbitDecomposition:
    """Walk the complement of Sigma once, row-major, under the cell maps ``names``.

    Each cell not met before is a representative, and its members are its
    images under ``names`` in that order.  The members must be fresh
    complement cells permuted by every generator (phi, psi) among ``names``;
    otherwise the maps do not partition the complement.  The decomposition is
    kept as ``loop._orbits[mode]``.
    """
    sigma = sigma_set(loop)
    pinned, table = sigma.pairs, loop.table
    maps = [CELL_MAPS[name] for name in names]
    generators = [(name, CELL_MAPS[name]) for name in ("phi", "psi") if name in names]
    seen: set[Cell] = set()
    orbits = []
    for cell in sigma.complement():
        if cell in seen:
            continue
        x, y = cell
        members = tuple([m(table, inverse_map, x, y) for m in maps])
        block = set(members)
        if len(block) != len(members) or not block.isdisjoint(seen) or not block.isdisjoint(pinned):
            raise InternalError(f"{mode} orbit of {cell} is not a set of fresh complement cells")
        for name, g in generators:
            if {g(table, inverse_map, u, v) for u, v in members} != block:
                raise InternalError(f"{mode} orbit of {cell} is not closed under {name}")
        seen |= block
        orbits.append(PairOrbit(cell, members, names))
    loop._orbits[mode] = decomposition = OrbitDecomposition(mode, tuple(orbits), sigma)
    return decomposition


def phi_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-2 orbits of {id, phi} on the complement; requires the left inverse property."""
    report = loop.properties()
    if not report.has_lip:
        raise PreconditionError("phi orbits need a loop with the left inverse property")
    return loop._orbits.get("phi") or _orbits(loop, "phi", ("id", "phi"), report.inverse_map)


def psi_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-2 orbits of {id, psi} on the complement; requires the right inverse property."""
    report = loop.properties()
    if not report.has_rip:
        raise PreconditionError("psi orbits need a loop with the right inverse property")
    return loop._orbits.get("psi") or _orbits(loop, "psi", ("id", "psi"), report.inverse_map)


def gamma_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-6 orbits of the full group on the complement.

    Requires an inverse-property loop with no element x*x = x^{-1}; under
    that precondition the orbits partition the complement.
    """
    report = loop.properties()
    if not report.has_ip:
        raise PreconditionError("loop does not have the inverse property")
    if report.has_order3_element:
        raise Order3Error(
            "loop has an element with x*x = x^{-1}; six-element orbits degenerate"
        )
    return loop._orbits.get("gamma") or _orbits(loop, "gamma", tuple(CELL_MAPS),
                                                report.inverse_map)
