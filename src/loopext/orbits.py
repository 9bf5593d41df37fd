"""The boundary cell set Sigma and the pair symmetries acting outside it.

Sigma collects the cells of L x L where cocycle values are pinned: the
identity row, the identity column and the inverse diagonal (x^{-1}, x).  Two
involutions act on the complement, ``phi: (x, y) -> (x^{-1}, x*y)`` and
``psi: (x, y) -> (x*y, y^{-1})``; together they generate a six-element group
(isomorphic to S3 when no element satisfies x*x = x^{-1}) that acts both on
complement cells and on pairs of automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .abelian import AutomorphismGroup
from .errors import InputError, InternalError, Order3Error, PreconditionError
from .loops import FiniteLoop

Cell = tuple[int, int]


@dataclass(frozen=True)
class SigmaSet:
    """The pinned cells of one loop, with a precomputed sorted complement."""

    size: int
    pairs: frozenset[Cell]

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.pairs

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


# Cell maps take (table, inverse_map, x, y); pair maps take the composition
# and inversion operators of the canonical-index algebra plus the pair of
# automorphism indices.
_CELL_MAPS: dict[str, Callable] = {
    "id": lambda t, inv, x, y: (x, y),
    "phi": lambda t, inv, x, y: (inv[x], t[x][y]),
    "psi": lambda t, inv, x, y: (t[x][y], inv[y]),
    "phi*psi*phi": lambda t, inv, x, y: (inv[y], inv[x]),
    "phi*psi": lambda t, inv, x, y: (inv[t[x][y]], x),
    "psi*phi": lambda t, inv, x, y: (y, inv[t[x][y]]),
}

_PAIR_MAPS: dict[str, Callable] = {
    "id": lambda c, v, p, q: (p, q),
    "phi": lambda c, v, p, q: (c(v(q), p), v(q)),
    "psi": lambda c, v, p, q: (v(p), c(v(p), q)),
    "phi*psi*phi": lambda c, v, p, q: (q, p),
    "phi*psi": lambda c, v, p, q: (v(q), c(v(q), p)),
    "psi*phi": lambda c, v, p, q: (c(v(p), q), v(p)),
}


@dataclass(frozen=True)
class PairSymmetry:
    """One element of the six-element symmetry group.

    ``name`` spells the element in the generators, rightmost factor applied
    first; the direct formula tables above are used for application.
    """

    name: str

    def cell_image(self, loop: FiniteLoop, inverse_map: Sequence[int], cell: Cell) -> Cell:
        return _CELL_MAPS[self.name](loop.table, inverse_map, *cell)

    def pair_indices(self, autgroup: AutomorphismGroup, p: int, q: int) -> tuple[int, int]:
        return _PAIR_MAPS[self.name](autgroup.compose_indices, autgroup.invert_index, p, q)


# Ordered as the orbit of (x, y) is conventionally listed:
# (x,y), phi, psi, phi*psi*phi, phi*psi, psi*phi images.
GAMMA: tuple[PairSymmetry, ...] = tuple(PairSymmetry(name) for name in _CELL_MAPS)

GAMMA_BY_NAME = {g.name: g for g in GAMMA}


def _require_ip_no_order3(loop: FiniteLoop):
    report = loop.properties()
    if not report.has_ip:
        raise PreconditionError("loop does not have the inverse property")
    if report.has_order3_element:
        raise Order3Error(
            "loop has an element with x*x = x^{-1}; six-element orbits degenerate"
        )
    return report


def gamma_orbit(loop: FiniteLoop, cell: Cell) -> tuple[Cell, ...]:
    """The six images of a complement cell under the full symmetry group."""
    report = _require_ip_no_order3(loop)
    sigma = sigma_set(loop)
    if cell in sigma:
        raise InputError(f"cell {cell} lies in Sigma; orbits are only defined outside it")
    inv = report.inverse_map
    images = tuple(g.cell_image(loop, inv, cell) for g in GAMMA)
    if len(set(images)) != 6:
        raise Order3Error(f"orbit of {cell} has fewer than six distinct cells")
    for image in images:
        if image in sigma:
            raise InternalError(f"orbit member {image} of {cell} fell into Sigma")
    return images


@dataclass(frozen=True)
class PairOrbit:
    representative: Cell
    members: tuple[Cell, ...]
    symmetries: tuple[str, ...]


@dataclass(frozen=True)
class OrbitDecomposition:
    mode: str
    orbits: tuple[PairOrbit, ...]

    def cells(self) -> int:
        return sum(len(orbit.members) for orbit in self.orbits)


def _two_orbits(loop: FiniteLoop, mode: str, inverse_map) -> OrbitDecomposition:
    symmetry = GAMMA_BY_NAME[mode]
    sigma = sigma_set(loop)
    seen: set[Cell] = set()
    orbits = []
    for cell in sigma.complement():
        if cell in seen:
            continue
        image = symmetry.cell_image(loop, inverse_map, cell)
        if image == cell or image in sigma or image in seen:
            raise InternalError(f"{mode} does not pair {cell} with a fresh complement cell")
        back = symmetry.cell_image(loop, inverse_map, image)
        if back != cell:
            raise InternalError(f"{mode} is not an involution at {cell}")
        seen.add(cell)
        seen.add(image)
        orbits.append(PairOrbit(cell, (cell, image), ("id", mode)))
    return OrbitDecomposition(mode, tuple(orbits))


def phi_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-2 orbits of phi on the complement; requires the left inverse property."""
    report = loop.properties()
    if not report.has_lip:
        raise PreconditionError("phi orbits need a loop with the left inverse property")
    return _two_orbits(loop, "phi", report.inverse_map)


def psi_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-2 orbits of psi on the complement; requires the right inverse property."""
    report = loop.properties()
    if not report.has_rip:
        raise PreconditionError("psi orbits need a loop with the right inverse property")
    return _two_orbits(loop, "psi", report.inverse_map)


def gamma_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-6 orbits of the full group on the complement.

    Requires an inverse-property loop with no element x*x = x^{-1}; under
    that precondition the orbits partition the complement.
    """
    _require_ip_no_order3(loop)
    sigma = sigma_set(loop)
    seen: set[Cell] = set()
    orbits = []
    for cell in sigma.complement():
        if cell in seen:
            continue
        members = gamma_orbit(loop, cell)
        for member in members:
            if member in seen:
                raise InternalError(f"orbit of {cell} collides with a previous orbit")
            seen.add(member)
        orbits.append(PairOrbit(cell, members, tuple(g.name for g in GAMMA)))
    return OrbitDecomposition("gamma", tuple(orbits))
