"""The boundary cell set Sigma and the pair symmetries acting outside it.

Sigma collects the cells of L x L where cocycle values are pinned: the
identity row, the identity column and the inverse diagonal (x^{-1}, x).  Two
involutions act on the complement, ``phi: (x, y) -> (x^{-1}, x*y)`` and
``psi: (x, y) -> (x*y, y^{-1})``; on an inverse-property loop they generate
S3, which acts both on complement cells and on pairs of automorphisms.  Each
element is a name such as ``"phi*psi"``, the key of its direct formula in
``CELL_MAPS`` (the action on cells) and in ``PAIR_MAPS`` (the action on
automorphism pairs).

The LIP, RIP and IP orbits are one walk of the complement under the
subgroups {id, phi}, {id, psi} and the whole group: ``phi_orbits``,
``psi_orbits`` and ``gamma_orbits`` each check their precondition on every
call and walk a loop once: the walker reads Sigma, which the loop keeps,
refuses any orbit that is not a fresh block of complement cells closed under
its generators, and returns the decomposition packed as the cell codes
x*l + y of its members, which the loop keeps (:func:`loopext.loops.kept`).
A cell (x, x) with x*x = x^{-1} has stabiliser {id, phi*psi, psi*phi}, so
its S3 orbit, {(x, x), (x^{-1}, x^{-1})}, lists each cell three times.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, Sequence

from .errors import InternalError, PreconditionError
from .loops import FiniteLoop, kept

Cell = tuple[int, int]


def sigma_set(loop: FiniteLoop) -> frozenset[Cell]:
    """The 3l - 2 cells of Sigma in a loop with two-sided inverses: identity
    row, identity column and inverse diagonal; the complement is the rest.
    The precondition is checked on every call; the set is kept on the loop."""
    report = loop.properties()
    if not report.two_sided_inverses_coincide:
        raise PreconditionError(
            "Sigma is undefined: left and right inverses of the loop do not coincide"
        )
    return kept(loop, "sigma", _sigma, loop.size, report.inverse_map)


def _sigma(l: int, inverse_map: Sequence[int]) -> frozenset[Cell]:
    elements, e = range(l), [0] * l
    return frozenset([*zip(elements, e), *zip(e, elements), *zip(inverse_map, elements)])


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


class OrbitDecomposition:
    """The orbits on Sigma's complement, each the tuple of its member cells,
    representative first, the images under ``symmetries`` in that order.
    They are packed as the codes x*l + y, len(``symmetries``) per orbit;
    :meth:`blocks` is the one reader of the packing."""

    __slots__ = ("symmetries", "_l", "_codes")

    def __init__(self, symmetries: tuple[str, ...], l: int, codes: array):
        self.symmetries, self._l, self._codes = symmetries, l, codes

    def __len__(self) -> int:
        return len(self._codes) // len(self.symmetries)

    def blocks(self) -> Iterator[tuple[int, ...]]:
        """Each orbit as the codes x*l + y of its members, in orbit order."""
        codes = iter(self._codes)
        return zip(*[codes] * len(self.symmetries))

    def __iter__(self) -> Iterator[tuple[Cell, ...]]:
        return (tuple(divmod(code, self._l) for code in block) for block in self.blocks())

    @property
    def orbits(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(self)


def _orbits(loop: FiniteLoop, mode: str, names: tuple[str, ...],
            inverse_map: Sequence[int]) -> OrbitDecomposition:
    """Walk the complement of Sigma once, row-major, under the cell maps ``names``.

    Each cell not met before is a representative, and its members are its
    images under ``names`` in that order.  The members must be fresh
    complement cells permuted by every generator (phi, psi) among ``names``;
    otherwise the maps do not partition the complement.  One flag per cell
    marks Sigma and the cells met.
    """
    table, l = loop.table, loop.size
    maps = [CELL_MAPS[name] for name in names]
    generators = [(name, CELL_MAPS[name]) for name in ("phi", "psi") if name in names]
    met = bytearray(l * l)
    for x, y in sigma_set(loop):
        met[x * l + y] = 1
    codes = array("q")
    cell = met.find(0)
    while cell >= 0:
        x, y = divmod(cell, l)
        members = [m(table, inverse_map, x, y) for m in maps]
        block = [u * l + v for u, v in members]
        if any(map(met.__getitem__, block)):
            raise InternalError(f"{mode} orbit of {(x, y)} is not a set of fresh complement cells")
        for name, g in generators:
            images = [g(table, inverse_map, u, v) for u, v in members]
            if {u * l + v for u, v in images} != set(block):
                raise InternalError(f"{mode} orbit of {(x, y)} is not closed under {name}")
        for code in block:
            met[code] = 1
        codes.extend(block)
        cell = met.find(0, cell + 1)
    return OrbitDecomposition(names, l, codes)


def phi_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-2 orbits of {id, phi} on the complement; requires the left inverse property."""
    report = loop.properties()
    if not report.has_lip:
        raise PreconditionError("phi orbits need a loop with the left inverse property")
    return kept(loop, "phi", _orbits, loop, "phi", ("id", "phi"), report.inverse_map)


def psi_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Size-2 orbits of {id, psi} on the complement; requires the right inverse property."""
    report = loop.properties()
    if not report.has_rip:
        raise PreconditionError("psi orbits need a loop with the right inverse property")
    return kept(loop, "psi", _orbits, loop, "psi", ("id", "psi"), report.inverse_map)


def gamma_orbits(loop: FiniteLoop) -> OrbitDecomposition:
    """Orbits of S3 on the complement, of six cells or of two; requires the
    inverse property."""
    report = loop.properties()
    if not report.has_ip:
        raise PreconditionError("loop does not have the inverse property")
    return kept(loop, "gamma", _orbits, loop, "gamma", tuple(CELL_MAPS), report.inverse_map)
