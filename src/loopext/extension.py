"""Loop cocycles and the extension loop they define on L x A.

A cocycle assigns to each cell of L x L a pair of automorphism indices
(P, Q) into the canonical enumeration of Aut(A), subject to the boundary
P(x, e) = Q(e, y) = Id.  The extension multiplies pairs by

    (x, a) * (y, b) = (x*y, P(x, y)a + Q(x, y)b)

and all closed-form conditions on (P, Q) checked here are exhaustive
equivalents of structural properties of that built loop: commutativity,
coincidence of inverses, the left/right/full inverse properties, and
equivariance under the pair symmetries.

Composition order: a product written XY of automorphisms acts right to left,
XY(a) = X(Y(a)).  Aut(A) is non-abelian in general, so every checker uses
this convention verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .abelian import AbelianGroup, AutomorphismGroup, enumerate_automorphisms
from .errors import CocycleNormalizationError, InputError, PreconditionError, StructureError
from .loops import FiniteLoop, validate_table
from .orbits import GAMMA_BY_NAME, gamma_orbits

Pair = tuple[int, int]


class LoopCocycle:
    """Validated pair of automorphism-index tables over a loop and a group."""

    __slots__ = ("loop", "group", "autgroup", "ptable", "qtable")

    def __init__(self, loop: FiniteLoop, group: AbelianGroup, autgroup: AutomorphismGroup,
                 ptable, qtable):
        self.loop = loop
        self.group = group
        self.autgroup = autgroup
        self.ptable = ptable
        self.qtable = qtable

    def p(self, x: int, y: int) -> int:
        return self.ptable[x][y]

    def q(self, x: int, y: int) -> int:
        return self.qtable[x][y]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopCocycle):
            return NotImplemented
        return (self.loop.table == other.loop.table
                and self.group.orders == other.group.orders
                and self.ptable == other.ptable
                and self.qtable == other.qtable)

    def __hash__(self) -> int:
        return hash((self.loop.table, self.group.orders, self.ptable, self.qtable))

    def __repr__(self) -> str:
        return (f"LoopCocycle(l={self.loop.size}, "
                f"group={list(self.group.orders)}, aut={len(self.autgroup)})")


def make_cocycle(loop: FiniteLoop, group: AbelianGroup, ptable, qtable, *,
                 autgroup: Optional[AutomorphismGroup] = None) -> LoopCocycle:
    """Validate index tables (shape, range, identity boundary) into a cocycle."""
    if autgroup is None:
        autgroup = enumerate_automorphisms(group)
    elif autgroup.group != group:
        raise InputError("autgroup does not enumerate the given group")
    l = loop.size
    naut = len(autgroup)

    def norm(table, name):
        rows = tuple(tuple(int(v) for v in row) for row in table)
        if len(rows) != l or any(len(row) != l for row in rows):
            raise InputError(f"{name} table must be {l}x{l}")
        for row in rows:
            for v in row:
                if not 0 <= v < naut:
                    raise InputError(
                        f"{name} table entry {v} is not a valid automorphism index (0..{naut - 1})"
                    )
        return rows

    prows = norm(ptable, "P")
    qrows = norm(qtable, "Q")
    ident = autgroup.identity_index
    for x in range(l):
        if prows[x][0] != ident:
            raise CocycleNormalizationError(f"P({x}, e) must be the identity automorphism")
    for y in range(l):
        if qrows[0][y] != ident:
            raise CocycleNormalizationError(f"Q(e, {y}) must be the identity automorphism")
    return LoopCocycle(loop, group, autgroup, prows, qrows)


class ExtensionLoop:
    """The table built from a cocycle, on pair indices (x, a) -> x*|A| + a.

    ``loop`` is None when the table fails the Latin check, whose error is then
    ``defect``."""

    __slots__ = ("cocycle", "loop", "defect", "kernel_size")

    def __init__(self, cocycle: LoopCocycle, loop: Optional[FiniteLoop],
                 defect: Optional[StructureError] = None):
        self.cocycle = cocycle
        self.loop = loop
        self.defect = defect
        self.kernel_size = cocycle.group.size

    @property
    def size(self) -> int:
        return self.cocycle.loop.size * self.kernel_size

    def pair_index(self, x: int, a: int) -> int:
        return x * self.kernel_size + a

    def pair_of(self, index: int) -> Pair:
        return divmod(index, self.kernel_size)

    def kernel(self) -> frozenset[int]:
        """Indices of the subloop {e} x A."""
        return frozenset(range(self.kernel_size))


def build_extension(cocycle: LoopCocycle) -> ExtensionLoop:
    """Multiply out the cocycle into a table of size l * |A| and run the Latin
    check on it once; a table that fails is kept out of :class:`FiniteLoop`
    and its defect is returned instead."""
    rows = _extension_rows(cocycle)
    try:
        validate_table(rows)
    except StructureError as defect:
        return ExtensionLoop(cocycle, None, defect)
    return ExtensionLoop(cocycle, FiniteLoop(rows, _checked=True))


def _extension_rows(cocycle: LoopCocycle) -> list[tuple[int, ...]]:
    """The multiplication table of the extension, row by row."""
    loop = cocycle.loop
    group = cocycle.group
    auts = [m.table for m in cocycle.autgroup.members]
    add = group.add_table
    l = loop.size
    n = group.size
    rows = []
    for x in range(l):
        lrow = loop.table[x]
        prow = cocycle.ptable[x]
        qrow = cocycle.qtable[x]
        for a in range(n):
            row = []
            for y in range(l):
                base = lrow[y] * n
                pa = add[auts[prow[y]][a]]
                qt = auts[qrow[y]]
                row.extend(base + pa[qt[b]] for b in range(n))
            rows.append(tuple(row))
    return rows


def is_commutative_extension(cocycle: LoopCocycle) -> bool:
    """Whether the extension is commutative: L commutative and P(x,y) = Q(y,x)."""
    if not cocycle.loop.is_commutative():
        return False
    l = cocycle.loop.size
    pt, qt = cocycle.ptable, cocycle.qtable
    return all(pt[x][y] == qt[y][x] for x in range(l) for y in range(l))


def extension_left_inverse(cocycle: LoopCocycle, pair: Pair) -> Pair:
    """Closed-form left inverse (e/x, -P(e/x, x)^{-1} Q(e/x, x) a) of (x, a)."""
    x, a = pair
    loop, group, aut = cocycle.loop, cocycle.group, cocycle.autgroup
    group._check(a)
    li = loop.left_inverse(x)
    value = aut.members[cocycle.qtable[li][x]].table[a]
    value = aut.members[aut.invert_index(cocycle.ptable[li][x])].table[value]
    return (li, group.neg_table[value])


def extension_right_inverse(cocycle: LoopCocycle, pair: Pair) -> Pair:
    """Closed-form right inverse (x\\e, -Q(x, x\\e)^{-1} P(x, x\\e) a) of (x, a)."""
    x, a = pair
    loop, group, aut = cocycle.loop, cocycle.group, cocycle.autgroup
    group._check(a)
    ri = loop.right_inverse(x)
    value = aut.members[cocycle.ptable[x][ri]].table[a]
    value = aut.members[aut.invert_index(cocycle.qtable[x][ri])].table[value]
    return (ri, group.neg_table[value])


@dataclass(frozen=True)
class InverseCoincidenceData:
    """The diagonal maps p(x) = P(x^{-1}, x) and q(x) = Q(x^{-1}, x)."""

    autgroup: AutomorphismGroup
    pmap: tuple[int, ...]
    qmap: tuple[int, ...]

    def __post_init__(self):
        ident = self.autgroup.identity_index
        if self.pmap[0] != ident or self.qmap[0] != ident:
            raise InputError("p and q must map the identity element to Id")

    @classmethod
    def from_cocycle(cls, cocycle: LoopCocycle) -> "InverseCoincidenceData":
        report = cocycle.loop.properties()
        if not report.two_sided_inverses_coincide:
            raise PreconditionError(
                "p and q are undefined: loop inverses do not coincide"
            )
        inv = report.inverse_map
        pmap = tuple(cocycle.ptable[inv[x]][x] for x in cocycle.loop.elements())
        qmap = tuple(cocycle.qtable[inv[x]][x] for x in cocycle.loop.elements())
        return cls(cocycle.autgroup, pmap, qmap)


def coincidence_condition_holds(autgroup: AutomorphismGroup, inverse_map: Sequence[int],
                                pmap: Sequence[int], qmap: Sequence[int]) -> bool:
    """p(x^{-1}) = q(x^{-1}) p(x)^{-1} q(x) at every element."""
    c, v = autgroup.compose_indices, autgroup.invert_index
    return all(
        pmap[ix] == c(qmap[ix], c(v(pmap[x]), qmap[x]))
        for x, ix in enumerate(inverse_map)
    )


def check_cip(cocycle: LoopCocycle) -> bool:
    """Whether every element of the extension has coinciding left and right
    inverses; requires that the base loop already has this property."""
    data = InverseCoincidenceData.from_cocycle(cocycle)
    inv = cocycle.loop.properties().inverse_map
    return coincidence_condition_holds(cocycle.autgroup, inv, data.pmap, data.qmap)


def check_lip_conditions(cocycle: LoopCocycle) -> bool:
    """Closed-form test for the left inverse property of the extension.

    For all x, y:  Q(x^{-1}, x*y) = Q(x,y)^{-1}  and
    P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y) Q(x^{-1},x)^{-1} P(x^{-1},x).
    Requires the base loop to have the left inverse property.
    """
    report = cocycle.loop.properties()
    if not report.has_lip:
        raise PreconditionError("base loop does not have the left inverse property")
    return _lip_conditions_hold(cocycle.loop.table, report.inverse_map,
                                cocycle.ptable, cocycle.qtable, cocycle.autgroup)


def check_rip_conditions(cocycle: LoopCocycle) -> bool:
    """Closed-form test for the right inverse property of the extension.

    For all x, y:  P(x*y, y^{-1}) = P(x,y)^{-1}  and
    Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y) P(y,y^{-1})^{-1} Q(y,y^{-1}).
    Requires the base loop to have the right inverse property.

    These are the LIP conditions of the opposite cocycle (see
    :func:`opposite_cocycle`), checked on the transposed tables.
    """
    report = cocycle.loop.properties()
    if not report.has_rip:
        raise PreconditionError("base loop does not have the right inverse property")
    return _lip_conditions_hold(tuple(zip(*cocycle.loop.table)), report.inverse_map,
                                tuple(zip(*cocycle.qtable)), tuple(zip(*cocycle.ptable)),
                                cocycle.autgroup)


def _lip_conditions_hold(table, inv, pt, qt, autgroup: AutomorphismGroup) -> bool:
    c, v = autgroup.compose_indices, autgroup.invert_index
    for x, row in enumerate(table):
        ix = inv[x]
        for y, xy in enumerate(row):
            if qt[ix][xy] != v(qt[x][y]):
                return False
            if pt[ix][xy] != c(v(qt[x][y]), c(pt[x][y], c(v(qt[ix][x]), pt[ix][x]))):
                return False
    return True


def is_strongly_linear(cocycle: LoopCocycle) -> bool:
    """Whether kernel cosets multiply by pure addition: P(e,x) = Q(x,e) = Id."""
    ident = cocycle.autgroup.identity_index
    l = cocycle.loop.size
    return (all(cocycle.ptable[0][y] == ident for y in range(l))
            and all(cocycle.qtable[x][0] == ident for x in range(l)))


def check_ip_conditions(cocycle: LoopCocycle) -> bool:
    """Closed-form test for the inverse property of a strongly linear extension.

    For all x, y the four identities
        P(x*y, y^{-1}) = P(x,y)^{-1},   Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y),
        Q(x^{-1}, x*y) = Q(x,y)^{-1},   P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y).
    """
    if not is_strongly_linear(cocycle):
        raise PreconditionError("inverse-property conditions need a strongly linear cocycle")
    report = cocycle.loop.properties()
    if not report.has_ip:
        raise PreconditionError("base loop does not have the inverse property")
    inv = report.inverse_map
    t = cocycle.loop.table
    pt, qt = cocycle.ptable, cocycle.qtable
    c, v = cocycle.autgroup.compose_indices, cocycle.autgroup.invert_index
    for x in cocycle.loop.elements():
        ix = inv[x]
        for y in cocycle.loop.elements():
            xy = t[x][y]
            iy = inv[y]
            pxy, qxy = pt[x][y], qt[x][y]
            if pt[xy][iy] != v(pxy):
                return False
            if qt[xy][iy] != c(v(pxy), qxy):
                return False
            if qt[ix][xy] != v(qxy):
                return False
            if pt[ix][xy] != c(v(qxy), pxy):
                return False
    return True


def check_equivariance(cocycle: LoopCocycle) -> bool:
    """Whether (P, Q) commutes with the pair symmetries on every complement cell.

    Requires a strongly linear cocycle over an inverse-property loop with no
    element x*x = x^{-1}; under those preconditions this is equivalent to
    :func:`check_ip_conditions` when the cocycle is Id on all of Sigma.

    Each orbit member is compared with its symmetry's pair map of the
    representative's (P, Q) only.  That suffices: the cell maps and the pair
    maps are actions of the same six-element group, and the orbit walker
    proves that each orbit has six distinct members.
    """
    if not is_strongly_linear(cocycle):
        raise PreconditionError("equivariance test needs a strongly linear cocycle")
    report = cocycle.loop.properties()
    if not report.has_ip:
        raise PreconditionError("base loop does not have the inverse property")
    if report.has_order3_element:
        raise PreconditionError(
            "equivariance test needs a loop with no element x*x = x^{-1}"
        )
    pt, qt = cocycle.ptable, cocycle.qtable
    for orbit in gamma_orbits(cocycle.loop).orbits:
        rx, ry = orbit.representative
        p, q = pt[rx][ry], qt[rx][ry]
        for name, (x, y) in zip(orbit.symmetries, orbit.members):
            if (pt[x][y], qt[x][y]) != GAMMA_BY_NAME[name].pair_indices(cocycle.autgroup, p, q):
                return False
    return True


def opposite_cocycle(cocycle: LoopCocycle) -> LoopCocycle:
    """Cocycle of the opposite extension: over the opposite loop, with
    P'(x, y) = Q(y, x) and Q'(x, y) = P(y, x)."""
    l = cocycle.loop.size
    pt, qt = cocycle.ptable, cocycle.qtable
    new_p = tuple(tuple(qt[y][x] for y in range(l)) for x in range(l))
    new_q = tuple(tuple(pt[y][x] for y in range(l)) for x in range(l))
    return make_cocycle(cocycle.loop.opposite(), cocycle.group, new_p, new_q,
                        autgroup=cocycle.autgroup)
