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

from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

from .abelian import AbelianGroup, AutomorphismGroup, enumerate_automorphisms
from .errors import InputError, PreconditionError, ResourceError, StructureError, integers
from .loops import _BYTES_ORDER, FiniteLoop, kept
from .orbits import PAIR_MAPS, gamma_orbits

# Largest extension order N = l * |A| admitted; cyclic_loop(64) with A = Z64
# reaches it.  The table has N^2 cells, so time and memory grow with N^2.
MAX_EXTENSION_ORDER = 4096


def refuse_oversized_extension(loop: FiniteLoop, group: AbelianGroup) -> None:
    """Raise ``ResourceError`` when the extension of ``loop`` by ``group``
    would have more than ``MAX_EXTENSION_ORDER`` elements."""
    if (n := loop.size * group.size) > MAX_EXTENSION_ORDER:
        raise ResourceError(f"extension order N = {loop.size} * {group.size} = {n} "
                            f"exceeds the cap {MAX_EXTENSION_ORDER}")


class LoopCocycle:
    """Pair of automorphism-index tables over a loop and a group, validated
    (shape, range, identity boundary) against the Aut(A) it enumerates."""

    __slots__ = ("loop", "group", "autgroup", "ptable", "qtable", "_kept")

    def __init__(self, loop: FiniteLoop, group: AbelianGroup, ptable, qtable):
        refuse_oversized_extension(loop, group)  # before Aut(A)
        self.loop, self.group = loop, group
        self.autgroup = autgroup = enumerate_automorphisms(group)
        l, naut = loop.size, len(autgroup)

        def norm(table, name):
            rows = tuple(integers(row, f"{name} table entry") for row in table)
            if len(rows) != l or any(len(row) != l for row in rows):
                raise InputError(f"{name} table must be {l}x{l}")
            for row in rows:
                if min(row) < 0 or max(row) >= naut:
                    v = next(v for v in row if not 0 <= v < naut)
                    raise InputError(f"{name} table entry {v} is not a valid "
                                     f"automorphism index (0..{naut - 1})")
            return rows

        self.ptable, self.qtable = prows, qrows = norm(ptable, "P"), norm(qtable, "Q")
        ident = autgroup.identity_index
        for x in range(l):
            if prows[x][0] != ident:
                raise InputError(f"P({x}, e) must be the identity automorphism")
        for y in range(l):
            if qrows[0][y] != ident:
                raise InputError(f"Q(e, {y}) must be the identity automorphism")
        # see kept: "built" -> build_extension's (loop, defect), which holds
        # nothing of the cocycle; "lip", "rip", "equivariance" -> closed-form verdict
        self._kept = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopCocycle):
            return NotImplemented
        return (self.loop == other.loop
                and self.group.orders == other.group.orders
                and self.ptable == other.ptable
                and self.qtable == other.qtable)

    def __hash__(self) -> int:
        return hash((self.loop, self.group.orders, self.ptable, self.qtable))

    def __repr__(self) -> str:
        return (f"LoopCocycle(l={self.loop.size}, "
                f"group={list(self.group.orders)}, aut={len(self.autgroup)})")


def make_cocycle(loop: FiniteLoop, group: AbelianGroup, ptable, qtable) -> LoopCocycle:
    """The validated cocycle ``LoopCocycle(loop, group, ptable, qtable)``."""
    return LoopCocycle(loop, group, ptable, qtable)


def build_extension(
        cocycle: LoopCocycle) -> tuple[Optional[FiniteLoop], Optional[StructureError]]:
    """The extension as the kept pair ``(loop, defect)``: its table of size
    l * |A|, on pair indices (x, a) -> x*|A| + a, is multiplied out and
    Latin-checked once per cocycle.  A table that fails is kept out of
    :class:`FiniteLoop`: the pair is ``(None, defect)``, the Latin error
    without its traceback, which would hold the cocycle.  The kernel
    {e} x A is ``range(|A|)``."""
    return kept(cocycle, "built", _build, cocycle)


def _build(cocycle: LoopCocycle):
    table = _extension_table(cocycle)
    try:
        return FiniteLoop(table, _checked=True), None
    except StructureError as defect:
        return None, defect.with_traceback(None)


def _extension_table(cocycle: LoopCocycle) -> list:
    """The rows of the extension's multiplication table, in the container
    :class:`FiniteLoop` holds for order N = l * |A|: ``bytes`` rows when
    N <= 256, else int tuples.

    Row (x, a) is l segments of n = |A| entries.  Segment y is
    (x*y)*n + (P(x,y)a + Q(x,y)b) for b in A: the block
    ``shifted[x*y][P(x,y)a]``, whose entry d is (x*y)*n + (P(x,y)a + d),
    read at the positions Q(x,y)b.  For ``bytes`` rows a block is a 256-byte
    ``translate`` table and the bytes of Q(x,y) are translated through it;
    for tuples, one ``itemgetter`` call reads it."""
    autgroup = cocycle.autgroup
    ptable, qtable = cocycle.ptable, cocycle.qtable
    used = set().union(*ptable, *qtable)
    images = {i: autgroup[i] for i in used}
    n, size = cocycle.group.size, cocycle.loop.size * cocycle.group.size
    # how a block is made and read, and how a row grows and is sealed
    if size <= _BYTES_ORDER:
        block, pad, grow, seal = bytes, bytes(256 - n), bytearray, bytes
        readers = {i: bytes(images[i]).translate for i in used}
    else:
        block, pad, grow, seal = tuple, (), list, tuple
        readers = {i: itemgetter(*images[i]) for i in used}
    shifted = [[block([base + d for d in row]) + pad for row in cocycle.group.add_table]
               for base in range(0, size, n)]
    rows = []
    for lrow, prow, qrow in zip(cocycle.loop._rows, ptable, qtable):
        segments = [(shifted[z], images[p], readers[q]) for z, p, q in zip(lrow, prow, qrow)]
        for a in range(n):
            row = grow()
            for blocks, image, read in segments:
                row += read(blocks[image[a]])
            rows.append(seal(row))
    return rows


def is_commutative_extension(cocycle: LoopCocycle) -> bool:
    """Whether the extension is commutative: L commutative and P(x,y) = Q(y,x),
    that is P is the transpose of Q."""
    return cocycle.loop.is_commutative() and cocycle.ptable == tuple(zip(*cocycle.qtable))


def coincidence_condition_holds(autgroup: AutomorphismGroup, inverse_map: Sequence[int],
                                pmap: Sequence[int], qmap: Sequence[int]) -> bool:
    """p(x^{-1}) = q(x^{-1}) p(x)^{-1} q(x) at every element."""
    products, inverses = autgroup.products, autgroup.inverses
    return all(
        pmap[ix] == products[qmap[ix]][products[inverses[pmap[x]]][qmap[x]]]
        for x, ix in enumerate(inverse_map)
    )


def check_cip(cocycle: LoopCocycle) -> bool:
    """Whether every element of the extension has coinciding left and right
    inverses; requires that the base loop already has this property.

    The condition is on the diagonal maps p(x) = P(x^{-1}, x) and
    q(x) = Q(x^{-1}, x), read off the base loop's two-sided inverse map."""
    inv = cocycle.loop.properties().inverse_map
    if inv is None:
        raise PreconditionError("p and q are undefined: loop inverses do not coincide")
    pmap = [cocycle.ptable[ix][x] for x, ix in enumerate(inv)]
    qmap = [cocycle.qtable[ix][x] for x, ix in enumerate(inv)]
    return coincidence_condition_holds(cocycle.autgroup, inv, pmap, qmap)


def check_lip_conditions(cocycle: LoopCocycle) -> bool:
    """Closed-form test for the left inverse property of the extension.

    For all x, y:  Q(x^{-1}, x*y) = Q(x,y)^{-1}  and
    P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y) Q(x^{-1},x)^{-1} P(x^{-1},x).
    Requires the base loop to have the left inverse property.
    """
    report = cocycle.loop.properties()
    if not report.has_lip:
        raise PreconditionError("base loop does not have the left inverse property")
    return kept(cocycle, "lip", _lip_conditions_hold, cocycle.loop._rows,
                report.inverse_map, cocycle.ptable, cocycle.qtable, cocycle.autgroup)


def check_rip_conditions(cocycle: LoopCocycle) -> bool:
    """Closed-form test for the right inverse property of the extension.

    For all x, y:  P(x*y, y^{-1}) = P(x,y)^{-1}  and
    Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y) P(y,y^{-1})^{-1} Q(y,y^{-1}).
    Requires the base loop to have the right inverse property.

    These are the LIP conditions of the opposite extension: the LIP kernel
    runs on the loop's columns, with Q transposed as P and P as Q.
    """
    report = cocycle.loop.properties()
    if not report.has_rip:
        raise PreconditionError("base loop does not have the right inverse property")
    return kept(cocycle, "rip", lambda: _lip_conditions_hold(
        cocycle.loop._columns, report.inverse_map, tuple(zip(*cocycle.qtable)),
        tuple(zip(*cocycle.ptable)), cocycle.autgroup))


def _lip_conditions_hold(table, inv, pt, qt, autgroup: AutomorphismGroup) -> bool:
    products, inverses = autgroup.products, autgroup.inverses
    for x, row in enumerate(table):
        ix = inv[x]
        px, qx, pix, qix = pt[x], qt[x], pt[ix], qt[ix]
        # Q(x^{-1},x)^{-1} P(x^{-1},x) does not depend on y
        tail = products[inverses[qix[x]]][pix[x]]
        for y, xy in enumerate(row):
            vq = inverses[qx[y]]
            if qix[xy] != vq or pix[xy] != products[vq][products[px[y]][tail]]:
                return False
    return True


def is_strongly_linear(cocycle: LoopCocycle) -> bool:
    """Whether kernel cosets multiply by pure addition: P(e,x) = Q(x,e) = Id."""
    ident = cocycle.autgroup.identity_index
    l = cocycle.loop.size
    return (all(cocycle.ptable[0][y] == ident for y in range(l))
            and all(cocycle.qtable[x][0] == ident for x in range(l)))


def check_ip_conditions(cocycle: LoopCocycle) -> bool:
    """Closed-form test for the inverse property of the extension.

    The extension has IP exactly when it has LIP and RIP, so on every linear
    cocycle this is :func:`check_lip_conditions` and
    :func:`check_rip_conditions` together.  On a strongly linear cocycle,
    P(e,x) = Q(x,e) = Id, their eight identities are these four, for all x, y:
        P(x*y, y^{-1}) = P(x,y)^{-1},   Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y),
        Q(x^{-1}, x*y) = Q(x,y)^{-1},   P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y).
    The LIP identity for Q at y = e reads Q(x^{-1}, x) = Q(x,e)^{-1} = Id, and
    the RIP identity for P at x = e reads P(y, y^{-1}) = P(e,y)^{-1} = Id.  In
    an IP loop inverses are two-sided, so P and Q are Id on the whole inverse
    diagonal and the tails Q(x^{-1},x)^{-1} P(x^{-1},x) and
    P(y,y^{-1})^{-1} Q(y,y^{-1}) are Id.  Conversely the four identities at
    y = e give Q(x^{-1},x) = P(x^{-1},x) = Id, so the four imply the eight.
    """
    if not cocycle.loop.properties().has_ip:
        raise PreconditionError("base loop does not have the inverse property")
    return check_lip_conditions(cocycle) and check_rip_conditions(cocycle)


def check_equivariance(cocycle: LoopCocycle) -> bool:
    """Whether (P, Q) commutes with the pair symmetries on every complement cell.

    Requires a strongly linear cocycle over an inverse-property loop; then
    this is equivalent to :func:`check_ip_conditions` when the cocycle is Id
    on all of Sigma.

    Each orbit member is compared with its symmetry's pair map of the
    representative's (P, Q) only.  That suffices: the cell maps and the pair
    maps are actions of the same group, S3.  A cell (x, x) with
    x*x = x^{-1} is listed under id, phi*psi and psi*phi, so it is compared
    with those three images of its own pair, which all hold exactly when
    the stabiliser fixes the pair: P = Q^{-1} with Q^3 = Id.
    """
    if not is_strongly_linear(cocycle):
        raise PreconditionError("equivariance test needs a strongly linear cocycle")
    if not cocycle.loop.properties().has_ip:
        raise PreconditionError("base loop does not have the inverse property")
    return kept(cocycle, "equivariance", _equivariance_holds, cocycle)


def _equivariance_holds(cocycle: LoopCocycle) -> bool:
    pt, qt = list(chain.from_iterable(cocycle.ptable)), list(chain.from_iterable(cocycle.qtable))
    products, inverses = cocycle.autgroup.products, cocycle.autgroup.inverses
    decomposition = gamma_orbits(cocycle.loop)
    moves = [PAIR_MAPS[name] for name in decomposition.symmetries]
    for block in decomposition.blocks():
        p, q = pt[block[0]], qt[block[0]]
        for pair_map, code in zip(moves, block):
            if (pt[code], qt[code]) != pair_map(products, inverses, p, q):
                return False
    return True
