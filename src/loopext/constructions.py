"""Generative constructions of cocycles with prescribed inverse behaviour.

Each construction pins the Sigma cells, chooses values freely at orbit
representatives (lexicographically smallest cell, row-major), and forces the
remaining orbit members through the closed-form identities.  Free choices are
drawn from a :class:`ChoiceSource`, consumed in a fixed documented order, so
equal seeds reproduce byte-identical cocycles on any platform.  The
constructions call nothing but ``choice.pick(n)``, so any object with that
method can script the choices instead; each construction has this one entry
point.

Choice consumption order:

* ``construct_pq``: q(x) for x = 1..l-1 ascending, then p at each inversion
  orbit representative ascending (fixed points draw only in free mode).
* ``construct_lip_cocycle``: the ``construct_pq`` draws, then P(e, x) for
  x = 1..l-1, then P and Q (in that order) at each phi-orbit representative.
* ``construct_rip_cocycle``: the ``construct_pq`` draws, then Q(x, e) for
  x = 1..l-1, then P and Q at each psi-orbit representative.
* ``construct_ip_cocycle``: P then Q at each six-orbit representative; an
  orbit of two draws nothing.
* ``random_cocycle``: P then Q at every unpinned cell, row-major.

Every construction is gated by the agreement and property lines of ``verify``:
each closed-form condition on the base loop agrees with the scan of the built
extension, which has the property, so a successful return is a proof of it.
Each first refuses an extension larger than ``MAX_EXTENSION_ORDER``, before any
orbit walk or draw.
"""

from __future__ import annotations

import struct
from typing import Optional

from .abelian import AbelianGroup, AutomorphismGroup, enumerate_automorphisms
from .errors import InputError, InternalError, PreconditionError, ResourceError, integers
from .extension import (
    LoopCocycle,
    build_extension,
    coincidence_condition_holds,
    is_strongly_linear,
    make_cocycle,
    refuse_oversized_extension,
)
from .loops import FiniteLoop
from .orbits import PAIR_MAPS, gamma_orbits, phi_orbits, psi_orbits, sigma_set
from .verification import VerificationReport, _add_agreement

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_WIDTH = 64  # outputs per block
# Most candidates that construct_pq's free mode tests: |Aut(A)| per self-inverse x != e
FREE_WALK_CAP = 1 << 15


def _block_constants():
    """(ones, mask, steps, unpack) of a block of ``_WIDTH`` 128-bit lanes, lane
    k at bits 128k..128k+127 of one int: ``ones`` holds 1 in every lane,
    ``mask`` holds 2^64 - 1, ``steps`` holds (k + 1)*golden mod 2^64, and
    ``unpack`` reads the low 64 bits of every lane from the block's
    little-endian bytes."""
    lanes = struct.Struct("<" + "Q8x" * _WIDTH)
    ones = int.from_bytes(lanes.pack(*[1] * _WIDTH), "little")
    steps = lanes.pack(*[(k + 1) * _GOLDEN & _MASK64 for k in range(_WIDTH)])
    return ones, ones * _MASK64, int.from_bytes(steps, "little"), lanes.unpack


_BLOCK = _block_constants()


class ChoiceSource:
    """Deterministic stream of free choices, seeded by a 64-bit integer.

    Output k (k = 1, 2, ...) is the state seed + k*0x9E3779B97F4A7C15 modulo
    2^64, mixed by two xor-shift-multiply rounds (multipliers
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) and a final xor-shift.  These
    constants, the stream and ``count`` (raw outputs consumed) are frozen
    forever; bounded picks use rejection sampling, so results are exactly
    uniform and platform independent.

    Outputs are computed 64 at a time, each in its own 128-bit lane of one
    Python int, so every block step is one C-level big-int operation.
    Lanes cannot interfere: a lane holds less than 2^64 before each multiply
    by a 64-bit constant, so the product stays below 2^128, inside the lane,
    and every right shift, which moves the next lane's low bits into this
    lane's high half, is masked back to 64 bits per lane.  The block is read
    out through its little-endian bytes, a fixed byte order, whatever the
    platform's.
    """

    __slots__ = ("seed", "_block", "_next", "_drawn")

    def __init__(self, seed: int = 0):
        (seed,) = integers((seed,), "choice seed")
        self.seed = seed & _MASK64
        self._block = ()  # outputs computed ahead
        self._next = 0  # index in _block of the next output
        self._drawn = 0  # outputs before _block

    @property
    def count(self) -> int:
        """Raw outputs consumed so far."""
        return self._drawn + self._next

    def _refill(self) -> None:
        self._drawn += len(self._block)
        ones, mask, steps, unpack = _BLOCK
        z = (((self.seed + self._drawn * _GOLDEN) & _MASK64) * ones + steps) & mask
        for shift, multiplier in zip((30, 27), _MIX):
            z = (((z ^ (z >> shift)) & mask) * multiplier) & mask
        self._block = unpack(((z ^ (z >> 31)) & mask).to_bytes(16 * _WIDTH, "little"))
        self._next = 0

    def pick(self, n: int) -> int:
        """Uniform index in 0..n-1, for 1 <= n <= 2^64."""
        if type(n) is not int:  # the hot path pays this one C-level call
            (n,) = integers((n,), "number of alternatives")
        if not 0 < n <= 1 << 64:  # above 2^64 the limit below is 0 and no draw passes
            raise InputError(f"cannot pick from {n} alternatives")
        limit = (1 << 64) - (1 << 64) % n  # the largest multiple of n up to 2^64
        block, i = self._block, self._next
        while True:
            if i == len(block):
                self._refill()
                block, i = self._block, 0
            value = block[i]
            i += 1
            if value < limit:
                self._next = i
                return value % n


def construct_pq(loop: FiniteLoop, autgroup: AutomorphismGroup, choice: ChoiceSource,
                 *, free_fixed_points: bool = False) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Build diagonal maps p, q, as the index tuples ``(pmap, qmap)``, with q
    arbitrary and p forced to satisfy p(x^{-1}) = q(x^{-1}) p(x)^{-1} q(x).

    q is drawn freely (q(e) = Id).  The inversion map pairs elements into
    orbits {x, x^{-1}}: p is drawn freely at the smaller element and forced
    at the other.  At self-inverse elements p(x) must satisfy
    (p(x)^{-1} q(x))^2 = Id; the default takes p(x) = q(x), the free mode
    draws among all valid candidates: it tests Aut(A) at each self-inverse
    x != e and refuses more than ``FREE_WALK_CAP`` = 32768 candidates in all
    with ``ResourceError`` before any draw.  The slowest admitted case
    measured, Z2 with Z2^3 x Z4, took 1.8 to 2.5 s (2-core x86 host).
    """
    report = loop.properties()
    if not report.two_sided_inverses_coincide:
        raise PreconditionError(
            "p, q construction needs a loop with coinciding two-sided inverses"
        )
    inv = report.inverse_map
    l = loop.size
    naut = len(autgroup)
    ident = autgroup.identity_index
    products, inverses = autgroup.products, autgroup.inverses
    walks = sum(inv[x] == x for x in range(1, l)) if free_fixed_points else 0
    if walks * naut > FREE_WALK_CAP:
        raise ResourceError(f"free fixed points refused: {walks} * |Aut(A)| = {walks * naut} "
                            f"candidates exceed the cap {FREE_WALK_CAP}")

    qmap = [ident] * l
    for x in range(1, l):
        qmap[x] = choice.pick(naut)

    pmap: list[Optional[int]] = [None] * l
    pmap[0] = ident
    for x in range(1, l):
        if pmap[x] is not None:
            continue
        if inv[x] == x:
            if free_fixed_points:
                candidates = []
                for i in range(naut):
                    s = products[inverses[i]][qmap[x]]
                    if products[s][s] == ident:
                        candidates.append(i)
                pmap[x] = candidates[choice.pick(len(candidates))]
            else:
                pmap[x] = qmap[x]
        else:
            pmap[x] = choice.pick(naut)
            other = inv[x]
            pmap[other] = products[qmap[other]][products[inverses[pmap[x]]][qmap[x]]]

    if not coincidence_condition_holds(autgroup, inv, pmap, qmap):
        raise InternalError("constructed p, q violate the coincidence condition")
    return tuple(pmap), tuple(qmap)


def _tables(l: int, ident: int, cells=()):
    """Flat P and Q tables (cell (x, y) at its orbit code x*l + y): Id on the
    boundary P(x, e) = Q(e, y) and on ``cells``, unassigned elsewhere."""
    ptable, qtable = [None] * (l * l), [None] * (l * l)
    for x in range(l):
        ptable[x * l] = qtable[x] = ident
    for x, y in cells:
        ptable[x * l + y] = qtable[x * l + y] = ident
    return ptable, qtable


def _finish(loop, group, ptable, qtable) -> LoopCocycle:
    """The cocycle of the flat tables, sliced into rows; none may be unassigned."""
    l = loop.size
    for name, table in (("P", ptable), ("Q", qtable)):
        if None in table:
            x, y = divmod(table.index(None), l)
            raise InternalError(f"construction left {name}({x}, {y}) unassigned")
    rows = range(0, l * l, l)
    return make_cocycle(loop, group, [ptable[i:i + l] for i in rows],
                        [qtable[i:i + l] for i in rows])


def _gated(cocycle: LoopCocycle, mode: str) -> LoopCocycle:
    """``cocycle`` once its built extension is a loop that passes ``verify``'s
    agreement and property lines, else an internal fault.  The build, verdicts
    and inverse scans stay kept, so ``verify_cocycle`` on it reads them back."""
    ext, defect = build_extension(cocycle)
    if ext is None:
        raise InternalError(f"built extension is not a loop: {defect}")
    report = VerificationReport("gate")
    _add_agreement(report, cocycle, ext, mode)
    failed = [outcome.name for outcome in report.outcomes if not outcome.passed]
    if failed:
        raise InternalError(f"constructed cocycle fails {failed[0]}")
    return cocycle


def construct_lip_cocycle(loop: FiniteLoop, group: AbelianGroup,
                          choice: ChoiceSource) -> LoopCocycle:
    """Seeded cocycle whose extension has the left inverse property.

    On Sigma: P(x, e) = Q(e, x) = Id, P(e, x) free, Q(x^{-1}, x) = q(x) with
    Q(x, e) = q(x)^{-1}, and P(x^{-1}, x) = p(x) from :func:`construct_pq`.
    On each phi-orbit the representative is free and the partner cell
    (x^{-1}, x*y) is forced by
        Q(x^{-1}, x*y) = Q(x,y)^{-1},
        P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y) Q(x^{-1},x)^{-1} P(x^{-1},x),
    the phi pair map of (P(x,y), Q(x,y)) with the row tail
    Q(x^{-1},x)^{-1} P(x^{-1},x) entering P.

    The image need not be every LIP cocycle.  At a self-inverse element
    x != e, :func:`construct_pq` takes p(x) = q(x), although the property
    only asks (p(x)^{-1} q(x))^2 = Id; on L = Z2 with A = Z3 the construction
    reaches 4 of the 8 LIP cocycles.
    """
    refuse_oversized_extension(loop, group)
    report = loop.properties()
    if not report.has_lip:
        raise PreconditionError("construction needs a loop with the left inverse property")
    autgroup = enumerate_automorphisms(group)
    l = loop.size
    naut = len(autgroup)
    products, inverses = autgroup.products, autgroup.inverses

    pmap, qmap = construct_pq(loop, autgroup, choice)
    ptable, qtable = _tables(l, autgroup.identity_index)
    for x, ix in enumerate(report.inverse_map):
        ptable[ix * l + x], qtable[ix * l + x] = pmap[x], qmap[x]
    for x in range(1, l):
        qtable[x * l] = inverses[qmap[x]]
    for y in range(1, l):
        ptable[y] = choice.pick(naut)
    # q(x)^{-1} p(x) = Q(x^{-1},x)^{-1} P(x^{-1},x) per element
    tails = [products[inverses[q]][p] for p, q in zip(pmap, qmap)]

    phi = PAIR_MAPS["phi"]
    for cell, partner in phi_orbits(loop).blocks():
        ptable[cell] = pr = choice.pick(naut)
        qtable[cell] = qr = choice.pick(naut)
        ptable[partner], qtable[partner] = phi(products, inverses,
                                               products[pr][tails[cell // l]], qr)

    return _gated(_finish(loop, group, ptable, qtable), "lip")


def construct_rip_cocycle(loop: FiniteLoop, group: AbelianGroup,
                          choice: ChoiceSource) -> LoopCocycle:
    """Seeded cocycle whose extension has the right inverse property.

    Dual of :func:`construct_lip_cocycle` under psi-orbits.  On Sigma the
    boundary row P(e, x) is not free: substituting the identity into the
    right-inverse conditions forces P(x, x^{-1}) = P(e, x)^{-1}, that is
    P(e, x) = p(x^{-1})^{-1}; Q(x, e) is the free boundary map instead.
    Partner cells (x*y, y^{-1}) are forced by
        P(x*y, y^{-1}) = P(x,y)^{-1},
        Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y) P(y,y^{-1})^{-1} Q(y,y^{-1}),
    the psi pair map of (P(x,y), Q(x,y)) with the column tail
    P(y,y^{-1})^{-1} Q(y,y^{-1}) entering Q.

    As for LIP, p(x) = q(x) at a self-inverse x != e, so the image need not
    be every RIP cocycle: 4 of the 8 on L = Z2 with A = Z3.
    """
    refuse_oversized_extension(loop, group)
    report = loop.properties()
    if not report.has_rip:
        raise PreconditionError("construction needs a loop with the right inverse property")
    autgroup = enumerate_automorphisms(group)
    inv = report.inverse_map
    l = loop.size
    naut = len(autgroup)
    products, inverses = autgroup.products, autgroup.inverses

    pmap, qmap = construct_pq(loop, autgroup, choice)
    ptable, qtable = _tables(l, autgroup.identity_index)
    for x, ix in enumerate(inv):
        ptable[ix * l + x], qtable[ix * l + x] = pmap[x], qmap[x]
    for x in range(1, l):
        qtable[x * l] = choice.pick(naut)
    for y in range(1, l):
        ptable[y] = inverses[pmap[inv[y]]]
    # P(y,y^{-1})^{-1} Q(y,y^{-1}) per element
    tails = [products[inverses[ptable[y * l + iy]]][qtable[y * l + iy]]
             for y, iy in enumerate(inv)]

    psi = PAIR_MAPS["psi"]
    for cell, partner in psi_orbits(loop).blocks():
        ptable[cell] = pr = choice.pick(naut)
        qtable[cell] = qr = choice.pick(naut)
        ptable[partner], qtable[partner] = psi(products, inverses,
                                               pr, products[qr][tails[cell % l]])

    return _gated(_finish(loop, group, ptable, qtable), "rip")


def construct_ip_cocycle(loop: FiniteLoop, group: AbelianGroup,
                         choice: ChoiceSource) -> LoopCocycle:
    """Seeded strongly linear cocycle whose extension has the inverse property.

    Requires an inverse-property loop.  Sigma is Id; each orbit
    representative draws a free automorphism pair (P, Q), and every other
    orbit member receives the pair transformed by the symmetry carrying the
    representative there.  An orbit of two, which lists each of its cells
    three times, gets (Id, Id), which its stabiliser fixes, and no draw.
    """
    refuse_oversized_extension(loop, group)
    autgroup = enumerate_automorphisms(group)
    naut, ident = len(autgroup), autgroup.identity_index
    products, inverses = autgroup.products, autgroup.inverses
    decomposition = gamma_orbits(loop)
    ptable, qtable = _tables(loop.size, ident, sigma_set(loop))
    moves = [PAIR_MAPS[name] for name in decomposition.symmetries]
    for block in decomposition.blocks():
        of_two = len(set(block)) < len(block)  # an orbit of two lists its cells thrice
        pr, qr = (ident, ident) if of_two else (choice.pick(naut), choice.pick(naut))
        for pair_map, code in zip(moves, block):
            ptable[code], qtable[code] = pair_map(products, inverses, pr, qr)
    cocycle = _finish(loop, group, ptable, qtable)
    if not is_strongly_linear(cocycle):
        raise InternalError("constructed cocycle fails is_strongly_linear")
    return _gated(cocycle, "ip")


def random_cocycle(loop: FiniteLoop, group: AbelianGroup, choice: ChoiceSource,
                   *, strongly_linear: bool = False) -> LoopCocycle:
    """Seeded arbitrary cocycle, for fuzzing the condition checkers.

    The plain form pins only the cocycle boundary P(x, e) = Q(e, y) = Id.
    With ``strongly_linear=True`` all Sigma cells are pinned to Id (the
    convention under which the strongly linear checkers are exercised) and
    only complement cells are drawn.
    """
    refuse_oversized_extension(loop, group)
    autgroup = enumerate_automorphisms(group)
    l, naut = loop.size, len(autgroup)
    pinned = sigma_set(loop) if strongly_linear else ()
    ptable, qtable = _tables(l, autgroup.identity_index, pinned)
    for cell in range(l * l):
        if ptable[cell] is None:
            ptable[cell] = choice.pick(naut)
        if qtable[cell] is None:
            qtable[cell] = choice.pick(naut)
    return _finish(loop, group, ptable, qtable)
