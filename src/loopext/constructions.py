"""Generative constructions of cocycles with prescribed inverse behaviour.

Each construction pins the Sigma cells, chooses values freely at orbit
representatives (lexicographically smallest cell, row-major), and forces the
remaining orbit members through the closed-form identities.  Free choices are
drawn from a :class:`ChoiceSource`, consumed in a fixed documented order, so
equal seeds reproduce byte-identical cocycles on any platform.

Choice consumption order:

* ``construct_pq``: q(x) for x = 1..l-1 ascending, then p at each inversion
  orbit representative ascending (fixed points draw only in free mode).
* ``construct_lip_cocycle``: the ``construct_pq`` draws, then P(e, x) for
  x = 1..l-1, then P and Q (in that order) at each phi-orbit representative.
* ``construct_rip_cocycle``: the ``construct_pq`` draws, then Q(x, e) for
  x = 1..l-1, then P and Q at each psi-orbit representative.
* ``construct_ip_cocycle``: P then Q at each six-orbit representative.
* ``random_cocycle``: P then Q at every unpinned cell, row-major.

Every construction is gated: the returned cocycle has been re-verified both
by its closed-form condition checker and by a definition-level check of the
built extension, so a successful return is a proof of the property.
"""

from __future__ import annotations

from typing import Optional

from .abelian import AbelianGroup, AutomorphismGroup, enumerate_automorphisms
from .errors import InputError, InternalError, PreconditionError
from .extension import (
    InverseCoincidenceData,
    LoopCocycle,
    build_extension,
    check_equivariance,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    coincidence_condition_holds,
    is_strongly_linear,
    make_cocycle,
)
from .loops import FiniteLoop, analyze_properties
from .orbits import (GAMMA_BY_NAME, OrbitDecomposition, gamma_orbits, phi_orbits, psi_orbits,
                     sigma_set)

_MASK64 = (1 << 64) - 1


class ChoiceSource:
    """Deterministic stream of free choices, seeded by a 64-bit integer.

    The state advances by adding 0x9E3779B97F4A7C15 modulo 2^64 and each
    output mixes the state with two xor-shift-multiply rounds (multipliers
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) and a final shift.  These
    constants are frozen forever; bounded picks use rejection sampling, so
    results are exactly uniform and platform independent.
    """

    __slots__ = ("seed", "_state", "count")

    def __init__(self, seed: int = 0):
        self.seed = seed & _MASK64
        self._state = self.seed
        self.count = 0

    def next_raw(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        self.count += 1
        return z ^ (z >> 31)

    def pick(self, n: int) -> int:
        """Uniform index in 0..n-1."""
        if n <= 0:
            raise InputError(f"cannot pick from {n} alternatives")
        limit = ((1 << 64) // n) * n
        while True:
            value = self.next_raw()
            if value < limit:
                return value % n


def construct_pq(loop: FiniteLoop, autgroup: AutomorphismGroup, choice: ChoiceSource,
                 *, free_fixed_points: bool = False) -> InverseCoincidenceData:
    """Build diagonal maps p, q with q arbitrary and p forced to satisfy
    p(x^{-1}) = q(x^{-1}) p(x)^{-1} q(x).

    q is drawn freely (q(e) = Id).  The inversion map pairs elements into
    orbits {x, x^{-1}}: p is drawn freely at the smaller element and forced
    at the other.  At self-inverse elements p(x) must satisfy
    (p(x)^{-1} q(x))^2 = Id; the default takes p(x) = q(x), the free mode
    draws among all valid candidates.
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
    c, v = autgroup.compose_indices, autgroup.invert_index

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
                candidates = [
                    i for i in range(naut)
                    if c(c(v(i), qmap[x]), c(v(i), qmap[x])) == ident
                ]
                pmap[x] = candidates[choice.pick(len(candidates))]
            else:
                pmap[x] = qmap[x]
        else:
            pmap[x] = choice.pick(naut)
            other = inv[x]
            pmap[other] = c(qmap[other], c(v(pmap[x]), qmap[x]))

    if not coincidence_condition_holds(autgroup, inv, pmap, qmap):
        raise InternalError("constructed p, q violate the coincidence condition")
    return InverseCoincidenceData(autgroup, tuple(pmap), tuple(qmap))


def _empty_tables(l: int):
    return ([[None] * l for _ in range(l)], [[None] * l for _ in range(l)])


def _id_tables(l: int, ident: int, cells):
    """P and Q tables holding Id on ``cells`` and unassigned elsewhere."""
    ptable, qtable = _empty_tables(l)
    for x, y in cells:
        ptable[x][y] = qtable[x][y] = ident
    return ptable, qtable


def _pinned_tables(loop, autgroup, data):
    """P and Q tables holding Id on the cocycle boundary and p, q on the
    inverse diagonal, unassigned elsewhere."""
    inv = loop.properties().inverse_map
    ptable, qtable = _empty_tables(loop.size)
    for x in loop.elements():
        ptable[x][0] = qtable[0][x] = autgroup.identity_index
        ptable[inv[x]][x], qtable[inv[x]][x] = data.pmap[x], data.qmap[x]
    return ptable, qtable


def _finish(loop, group, autgroup, ptable, qtable) -> LoopCocycle:
    for name, table in (("P", ptable), ("Q", qtable)):
        for x, row in enumerate(table):
            for y, value in enumerate(row):
                if value is None:
                    raise InternalError(f"construction left {name}({x}, {y}) unassigned")
    return make_cocycle(loop, group, ptable, qtable, autgroup=autgroup)


def _gated(cocycle: LoopCocycle, prop: str, *checks) -> LoopCocycle:
    """``cocycle`` once each closed-form check passes and the built extension
    has ``prop`` at the definition level; anything else is an internal fault."""
    for check in checks:
        if not check(cocycle):
            raise InternalError(f"constructed cocycle fails {check.__name__}")
    built = build_extension(cocycle)
    if built.loop is None:
        raise InternalError(f"built extension is not a loop: {built.defect}")
    if not getattr(analyze_properties(built.loop), f"has_{prop}"):
        raise InternalError(f"built extension fails the definition-level {prop} check")
    return cocycle


def construct_lip_cocycle(loop: FiniteLoop, group: AbelianGroup, choice: ChoiceSource,
                          *, autgroup: Optional[AutomorphismGroup] = None) -> LoopCocycle:
    """Seeded cocycle whose extension has the left inverse property.

    On Sigma: P(x, e) = Q(e, x) = Id, P(e, x) free, Q(x^{-1}, x) = q(x) with
    Q(x, e) = q(x)^{-1}, and P(x^{-1}, x) = p(x) from :func:`construct_pq`.
    On each phi-orbit the representative is free and the partner cell
    (x^{-1}, x*y) is forced by
        Q(x^{-1}, x*y) = Q(x,y)^{-1},
        P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y) Q(x^{-1},x)^{-1} P(x^{-1},x).
    """
    report = loop.properties()
    if not report.has_lip:
        raise PreconditionError("construction needs a loop with the left inverse property")
    if autgroup is None:
        autgroup = enumerate_automorphisms(group)
    l = loop.size
    naut = len(autgroup)
    c, v = autgroup.compose_indices, autgroup.invert_index

    data = construct_pq(loop, autgroup, choice)
    pmap, qmap = data.pmap, data.qmap
    ptable, qtable = _pinned_tables(loop, autgroup, data)
    for x in range(1, l):
        qtable[x][0] = v(qmap[x])
    for y in range(1, l):
        ptable[0][y] = choice.pick(naut)

    for orbit in phi_orbits(loop).orbits:
        x, y = orbit.representative
        ptable[x][y] = pr = choice.pick(naut)
        qtable[x][y] = qr = choice.pick(naut)
        ax, ay = orbit.members[1]
        qtable[ax][ay] = v(qr)
        ptable[ax][ay] = c(v(qr), c(pr, c(v(qmap[x]), pmap[x])))

    return _gated(_finish(loop, group, autgroup, ptable, qtable), "lip", check_lip_conditions)


def construct_rip_cocycle(loop: FiniteLoop, group: AbelianGroup, choice: ChoiceSource,
                          *, autgroup: Optional[AutomorphismGroup] = None) -> LoopCocycle:
    """Seeded cocycle whose extension has the right inverse property.

    Dual of :func:`construct_lip_cocycle` under psi-orbits.  On Sigma the
    boundary row P(e, x) is not free: substituting the identity into the
    right-inverse conditions forces P(x, x^{-1}) = P(e, x)^{-1}, that is
    P(e, x) = p(x^{-1})^{-1}; Q(x, e) is the free boundary map instead.
    Partner cells (x*y, y^{-1}) are forced by
        P(x*y, y^{-1}) = P(x,y)^{-1},
        Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y) P(y,y^{-1})^{-1} Q(y,y^{-1}).
    """
    report = loop.properties()
    if not report.has_rip:
        raise PreconditionError("construction needs a loop with the right inverse property")
    if autgroup is None:
        autgroup = enumerate_automorphisms(group)
    inv = report.inverse_map
    l = loop.size
    naut = len(autgroup)
    c, v = autgroup.compose_indices, autgroup.invert_index

    data = construct_pq(loop, autgroup, choice)
    ptable, qtable = _pinned_tables(loop, autgroup, data)
    for x in range(1, l):
        qtable[x][0] = choice.pick(naut)
    for y in range(1, l):
        ptable[0][y] = v(data.pmap[inv[y]])

    for orbit in psi_orbits(loop).orbits:
        x, y = orbit.representative
        ptable[x][y] = pr = choice.pick(naut)
        qtable[x][y] = qr = choice.pick(naut)
        ax, ay = orbit.members[1]
        iy = inv[y]
        ptable[ax][ay] = v(pr)
        qtable[ax][ay] = c(v(pr), c(qr, c(v(ptable[y][iy]), qtable[y][iy])))

    return _gated(_finish(loop, group, autgroup, ptable, qtable), "rip", check_rip_conditions)


def _ip_cocycle(loop: FiniteLoop, group: AbelianGroup, autgroup: AutomorphismGroup,
                decomposition: OrbitDecomposition, rep_choices: dict) -> LoopCocycle:
    naut = len(autgroup)
    ptable, qtable = _id_tables(loop.size, autgroup.identity_index, decomposition.sigma.pairs)
    for orbit in decomposition.orbits:
        try:
            pr, qr = rep_choices[orbit.representative]
        except KeyError:
            raise InputError(f"no choice given for orbit representative "
                             f"{orbit.representative}") from None
        if not (0 <= pr < naut and 0 <= qr < naut):
            raise InputError(f"choice {(pr, qr)} at {orbit.representative} "
                             f"is not a pair of automorphism indices")
        for name, (x, y) in zip(orbit.symmetries, orbit.members):
            ptable[x][y], qtable[x][y] = GAMMA_BY_NAME[name].pair_indices(autgroup, pr, qr)
    return _gated(_finish(loop, group, autgroup, ptable, qtable), "ip",
                  is_strongly_linear, check_ip_conditions, check_equivariance)


def ip_cocycle_from_choices(loop: FiniteLoop, group: AbelianGroup,
                            rep_choices: dict, *,
                            autgroup: Optional[AutomorphismGroup] = None) -> LoopCocycle:
    """Strongly linear inverse-property cocycle from explicit orbit choices.

    ``rep_choices`` maps each six-orbit representative cell to a pair of
    automorphism indices (P, Q); every other orbit member receives the pair
    transformed by the symmetry carrying the representative there.  Sigma is
    Id throughout.
    """
    if autgroup is None:
        autgroup = enumerate_automorphisms(group)
    return _ip_cocycle(loop, group, autgroup, gamma_orbits(loop), rep_choices)


def construct_ip_cocycle(loop: FiniteLoop, group: AbelianGroup, choice: ChoiceSource,
                         *, autgroup: Optional[AutomorphismGroup] = None) -> LoopCocycle:
    """Seeded strongly linear cocycle whose extension has the inverse property.

    Requires an inverse-property loop with no element x*x = x^{-1}.  Sigma is
    Id; each six-orbit representative draws a free automorphism pair and the
    rest of its orbit is filled equivariantly.
    """
    if autgroup is None:
        autgroup = enumerate_automorphisms(group)
    naut = len(autgroup)
    decomposition = gamma_orbits(loop)
    rep_choices = {
        orbit.representative: (choice.pick(naut), choice.pick(naut))
        for orbit in decomposition.orbits
    }
    return _ip_cocycle(loop, group, autgroup, decomposition, rep_choices)


def random_cocycle(loop: FiniteLoop, group: AbelianGroup, choice: ChoiceSource,
                   *, strongly_linear: bool = False,
                   autgroup: Optional[AutomorphismGroup] = None) -> LoopCocycle:
    """Seeded arbitrary cocycle, for fuzzing the condition checkers.

    The plain form pins only the cocycle boundary P(x, e) = Q(e, y) = Id.
    With ``strongly_linear=True`` all Sigma cells are pinned to Id (the
    convention under which the strongly linear checkers are exercised) and
    only complement cells are drawn.
    """
    if autgroup is None:
        autgroup = enumerate_automorphisms(group)
    l = loop.size
    naut = len(autgroup)
    ident = autgroup.identity_index
    if strongly_linear:
        ptable, qtable = _id_tables(l, ident, sigma_set(loop).pairs)
    else:
        ptable, qtable = _empty_tables(l)
        for x in range(l):
            ptable[x][0] = ident
            qtable[0][x] = ident
    for x in range(l):
        for y in range(l):
            if ptable[x][y] is None:
                ptable[x][y] = choice.pick(naut)
            if qtable[x][y] is None:
                qtable[x][y] = choice.pick(naut)
    return make_cocycle(loop, group, ptable, qtable, autgroup=autgroup)
