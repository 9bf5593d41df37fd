"""Which loop cardinalities admit strongly linear inverse-property extensions.

The complement of Sigma has l^2 - 3l + 2 cells and the six-element symmetry
group partitions it into orbits of six, so a feasible order must satisfy
l^2 - 3l + 2 = 6k.  Solving for l gives l = (3 + h)/2 with h^2 = 1 + 24k;
everything here is exact integer arithmetic, no square roots.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InputError, InternalError, PreconditionError
from .loops import FiniteLoop
from .orbits import gamma_orbits


class CardinalityCertificate(NamedTuple):
    """Feasibility witness for one loop order.

    When feasible, 6k = l^2 - 3l + 2 and h is the positive root of
    h^2 = 1 + 24k; for l >= 2 also h = 2l - 3, i.e. l = (3 + h)/2.
    """

    l: int
    feasible: bool
    k: Optional[int] = None
    h: Optional[int] = None


def feasible_cardinality(l: int) -> CardinalityCertificate:
    """Whether order l admits strongly linear inverse-property extensions."""
    if not isinstance(l, int) or l < 1:
        raise InputError(f"loop order must be an integer >= 1, got {l!r}")
    complement = l * l - 3 * l + 2
    if complement % 6:
        return CardinalityCertificate(l, False)
    k = complement // 6
    h = abs(2 * l - 3)
    if h * h != 1 + 24 * k:
        raise InternalError(f"certificate identity failed at l={l}")
    return CardinalityCertificate(l, True, k, h)


def enumerate_feasible(max_l: int) -> list[CardinalityCertificate]:
    """Feasible orders 2..max_l in ascending order."""
    if not isinstance(max_l, int) or max_l < 2:
        raise InputError(f"max order must be an integer >= 2, got {max_l!r}")
    return [cert for l in range(2, max_l + 1)
            if (cert := feasible_cardinality(l)).feasible]


def cross_check_orbit_count(loop: FiniteLoop) -> bool:
    """Tie the arithmetic to the concrete orbit machinery for one loop.

    True iff the complement of Sigma has exactly l^2 - 3l + 2 cells and the
    six-orbit decomposition has exactly (l^2 - 3l + 2)/6 orbits.
    """
    report = loop.properties()
    if not report.has_ip:
        raise PreconditionError("orbit cross-check needs an inverse-property loop")
    if report.has_order3_element:
        raise PreconditionError(
            "orbit cross-check needs a loop with no element x*x = x^{-1}"
        )
    l = loop.size
    expected = l * l - 3 * l + 2
    decomposition = gamma_orbits(loop)
    return len(decomposition.sigma.complement()) == expected == len(decomposition.orbits) * 6
