"""The loop orders l with 6 | (l-1)(l-2), as has every IP loop with no x*x = x^{-1}.

On an IP loop the six-element symmetry group moves the l^2 - 3l + 2 cells
outside Sigma in orbits of six, but for the cells (x, x) with x*x = x^{-1},
x != e, which pair up; so with no such x, l^2 - 3l + 2 = 6k.  That is all:
P = Q = Id extends every IP loop with IP, and ``z6`` is an IP loop with 6
not dividing 20.  Solving for l gives l = (3 + h)/2 with h^2 = 1 + 24k;
everything here is exact integer arithmetic, no square roots.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InputError, ResourceError

# Largest max order that enumerate_feasible admits; the work and the output
# grow linearly with it (10^5 takes about 0.5 s and 36 MB).
MAX_FEASIBLE_ORDER = 100_000


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
    """Whether 6 | (l-1)(l-2), as for every IP loop of order l with no x*x = x^{-1}.
    With 6k = l^2 - 3l + 2 and h = |2l - 3|, h^2 = 4(l^2 - 3l + 2) + 1 = 24k + 1
    for every l, so the certificate needs no check."""
    if not isinstance(l, int) or l < 1:
        raise InputError(f"loop order must be an integer >= 1, got {l!r}")
    complement = l * l - 3 * l + 2
    if complement % 6:
        return CardinalityCertificate(l, False)
    return CardinalityCertificate(l, True, complement // 6, abs(2 * l - 3))


def enumerate_feasible(max_l: int) -> list[CardinalityCertificate]:
    """Feasible orders 2..max_l in ascending order; raises ``ResourceError``
    before any work when max_l exceeds ``MAX_FEASIBLE_ORDER``."""
    if not isinstance(max_l, int) or max_l < 2:
        raise InputError(f"max order must be an integer >= 2, got {max_l!r}")
    if max_l > MAX_FEASIBLE_ORDER:
        raise ResourceError(f"max order {max_l} exceeds the cap {MAX_FEASIBLE_ORDER}")
    return [cert for l in range(2, max_l + 1)
            if (cert := feasible_cardinality(l)).feasible]
