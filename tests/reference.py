"""Test-side references: plain re-derivations that the library does not ship.

Each one reads only the raw tables (loop Cayley tables, automorphism image
tables, the cocycle's P and Q tables and the index algebra of its
``AutomorphismGroup``) so it stays independent of the code under test:
none of them uses a loop's cached inverse maps, and the automorphism
helpers work on image tables, not on canonical indices.
"""

from loopext.abelian import Automorphism
from loopext.orbits import CELL_MAPS


def left_div(loop, x, y):
    """Unique z with x*z = y, by a scan of row x."""
    return loop.table[x].index(y)


def right_div(loop, x, y):
    """Unique z with z*y = x, by a scan of column y."""
    return [row[y] for row in loop.table].index(x)


def exhaustive_iota(loop):
    """Any bijection iota witnessing LIP, else None (RIP: pass ``loop.opposite()``).

    For each x the witness value is forced pointwise by each y, so the search
    reduces to checking that the forced value is constant in y and that the
    resulting map is a bijection.  It builds its own right-division table
    once, so it stays O(l^2) and shares nothing with the library's scans.
    """
    over = [[0] * loop.size for _ in loop.table]  # over[b][a] = a/b
    for z, row in enumerate(loop.table):
        for b, a in enumerate(row):
            over[b][a] = z
    iota = []
    for row in loop.table:
        forced = {over[xy][y] for y, xy in enumerate(row)}
        if len(forced) != 1:
            return None
        iota.extend(forced)
    return tuple(iota) if sorted(iota) == list(range(loop.size)) else None


def identity(group):
    """The identity automorphism of ``group``."""
    return Automorphism(group, range(group.size))


def compose(f, h):
    """f after h: ``compose(f, h)(a) == f(h(a))``."""
    return Automorphism(f.group, tuple(f.table[x] for x in h.table))


def invert(f):
    """Inverse permutation of an automorphism."""
    out = [0] * len(f.table)
    for i, x in enumerate(f.table):
        out[x] = i
    return Automorphism(f.group, out)


def ip_conditions_hold(cocycle):
    """The four-identity inverse-property kernel of a strongly linear cocycle
    over an IP loop, for all x, y:
        P(x*y, y^{-1}) = P(x,y)^{-1},   Q(x*y, y^{-1}) = P(x,y)^{-1} Q(x,y),
        Q(x^{-1}, x*y) = Q(x,y)^{-1},   P(x^{-1}, x*y) = Q(x,y)^{-1} P(x,y).
    The inverse of x is found by a row scan, not read from the loop."""
    table = cocycle.loop.table
    inv = [row.index(0) for row in table]
    pt, qt = cocycle.ptable, cocycle.qtable
    products, inverses = cocycle.autgroup.products, cocycle.autgroup.inverses
    for x, row in enumerate(table):
        px, qx = pt[x], qt[x]
        pix, qix = pt[inv[x]], qt[inv[x]]
        for y, xy in enumerate(row):
            iy = inv[y]
            pxy, qxy = px[y], qx[y]
            vp, vq = inverses[pxy], inverses[qxy]
            if (pt[xy][iy] != vp or qt[xy][iy] != products[vp][qxy]
                    or qix[xy] != vq or pix[xy] != products[vq][pxy]):
                return False
    return True


def walked_orbits(loop, names):
    """The orbits of the cell maps ``names`` on Sigma's complement, as
    ``(representative, members, symmetries)`` triples.

    This is the walk the library made before it packed its decompositions:
    it lists the complement row-major, takes each cell not seen before as a
    representative and its images under ``names``, in that order, as the
    members, and keeps a set of cell tuples seen.  Sigma and the inverse map
    come from the raw table; only the cell maps are the library's.
    """
    table = loop.table
    inv = [row.index(0) for row in table]
    pinned = {cell for x in range(loop.size) for cell in ((x, 0), (0, x), (inv[x], x))}
    complement = [(x, y) for x in range(loop.size) for y in range(loop.size)
                  if (x, y) not in pinned]
    maps = [CELL_MAPS[name] for name in names]
    seen = set()
    orbits = []
    for cell in complement:
        if cell in seen:
            continue
        members = tuple(m(table, inv, *cell) for m in maps)
        assert len(set(members)) == len(members) and not seen & set(members)
        seen |= set(members)
        orbits.append((cell, members, tuple(names)))
    assert seen == set(complement)
    return orbits


class Replay:
    """A choice source that returns scripted digits and records each ``n``.

    ``pick(n)`` returns the next digit of ``digits`` (which must lie in
    0..n-1) and appends n to ``asked``; past the end of the script it
    returns 0, so a first run with no digits reports how many choices a
    construction makes and from how many alternatives each.
    """

    def __init__(self, digits=()):
        self.digits = list(digits)
        self.asked = []

    def pick(self, n):
        i = len(self.asked)
        self.asked.append(n)
        digit = self.digits[i] if i < len(self.digits) else 0
        if not 0 <= digit < n:
            raise ValueError(f"scripted digit {digit} at pick {i} is not in 0..{n - 1}")
        return digit


def replay_all(construct):
    """Every result of ``construct(source)`` over all choice vectors, with the
    number of vectors.  A first run learns the choice counts; the counts of a
    construction may depend on earlier digits, so each run is checked to ask
    the same ones."""
    first = Replay()
    construct(first)
    radices = first.asked
    results = []
    vectors = 1
    for n in radices:
        vectors *= n
    for index in range(vectors):
        digits = []
        for n in reversed(radices):
            index, digit = divmod(index, n)
            digits.append(digit)
        source = Replay(reversed(digits))
        results.append(construct(source))
        assert source.asked == radices
    return results, vectors
