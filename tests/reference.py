"""Test-side references: plain re-derivations that the library does not ship.

Each one reads only the raw tables (loop Cayley tables, automorphism image
tables, the cocycle's P and Q tables and the index algebra of its
``AutomorphismGroup``) so it stays independent of the code under test:
none of them uses a loop's cached inverse maps, and the automorphism
helpers work on image tables, not on canonical indices.
"""

from loopext.errors import StructureError
from loopext.extension import make_cocycle
from loopext.loops import _columns, make_loop
from loopext.orbits import CELL_MAPS

MASK64 = (1 << 64) - 1


def left_div(loop, x, y):
    """Unique z with x*z = y, by a scan of row x."""
    return loop.table[x].index(y)


def right_div(loop, x, y):
    """Unique z with z*y = x, by a scan of column y."""
    return [row[y] for row in loop.table].index(x)


def opposite_loop(loop):
    """The loop with reversed multiplication: the transposed table."""
    return make_loop(zip(*loop.table))


def opposite_cocycle(cocycle):
    """Cocycle of the opposite extension: over the opposite loop, with
    P'(x, y) = Q(y, x) and Q'(x, y) = P(y, x)."""
    return make_cocycle(opposite_loop(cocycle.loop), cocycle.group,
                        zip(*cocycle.qtable), zip(*cocycle.ptable))


def exhaustive_iota(loop):
    """Any bijection iota witnessing LIP, else None (RIP: pass ``opposite_loop(loop)``).

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


def extension_rows_by_cells(cocycle):
    """Rows of the extension table, (x, a)(y, b) = (x*y, P(x,y)a + Q(x,y)b)
    one cell at a time, on the indices (x, a) -> x*|A| + a."""
    loop, aut, n = cocycle.loop, cocycle.autgroup, cocycle.group.size
    add, pt, qt = cocycle.group.add_table, cocycle.ptable, cocycle.qtable
    return [
        tuple(loop.table[x][y] * n + add[aut[pt[x][y]][a]][aut[qt[x][y]][b]]
              for y in range(loop.size) for b in range(n))
        for x in range(loop.size) for a in range(n)
    ]


def noncommuting_pair_by_rows(loop):
    """First (x, y), x < y, with x*y != y*x, cell by cell over the rows."""
    t = loop.table
    for x in range(loop.size):
        for y in range(x + 1, loop.size):
            if t[x][y] != t[y][x]:
                return (x, y)
    return None


def unpacked(loop):
    """A copy of ``loop`` held as int-tuple rows, whatever its order, with no
    kept facts, so every scan, the quotient check and the closed-form checks
    read its lines in the tuple container."""
    copy = make_loop(loop.table)
    copy._rows = loop.table
    copy._columns = _columns(copy._rows)
    copy._kept.clear()
    return copy


def latin_defect(rows):
    """Raise StructureError naming the first defect of a table that is not a
    loop table with identity 0: one pass over the rows (length, range,
    permutation), one over the columns, then the identity row and column.
    The cell-by-cell reference for ``validate_table``'s defect names."""
    l = len(rows)
    if l < 1:
        raise StructureError("loop table must have at least one row")
    full = set(range(l))
    for i, row in enumerate(rows):
        if len(row) != l:
            raise StructureError(f"row {i} has {len(row)} entries, expected {l}",
                                 index=i, axis="row")
        if set(row) != full:
            for v in row:
                if not 0 <= v < l:
                    raise StructureError(f"row {i} contains out-of-range entry {v}", index=i,
                                         axis="row")
            raise StructureError(f"row {i} is not a permutation of 0..{l - 1}", index=i,
                                 axis="row")
    for j, col in enumerate(zip(*rows)):
        if len(set(col)) != l:  # the rows hold only 0..l-1, so l distinct entries are all
            raise StructureError(f"column {j} is not a permutation of 0..{l - 1}", index=j,
                                 axis="column")
    identity = tuple(range(l))
    if tuple(rows[0]) != identity:
        raise StructureError("row 0 is not the identity permutation", index=0, axis="row")
    if tuple(row[0] for row in rows) != identity:
        raise StructureError("column 0 is not the identity permutation", index=0,
                             axis="column")


def edited_table(rows, edit):
    """Extension rows as the builder returns them, a list of ``bytes`` or of
    int-tuple rows, with ``edit`` applied to the list of their int tuples;
    each edited row goes back into the builder's container."""
    return list(map(type(rows[0]), edit(list(map(tuple, rows)))))


def quotient_table(loop, members):
    """Coset table of the subloop ``members``, cell by cell, or None when the
    left cosets overlap or the product of cosets is not well defined.  Cosets
    are labelled by their least element, ascending."""
    table = loop.table
    label = {}
    reps = []
    for x in range(loop.size):
        if x in label:
            continue
        coset = {table[x][m] for m in members}
        if any(u in label for u in coset):
            return None
        label.update(dict.fromkeys(coset, len(reps)))
        reps.append(x)
    cosets = [[label[table[a][b]] for b in reps] for a in reps]
    for u in range(loop.size):
        for v in range(loop.size):
            if label[table[u][v]] != cosets[label[u]][label[v]]:
                return None
    return cosets


def inverse_formula_mismatch(cocycle, table):
    """First element of the extension table ``table`` whose left or right
    inverse is not the closed form of ``cocycle``, as a 1-tuple, else None.

    Element by element: the inverses of (x, a) come from scans of its column
    and row of ``table``, and the closed forms
    (e/x, -P(e/x,x)^{-1} Q(e/x,x) a) and (x\\e, -Q(x,x\\e)^{-1} P(x,x\\e) a)
    from image tables, with e/x and x\\e scanned in the base table.
    """
    n = cocycle.group.size
    base, aut, neg = cocycle.loop.table, cocycle.autgroup, cocycle.group.neg_table
    pt, qt = cocycle.ptable, cocycle.qtable
    for index, row in enumerate(table):
        x, a = divmod(index, n)
        lx = [r[x] for r in base].index(0)
        rx = base[x].index(0)
        left = lx * n + neg[invert(aut[pt[lx][x]])[aut[qt[lx][x]][a]]]
        right = rx * n + neg[invert(aut[qt[x][rx]])[aut[pt[x][rx]][a]]]
        if (left, right) != ([r[index] for r in table].index(0), row.index(0)):
            return (index,)
    return None


class ScalarChoiceSource:
    """The draw stream one output at a time, as ``ChoiceSource`` computed it
    before it computed blocks: the state advances by the golden gamma modulo
    2^64 and each output is the state mixed by the splitmix64 finaliser.
    ``pick`` rejects raw values at or above the largest multiple of n."""

    def __init__(self, seed):
        self.state = seed & MASK64
        self.count = 0

    def next_raw(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        self.count += 1
        return z ^ (z >> 31)

    def pick(self, n):
        limit = ((1 << 64) // n) * n
        while True:
            value = self.next_raw()
            if value < limit:
                return value % n


def identity(group):
    """The image table of the identity automorphism of ``group``."""
    return tuple(range(group.size))


def compose(f, h):
    """f after h, on image tables: ``compose(f, h)[a] == f[h[a]]``."""
    return tuple(f[x] for x in h)


def invert(f):
    """The inverse permutation of an image table."""
    out = [0] * len(f)
    for i, x in enumerate(f):
        out[x] = i
    return tuple(out)


def gauge(cocycle, tau):
    """The gauge image of ``cocycle`` under ``tau``, one automorphism index per
    element of L:
        P'(x, y) = tau(x*y) P(x, y) tau(x)^{-1},
        Q'(x, y) = tau(x*y) Q(x, y) tau(y)^{-1},
    composed on image tables and ranked back by ``index_of``.  The boundary
    P(x, e) = Q(e, y) = Id is kept, and ``gauge_map`` is an isomorphism from
    the extension of ``cocycle`` onto that of its image."""
    aut = cocycle.autgroup
    images = [aut[t] for t in tau]

    def moved(table, inner):
        return [[aut.index_of(compose(compose(images[xy], aut[table[x][y]]),
                                      invert(images[inner(x, y)])))
                 for y, xy in enumerate(row)] for x, row in enumerate(cocycle.loop.table)]

    return make_cocycle(cocycle.loop, cocycle.group, moved(cocycle.ptable, lambda x, y: x),
                        moved(cocycle.qtable, lambda x, y: y))


def gauge_map(cocycle, tau):
    """Phi(x, a) = (x, tau(x)a) on the pair indices x*|A| + a."""
    n, aut = cocycle.group.size, cocycle.autgroup
    return tuple(x * n + aut[t][a] for x, t in enumerate(tau) for a in range(n))


def is_isomorphism(phi, source, target):
    """Whether the bijection ``phi`` carries the table of the loop ``source``
    onto that of ``target``, cell by cell: phi(u*v) = phi(u)*phi(v)."""
    return sorted(phi) == list(range(target.size)) and all(
        target.table[phi[u]][phi[v]] == phi[uv]
        for u, row in enumerate(source.table) for v, uv in enumerate(row))


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


def complement(sigma, l):
    """The cells of L x L outside the cell set ``sigma``, in row-major order."""
    return tuple((x, y) for x in range(l) for y in range(l) if (x, y) not in sigma)


def pinned_cells(loop):
    """Sigma by its definition, the cells (x, e), (e, x) and (x^{-1}, x),
    with each inverse found by a row scan of the raw table."""
    inv = [row.index(0) for row in loop.table]
    return {cell for x in range(loop.size) for cell in ((x, 0), (0, x), (inv[x], x))}


def walked_orbits(loop, names):
    """The orbits of the cell maps ``names`` on Sigma's complement, each the
    tuple of its members, representative first.

    This is the walk the library made before it packed its decompositions:
    it lists the complement row-major, takes each cell not seen before as a
    representative and its images under ``names``, in that order, as the
    members, and keeps a set of cell tuples seen.  Sigma and the inverse map
    come from the raw table; only the cell maps are the library's.
    """
    table = loop.table
    inv = [row.index(0) for row in table]
    outside = complement(pinned_cells(loop), loop.size)
    maps = [CELL_MAPS[name] for name in names]
    seen = set()
    orbits = []
    for cell in outside:
        if cell in seen:
            continue
        members = tuple(m(table, inv, *cell) for m in maps)
        assert not seen & set(members)
        seen |= set(members)
        orbits.append(members)
    assert seen == set(outside)
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
