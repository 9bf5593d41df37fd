"""Finite abelian groups as direct sums of cyclic factors, with exhaustive
enumeration of their automorphism groups.

Elements are plain integers ``0..size-1`` encoding residue tuples in mixed
radix (first factor most significant); index 0 is the zero element, and the
generator ``e_j`` of factor j has index ``n_{j+1} * ... * n_k``, so the
generator of the last factor is index 1.  All objects are immutable after
construction and safe to share between threads.

Aut(A) is enumerated by a backtracking search over the generator images in
lexicographic order of the image tables.  Its size is known in closed form
beforehand (:func:`automorphism_count`), so an enumeration above
``AUT_ORDER_CAP`` members is refused before any work is done.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InputError, InternalError, ResourceError

DEFAULT_SIZE_CAP = 64
# Largest |Aut(A)| that enumerate_automorphisms builds.  Among groups of
# order <= DEFAULT_SIZE_CAP it refuses exactly Z2^5, Z2^4 x Z4 and Z2^6 (in any
# factor order).
AUT_ORDER_CAP = 200_000
# AutomorphismGroup.compose_indices memoises at most this many products.
_COMPOSE_MEMO_CAP = 1 << 16

GroupElement = int


def parse_group_spec(spec: str) -> tuple[int, ...]:
    """Parse a comma-separated factor-order string such as ``"2,2"`` or ``"4"``."""
    parts = [p.strip() for p in spec.split(",")]
    if not parts or any(p == "" for p in parts):
        raise InputError(f"bad group spec {spec!r}: expected comma-separated integers")
    try:
        orders = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"bad group spec {spec!r}: expected comma-separated integers") from None
    return orders


class AbelianGroup:
    """Direct sum ``Z_{n_1} x ... x Z_{n_k}`` with 0-based element indices.

    Addition, negation and element orders are precomputed; the raw tables are
    exposed (``add_table``, ``neg_table``) for hot loops.
    """

    __slots__ = ("orders", "size", "_strides", "add_table", "neg_table", "element_orders")

    def __init__(self, orders: Sequence[int], *, size_cap: int = DEFAULT_SIZE_CAP):
        orders = tuple(int(n) for n in orders)
        if not orders:
            raise InputError("group needs at least one cyclic factor")
        for n in orders:
            if n < 2:
                raise InputError(f"cyclic factor order must be >= 2, got {n}")
        size = math.prod(orders)
        if size > size_cap:
            raise InputError(f"group size {size} exceeds the size cap {size_cap}")
        self.orders = orders
        self.size = size
        strides = []
        acc = 1
        for n in reversed(orders):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))

        # add_table of Z_n x B from that of B: (x, r) + (y, s) = (x + y, r + s)
        add: tuple[tuple[int, ...], ...] = ((0,),)
        for n in reversed(orders):
            span = len(add)
            add = tuple(
                tuple(((x + y) % n) * span + v for y in range(n) for v in row)
                for x in range(n) for row in add
            )
        self.add_table = add
        self.neg_table = tuple(row.index(0) for row in add)
        self.element_orders = tuple(
            math.lcm(*(n // math.gcd(x, n) for x, n in zip(self.tuple_of(a), orders)))
            for a in range(size)
        )

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.size)

    def tuple_of(self, a: int) -> tuple[int, ...]:
        """Residue tuple encoded by index ``a``."""
        self._check(a)
        return tuple((a // s) % n for s, n in zip(self._strides, self.orders))

    def index_of(self, residues: Sequence[int]) -> int:
        """Index encoding a residue tuple (entries reduced modulo the orders)."""
        if len(residues) != len(self.orders):
            raise InputError(
                f"residue tuple has {len(residues)} entries, group has {len(self.orders)} factors"
            )
        return sum((r % n) * s for r, n, s in zip(residues, self.orders, self._strides))

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self.neg_table[a]

    def element_order(self, a: int) -> int:
        """Least m >= 1 with m*a = 0."""
        self._check(a)
        return self.element_orders[a]

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < self.size:
            raise InputError(f"element index {a!r} out of range for group of size {self.size}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.orders)})"


def make_group(orders: Sequence[int], *, size_cap: int = DEFAULT_SIZE_CAP) -> AbelianGroup:
    """Build a validated group from a list of cyclic factor orders."""
    return AbelianGroup(orders, size_cap=size_cap)


class Automorphism:
    """Additive bijection of an :class:`AbelianGroup`, stored as an image table."""

    __slots__ = ("group", "table")

    def __init__(self, group: AbelianGroup, table: Sequence[int], *, _checked: bool = False):
        table = tuple(table)
        if not _checked:
            _validate_automorphism(group, table)
        self.group = group
        self.table = table

    def __call__(self, a: int) -> int:
        return self.table[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.group == other.group and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.group.orders, self.table))

    def __repr__(self) -> str:
        return f"Automorphism({list(self.table)})"

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.table))


def _validate_automorphism(group: AbelianGroup, table: tuple[int, ...]) -> None:
    """Raise ``InputError`` unless ``table`` is an additive permutation.

    Additivity is tested against the generators only: ``f(a + e_j) ==
    f(a) + f(e_j)`` for every element a and every generator e_j.  That is
    the full check over all pairs.  Let B be the set of b with
    ``f(a + b) == f(a) + f(b)`` for every a.  For b, b' in B and any a,
    ``f(a + b + b') == f(a + b) + f(b') == f(a) + f(b) + f(b')``, and
    ``f(b + b') == f(b) + f(b')`` (take a = b), so b + b' is in B.  B is
    closed under + and contains every generator, hence B = A.
    """
    n = group.size
    if len(table) != n:
        raise InputError(f"automorphism table has {len(table)} entries, group size is {n}")
    if sorted(table) != list(range(n)):
        raise InputError("automorphism table is not a permutation of the group elements")
    if table[0] != 0:
        raise InputError("automorphism does not fix the zero element")
    add = group.add_table
    for e in sorted(group._strides):
        shifted, image_row = add[e], add[table[e]]
        if [table[x] for x in shifted] != [image_row[x] for x in table]:
            a = next(a for a in range(n) if table[shifted[a]] != image_row[table[a]])
            raise InputError(f"map is not additive at ({a}, {e})")


def identity_automorphism(group: AbelianGroup) -> Automorphism:
    return Automorphism(group, range(group.size), _checked=True)


def compose(f: Automorphism, h: Automorphism) -> Automorphism:
    """Composition f after h: ``compose(f, h)(a) == f(h(a))``."""
    if f.group != h.group:
        raise InputError("cannot compose automorphisms of different groups")
    ft = f.table
    return Automorphism(f.group, tuple(ft[x] for x in h.table), _checked=True)


def invert(f: Automorphism) -> Automorphism:
    """Inverse permutation of an automorphism."""
    out = [0] * len(f.table)
    for i, x in enumerate(f.table):
        out[x] = i
    return Automorphism(f.group, out, _checked=True)


class AutomorphismGroup:
    """All automorphisms of a group in canonical (lexicographic) order.

    The canonical order is load-bearing: cocycle files reference automorphisms
    by their position in ``members``, so enumeration must be deterministic.
    The identity is always member 0 (it is lexicographically minimal).
    """

    __slots__ = ("group", "members", "identity_index", "_index", "_compose", "_invert")

    def __init__(self, group: AbelianGroup, members: Sequence[Automorphism]):
        self.group = group
        self.members = tuple(members)
        self._index = {aut.table: i for i, aut in enumerate(self.members)}
        if len(self._index) != len(self.members):
            raise InputError("duplicate automorphisms in member list")
        ident = tuple(range(group.size))
        if ident not in self._index:
            raise InputError("member list is missing the identity automorphism")
        self.identity_index = self._index[ident]
        self._compose: dict[tuple[int, int], int] = {}
        self._invert: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> Automorphism:
        return self.members[i]

    def __iter__(self) -> Iterator[Automorphism]:
        return iter(self.members)

    def index_of(self, aut: Automorphism) -> int:
        if aut.group != self.group:
            raise InputError("automorphism belongs to a different group")
        try:
            return self._index[aut.table]
        except KeyError:
            raise InputError("automorphism is not a member of this enumeration") from None

    def compose_indices(self, i: int, j: int) -> int:
        """Canonical index of ``members[i]`` after ``members[j]``."""
        key = (i, j)
        out = self._compose.get(key)
        if out is None:
            ft = self.members[i].table
            out = self._index[tuple(ft[x] for x in self.members[j].table)]
            if len(self._compose) < _COMPOSE_MEMO_CAP:
                self._compose[key] = out
        return out

    def invert_index(self, i: int) -> int:
        out = self._invert.get(i)
        if out is None:
            table = self.members[i].table
            inv = [0] * len(table)
            for a, x in enumerate(table):
                inv[x] = a
            out = self._index[tuple(inv)]
            self._invert[i] = out
        return out


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """``(p, e)`` for each prime power ``p**e`` exactly dividing ``n``."""
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
        p += 1


def automorphism_count(group: AbelianGroup) -> int:
    """|Aut(A)| in closed form, without enumerating.

    The factors are split into their primary components, and Aut(A) is the
    product of the automorphism groups of the p-parts.  For a p-part
    ``Z_{p^e_1} x ... x Z_{p^e_k}`` with ``e_1 <= ... <= e_k``, let d_i be the
    largest and c_i the smallest position holding the exponent e_i; then
    (C. J. Hillar and D. L. Rhea, "Automorphisms of finite abelian groups",
    Amer. Math. Monthly 114 (2007))

        |Aut| = prod_i (p^d_i - p^(i-1)) * p^(e_i (k - d_i)) * p^((e_i - 1)(k - c_i + 1)).
    """
    exponents: dict[int, list[int]] = {}
    for n in group.orders:
        for p, e in _prime_powers(n):
            exponents.setdefault(p, []).append(e)
    count = 1
    for p, es in exponents.items():
        es.sort()
        k = len(es)
        for i, e in enumerate(es, 1):
            d = bisect_right(es, e)
            c = bisect_left(es, e) + 1
            count *= (p**d - p**(i - 1)) * p**(e * (k - d)) * p**((e - 1) * (k - c + 1))
    return count


def _automorphism_tables(group: AbelianGroup) -> Iterator[tuple[int, ...]]:
    """Image tables of every automorphism, in lexicographic order.

    Depth-first over the generator images, taken as (e_k, ..., e_1).  After
    choosing the images of e_k..e_{j+1}, the table is filled on the subgroup
    they generate, which is the index range ``0..s_j - 1`` with s_j the index
    of e_j.  An image g for e_j must have order exactly n_j; it extends the
    table by ``table[m*s_j + r] = m*g + table[r]`` for m = 1..n_j-1, and the
    branch is pruned at the first value that repeats.  Index s_j is the
    first entry that depends on g, so taking candidates in increasing order
    emits the tables in lexicographic order.
    """
    add = group.add_table
    orders, strides = group.orders, group._strides
    candidates = [[a for a in group.elements() if group.element_orders[a] == n] for n in orders]
    table = [0] * group.size
    used = [False] * group.size
    used[0] = True

    def extend(j: int) -> Iterator[tuple[int, ...]]:
        if j < 0:
            yield tuple(table)
            return
        span = strides[j]
        for g in candidates[j]:
            end, multiple, fresh = span, 0, True
            for _ in range(orders[j] - 1):
                multiple = add[multiple][g]
                row = add[multiple]
                for r in range(span):
                    v = row[table[r]]
                    if used[v]:
                        fresh = False
                        break
                    used[v] = True
                    table[end] = v
                    end += 1
                if not fresh:
                    break
            if fresh:
                yield from extend(j - 1)
            for a in range(span, end):
                used[table[a]] = False

    return extend(len(orders) - 1)


@lru_cache(maxsize=16)
def enumerate_automorphisms(
    group: AbelianGroup, *, size_cap: int = DEFAULT_SIZE_CAP
) -> AutomorphismGroup:
    """Exhaustively enumerate Aut(A) for a finite abelian group A.

    Members come in canonical order: lexicographic in their image tables,
    which is lexicographic in the generator images taken as (e_k, ..., e_1)
    (see :func:`_automorphism_tables`).  Each member is validated through
    :class:`Automorphism`, and their number must match
    :func:`automorphism_count`.  Raises ``ResourceError`` before any work
    when |A| exceeds ``size_cap`` or |Aut(A)| exceeds ``AUT_ORDER_CAP``.
    """
    if group.size > size_cap:
        raise ResourceError(
            f"automorphism enumeration refused: group size {group.size} exceeds cap {size_cap}"
        )
    count = automorphism_count(group)
    if count > AUT_ORDER_CAP:
        raise ResourceError(
            f"automorphism enumeration refused: |Aut(A)| = {count} exceeds cap {AUT_ORDER_CAP}"
        )
    members = tuple(Automorphism(group, table) for table in _automorphism_tables(group))
    if len(members) != count:
        raise InternalError(f"enumerated {len(members)} automorphisms, closed form gives {count}")
    return AutomorphismGroup(group, members)
