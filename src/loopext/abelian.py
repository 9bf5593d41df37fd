"""Finite abelian groups as direct sums of cyclic factors, with their
automorphism groups in a canonical order.

Elements are plain integers ``0..size-1`` encoding residue tuples in mixed
radix (first factor most significant); index 0 is the zero element, and the
generator ``e_j`` of factor j has index ``n_{j+1} * ... * n_k``, so the
generator of the last factor is index 1.  An automorphism is its image
table, a tuple whose entry a is the image of a.  Groups are immutable after
construction and safe to share between threads; an
:class:`AutomorphismGroup` only adds entries to its memos.

The index algebra of Aut(A) is two capped memos (``_Memo``) on each
:class:`AutomorphismGroup`: ``products[i][j]`` is the canonical index of
member i after member j and ``inverses[i]`` that of the inverse of member i.
A memo computes a missing entry on first read and keeps it while its budget
of ``_COMPOSE_MEMO_CAP`` entries has room, so hot loops index them directly,
as ``products[i][j]`` for every product; the members of Aut(A) are kept in a
third memo, capped at ``_MEMBER_MEMO_CAP``.

The canonical order of Aut(A) is the lexicographic order of the image
tables, that is of the generator images taken as (e_k, ..., e_1).  Members
are ranked and unranked in that order from their generator images, without
listing Aut(A): a prefix of images extends to an automorphism exactly when
the map it fixes on a subgroup is injective with a pure image, and the number
of automorphisms extending it is the order of a pointwise stabiliser, which
does not depend on the prefix (see :class:`AutomorphismGroup`).  |Aut(A)| is
known in closed form (:func:`automorphism_count`).
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from typing import Iterator, Sequence

from .errors import InputError, InternalError, decimals, integers

# Largest |A| that a group may have.
DEFAULT_SIZE_CAP = 64
# AutomorphismGroup memoises at most _COMPOSE_MEMO_CAP products (and as many
# inverses) and at most _MEMBER_MEMO_CAP members.
_COMPOSE_MEMO_CAP = 1 << 16
_MEMBER_MEMO_CAP = 1 << 12

def parse_group_spec(spec: str) -> tuple[int, ...]:
    """Parse a comma-separated factor-order string such as ``"2,2"`` or ``"4"``."""
    parts = [p.strip() for p in spec.split(",")]
    try:
        return tuple(decimals(parts))
    except ValueError:
        raise InputError(f"bad group spec {spec!r}: expected comma-separated integers") from None


class AbelianGroup:
    """Direct sum ``Z_{n_1} x ... x Z_{n_k}`` with 0-based element indices.

    Addition, negation and element orders are precomputed tables
    (``add_table``, ``neg_table``, ``element_orders``), read directly.
    """

    __slots__ = ("orders", "size", "_strides", "add_table", "neg_table", "element_orders")

    def __init__(self, orders: Sequence[int]):
        orders = integers(orders, "cyclic factor order")
        if not orders:
            raise InputError("group needs at least one cyclic factor")
        for n in orders:
            if n < 2:
                raise InputError(f"cyclic factor order must be >= 2, got {n}")
        size = math.prod(orders)
        if size > DEFAULT_SIZE_CAP:
            raise InputError(f"group size {size} exceeds the size cap {DEFAULT_SIZE_CAP}")
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
        residues = integers(residues, "residue")
        return sum((r % n) * s for r, n, s in zip(residues, self.orders, self._strides))

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


def make_group(orders: Sequence[int]) -> AbelianGroup:
    """Build a validated group from a list of cyclic factor orders."""
    return AbelianGroup(orders)


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


class AutomorphismGroup:
    """Aut(A) in canonical order, as a lazy view: members are ranked and
    unranked from their generator images, never listed.  A member is its
    image table, validated as it is unranked; ``index_of`` validates a table
    before it ranks it.

    The canonical order is load-bearing: cocycle files reference automorphisms
    by their index in it.  It is the lexicographic order of the image tables,
    which is the lexicographic order of the generator images taken as
    (e_k, ..., e_1), so the identity is member 0.

    Ranking.  Choose the generator images in that order.  After t choices the
    table is fixed on the subgroup H they generate (the indices below the next
    generator's index).  Such a prefix extends to an automorphism exactly when
    the table is injective on H and its image S is pure, ``nA & S == nS`` for
    every prime power n dividing the exponent of A: H is a direct summand, an
    automorphism maps it onto a summand, and a summand is pure; conversely a
    pure S is a summand, and its complement is isomorphic to that of H by
    cancellation, so the map extends.  The automorphisms extending a prefix
    form a coset of the pointwise stabiliser of H, so their number does not
    depend on the prefix: it is the product of the later per-step counts
    N_t of extendable images, each taken under the identity prefix.  Hence

        rank(f) = sum_t (position of f's t-th image among the extendable
                         images at its prefix) * prod_{t' > t} N_t'.

    The constructor raises ``InternalError`` unless the N_t multiply to
    |Aut(A)| from :func:`automorphism_count`.  The extendable
    images are memoised per prefix (at most one entry per internal node of the
    search tree) and per image subgroup, and members per index up to
    ``_MEMBER_MEMO_CAP``.

    The index algebra is ``products`` and ``inverses``: ``products[i][j]`` is
    the index of member i after member j and ``inverses[i]`` that of the
    inverse of member i, each ranked on first read from the generator images
    of the product or inverse.  Both are :class:`_Memo`, as are the rows
    ``products[i]``; every caller indexes ``products[i][j]``, a row lookup
    and an entry lookup per product.  The rows share one budget of
    ``_COMPOSE_MEMO_CAP`` products; the ``products`` memo counts no row
    against it but keeps none once it is spent.  ``compose_indices`` and
    ``invert_index`` read the same memos.
    """

    __slots__ = ("group", "identity_index", "products", "inverses", "_count", "_generators",
                 "_orders", "_of_order", "_purity", "_weights", "_by_prefix", "_by_image",
                 "_members", "__weakref__")

    def __init__(self, group: AbelianGroup):
        self.group = group
        self.identity_index = 0
        self._count = count = automorphism_count(group)
        # choice order e_k, ..., e_1: the generator indices ascending
        self._generators = tuple(reversed(group._strides))
        self._orders = tuple(reversed(group.orders))
        self._of_order = tuple(
            tuple(a for a, order in enumerate(group.element_orders) if order == n)
            for n in self._orders
        )
        self._purity = tuple(_purity_tests(group))
        self._by_prefix: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._by_image: dict[frozenset[int], tuple[int, ...]] = {}
        # the memos compute through a proxy, so no cycle holds a dropped group
        me, cls = weakref.proxy(self), AutomorphismGroup
        self._members = _Memo(partial(cls._member, me), [0, _MEMBER_MEMO_CAP])
        self.products = _Memo(partial(cls._product_row, me), [0, _COMPOSE_MEMO_CAP], 0)
        self.inverses = _Memo(partial(cls._inverse, me), [0, _COMPOSE_MEMO_CAP])
        counts = [len(self._extendable(self._generators[:t]))
                  for t in range(len(self._generators))]
        if math.prod(counts) != count:
            raise InternalError(f"per-step counts {counts} give {math.prod(counts)} "
                                f"automorphisms, closed form gives {count}")
        self._weights = tuple(math.prod(counts[t + 1:]) for t in range(len(counts)))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._members[i]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(self._unrank, range(self._count))

    def index_of(self, table: Sequence[int]) -> int:
        """Canonical index of the automorphism with image table ``table``;
        ``InputError`` unless the table is an automorphism of the group."""
        table = integers(table, "automorphism table entry")
        _validate_automorphism(self.group, table)
        try:
            return self._rank(tuple(table[e] for e in self._generators))
        except ValueError:
            raise InternalError(f"automorphism {list(table)} has no rank") from None

    def compose_indices(self, i: int, j: int) -> int:
        """Canonical index of member i after member j: ``products[i][j]``."""
        return self.products[i][j]

    def invert_index(self, i: int) -> int:
        """Canonical index of the inverse of member i: ``inverses[i]``."""
        return self.inverses[i]

    def _member(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self._count:
            raise IndexError(f"automorphism index {i} out of range 0..{self._count - 1}")
        return self._unrank(i)

    def _product_row(self, i: int) -> "_Memo":
        """Row i of ``products``; ``self`` is the group's proxy."""
        return _Memo(partial(AutomorphismGroup._product, self, self[i]),
                     self.products.budget)

    def _product(self, table: tuple[int, ...], j: int) -> int:
        """Index of the member with image table ``table`` after member j."""
        ht = self[j]
        return self._rank(tuple(table[ht[e]] for e in self._generators))

    def _inverse(self, i: int) -> int:
        table = self[i]
        return self._rank(tuple(table.index(e) for e in self._generators))

    def _extendable(self, images: tuple[int, ...]) -> tuple[int, ...]:
        """Images for the next generator, ascending, with which the prefix
        ``images`` still extends to an automorphism.  They depend on the
        prefix only through the image of the subgroup it fixes, so prefixes
        with one image share an entry."""
        found = self._by_prefix.get(images)
        if found is None:
            image = self._table(images)
            key = frozenset(image)
            found = self._by_image.get(key)
            if found is None:
                t = len(images)
                found = self._by_image[key] = tuple(
                    g for g in self._of_order[t] if self._extends(image, g, self._orders[t]))
            self._by_prefix[images] = found
        return found

    def _extends(self, image: list[int], g: int, n: int) -> bool:
        """Whether S + <g> has |S| * n elements and is pure, for S the
        subgroup listed by ``image`` and g of order n."""
        extended = _extend(self.group.add_table, image, g, n)
        span = set(extended)
        return len(span) == len(extended) and all(
            multiples & span == {times[s] for s in span} for times, multiples in self._purity
        )

    def _table(self, images: tuple[int, ...]) -> list[int]:
        """The table on the subgroup generated by the first len(images)
        generators, which ``images`` send to their images."""
        table = [0]
        for g, n in zip(images, self._orders):
            table = _extend(self.group.add_table, table, g, n)
        return table

    def _rank(self, images: tuple[int, ...]) -> int:
        """Canonical index of the automorphism with these generator images;
        ValueError when they extend to none."""
        return sum(self._extendable(images[:t]).index(g) * w
                   for t, (g, w) in enumerate(zip(images, self._weights)))

    def _unrank(self, i: int) -> tuple[int, ...]:
        images: tuple[int, ...] = ()
        for w in self._weights:
            digit, i = divmod(i, w)
            images += (self._extendable(images)[digit],)
        table = tuple(self._table(images))
        _validate_automorphism(self.group, table)
        return table


class _Memo(dict):
    """A dict that computes a missing entry as ``compute(key)`` and keeps it
    while ``budget``, a ``[kept, cap]`` list that memos may share, has room;
    each entry kept adds ``weight`` to ``kept``.  Past the cap entries are
    still answered, only not kept.  Hits are plain dict reads."""

    __slots__ = ("compute", "budget", "weight")

    def __init__(self, compute, budget: list[int], weight: int = 1):
        self.compute = compute
        self.budget = budget
        self.weight = weight

    def __missing__(self, key):
        value = self.compute(key)
        budget = self.budget
        if budget[0] < budget[1]:
            self[key] = value
            budget[0] += self.weight
        return value


def _extend(add, table: list[int], g: int, n: int) -> list[int]:
    """``table`` on a subgroup H extended to H + <e>, for the generator e of
    order n after H, by e -> g: entry m*|H| + r is m*g + table[r]."""
    out = list(table)
    multiple = 0
    for _ in range(n - 1):
        multiple = add[multiple][g]
        row = add[multiple]
        out += [row[v] for v in table]
    return out


def _purity_tests(group: AbelianGroup) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
    """``(a -> n*a, nA)`` for each prime power n dividing the exponent."""
    for p, e in _prime_powers(max(group.element_orders)):
        for i in range(1, e + 1):
            n = p**i
            times = tuple(group.index_of([n * r for r in group.tuple_of(a)])
                          for a in range(group.size))
            yield times, frozenset(times)


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


@lru_cache(maxsize=16)
def enumerate_automorphisms(group: AbelianGroup) -> AutomorphismGroup:
    """Aut(A) for a finite abelian group A, as a view in canonical order.

    Members are ranked and unranked on demand (see
    :class:`AutomorphismGroup`), and each image table handed out is
    validated; the per-step counts must multiply to
    :func:`automorphism_count`.  It lists no members, so it refuses no
    |Aut(A)|; |A| is bounded by ``DEFAULT_SIZE_CAP`` when the group is made.
    """
    return AutomorphismGroup(group)
