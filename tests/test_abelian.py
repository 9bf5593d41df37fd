import gc
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from loopext import abelian
from loopext.abelian import (
    AutomorphismGroup,
    automorphism_count,
    enumerate_automorphisms,
    make_group,
    parse_group_spec,
)
from loopext.cli import AUT_ORDER_CAP, main
from loopext.errors import InputError, InternalError
from reference import compose, identity, invert


def brute_force_automorphism_tables(group):
    """Independent oracle: try every permutation of the elements fixing 0 and
    keep the additive ones."""
    n = group.size
    add = group.add_table
    found = []
    for perm in itertools.permutations(range(1, n)):
        table = (0,) + perm
        if all(
            table[add[i][j]] == add[table[i]][table[j]]
            for i in range(n)
            for j in range(n)
        ):
            found.append(table)
    return sorted(found)


def reference_automorphism_tables(group):
    """Reference order: depth-first search over the generator images, taken
    as (e_k, ..., e_1).

    After choosing the images of e_k..e_{j+1}, the table is filled on the
    subgroup they generate, which is the index range ``0..s_j - 1`` with s_j
    the index of e_j.  An image g for e_j must have order exactly n_j; it
    extends the table by ``table[m*s_j + r] = m*g + table[r]`` for
    m = 1..n_j-1, and the branch is pruned at the first value that repeats.
    Index s_j is the first entry that depends on g, so taking candidates in
    increasing order yields the tables in lexicographic order.
    """
    add = group.add_table
    orders, strides = group.orders, group._strides
    candidates = [[a for a in range(group.size) if group.element_orders[a] == n] for n in orders]
    table = [0] * group.size
    used = [False] * group.size
    used[0] = True

    def extend(j):
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

    return list(extend(len(orders) - 1))


def ordered_specs(limit=64, prefix=()):
    """Every tuple of factor orders >= 2 whose product is at most ``limit``."""
    if prefix:
        yield prefix
    for n in range(2, limit // math.prod(prefix) + 1):
        yield from ordered_specs(limit, prefix + (n,))


class TestMakeGroup:
    def test_sizes(self):
        assert make_group([2, 2]).size == 4
        assert make_group([3]).size == 3
        assert make_group([4, 2]).size == 8

    def test_empty_orders_rejected(self):
        with pytest.raises(InputError):
            make_group([])

    def test_small_order_rejected(self):
        with pytest.raises(InputError):
            make_group([1])
        with pytest.raises(InputError):
            make_group([3, 0])

    def test_non_integer_order_rejected(self):
        # refused, not truncated to Z2
        for order in (2.9, 2.0, "2"):
            with pytest.raises(InputError, match="^cyclic factor order is not an integer: "):
                make_group([order])
        assert make_group([2, 3]).orders == (2, 3)

    def test_cap(self):
        assert make_group([64]).size == 64
        with pytest.raises(InputError, match="exceeds the size cap 64"):
            make_group([2] * 7)

    def test_repr_and_equality(self):
        assert repr(make_group([2, 4])) == "AbelianGroup([2, 4])"
        assert make_group([2, 4]) == make_group([2, 4]) != make_group([4, 2])
        assert make_group([2]).__eq__(1) is NotImplemented
        assert (make_group([2]) == 1) is False

    def test_spec_string(self):
        assert parse_group_spec("2,2") == (2, 2)
        assert parse_group_spec("4") == (4,)
        with pytest.raises(InputError):
            parse_group_spec("2,,2")
        with pytest.raises(InputError):
            parse_group_spec("abc")


class TestArithmetic:
    def test_z4_inverse_pair(self):
        g = make_group([4])
        assert g.add_table[1][3] == 0

    def test_klein_componentwise(self):
        g = make_group([2, 2])
        a = g.index_of((1, 0))
        b = g.index_of((0, 1))
        assert g.tuple_of(g.add_table[a][b]) == (1, 1)

    def test_z3(self):
        g = make_group([3])
        assert g.add_table[2][2] == 1

    def test_zero_and_neg(self):
        g = make_group([4, 2])
        for a in range(g.size):
            assert g.add_table[a][g.neg_table[a]] == 0

    def test_index_round_trip(self):
        g = make_group([3, 2, 2])
        for a in range(g.size):
            assert g.index_of(g.tuple_of(a)) == a

    def test_out_of_range(self):
        g = make_group([4])
        with pytest.raises(InputError):
            g.tuple_of(4)
        with pytest.raises(InputError):
            g.tuple_of(-1)

    def test_element_order_brute(self):
        g = make_group([4, 3])
        for a in range(g.size):
            acc, m = a, 1
            while acc != 0:
                acc = g.add_table[acc][a]
                m += 1
            assert g.element_orders[a] == m

    @given(st.sampled_from([(2,), (3,), (4,), (2, 2), (6,), (2, 3), (8,), (4, 2), (2, 2, 2)]),
           st.data())
    def test_group_laws(self, orders, data):
        g = make_group(orders)
        a = data.draw(st.integers(0, g.size - 1))
        b = data.draw(st.integers(0, g.size - 1))
        c = data.draw(st.integers(0, g.size - 1))
        assert g.add_table[a][b] == g.add_table[b][a]
        assert g.add_table[g.add_table[a][b]][c] == g.add_table[a][g.add_table[b][c]]
        assert g.add_table[a][0] == a


class TestEnumeration:
    @pytest.mark.parametrize("orders,count", [
        ((2,), 1),
        ((3,), 2),
        ((4,), 2),
        ((5,), 4),
        ((2, 2), 6),
        ((6,), 2),
        ((8,), 4),
        ((4, 2), 8),
    ])
    def test_counts_against_oracle(self, orders, count):
        group = make_group(list(orders))
        autgroup = enumerate_automorphisms(group)
        assert len(autgroup) == count
        oracle = brute_force_automorphism_tables(group)
        assert list(autgroup) == oracle

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_counts(self, p):
        autgroup = enumerate_automorphisms(make_group([p]))
        assert len(autgroup) == p - 1

    def test_members_valid(self):
        for orders in [(3,), (2, 2), (4, 2), (12,)]:
            group = make_group(list(orders))
            autgroup = enumerate_automorphisms(group)
            for i, table in enumerate(autgroup):
                assert type(table) is tuple
                assert autgroup.index_of(table) == i  # re-runs full validation
                assert table[0] == 0

    def test_closure(self, groups, autgroups):
        for name in ("z3", "z4", "z2xz2"):
            autgroup = autgroups[name]
            members = set(autgroup)
            for f in autgroup:
                assert invert(f) in members
                for h in autgroup:
                    assert compose(f, h) in members

    def test_canonical_order_stable(self):
        first = enumerate_automorphisms(make_group([2, 2]))
        second = enumerate_automorphisms(make_group([2, 2]))
        assert list(first) == list(second)
        tables = list(first)
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)

    def test_identity_is_member_zero(self, autgroups):
        for autgroup in autgroups.values():
            assert autgroup.identity_index == 0
            assert autgroup[0] == identity(autgroup.group)

    def test_cap(self):
        # |A| is bounded where the group is made; the enumeration bounds only
        # |Aut(A)|, and takes no size cap of its own
        assert len(enumerate_automorphisms(make_group([64]))) == 32
        with pytest.raises(TypeError):
            enumerate_automorphisms(make_group([2]), size_cap=128)

    def test_cache_bounded(self):
        assert enumerate_automorphisms.cache_info().maxsize == 16


class TestAutomorphismCount:
    @pytest.mark.parametrize("orders,count", [
        ((2, 2, 2, 2, 2), 9_999_360),
        ((2, 2, 2, 2, 4), 10_321_920),
        ((2, 2, 4, 4), 147_456),
        ((2, 2, 2, 2, 2, 2), 20_158_709_760),
        ((12,), 4),
        ((2, 6), 12),
    ])
    def test_known_values(self, orders, count):
        assert automorphism_count(make_group(orders)) == count

    def test_matches_enumeration(self):
        specs = [s for s in ordered_specs() if automorphism_count(make_group(s)) <= 2048]
        assert len(specs) > 350
        for orders in specs + [(2, 2, 2, 2), (3, 3, 3)]:
            group = make_group(orders)
            assert len(enumerate_automorphisms(group)) == automorphism_count(group), orders

    def test_refused_specs(self):
        refused = {tuple(sorted(s)) for s in ordered_specs()
                   if automorphism_count(make_group(s)) > AUT_ORDER_CAP}
        assert refused == {(2, 2, 2, 2, 2), (2, 2, 2, 2, 4), (2, 2, 2, 2, 2, 2)}

    @pytest.mark.parametrize("orders", [(2,) * 5, (2,) * 6, (4, 2, 2, 2, 2)])
    def test_refused_before_search(self, monkeypatch, capsys, orders):
        # only the aut listing is capped, and it refuses before Aut(A) is set up
        def view(group):
            raise AssertionError("Aut(A) was set up for a refused group")

        enumerate_automorphisms.cache_clear()
        monkeypatch.setattr(abelian, "AutomorphismGroup", view)
        assert main(["aut", "--group", ",".join(map(str, orders))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "exceeds cap 200000" in err


class TestRanking:
    """The view ranks and unranks in the order of the reference search."""

    def test_reference_order(self):
        specs = [s for s in ordered_specs() if automorphism_count(make_group(s)) <= 20160]
        assert len(specs) > 400
        for orders in specs:
            group = make_group(orders)
            autgroup = AutomorphismGroup(group)
            members = list(autgroup)
            reference = reference_automorphism_tables(group)
            assert members == reference, orders
            assert all(autgroup.index_of(t) == i for i, t in enumerate(members)), orders
            for i in range(0, len(members), 97):
                assert type(autgroup[i]) is tuple
                assert autgroup[i] == reference[i]

    def test_largest_admitted_group_sampled(self):
        group = make_group([2, 2, 4, 4])
        autgroup = enumerate_automorphisms(group)
        assert len(autgroup) == 147_456
        rng = random.Random(2007)
        picks = sorted({0, len(autgroup) - 1, *rng.sample(range(len(autgroup)), 200)})
        add = group.add_table
        tables = []
        for i in picks:
            t = autgroup[i]
            assert autgroup.index_of(t) == i  # re-runs full validation
            assert all(t[add[a][b]] == add[t[a]][t[b]] for a in range(64) for b in range(64))
            tables.append(t)
        assert tables[0] == tuple(range(64))
        assert all(a < b for a, b in zip(tables, tables[1:]))

    def test_no_member_list_built(self, monkeypatch, loops):
        from loopext.constructions import ChoiceSource, construct_ip_cocycle
        from loopext.verification import verify_cocycle

        validated = []
        validate = abelian._validate_automorphism

        def counting(group, table):
            validated.append(table)
            validate(group, table)

        monkeypatch.setattr(abelian, "_validate_automorphism", counting)
        group = make_group([2, 2, 2, 2])
        enumerate_automorphisms.cache_clear()  # a fresh view, none of its members made
        autgroup = enumerate_automorphisms(group)
        assert validated == []
        assert autgroup[5] is autgroup[5]
        assert validated == [autgroup[5]]
        cocycle = construct_ip_cocycle(loops["klein"], group, ChoiceSource(3))
        assert cocycle.autgroup is autgroup
        assert verify_cocycle(cocycle, mode="ip").passed
        # each member handed out is validated once, as it is unranked
        members = autgroup._members
        assert len(validated) == len(members) < 100  # of 20160 members
        assert sorted(validated) == sorted(members.values())
        small = AutomorphismGroup(make_group([2, 2]))
        del validated[:]
        assert list(small) == validated and len(validated) == 6

    def test_step_counts_checked_against_closed_form(self, monkeypatch):
        extendable = AutomorphismGroup._extendable
        monkeypatch.setattr(AutomorphismGroup, "_extendable",
                            lambda self, images: extendable(self, images)[:-1])
        group = make_group([2, 2])
        with pytest.raises(InternalError, match="closed form gives 6"):
            AutomorphismGroup(group)

    def test_unrankable_table_is_internal_error(self, monkeypatch):
        # index_of validates first, so a table it cannot rank is a fault of
        # the ranking, not of the input
        autgroup = AutomorphismGroup(make_group([2, 2]))
        last = autgroup[len(autgroup) - 1]
        monkeypatch.setattr(AutomorphismGroup, "_extendable", lambda self, images: ())
        with pytest.raises(InternalError, match="has no rank"):
            autgroup.index_of(last)

    def test_index_out_of_range(self, autgroups):
        autgroup = autgroups["z2xz2"]
        for i in (-1, 6):
            with pytest.raises(IndexError):
                autgroup[i]

    def test_dropped_group_needs_no_collector(self):
        # the members, products (and each row) and inverses memos compute
        # through no strong reference back to the group, so dropping an
        # exercised Aut(A) frees it without the cyclic collector
        gc.collect()
        gc.disable()
        try:
            autgroup = AutomorphismGroup(make_group([2, 2, 2]))
            n = len(autgroup)
            for i in range(n):
                assert autgroup.products[i][autgroup.inverses[i]] == autgroup.identity_index
                assert autgroup.products[i][n - 1 - i] == autgroup.compose_indices(i, n - 1 - i)
            assert autgroup[n - 1] == list(autgroup)[n - 1]
            del autgroup
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestComposeInvert:
    def test_identity_neutral(self, groups, autgroups):
        for name, autgroup in autgroups.items():
            ident = identity(groups[name])
            for f in autgroup:
                assert compose(ident, f) == f
                assert compose(f, ident) == f

    def test_negation_involution(self):
        autgroup = enumerate_automorphisms(make_group([3]))
        neg = autgroup[1]
        assert neg == (0, 2, 1)
        assert compose(neg, neg) == identity(autgroup.group)

    def test_inverse_composes_to_identity(self, autgroups):
        ident = identity(autgroups["z2xz2"].group)
        for f in autgroups["z2xz2"]:
            assert compose(invert(f), f) == ident
            assert compose(f, invert(f)) == ident

    def test_composition_order(self):
        # compose(f, h) applies h first; Aut(Z2xZ2) is non-abelian, so the
        # order is observable.
        autgroup = enumerate_automorphisms(make_group([2, 2]))
        f, h = autgroup[1], autgroup[2]
        fh = compose(f, h)
        assert fh == tuple(f[x] for x in h)
        assert fh != compose(h, f)

    def test_compose_memo_bounded(self, monkeypatch):
        monkeypatch.setattr(abelian, "_COMPOSE_MEMO_CAP", 10)
        monkeypatch.setattr(abelian, "_MEMBER_MEMO_CAP", 4)
        group = make_group([2, 2])
        autgroup = AutomorphismGroup(group)
        for i, f in enumerate(autgroup):
            for j, h in enumerate(autgroup):
                assert autgroup.compose_indices(i, j) == autgroup.index_of(compose(f, h))
        # all 36 products are answered, but only the first 10 are kept, and
        # no row is kept once the cap is reached
        assert sum(map(len, autgroup.products.values())) == 10
        assert autgroup.products.budget[0] == 10
        assert len(autgroup.products) == 2
        assert len(autgroup._members) == 4
        larger = AutomorphismGroup(make_group([3, 3]))
        for i, f in enumerate(larger):
            assert larger.invert_index(i) == larger.index_of(invert(f))
        assert len(larger.inverses) == 10

    def test_index_algebra_matches_object_algebra(self, autgroups):
        autgroup = autgroups["z2xz2"]
        for i, f in enumerate(autgroup):
            assert autgroup.invert_index(i) == autgroup.index_of(invert(f))
            for j, h in enumerate(autgroup):
                assert autgroup.compose_indices(i, j) == autgroup.index_of(compose(f, h))

    @pytest.mark.parametrize("orders", [(2, 2, 2), (3, 3)])
    def test_memos_match_object_algebra(self, orders):
        # Aut(Z2^3) = GL(3, 2) has 168 members and Aut(Z3 x Z3) = GL(2, 3)
        # 48: every pair, read straight from the memos
        autgroup = AutomorphismGroup(make_group(orders))
        members = list(autgroup)
        for i, f in enumerate(members):
            assert autgroup.inverses[i] == autgroup.index_of(invert(f))
            row = autgroup.products[i]
            for j, h in enumerate(members):
                assert row[j] == autgroup.index_of(compose(f, h))
        assert sum(map(len, autgroup.products.values())) == len(members) ** 2


class TestAutomorphismValidation:
    """``index_of`` validates the image table it is handed before it ranks it."""

    def test_not_a_permutation(self):
        autgroup = enumerate_automorphisms(make_group([3]))
        with pytest.raises(InputError, match="^automorphism table is not a permutation of the "
                                             "group elements$"):
            autgroup.index_of((0, 1, 1))

    def test_not_fixing_zero(self):
        autgroup = enumerate_automorphisms(make_group([3]))
        with pytest.raises(InputError, match="^automorphism does not fix the zero element$"):
            autgroup.index_of((1, 0, 2))

    def test_not_additive(self):
        autgroup = enumerate_automorphisms(make_group([4]))
        with pytest.raises(InputError, match=r"^map is not additive at \(1, 1\)$"):
            autgroup.index_of((0, 2, 1, 3))

    @pytest.mark.parametrize("orders", [(2, 2), (4,), (2, 4), (4, 2), (6,), (2, 3)])
    def test_generator_check_matches_full_check(self, orders):
        g = make_group(orders)
        autgroup = enumerate_automorphisms(g)
        n = g.size
        add = g.add_table
        for perm in itertools.permutations(range(1, n)):
            table = (0,) + perm
            additive = all(table[add[i][j]] == add[table[i]][table[j]]
                           for i in range(n) for j in range(n))
            try:
                autgroup.index_of(table)
            except InputError:
                accepted = False
            else:
                accepted = True
            assert accepted == additive, table


# (call, exception type, exact message) of each input refusal that no other
# test reaches
REFUSALS = {
    "index-of-short-tuple": (lambda: make_group([2, 3]).index_of((1,)), InputError,
                             "residue tuple has 1 entries, group has 2 factors"),
    "automorphism-short-table": (
        lambda: enumerate_automorphisms(make_group([3])).index_of((0, 2)), InputError,
        "automorphism table has 2 entries, group size is 3"),
    "index-of-float-entry": (
        lambda: enumerate_automorphisms(make_group([3])).index_of((0, 2.0, 1)), InputError,
        "automorphism table entry is not an integer: "
        "'float' object cannot be interpreted as an integer"),
    # an automorphism of Z4 handed to Aut(Z3)
    "index-of-foreign-automorphism": (
        lambda: enumerate_automorphisms(make_group([3])).index_of(
            enumerate_automorphisms(make_group([4]))[1]),
        InputError, "automorphism table has 4 entries, group size is 3"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
