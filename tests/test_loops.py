import collections
import itertools

import pytest

from loopext.errors import InputError, PreconditionError, StructureError
from loopext.catalog import bundled_corpus
from loopext.loops import (
    first_inverse_mismatch,
    first_lip_counterexample,
    first_rip_counterexample,
    is_normal_subloop,
    make_loop,
    quotient_loop,
)
from reference import exhaustive_iota, left_div, opposite_loop, right_div

CORPUS = ["trivial", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
          "klein", "ip7", "ip8", "lip_only", "mismatch"]


class TestMakeLoop:
    def test_trivial(self):
        assert make_loop([[0]]).size == 1

    def test_z2(self):
        loop = make_loop([[0, 1], [1, 0]])
        assert loop.table[1][1] == 0

    def test_repeated_entry_rejected(self):
        with pytest.raises(StructureError, match="row 1"):
            make_loop([[0, 1], [1, 1]])

    def test_bad_column_rejected(self):
        with pytest.raises(StructureError):
            make_loop([[0, 1, 2], [1, 2, 0], [2, 1, 0]])

    def test_first_bad_column_named(self):
        # every row is a permutation; columns 2 and 3 repeat an entry
        with pytest.raises(StructureError,
                           match=r"^column 2 is not a permutation of 0\.\.3$") as caught:
            make_loop([[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]])
        assert caught.value.index == 2

    def test_identity_position(self):
        with pytest.raises(StructureError,
                           match="^row 0 is not the identity permutation$") as caught:
            make_loop([[1, 0], [0, 1]])
        assert (caught.value.index, caught.value.axis) == (0, "row")
        with pytest.raises(StructureError,
                           match="^column 0 is not the identity permutation$") as caught:
            make_loop([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
        assert (caught.value.index, caught.value.axis) == (0, "column")

    def test_ragged_rejected(self):
        with pytest.raises(StructureError):
            make_loop([[0, 1], [1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(StructureError):
            make_loop([[0, 2], [2, 0]])

    def test_non_integer_entry_rejected(self):
        # refused, not truncated to Z2; bools are ints and pass
        for entry in (0.5, 0.0, "0"):
            with pytest.raises(InputError, match="^loop table entry is not an integer: "):
                make_loop([[0, 1], [1, entry]])
        loop = make_loop([[False, True], [True, False]])
        assert loop.table == ((0, 1), (1, 0)) and type(loop.table[1][0]) is int


class TestDivisions:
    """Every corpus table has unique divisions; they are found by scanning a
    row or a column, as the library keeps no division tables."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_division_identities(self, loops, name):
        loop = loops[name]
        for x in range(loop.size):
            for y in range(loop.size):
                assert loop.table[x][left_div(loop, x, y)] == y
                assert loop.table[right_div(loop, x, y)][y] == x
                assert right_div(loop, loop.table[x][y], y) == x
                assert left_div(loop, x, loop.table[x][y]) == y

    def test_identity_divisions(self, loops):
        loop = loops["z5"]
        for y in range(loop.size):
            assert left_div(loop, 0, y) == y

    def test_z4_values(self, loops):
        z4 = loops["z4"]
        assert left_div(z4, 1, 0) == 3
        assert z4.left_inverse(1) == 3
        assert z4.right_inverse(1) == 3

    @pytest.mark.parametrize("name", CORPUS)
    def test_self_division_is_identity(self, loops, name):
        # z*x = x forces z = e because right translation by x is a bijection
        loop = loops[name]
        for x in range(loop.size):
            assert right_div(loop, x, x) == 0
            assert left_div(loop, x, x) == 0

    @pytest.mark.parametrize("name", CORPUS)
    def test_left_inverse_law(self, loops, name):
        loop = loops[name]
        for x in range(loop.size):
            assert loop.table[loop.left_inverse(x)][x] == 0
            assert loop.table[x][loop.right_inverse(x)] == 0
        assert loop.left_inverse(0) == 0

    def test_index_validation(self, loops):
        with pytest.raises(InputError):
            loops["z4"].left_inverse(4)
        with pytest.raises(InputError):
            loops["z4"].right_inverse(-1)


class TestProperties:
    def test_groups_have_ip(self, loops):
        for name in ("z2", "z4", "z5", "klein", "z8"):
            report = loops[name].properties()
            assert report.has_ip and report.has_lip and report.has_rip
            assert report.two_sided_inverses_coincide
            assert not report.has_order3_element

    def test_z3_order3(self, loops):
        report = loops["z3"].properties()
        assert report.has_ip
        assert report.has_order3_element  # 1 + 1 = 2 = -1 (mod 3)

    def test_z6_order3(self, loops):
        assert loops["z6"].properties().has_order3_element

    def test_klein_self_inverse(self, loops):
        report = loops["klein"].properties()
        assert report.inverse_map == (0, 1, 2, 3)
        assert not report.has_order3_element

    @pytest.mark.parametrize("name", CORPUS)
    def test_flag_invariants(self, loops, name):
        report = loops[name].properties()
        assert report.has_ip == (report.has_lip and report.has_rip)
        if report.has_lip or report.has_rip:
            assert report.two_sided_inverses_coincide

    @pytest.mark.parametrize("name", CORPUS)
    def test_exhaustive_iota_agrees(self, loops, name):
        loop = loops[name]
        default = loop.properties()
        assert default.has_lip == (exhaustive_iota(loop) is not None)
        assert default.has_rip == (exhaustive_iota(opposite_loop(loop)) is not None)

    def test_order3_undefined_without_coincidence(self, loops):
        report = loops["mismatch"].properties()
        assert not report.two_sided_inverses_coincide
        assert report.inverse_map is None
        with pytest.raises(PreconditionError, match="^order-3 elements are undefined: "
                           "left and right inverses do not coincide$"):
            report.has_order3_element

    def test_counterexamples_replay(self, loops):
        loop = loops["lip_only"]
        assert first_lip_counterexample(loop) is None
        witness = first_rip_counterexample(loop)
        assert witness is not None
        x, y = witness
        iota = loop.left_inverse(x)
        assert loop.table[loop.table[y][x]][iota] != y
        mismatch = first_inverse_mismatch(loops["mismatch"])
        assert loops["mismatch"].left_inverse(mismatch) != loops["mismatch"].right_inverse(mismatch)


class TestOpposite:
    def test_commutative_fixed(self, loops):
        for name in ("z4", "klein", "z7"):
            assert opposite_loop(loops[name]) == loops[name]

    @pytest.mark.parametrize("name", CORPUS)
    def test_involution(self, loops, name):
        loop = loops[name]
        assert opposite_loop(opposite_loop(loop)) == loop

    def test_lip_only_swaps(self, loops):
        loop = loops["lip_only"]
        report = loop.properties()
        assert report.has_lip and not report.has_rip
        opposite = opposite_loop(loop).properties()
        assert opposite.has_rip and not opposite.has_lip

    @pytest.mark.parametrize("name", CORPUS)
    def test_lip_rip_duality(self, loops, name):
        loop = loops[name]
        opposite = opposite_loop(loop)
        assert loop.properties().has_lip == opposite.properties().has_rip
        assert loop.properties().has_rip == opposite.properties().has_lip


class TestEqualityAndHash:
    @pytest.mark.parametrize("name", CORPUS)
    def test_equal_tables_are_one_set_member(self, loops, name):
        loop = loops[name]
        copy = make_loop([list(row) for row in loop.table])
        assert copy is not loop
        assert copy == loop and hash(copy) == hash(loop)
        assert len({loop, copy}) == 1

    def test_different_tables_are_unequal(self, loops):
        assert loops["z4"] != loops["klein"]
        assert loops["lip_only"] != opposite_loop(loops["lip_only"])
        assert len({loops["z4"], loops["klein"], make_loop(loops["z4"].table)}) == 2

    def test_other_types_are_not_implemented(self, loops):
        assert loops["klein"].__eq__(1) is NotImplemented
        assert (loops["klein"] == 1) is False


def test_reprs(loops):
    assert repr(loops["klein"]) == "FiniteLoop(size=4)"
    assert repr(loops["ip7"].properties()) == (
        "LoopPropertyReport(lip=True, rip=True, ip=True, coincide=True, order3=True)")
    assert repr(loops["mismatch"].properties()) == (
        "LoopPropertyReport(lip=False, rip=False, ip=False, coincide=False, order3=undefined)")


def reference_rip_scan(loop, iota=None):
    """Direct column scan for the first (x, y) with (y*x)*iota(x) != y."""
    t = loop.table
    if iota is None:
        iota = [loop.left_inverse(x) for x in range(loop.size)]
    for x in range(loop.size):
        ix = iota[x]
        for y in range(loop.size):
            if t[t[y][x]][ix] != y:
                return (x, y)
    return None


class TestRipScanDuality:
    """The RIP scan checks the LIP law of the opposite loop, one column of
    the table at a time, cell by cell; its witnesses must be those of a
    direct scan of the original table."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_witnesses(self, loops, name):
        loop = loops[name]
        assert first_rip_counterexample(loop) == reference_rip_scan(loop)

    @pytest.mark.parametrize("name,group", [
        ("z4", "z3"), ("klein", "z3"), ("ip8", "z3"), ("lip_only", "z3"),
        ("mismatch", "z2xz2"), ("z5", "z4"),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_extension_witnesses(self, loops, groups, name, group, seed):
        from loopext.constructions import ChoiceSource, random_cocycle
        from loopext.extension import build_extension

        cocycle = random_cocycle(loops[name], groups[group], ChoiceSource(seed))
        built = build_extension(cocycle)[0]
        assert first_rip_counterexample(built) == reference_rip_scan(built)

    def test_relabeled_mismatch_witnesses(self, loops):
        # some relabelings put an element with distinct left and right
        # inverses first; there the default left-inverse map decides the witness
        base = loops["mismatch"]
        sensitive = 0
        for perm in itertools.permutations(range(1, base.size)):
            label = (0,) + perm
            back = {v: i for i, v in enumerate(label)}
            loop = make_loop([[label[base.table[back[x]][back[y]]] for y in range(base.size)]
                              for x in range(base.size)])
            assert first_rip_counterexample(loop) == reference_rip_scan(loop)
            right = [loop.right_inverse(x) for x in range(loop.size)]
            sensitive += reference_rip_scan(loop) != reference_rip_scan(loop, right)
        assert sensitive

    def test_constructed_lip_extension_witness(self, loops, groups):
        from loopext.constructions import ChoiceSource, construct_lip_cocycle
        from loopext.extension import build_extension

        built = build_extension(
            construct_lip_cocycle(loops["klein"], groups["z3"], ChoiceSource(7)))[0]
        witness = first_rip_counterexample(built)
        assert witness is not None
        assert witness == reference_rip_scan(built)


def reference_lip_scan(loop):
    """Direct cell scan for the first (x, y) with (e/x)*(x*y) != y."""
    t = loop.table
    for x in range(loop.size):
        ix = loop.left_inverse(x)
        for y in range(loop.size):
            if t[ix][t[x][y]] != y:
                return (x, y)
    return None


class TestLipRowScan:
    """The LIP scan checks whole rows and scans cells only in the first
    failing row; its witnesses must be those of a cell-by-cell scan."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_witnesses(self, loops, name):
        loop = loops[name]
        assert first_lip_counterexample(loop) == reference_lip_scan(loop)

    @pytest.mark.parametrize("name,group", [
        ("z4", "z3"), ("klein", "z3"), ("ip8", "z3"), ("lip_only", "z3"),
        ("mismatch", "z2xz2"), ("z5", "z4"),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_extension_witnesses(self, loops, groups, name, group, seed):
        from loopext.constructions import ChoiceSource, random_cocycle
        from loopext.extension import build_extension

        cocycle = random_cocycle(loops[name], groups[group], ChoiceSource(seed))
        built = build_extension(cocycle)[0]
        assert first_lip_counterexample(built) == reference_lip_scan(built)

    def test_constructed_rip_extension_witness(self, loops, groups):
        from loopext.constructions import ChoiceSource, construct_rip_cocycle
        from loopext.extension import build_extension

        built = build_extension(
            construct_rip_cocycle(loops["klein"], groups["z3"], ChoiceSource(7)))[0]
        witness = first_lip_counterexample(built)
        assert witness is not None
        assert witness == reference_lip_scan(built)


def reference_associative(loop):
    """Associativity by its definition, cell by cell."""
    r = range(loop.size)
    return all(loop.table[loop.table[x][y]][z] == loop.table[x][loop.table[y][z]]
               for x in r for y in r for z in r)


class TestAssociativity:
    """``is_associative`` compares whole rows; its verdicts must be those of
    the cell-by-cell definition."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, loops, name):
        loop = loops[name]
        assert loop.is_associative() == reference_associative(loop)

    def test_corpus_has_both_verdicts(self, loops):
        assert {loops[name].is_associative() for name in CORPUS} == {True, False}

    @pytest.mark.parametrize("name,group", [
        ("z4", "z3"), ("klein", "z2xz2"), ("ip7", "z2"), ("z3", "z4"),
    ])
    @pytest.mark.parametrize("strongly_linear", [False, True])
    def test_extensions(self, loops, groups, name, group, strongly_linear):
        from loopext.constructions import ChoiceSource, random_cocycle
        from loopext.extension import build_extension

        cocycle = random_cocycle(loops[name], groups[group], ChoiceSource(1),
                                 strongly_linear=strongly_linear)
        built = build_extension(cocycle)[0]
        assert built.is_associative() == reference_associative(built)

    def test_untwisted_extension_is_a_group(self, loops, groups):
        # the identity cocycle over Z4 gives the group Z4 x Z3
        from loopext.extension import build_extension, make_cocycle

        cocycle = make_cocycle(loops["z4"], groups["z3"], [[0] * 4] * 4, [[0] * 4] * 4)
        assert build_extension(cocycle)[0].is_associative()


def reference_normality(loop, members):
    """Normality by its definition, cell by cell: ("normal", quotient rows)
    or the first clause that fails ("overlap", "nx" or "product", None)."""
    elements = range(loop.size)
    left = {x: frozenset(loop.table[x][n] for n in members) for x in elements}
    classes = sorted(set(left.values()), key=min)
    if sum(map(len, classes)) != loop.size:
        return "overlap", None
    if any(frozenset(loop.table[n][x] for n in members) != left[x] for x in elements):
        return "nx", None
    label = {x: classes.index(left[x]) for x in elements}
    table = {}
    for x in elements:
        for y in elements:
            cell = label[x], label[y]
            if table.setdefault(cell, label[loop.table[x][y]]) != label[loop.table[x][y]]:
                return "product", None
    return "normal", [[table[a, b] for b in range(len(classes))] for a in range(len(classes))]


def s3_loop():
    """The symmetric group on three points, permutations in ascending order."""
    perms = sorted(itertools.permutations(range(3)))
    return make_loop([[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms])


def product_closed_subsets(loop):
    """Every set of elements that holds 0 and is closed under products."""
    for k in range(loop.size):
        for rest in itertools.combinations(range(1, loop.size), k):
            members = {0, *rest}
            if all(loop.table[x][y] in members for x in members for y in members):
                yield members


def assert_matches_reference(loop, members):
    verdict, rows = reference_normality(loop, members)
    assert is_normal_subloop(loop, members) == (verdict == "normal")
    if rows is None:
        with pytest.raises(InputError, match="^cannot form quotient: subloop is not normal$"):
            quotient_loop(loop, members)
    else:
        assert quotient_loop(loop, members) == make_loop(rows)
    return verdict


class TestNormality:
    def test_trivial_subloops(self, loops):
        for name in ("z4", "klein", "ip7"):
            loop = loops[name]
            assert is_normal_subloop(loop, {0})
            assert is_normal_subloop(loop, set(range(loop.size)))

    def test_z4_halving(self, loops):
        z4 = loops["z4"]
        assert is_normal_subloop(z4, {0, 2})
        assert quotient_loop(z4, {0, 2}) == loops["z2"]

    def test_quotient_by_identity(self, loops):
        z4 = loops["z4"]
        assert quotient_loop(z4, {0}) == z4

    def test_not_a_subloop(self, loops):
        with pytest.raises(InputError):
            is_normal_subloop(loops["z4"], {0, 1})
        with pytest.raises(InputError):
            is_normal_subloop(loops["z4"], {1, 2})

    def test_non_normal_subloop(self, loops):
        # {0, 1, 2} is closed in the bundled order-7 loop but 3 does not
        # divide 7, so its cosets cannot partition the loop.
        ip7 = loops["ip7"]
        members = {0, 1, 2}
        for x in members:
            for y in members:
                assert ip7.table[x][y] in members
        assert not is_normal_subloop(ip7, members)
        with pytest.raises(InputError, match="^cannot form quotient: subloop is not normal$"):
            quotient_loop(ip7, members)

    def test_product_closure_implies_division_closure(self, loops):
        # reference for _validate_subloop, which checks products only
        corpus = [*bundled_corpus().values(), loops["lip_only"], loops["mismatch"]]
        closed_sets = 0
        for loop in corpus:
            for members in product_closed_subsets(loop):
                closed_sets += 1
                for x in members:
                    for y in members:
                        assert left_div(loop, x, y) in members
                        assert right_div(loop, x, y) in members
                is_normal_subloop(loop, members)  # accepted as a subloop
        assert closed_sets > len(corpus) * 2

    def test_klein_subgroup_quotient(self, loops):
        klein = loops["klein"]
        assert is_normal_subloop(klein, {0, 3})
        assert quotient_loop(klein, {0, 3}) == loops["z2"]

    def test_every_closed_subset(self, loops):
        corpus = [*bundled_corpus().values(), loops["lip_only"], loops["mismatch"], s3_loop()]
        verdicts = collections.Counter(
            assert_matches_reference(loop, members)
            for loop in corpus for members in product_closed_subsets(loop))
        assert verdicts == {"normal": 45, "overlap": 9, "nx": 6}

    def test_well_definedness_alone_fails(self):
        # the first table of catalog._complete_loop(8) whose subloop {0, 1}
        # has disjoint left cosets and Nx = xN for every x, but products of
        # cosets that are not well defined (no loop of order 6 has such a
        # subloop)
        rows = ("01234567", "10325476", "23016745", "32107654",
                "45670123", "54761230", "67452301", "76543012")
        loop = make_loop([[int(c) for c in row] for row in rows])
        assert assert_matches_reference(loop, {0, 1}) == "product"


# (table, exception type, exact message) of each make_loop refusal that no other
# test reaches
REFUSALS = {
    "no-rows": ([], StructureError, "loop table must have at least one row"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    table, error, message = REFUSALS[case]
    with pytest.raises(error) as caught:
        make_loop(table)
    assert type(caught.value) is error
    assert str(caught.value) == message
