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
from reference import exhaustive_iota, left_div, opposite_loop, right_div, unpacked

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
    the table at a time, read whole through column e/x; its witnesses must
    be those of a direct scan of the original table."""

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


def ill_defined_quotient_loop():
    """The first table of catalog._complete_loop(8) whose subloop {0, 1} has
    disjoint left cosets and Nx = xN for every x, but products of cosets
    that are not well defined."""
    rows = ("01234567", "10325476", "23016745", "32107654",
            "45670123", "54761230", "67452301", "76543012")
    return make_loop([[int(c) for c in row] for row in rows])


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
        # no loop of order 6 has such a subloop
        assert assert_matches_reference(ill_defined_quotient_loop(), {0, 1}) == "product"


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


def closed_subsets(loop):
    """Product-closed subsets of a small loop; of a large one, the chain of
    kernels {0..k-1} that are subloops."""
    if loop.size <= 8:
        return list(product_closed_subsets(loop))
    return [set(range(k)) for k in range(1, loop.size + 1)
            if loop.size % k == 0 and all(loop.table[x][y] < k for x in range(k) for y in range(k))]


@pytest.fixture(scope="module")
def packed_corpus(loops):
    """The corpus, the opposite of lip_only, two loops whose first
    non-normal verdict comes from the whole-row check (s3's {0, 1}, and a
    subloop whose coset products are ill defined), cyclic_loop(256), and at
    order 256 a LIP loop that is not RIP and a RIP loop that is not LIP."""
    from loopext.abelian import make_group
    from loopext.catalog import abelian_group_loop, cyclic_loop
    from loopext.constructions import ChoiceSource, construct_lip_cocycle, construct_rip_cocycle
    from loopext.extension import build_extension

    out = {name: loops[name] for name in CORPUS}
    out["rip_only"] = opposite_loop(loops["lip_only"])
    out["s3"], out["ill_defined"] = s3_loop(), ill_defined_quotient_loop()
    out["z256"] = cyclic_loop(256)
    base, group = abelian_group_loop([2] * 5), make_group((2, 2, 2))
    for name, construct in (("lip256", construct_lip_cocycle), ("rip256", construct_rip_cocycle)):
        out[name] = build_extension(construct(base, group, ChoiceSource(1)))[0]
    return out


class TestPackedTable:
    """A loop of order l <= 256 is held as ``bytes`` rows and every
    whole-line check reads them; each must agree with the tuple rows on
    every loop."""

    def test_packed_slot(self):
        from loopext.catalog import cyclic_loop

        z256 = make_loop(cyclic_loop(256).table)
        assert z256._rows == tuple(map(bytes, z256.table))
        assert all(type(row) is bytes for row in z256._rows)
        z257 = make_loop(cyclic_loop(257).table)
        assert z257._rows == z257.table and all(type(row) is tuple for row in z257._rows)

    def test_big_cases_fail_one_law(self, packed_corpus):
        lip256, rip256 = packed_corpus["lip256"], packed_corpus["rip256"]
        assert lip256.size == rip256.size == 256
        assert type(lip256._rows[0]) is bytes is type(rip256._rows[0])
        assert first_lip_counterexample(lip256) is None is not first_rip_counterexample(lip256)
        assert first_rip_counterexample(rip256) is None is not first_lip_counterexample(rip256)

    @pytest.mark.parametrize("name", [*CORPUS, "rip_only", "s3", "ill_defined", "z256", "lip256",
                                      "rip256"])
    def test_both_paths_agree(self, packed_corpus, name):
        from loopext.loops import LoopPropertyReport, _quotient_table, first_noncommuting_pair

        loop = packed_corpus[name]
        rows = unpacked(loop)
        assert all(type(row) is bytes for row in loop._rows)
        assert all(type(row) is tuple for row in rows._rows)
        assert first_lip_counterexample(loop) == first_lip_counterexample(rows)
        assert first_rip_counterexample(loop) == first_rip_counterexample(rows)
        assert first_noncommuting_pair(loop) == first_noncommuting_pair(rows)
        assert repr(LoopPropertyReport(loop)) == repr(LoopPropertyReport(rows))
        assert first_lip_counterexample(loop) == reference_lip_scan(loop)
        assert first_rip_counterexample(loop) == reference_rip_scan(loop)
        subsets = closed_subsets(loop)
        assert subsets
        for members in subsets:
            members = frozenset(members)
            assert _quotient_table(loop, members) == _quotient_table(rows, members)
            assert is_normal_subloop(loop, members) == is_normal_subloop(rows, members)


class TestRowContainer:
    """Above order 256 the table is held as row tuples: every scan reads its
    rows and a column view, and must match the cell-by-cell references."""

    @pytest.fixture(scope="class")
    def extensions(self):
        # abelian_group_loop([2] * 5) by Z3^2: N = 288, one past the bytes-row bound
        from loopext.abelian import make_group
        from loopext.catalog import abelian_group_loop
        from loopext.constructions import (ChoiceSource, construct_ip_cocycle,
                                           construct_lip_cocycle, construct_rip_cocycle,
                                           random_cocycle)
        from loopext.extension import build_extension

        base, group = abelian_group_loop([2] * 5), make_group((3, 3))
        construct = {"lip": construct_lip_cocycle, "rip": construct_rip_cocycle,
                     "ip": construct_ip_cocycle, "random": random_cocycle}
        return {mode: build_extension(make(base, group, ChoiceSource(1)))[0]
                for mode, make in construct.items()}

    @pytest.mark.parametrize("mode", ["lip", "rip", "ip", "random"])
    def test_scans_match_references(self, extensions, mode):
        from loopext.loops import _quotient_table, first_noncommuting_pair
        from reference import noncommuting_pair_by_rows, quotient_table

        ext = extensions[mode]
        assert ext.size == 288 and all(type(row) is tuple for row in ext._rows)
        lip, rip = first_lip_counterexample(ext), first_rip_counterexample(ext)
        assert lip == reference_lip_scan(ext) and rip == reference_rip_scan(ext)
        if mode != "random":  # each law is met and missed on some mode
            assert {"lip": (True, False), "rip": (False, True),
                    "ip": (True, True)}[mode] == (lip is None, rip is None)
        assert first_noncommuting_pair(ext) == noncommuting_pair_by_rows(ext)
        subsets = closed_subsets(ext)
        assert frozenset(range(9)) in map(frozenset, subsets)
        for members in subsets:
            assert _quotient_table(ext, frozenset(members)) == quotient_table(ext, members)

    def test_rip_scan_builds_no_transpose(self):
        # N = 512 held as rows: a RIP scan that holds to the end walks every
        # column and reads each through column e/x without keeping either
        import tracemalloc

        from loopext.abelian import make_group
        from loopext.catalog import abelian_group_loop
        from loopext.constructions import ChoiceSource, construct_rip_cocycle
        from loopext.extension import build_extension

        cocycle = construct_rip_cocycle(abelian_group_loop([2] * 6), make_group((2, 2, 2)),
                                        ChoiceSource(1))
        rows = build_extension(cocycle)[0].table
        tracemalloc.start()
        try:
            loop = make_loop(rows)
            table = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            witness = first_rip_counterexample(loop)
            scan = tracemalloc.get_traced_memory()[1] - table
        finally:
            tracemalloc.stop()
        assert loop.size == 512 and type(loop._rows[0]) is tuple and witness is None
        assert table > 2e6
        assert scan < table / 4, (scan, table)


def mutated(l, fault):
    """The table of cyclic_loop(l) with one fault (None: none), as lists."""
    rows = [[(x + y) % l for y in range(l)] for x in range(l)]
    if fault == "repeated":
        rows[1][2] = rows[1][3]
    elif fault and fault.startswith("entry="):
        rows[2][3] = int(fault[6:])
    elif fault == "short-row":
        rows[3].pop()
    elif fault == "long-row":
        rows[3].append(0)
    elif fault == "column-only":  # rows stay permutations, columns 2 and 3 do not
        rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
    elif fault == "identity-row":  # a Latin square whose row 0 is row 1
        rows[0], rows[1] = rows[1], rows[0]
    elif fault == "identity-column":  # row 0 stays, column 0 reads 0, 2, 1, ...
        rows[1], rows[2] = rows[2], rows[1]
    return rows


FAULTS = ["repeated", "entry=l", "entry=255", "entry=256", "entry=-1", "short-row",
          "long-row", "column-only", "identity-row", "identity-column"]


@pytest.mark.parametrize("l", [4, 255, 256, 257])
@pytest.mark.parametrize("fault", FAULTS)
def test_latin_faults_named_alike_packed_or_not(l, fault):
    # validate_table names each fault as the cell-by-cell reference does,
    # on bytes rows (l <= 256) and on tuple rows alike
    from loopext.loops import validate_table
    from reference import latin_defect

    sound, table = mutated(l, None), mutated(l, fault.replace("=l", f"={l}"))
    rows = validate_table(sound)[0]
    latin_defect(sound)
    assert all(type(row) is (bytes if l <= 256 else tuple) for row in rows)
    errors = []
    for check in (validate_table, latin_defect):
        with pytest.raises(StructureError) as caught:
            check(table)
        errors.append((str(caught.value), caught.value.index, caught.value.axis))
    assert errors[0] == errors[1]
    assert errors[0][2] == ("column" if fault in ("column-only", "identity-column") else "row")


class TestOneContainer:
    """A loop is its rows, in the container its order selects: ``bytes``
    rows exactly when l <= 256, else int tuples, however the loop was made;
    its columns come with them, in the same container."""

    @staticmethod
    def check(loop, cells):
        from loopext.loops import _Columns

        container = bytes if loop.size <= 256 else tuple
        assert len(loop._rows) == loop.size
        assert all(type(row) is container for row in loop._rows)
        columns = loop._columns
        if container is tuple:  # a view over the rows themselves, nothing kept
            assert type(columns) is _Columns and columns.rows is loop._rows
        assert all(type(columns[j]) is container for j in range(loop.size))
        assert all(type(column) is container for column in columns)
        assert list(map(tuple, columns)) == list(zip(*loop.table))
        assert [tuple(columns[j]) for j in range(loop.size)] == list(zip(*loop.table))
        assert loop.table == tuple(map(tuple, cells))
        remade = make_loop(loop.table)
        assert remade is not loop and remade == loop and hash(remade) == hash(loop)

    @pytest.mark.parametrize("l", [1, 256, 257])
    @pytest.mark.parametrize("source", ["make_loop", "loads_loop", "catalog", "quotient_loop"])
    def test_cyclic_loops(self, source, l):
        from loopext.catalog import cyclic_loop
        from loopext.fileio import dumps_loop, loads_loop

        cells = [[(x + y) % l for y in range(l)] for x in range(l)]
        if source == "make_loop":
            loop = make_loop(cells)
        elif source == "loads_loop":
            loop = loads_loop(dumps_loop(make_loop(cells)))
        elif source == "catalog":
            loop = cyclic_loop(l)
        else:  # Z_2l by {0, l}: the coset of x < l is labelled x
            loop = quotient_loop(cyclic_loop(2 * l), [0, l])
        self.check(loop, cells)

    @pytest.mark.parametrize("orders,n", [((2, 2, 2), 256), ((3, 3), 288)])
    def test_extensions(self, orders, n):
        from loopext.abelian import make_group
        from loopext.catalog import abelian_group_loop
        from loopext.constructions import ChoiceSource, random_cocycle
        from loopext.extension import build_extension
        from reference import extension_rows_by_cells

        cocycle = random_cocycle(abelian_group_loop([2] * 5), make_group(orders), ChoiceSource(3))
        ext = build_extension(cocycle)[0]
        assert ext.size == n
        self.check(ext, extension_rows_by_cells(cocycle))

    def test_commutativity_scan_builds_no_lines(self):
        # a fresh N = 256 extension holds its columns from birth, so the
        # first non-commuting pair reads them and builds no line of its own
        import tracemalloc

        from loopext.abelian import make_group
        from loopext.catalog import abelian_group_loop
        from loopext.constructions import ChoiceSource, random_cocycle
        from loopext.extension import build_extension
        from loopext.loops import first_noncommuting_pair
        from reference import noncommuting_pair_by_rows

        cocycle = random_cocycle(abelian_group_loop([2] * 5), make_group((2, 2, 2)),
                                 ChoiceSource(1))
        ext = build_extension(cocycle)[0]
        tracemalloc.start()
        try:
            pair = first_noncommuting_pair(ext)
            scan = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ext.size == 256 and type(ext._rows[0]) is bytes
        assert pair == noncommuting_pair_by_rows(ext) and pair is not None
        assert scan < ext.size ** 2 / 4, scan
