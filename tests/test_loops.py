import itertools

import pytest

from loopext.errors import (
    IdentityPositionError,
    InputError,
    NotNormalError,
    StructureError,
    UndefinedPropertyError,
)
from loopext.catalog import bundled_corpus
from loopext.loops import (
    analyze_properties,
    first_inverse_mismatch,
    first_lip_counterexample,
    first_rip_counterexample,
    is_normal_subloop,
    make_loop,
    quotient_loop,
)

CORPUS = ["trivial", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
          "klein", "ip7", "ip8", "lip_only", "mismatch"]


class TestMakeLoop:
    def test_trivial(self):
        assert make_loop([[0]]).size == 1

    def test_z2(self):
        loop = make_loop([[0, 1], [1, 0]])
        assert loop.mul(1, 1) == 0

    def test_repeated_entry_rejected(self):
        with pytest.raises(StructureError, match="row 1"):
            make_loop([[0, 1], [1, 1]])

    def test_bad_column_rejected(self):
        with pytest.raises(StructureError):
            make_loop([[0, 1, 2], [1, 2, 0], [2, 1, 0]])

    def test_identity_position(self):
        with pytest.raises(IdentityPositionError):
            make_loop([[1, 0], [0, 1]])
        with pytest.raises(IdentityPositionError):
            make_loop([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_ragged_rejected(self):
        with pytest.raises(StructureError):
            make_loop([[0, 1], [1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(StructureError):
            make_loop([[0, 2], [2, 0]])


class TestDivisions:
    @pytest.mark.parametrize("name", CORPUS)
    def test_division_identities(self, loops, name):
        loop = loops[name]
        for x in loop.elements():
            for y in loop.elements():
                assert loop.mul(x, loop.left_div(x, y)) == y
                assert loop.mul(loop.right_div(x, y), y) == x
                assert loop.right_div(loop.mul(x, y), y) == x
                assert loop.left_div(x, loop.mul(x, y)) == y

    def test_identity_divisions(self, loops):
        loop = loops["z5"]
        for y in loop.elements():
            assert loop.left_div(0, y) == y

    def test_z4_values(self, loops):
        z4 = loops["z4"]
        assert z4.left_div(1, 0) == 3
        assert z4.left_inverse(1) == 3
        assert z4.right_inverse(1) == 3

    @pytest.mark.parametrize("name", CORPUS)
    def test_self_division_is_identity(self, loops, name):
        # z*x = x forces z = e because right translation by x is a bijection
        loop = loops[name]
        for x in loop.elements():
            assert loop.right_div(x, x) == 0
            assert loop.left_div(x, x) == 0

    @pytest.mark.parametrize("name", CORPUS)
    def test_left_inverse_law(self, loops, name):
        loop = loops[name]
        for x in loop.elements():
            assert loop.mul(loop.left_inverse(x), x) == 0
            assert loop.mul(x, loop.right_inverse(x)) == 0
        assert loop.left_inverse(0) == 0

    def test_index_validation(self, loops):
        with pytest.raises(InputError):
            loops["z4"].mul(0, 4)


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
        audited = analyze_properties(loop, exhaustive_iota=True)
        assert default.has_lip == audited.has_lip
        assert default.has_rip == audited.has_rip

    def test_order3_undefined_without_coincidence(self, loops):
        report = loops["mismatch"].properties()
        assert not report.two_sided_inverses_coincide
        assert report.inverse_map is None
        with pytest.raises(UndefinedPropertyError):
            report.has_order3_element

    def test_counterexamples_replay(self, loops):
        loop = loops["lip_only"]
        assert first_lip_counterexample(loop) is None
        witness = first_rip_counterexample(loop)
        assert witness is not None
        x, y = witness
        iota = loop.left_inverse(x)
        assert loop.mul(loop.mul(y, x), iota) != y
        mismatch = first_inverse_mismatch(loops["mismatch"])
        assert loops["mismatch"].left_inverse(mismatch) != loops["mismatch"].right_inverse(mismatch)


class TestOpposite:
    def test_commutative_fixed(self, loops):
        for name in ("z4", "klein", "z7"):
            assert loops[name].opposite() == loops[name]

    @pytest.mark.parametrize("name", CORPUS)
    def test_involution(self, loops, name):
        loop = loops[name]
        assert loop.opposite().opposite() == loop

    def test_lip_only_swaps(self, loops):
        loop = loops["lip_only"]
        report = loop.properties()
        assert report.has_lip and not report.has_rip
        opposite = loop.opposite().properties()
        assert opposite.has_rip and not opposite.has_lip

    @pytest.mark.parametrize("name", CORPUS)
    def test_lip_rip_duality(self, loops, name):
        loop = loops[name]
        opposite = loop.opposite()
        assert loop.properties().has_lip == opposite.properties().has_rip
        assert loop.properties().has_rip == opposite.properties().has_lip


def reference_rip_scan(loop, iota=None):
    """Direct column scan for the first (x, y) with (y*x)*iota(x) != y."""
    t = loop.table
    if iota is None:
        iota = [loop.left_inverse(x) for x in loop.elements()]
    for x in loop.elements():
        ix = iota[x]
        for y in loop.elements():
            if t[t[y][x]][ix] != y:
                return (x, y)
    return None


class TestRipScanDuality:
    """The RIP scan runs as the LIP scan of the transposed table; its
    witnesses must be those of a direct scan of the original table."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_witnesses(self, loops, name):
        loop = loops[name]
        assert first_rip_counterexample(loop) == reference_rip_scan(loop)
        right = [loop.right_inverse(x) for x in loop.elements()]
        assert first_rip_counterexample(loop, right) == reference_rip_scan(loop, right)

    @pytest.mark.parametrize("name,group", [
        ("z4", "z3"), ("klein", "z3"), ("ip8", "z3"), ("lip_only", "z3"),
        ("mismatch", "z2xz2"), ("z5", "z4"),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_extension_witnesses(self, loops, groups, name, group, seed):
        from loopext.constructions import ChoiceSource, random_cocycle
        from loopext.extension import build_extension

        cocycle = random_cocycle(loops[name], groups[group], ChoiceSource(seed))
        built = build_extension(cocycle).loop
        assert first_rip_counterexample(built) == reference_rip_scan(built)

    def test_relabeled_mismatch_witnesses(self, loops):
        # some relabelings put an element with distinct left and right
        # inverses first; there the default left-inverse map decides the witness
        base = loops["mismatch"]
        sensitive = 0
        for perm in itertools.permutations(range(1, base.size)):
            label = (0,) + perm
            back = {v: i for i, v in enumerate(label)}
            loop = make_loop([[label[base.table[back[x]][back[y]]] for y in base.elements()]
                              for x in base.elements()])
            assert first_rip_counterexample(loop) == reference_rip_scan(loop)
            right = [loop.right_inverse(x) for x in loop.elements()]
            sensitive += reference_rip_scan(loop) != reference_rip_scan(loop, right)
        assert sensitive

    def test_constructed_lip_extension_witness(self, loops, groups):
        from loopext.constructions import ChoiceSource, construct_lip_cocycle
        from loopext.extension import build_extension

        built = build_extension(
            construct_lip_cocycle(loops["klein"], groups["z3"], ChoiceSource(7))).loop
        witness = first_rip_counterexample(built)
        assert witness is not None
        assert witness == reference_rip_scan(built)


class TestNormality:
    def test_trivial_subloops(self, loops):
        for name in ("z4", "klein", "ip7"):
            loop = loops[name]
            assert is_normal_subloop(loop, {0})
            assert is_normal_subloop(loop, set(loop.elements()))

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
                assert ip7.mul(x, y) in members
        assert not is_normal_subloop(ip7, members)
        with pytest.raises(NotNormalError):
            quotient_loop(ip7, members)

    def test_product_closure_implies_division_closure(self, loops):
        # reference for _validate_subloop, which checks products only
        corpus = {**bundled_corpus(), "lip_only": loops["lip_only"],
                  "mismatch": loops["mismatch"]}
        closed_sets = 0
        for loop in corpus.values():
            others = range(1, loop.size)
            for k in range(loop.size):
                for rest in itertools.combinations(others, k):
                    members = {0, *rest}
                    if any(loop.mul(x, y) not in members for x in members for y in members):
                        continue
                    closed_sets += 1
                    for x in members:
                        for y in members:
                            assert loop.left_div(x, y) in members
                            assert loop.right_div(x, y) in members
                    is_normal_subloop(loop, members)  # accepted as a subloop
        assert closed_sets > len(corpus) * 2

    def test_klein_subgroup_quotient(self, loops):
        klein = loops["klein"]
        assert is_normal_subloop(klein, {0, 3})
        assert quotient_loop(klein, {0, 3}) == loops["z2"]
