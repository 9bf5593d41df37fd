import inspect
import itertools

import pytest

from loopext.abelian import enumerate_automorphisms, make_group
from loopext.catalog import abelian_group_loop, cyclic_loop, ip_loop8, klein_loop
from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_pq,
    random_cocycle,
)
from loopext.errors import InputError, PreconditionError, ResourceError
from loopext.extension import (
    LoopCocycle,
    build_extension,
    check_cip,
    check_equivariance,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
    is_strongly_linear,
    make_cocycle,
    _extension_rows,
    refuse_oversized_extension,
)
from loopext.loops import (
    FiniteLoop,
    analyze_properties,
    first_inverse_mismatch,
    first_lip_counterexample,
    is_normal_subloop,
    make_loop,
    quotient_loop,
)
from loopext.orbits import PAIR_MAPS, gamma_orbits
from loopext.verification import _check_inverse_formulas
from reference import (
    Replay,
    inverse_formula_mismatch,
    ip_conditions_hold,
    opposite_cocycle,
    opposite_loop,
)


def identity_tables(l):
    return [[0] * l for _ in range(l)], [[0] * l for _ in range(l)]


def trivial_cocycle(loop, group):
    p, q = identity_tables(loop.size)
    return make_cocycle(loop, group, p, q)


def cocycle_with(loop, group, p_cells=(), q_cells=()):
    """Identity cocycle with chosen cells overridden by automorphism index."""
    p, q = identity_tables(loop.size)
    for (x, y), value in p_cells:
        p[x][y] = value
    for (x, y), value in q_cells:
        q[x][y] = value
    return make_cocycle(loop, group, p, q)


# the two ways to build a cocycle, which refuse the same inputs alike
ENTRY_POINTS = (make_cocycle, LoopCocycle)


class TestMakeCocycle:
    def test_all_identity_valid(self, loops, groups):
        trivial_cocycle(loops["z4"], groups["z3"])

    def test_p_boundary_enforced(self, loops, groups):
        p, q = identity_tables(2)
        p[1][0] = 1
        for build in ENTRY_POINTS:
            with pytest.raises(InputError,
                               match=r"^P\(1, e\) must be the identity automorphism$"):
                build(loops["z2"], groups["z3"], p, q)

    def test_q_boundary_enforced(self, loops, groups):
        p, q = identity_tables(2)
        q[0][1] = 1
        for build in ENTRY_POINTS:
            with pytest.raises(InputError,
                               match=r"^Q\(e, 1\) must be the identity automorphism$"):
                build(loops["z2"], groups["z3"], p, q)

    def test_bad_index(self, loops, groups):
        p, q = identity_tables(2)
        p[1][1] = 5
        for build in ENTRY_POINTS:
            with pytest.raises(InputError):
                build(loops["z2"], groups["z3"], p, q)

    def test_non_integer_entry_rejected(self, loops, groups):
        # refused, not truncated to indices 0 and 1; bools are ints and pass
        for build in ENTRY_POINTS:
            p, q = identity_tables(2)
            p[1][1], q[1][1] = 0.7, 1.2
            with pytest.raises(InputError, match="^P table entry is not an integer: "):
                build(loops["z2"], groups["z3"], p, q)
            p[1][1] = 1
            with pytest.raises(InputError, match="^Q table entry is not an integer: "):
                build(loops["z2"], groups["z3"], p, q)
            q[1][1] = True
            cocycle = build(loops["z2"], groups["z3"], p, q)
            assert cocycle.qtable == ((0, 0), (0, 1)) and type(cocycle.qtable[1][1]) is int

    def test_bad_index_names_first_bad_entry(self, loops, groups):
        # Aut(Z3) has 2 members; rows are scanned in order, entries left to right
        for build in ENTRY_POINTS:
            p, q = identity_tables(3)
            p[2] = [0, 9, -1]
            q[1] = [0, -4, 7]
            with pytest.raises(InputError) as raised:
                build(loops["z3"], groups["z3"], p, q)
            assert type(raised.value) is InputError
            assert str(raised.value) == "P table entry 9 is not a valid automorphism index (0..1)"
            p[2] = [0, 1, 1]
            with pytest.raises(InputError, match=r"^Q table entry -4 is not a valid "):
                build(loops["z3"], groups["z3"], p, q)

    def test_repr_and_equality(self, loops, groups):
        cocycle = trivial_cocycle(loops["z4"], groups["z2xz2"])
        assert repr(cocycle) == "LoopCocycle(l=4, group=[2, 2], aut=6)"
        assert cocycle.__eq__(1) is NotImplemented
        assert (cocycle == 1) is False
        p, q = identity_tables(4)
        assert LoopCocycle(loops["z4"], groups["z2xz2"], p, q) == cocycle

    def test_bad_shape(self, loops, groups):
        for build in ENTRY_POINTS:
            with pytest.raises(InputError, match=r"^P table must be 2x2$"):
                build(loops["z2"], groups["z3"], [[0, 0]], [[0, 0], [0, 0]])

    def test_aut_group_is_derived(self, loops, groups):
        # Aut(A) is worked out from the group, so no caller can pass one that
        # the tables do not index: an entry 7 over Aut(Z3) is refused up front
        assert "autgroup" not in inspect.signature(LoopCocycle).parameters
        assert LoopCocycle(loops["z2"], groups["z3"], *identity_tables(2)).autgroup == (
            enumerate_automorphisms(groups["z3"]))
        p, q = identity_tables(4)
        p[1][1] = 7
        with pytest.raises(InputError, match=r"^P table entry 7 is not a valid .*\(0\.\.1\)$"):
            LoopCocycle(loops["klein"], groups["z3"], p, q)

    def test_extension_order_cap(self, monkeypatch):
        # N = l * |A| = 4096 is admitted; one more element of L is refused by
        # make_cocycle, LoopCocycle and random_cocycle before Aut(A) or any draw
        from loopext import constructions, extension

        refuse_oversized_extension(cyclic_loop(64), make_group([64]))
        big = make_loop([[(x + y) % 65 for y in range(65)] for x in range(65)])
        group = make_group([64])
        for module in (constructions, extension):
            monkeypatch.setattr(module, "enumerate_automorphisms", None)
        p, q = identity_tables(65)
        message = "^extension order N = 65 \\* 64 = 4160 exceeds the cap 4096$"
        for build in ENTRY_POINTS:
            with pytest.raises(ResourceError, match=message):
                build(big, group, p, q)
        with pytest.raises(ResourceError, match=message):
            random_cocycle(big, group, None)



class TestBuildExtension:
    def test_klein_from_z2_z2(self, loops, groups):
        built, _ = build_extension(trivial_cocycle(loops["z2"], groups["z2"]))
        assert built.table == loops["klein"].table

    def test_direct_product_structure(self, loops, groups):
        loop, group = loops["z3"], groups["z4"]
        built, _ = build_extension(trivial_cocycle(loop, group))
        n = group.size  # (x, a) is element x*|A| + a
        for x in range(loop.size):
            for a in range(group.size):
                for y in range(loop.size):
                    for b in range(group.size):
                        product = built.table[x * n + a][y * n + b]
                        assert divmod(product, n) == (loop.table[x][y], group.add_table[a][b])

    def test_twisted_order6(self, loops, groups):
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        built, _ = build_extension(cocycle)
        assert built.size == 6
        # definition-level product check against the multiplication rule
        neg = groups["z3"].neg_table
        add = groups["z3"].add_table
        for x in (0, 1):
            for a in range(3):
                for y in (0, 1):
                    for b in range(3):
                        rhs = b if (x, y) != (1, 1) else neg[b]
                        expected = ((x + y) % 2, add[a][rhs])
                        assert divmod(built.table[x * 3 + a][y * 3 + b], 3) == expected

    def test_identity_element(self, loops, groups):
        # (e, 0) is element 0, the identity of the built loop
        built, _ = build_extension(trivial_cocycle(loops["z4"], groups["z2xz2"]))
        assert built.table[0] == tuple(range(built.size))

    def test_pair_encoding(self, loops, groups):
        # (x, a) is element x*|A| + a: (2, 1) * (1, 2) = (3, 0) is 7 * 5 = 9
        built, _ = build_extension(trivial_cocycle(loops["z4"], groups["z3"]))
        assert built.table[7][5] == 9


def product_loop(left, right):
    """The direct product loop on pairs (x, a) encoded as x * |right| + a."""
    n = right.size
    return FiniteLoop([
        [left.table[x][y] * n + right.table[a][b] for y in range(left.size) for b in range(n)]
        for x in range(left.size) for a in range(n)
    ])


EXTENSION_ROW_BASES = {
    "klein": klein_loop,
    "z5": lambda: cyclic_loop(5),
    "ip8": ip_loop8,
    "ip8x2": lambda: product_loop(ip_loop8(), abelian_group_loop([2])),
}


class TestExtensionRows:
    @pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (2, 2, 2), (5,)])
    @pytest.mark.parametrize("base", sorted(EXTENSION_ROW_BASES))
    def test_rows_match_cell_formula(self, base, orders):
        loop = EXTENSION_ROW_BASES[base]()
        group = make_group(orders)
        n = group.size
        add = group.add_table
        for seed in (1, 2):
            cocycle = random_cocycle(loop, group, ChoiceSource(seed))
            aut = cocycle.autgroup
            # (x, a)(y, b) = (x*y, P(x,y)a + Q(x,y)b), one cell at a time
            reference = [
                tuple(loop.table[x][y] * n
                      + add[aut[cocycle.ptable[x][y]][a]][aut[cocycle.qtable[x][y]][b]]
                      for y in range(loop.size) for b in range(n))
                for x in range(loop.size) for a in range(n)
            ]
            assert _extension_rows(cocycle) == reference


class TestCommutativity:
    def test_trivial_commutative(self, loops, groups):
        assert is_commutative_extension(trivial_cocycle(loops["z4"], groups["z3"]))

    def test_noncommutative_base(self, loops, groups):
        loop = loops["ip8"]
        assert not loop.is_commutative()
        assert not is_commutative_extension(trivial_cocycle(loop, groups["z2"]))

    def test_twisted_not_commutative(self, loops, groups):
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        assert not is_commutative_extension(cocycle)
        built, _ = build_extension(cocycle)
        assert not built.is_commutative()

    @pytest.mark.parametrize("seed", range(30))
    def test_agreement_with_built_loop(self, loops, groups, seed):
        cocycle = random_cocycle(loops["klein"], groups["z3"], ChoiceSource(seed))
        assert is_commutative_extension(cocycle) == build_extension(cocycle)[0].is_commutative()


class TestInverseFormulas:
    """The gathered inverse-formula check and its element-by-element
    reference both pass on every built extension."""

    def test_trivial_cocycle_collapses(self, loops, groups):
        # the closed forms of the trivial cocycle are (e/x, -a) and (x\e, -a)
        loop, group = loops["z4"], groups["z3"]
        cocycle = trivial_cocycle(loop, group)
        built, _ = build_extension(cocycle)
        n, neg = group.size, group.neg_table
        for x in range(loop.size):
            for a in range(group.size):
                index = x * n + a
                assert built.left_inverse(index) == loop.left_inverse(x) * n + neg[a]
                assert built.right_inverse(index) == loop.right_inverse(x) * n + neg[a]
        assert _check_inverse_formulas(cocycle, built) is None

    @pytest.mark.parametrize("seed", range(25))
    def test_formulas_match_divisions(self, loops, groups, seed):
        cocycle = random_cocycle(loops["z4"], groups["z3"], ChoiceSource(seed))
        built, _ = build_extension(cocycle)
        assert inverse_formula_mismatch(cocycle, built.table) is None
        assert _check_inverse_formulas(cocycle, built) is None

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("base", ["mismatch", "lip_only", "ip8"])
    def test_formulas_need_no_coincidence(self, loops, groups, base, seed):
        # the closed forms use e/x and x\e separately, so they hold even when
        # the base loop has mismatched inverses
        cocycle = random_cocycle(loops[base], groups["z3"], ChoiceSource(seed))
        built, _ = build_extension(cocycle)
        assert inverse_formula_mismatch(cocycle, built.table) is None
        assert _check_inverse_formulas(cocycle, built) is None


class TestCip:
    def test_trivial(self, loops, groups):
        assert check_cip(trivial_cocycle(loops["z4"], groups["z3"]))

    def test_z2_negation_diagonal(self, loops, groups):
        # q(1) = negation at the self-inverse element 1; condition reads
        # Id = neg . Id . neg, which holds
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        assert check_cip(cocycle)
        assert first_inverse_mismatch(build_extension(cocycle)[0]) is None

    def test_z4_violation(self, loops, groups):
        # p(1) = q(1) = q(3) = Id but p(3) = negation breaks the condition
        cocycle = cocycle_with(loops["z4"], groups["z3"], p_cells=[((1, 3), 1)])
        assert not check_cip(cocycle)
        mismatch = first_inverse_mismatch(build_extension(cocycle)[0])
        assert mismatch is not None

    def test_requires_coinciding_inverses(self, loops, groups):
        with pytest.raises(PreconditionError):
            check_cip(trivial_cocycle(loops["mismatch"], groups["z2"]))

    def test_data_extraction(self, loops, groups, autgroups):
        # check_cip reads p(x) at P(x^{-1}, x) and q(x) at Q(x^{-1}, x): the
        # maps of construct_pq pinned there pass, and a changed p(1) fails
        loop, group = loops["z4"], groups["z3"]
        inv = loop.properties().inverse_map
        cells = [(inv[x], x) for x in range(loop.size)]
        for seed in range(8):
            pmap, qmap = construct_pq(loop, autgroups["z3"], ChoiceSource(seed))
            assert check_cip(cocycle_with(loop, group, zip(cells, pmap), zip(cells, qmap)))
            broken = (pmap[0], 1 - pmap[1]) + pmap[2:]
            assert not check_cip(cocycle_with(loop, group, zip(cells, broken), zip(cells, qmap)))


class TestLipRipConditions:
    def test_trivial_cocycle(self, loops, groups):
        cocycle = trivial_cocycle(loops["z4"], groups["z2xz2"])
        assert check_lip_conditions(cocycle)
        assert check_rip_conditions(cocycle)

    def test_counterexample_cell(self, loops, groups):
        # the condition at (1, 1) demands Q(1, 0) = Q(1, 1)^{-1}, but the
        # boundary forces Q(1, 0) = Id while Q(1, 1) is the negation
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        assert not check_lip_conditions(cocycle)
        built, _ = build_extension(cocycle)
        assert first_lip_counterexample(built) is not None

    def test_requires_lip_loop(self, loops, groups):
        with pytest.raises(PreconditionError):
            check_lip_conditions(trivial_cocycle(loops["mismatch"], groups["z2"]))
        with pytest.raises(PreconditionError):
            check_rip_conditions(trivial_cocycle(loops["lip_only"], groups["z2"]))

    @pytest.mark.parametrize("seed", range(15))
    def test_duality_under_opposite(self, loops, groups, seed):
        cocycle = random_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(seed))
        assert check_lip_conditions(cocycle) == check_rip_conditions(opposite_cocycle(cocycle))
        assert check_rip_conditions(cocycle) == check_lip_conditions(opposite_cocycle(cocycle))

    @pytest.mark.parametrize("opposite", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_precondition_duality(self, loops, groups, opposite, seed):
        # lip_only has LIP but not RIP; its opposite has RIP but not LIP
        cocycle = random_cocycle(loops["lip_only"], groups["z3"], ChoiceSource(seed))
        if opposite:
            cocycle = opposite_cocycle(cocycle)

        def outcome(check, c):
            try:
                return check(c)
            except PreconditionError as exc:
                return type(exc)

        assert outcome(check_rip_conditions, cocycle) == outcome(
            check_lip_conditions, opposite_cocycle(cocycle))
        assert (outcome(check_rip_conditions, cocycle) is PreconditionError) == (not opposite)

    def test_mirrored_counterexample(self, loops, groups):
        # the known failing LIP cell mirrors to a failing RIP cocycle
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        mirrored = opposite_cocycle(cocycle)
        assert not check_rip_conditions(mirrored)
        from loopext.loops import first_rip_counterexample

        assert first_rip_counterexample(build_extension(mirrored)[0]) is not None


class TestStronglyLinear:
    def test_trivial(self, loops, groups):
        assert is_strongly_linear(trivial_cocycle(loops["z4"], groups["z3"]))

    def test_violation(self, loops, groups):
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 0), 1)])
        assert not is_strongly_linear(cocycle)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_built_multiplication(self, loops, groups, seed):
        loop, group = loops["klein"], groups["z3"]
        cocycle = random_cocycle(loop, group, ChoiceSource(seed))
        table = build_extension(cocycle)[0].table
        add, n = group.add_table, group.size

        def pure_addition():
            for beta in range(loop.size):
                for a in range(group.size):
                    for b in range(group.size):
                        # (e, a) is element a and (beta, b) is beta*|A| + b
                        lhs = table[a][beta * n + b]
                        rhs = table[beta * n + b][a]
                        want = beta * n + add[a][b]
                        if lhs != want or rhs != want:
                            return False
            return True

        assert is_strongly_linear(cocycle) == pure_addition()


class TestIpAndEquivariance:
    def test_trivial_strongly_linear(self, loops, groups):
        cocycle = trivial_cocycle(loops["klein"], groups["z3"])
        assert check_ip_conditions(cocycle)
        assert check_equivariance(cocycle)

    def test_requires_strongly_linear(self, loops, groups):
        # IP is LIP and RIP on every linear cocycle, so check_ip_conditions
        # answers without the strongly linear precondition; equivariance
        # keeps it
        cocycle = cocycle_with(loops["klein"], groups["z3"], q_cells=[((1, 0), 1)])
        built, _ = build_extension(cocycle)
        assert check_ip_conditions(cocycle) == analyze_properties(built).has_ip
        with pytest.raises(PreconditionError):
            check_equivariance(cocycle)

    def test_requires_ip_loop(self, loops, groups):
        cocycle = trivial_cocycle(loops["lip_only"], groups["z3"])
        with pytest.raises(PreconditionError):
            check_ip_conditions(cocycle)

    @pytest.mark.parametrize("base", ["z2", "z3", "z4", "klein", "z5", "z6", "ip7", "ip8"])
    def test_agrees_with_four_identity_kernel(self, loops, groups, base):
        # check_ip_conditions is LIP and RIP together; the separate
        # four-identity kernel it replaced must give the same answer on
        # seeded strongly linear cocycles: Id on Sigma, or Id only on the
        # identity row and column, so the inverse diagonal is free
        loop = loops[base]
        answers = []
        for name in ("z3", "z2xz2"):
            group = groups[name]
            for seed in range(30):
                pinned = random_cocycle(loop, group, ChoiceSource(seed), strongly_linear=True)
                free = random_cocycle(loop, group, ChoiceSource(seed))
                ptable = [list(row) for row in free.ptable]
                qtable = [list(row) for row in free.qtable]
                for x in range(loop.size):
                    ptable[0][x] = qtable[x][0] = 0
                diagonal = make_cocycle(loop, group, ptable, qtable)
                for cocycle in (pinned, diagonal):
                    assert is_strongly_linear(cocycle)
                    answers.append(check_ip_conditions(cocycle))
                    assert answers[-1] == ip_conditions_hold(cocycle)
        assert False in answers or base == "z2"

    @pytest.mark.parametrize("base", ["z2", "z4", "klein", "z5", "z7", "z8", "ip8"])
    def test_constructed_agree_with_four_identity_kernel(self, loops, groups, base):
        # constructed cocycles pass both; one changed entry off Sigma, where
        # there is one, fails both
        loop = loops[base]
        for name in ("z3", "z2xz2"):
            for seed in range(5):
                cocycle = construct_ip_cocycle(loop, groups[name], ChoiceSource(seed))
                assert check_ip_conditions(cocycle) and ip_conditions_hold(cocycle)
                orbits = gamma_orbits(loop).orbits
                for x, y in orbits[0] if orbits else ():
                    qtable = [list(row) for row in cocycle.qtable]
                    qtable[x][y] = (qtable[x][y] + 1) % len(cocycle.autgroup)
                    broken = make_cocycle(loop, cocycle.group, cocycle.ptable, qtable)
                    assert not check_ip_conditions(broken)
                    assert not ip_conditions_hold(broken)

    def test_equivariance_rejects_order3(self, loops, groups):
        # on an orbit of two of ip7, {(x, x), (x^{-1}, x^{-1})} with
        # x*x = x^{-1}, put (P, Q) at (x, x) and its phi image at the other
        # cell of a constructed IP cocycle: equivariance, like the
        # closed-form conditions, rejects every pair that the stabiliser
        # {id, phi*psi, psi*phi} does not fix, and holds on P = Q^{-1} with
        # Q^3 = Id
        loop, group = loops["ip7"], groups["z2xz2"]
        base = construct_ip_cocycle(loop, group, ChoiceSource(3))
        aut = base.autgroup
        m, v, ident = aut.products, aut.inverses, aut.identity_index
        pairs = [o for o in gamma_orbits(loop) if o[0] == o[4]]
        assert pairs
        for (x, y), (u, w) in (members[:2] for members in pairs):
            held = 0
            for p, q in itertools.product(range(len(aut)), repeat=2):
                ptable = [list(row) for row in base.ptable]
                qtable = [list(row) for row in base.qtable]
                ptable[x][y], qtable[x][y] = p, q
                ptable[u][w], qtable[u][w] = PAIR_MAPS["phi"](m, v, p, q)
                cocycle = make_cocycle(loop, group, ptable, qtable)
                fixed = p == v[q] and m[q][m[q][q]] == ident
                assert check_equivariance(cocycle) == check_ip_conditions(cocycle) == fixed
                held += fixed
            assert held == 3

    def test_sigma_diagonal_must_be_identity(self, loops, groups):
        # strongly linear but with a negation on the inverse diagonal of
        # Sigma: the closed-form conditions and the built loop both reject it
        cocycle = cocycle_with(loops["klein"], groups["z3"], q_cells=[((1, 1), 1)])
        assert is_strongly_linear(cocycle)
        assert not check_ip_conditions(cocycle)
        assert not analyze_properties(build_extension(cocycle)[0]).has_ip

    def test_broken_orbit_entry_detected(self, loops, groups):
        cocycle = construct_ip_cocycle(loops["klein"], groups["z3"], ChoiceSource(5))
        x, y = (2, 3)  # any complement cell of the Klein loop
        broken_p = [list(row) for row in cocycle.ptable]
        broken_p[x][y] ^= 1  # flip between the two automorphisms of Z3
        broken = make_cocycle(cocycle.loop, cocycle.group, broken_p, cocycle.qtable)
        assert not check_equivariance(broken)
        assert not check_ip_conditions(broken)
        assert not analyze_properties(build_extension(broken)[0]).has_ip

    @pytest.mark.parametrize("member", range(1, 6))
    def test_changed_orbit_member_detected(self, loops, groups, member):
        # equivariance compares members with their representative only, so a
        # change at any non-representative member must still be seen
        loop = loops["ip8"]
        decomposition = gamma_orbits(loop)
        cocycle = construct_ip_cocycle(loop, groups["z3"],
                                       Replay([1, 0] * len(decomposition.orbits)))
        assert check_equivariance(cocycle)
        x, y = decomposition.orbits[3][member]
        broken_q = [list(row) for row in cocycle.qtable]
        broken_q[x][y] ^= 1
        broken = make_cocycle(loop, cocycle.group, cocycle.ptable, broken_q)
        assert is_strongly_linear(broken)
        assert not check_equivariance(broken)
        assert not check_ip_conditions(broken)


class TestOppositeCocycle:
    def test_trivial_fixed(self, loops, groups):
        cocycle = trivial_cocycle(loops["z4"], groups["z3"])
        assert opposite_cocycle(cocycle) == cocycle

    @pytest.mark.parametrize("seed", range(10))
    def test_involution(self, loops, groups, seed):
        cocycle = random_cocycle(loops["ip8"], groups["z3"], ChoiceSource(seed))
        assert opposite_cocycle(opposite_cocycle(cocycle)) == cocycle

    @pytest.mark.parametrize("seed", range(10))
    def test_builds_opposite_loop(self, loops, groups, seed):
        cocycle = random_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(seed))
        direct = build_extension(cocycle)[0]
        mirrored = build_extension(opposite_cocycle(cocycle))[0]
        assert mirrored == opposite_loop(direct)


class TestKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_normal_and_quotient(self, loops, groups, seed):
        loop, group = loops["z4"], groups["z3"]
        cocycle = random_cocycle(loop, group, ChoiceSource(seed))
        built, _ = build_extension(cocycle)
        kernel = range(group.size)
        assert kernel == range(3)
        assert is_normal_subloop(built, kernel)
        assert quotient_loop(built, kernel) == loop
