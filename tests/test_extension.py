import pytest

from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    ip_cocycle_from_choices,
    random_cocycle,
)
from loopext.errors import CocycleNormalizationError, InputError, PreconditionError
from loopext.extension import (
    InverseCoincidenceData,
    build_extension,
    check_cip,
    check_equivariance,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    extension_left_inverse,
    extension_right_inverse,
    is_commutative_extension,
    is_strongly_linear,
    make_cocycle,
    opposite_cocycle,
)
from loopext.loops import (
    analyze_properties,
    first_inverse_mismatch,
    first_lip_counterexample,
    is_normal_subloop,
    quotient_loop,
)
from loopext.orbits import gamma_orbits


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


class TestMakeCocycle:
    def test_all_identity_valid(self, loops, groups):
        trivial_cocycle(loops["z4"], groups["z3"])

    def test_p_boundary_enforced(self, loops, groups):
        p, q = identity_tables(2)
        p[1][0] = 1
        with pytest.raises(CocycleNormalizationError):
            make_cocycle(loops["z2"], groups["z3"], p, q)

    def test_q_boundary_enforced(self, loops, groups):
        p, q = identity_tables(2)
        q[0][1] = 1
        with pytest.raises(CocycleNormalizationError):
            make_cocycle(loops["z2"], groups["z3"], p, q)

    def test_bad_index(self, loops, groups):
        p, q = identity_tables(2)
        p[1][1] = 5
        with pytest.raises(InputError):
            make_cocycle(loops["z2"], groups["z3"], p, q)

    def test_bad_shape(self, loops, groups):
        with pytest.raises(InputError):
            make_cocycle(loops["z2"], groups["z3"], [[0, 0]], [[0, 0], [0, 0]])

    def test_autgroup_mismatch(self, loops, groups, autgroups):
        p, q = identity_tables(2)
        with pytest.raises(InputError):
            make_cocycle(loops["z2"], groups["z3"], p, q, autgroup=autgroups["z4"])


class TestBuildExtension:
    def test_klein_from_z2_z2(self, loops, groups):
        built = build_extension(trivial_cocycle(loops["z2"], groups["z2"]))
        assert built.loop.table == loops["klein"].table

    def test_direct_product_structure(self, loops, groups):
        loop, group = loops["z3"], groups["z4"]
        built = build_extension(trivial_cocycle(loop, group))
        for x in loop.elements():
            for a in group.elements():
                for y in loop.elements():
                    for b in group.elements():
                        product = built.loop.mul(built.pair_index(x, a), built.pair_index(y, b))
                        assert built.pair_of(product) == (loop.mul(x, y), group.add(a, b))

    def test_twisted_order6(self, loops, groups):
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        built = build_extension(cocycle)
        assert built.loop.size == 6
        # definition-level product check against the multiplication rule
        neg = groups["z3"].neg_table
        add = groups["z3"].add_table
        for x in (0, 1):
            for a in range(3):
                for y in (0, 1):
                    for b in range(3):
                        rhs = b if (x, y) != (1, 1) else neg[b]
                        expected = ((x + y) % 2, add[a][rhs])
                        product = built.loop.mul(built.pair_index(x, a), built.pair_index(y, b))
                        assert built.pair_of(product) == expected

    def test_identity_element(self, loops, groups):
        built = build_extension(trivial_cocycle(loops["z4"], groups["z2xz2"]))
        assert built.pair_index(0, 0) == 0

    def test_pair_encoding(self, loops, groups):
        built = build_extension(trivial_cocycle(loops["z4"], groups["z3"]))
        assert built.pair_index(2, 1) == 7
        assert built.pair_of(7) == (2, 1)


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
        built = build_extension(cocycle)
        assert not built.loop.is_commutative()

    @pytest.mark.parametrize("seed", range(30))
    def test_agreement_with_built_loop(self, loops, groups, seed):
        cocycle = random_cocycle(loops["klein"], groups["z3"], ChoiceSource(seed))
        assert is_commutative_extension(cocycle) == build_extension(cocycle).loop.is_commutative()


class TestInverseFormulas:
    def test_identity_element(self, loops, groups):
        cocycle = trivial_cocycle(loops["z4"], groups["z3"])
        assert extension_left_inverse(cocycle, (0, 0)) == (0, 0)
        assert extension_right_inverse(cocycle, (0, 0)) == (0, 0)

    def test_trivial_cocycle_collapses(self, loops, groups):
        loop, group = loops["z4"], groups["z3"]
        cocycle = trivial_cocycle(loop, group)
        for x in loop.elements():
            for a in group.elements():
                assert extension_left_inverse(cocycle, (x, a)) == (
                    loop.left_inverse(x), group.neg(a))

    @pytest.mark.parametrize("seed", range(25))
    def test_formulas_match_divisions(self, loops, groups, seed):
        cocycle = random_cocycle(loops["z4"], groups["z3"], ChoiceSource(seed))
        built = build_extension(cocycle)
        for index in built.loop.elements():
            pair = built.pair_of(index)
            left = built.pair_index(*extension_left_inverse(cocycle, pair))
            right = built.pair_index(*extension_right_inverse(cocycle, pair))
            assert left == built.loop.right_div(0, index)
            assert right == built.loop.left_div(index, 0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("base", ["mismatch", "lip_only", "ip8"])
    def test_formulas_need_no_coincidence(self, loops, groups, base, seed):
        # the closed forms use e/x and x\e separately, so they hold even when
        # the base loop has mismatched inverses
        cocycle = random_cocycle(loops[base], groups["z3"], ChoiceSource(seed))
        built = build_extension(cocycle)
        for index in built.loop.elements():
            pair = built.pair_of(index)
            left = built.pair_index(*extension_left_inverse(cocycle, pair))
            right = built.pair_index(*extension_right_inverse(cocycle, pair))
            assert left == built.loop.right_div(0, index)
            assert right == built.loop.left_div(index, 0)


class TestCip:
    def test_trivial(self, loops, groups):
        assert check_cip(trivial_cocycle(loops["z4"], groups["z3"]))

    def test_z2_negation_diagonal(self, loops, groups):
        # q(1) = negation at the self-inverse element 1; condition reads
        # Id = neg . Id . neg, which holds
        cocycle = cocycle_with(loops["z2"], groups["z3"], q_cells=[((1, 1), 1)])
        assert check_cip(cocycle)
        assert first_inverse_mismatch(build_extension(cocycle).loop) is None

    def test_z4_violation(self, loops, groups):
        # p(1) = q(1) = q(3) = Id but p(3) = negation breaks the condition
        cocycle = cocycle_with(loops["z4"], groups["z3"], p_cells=[((1, 3), 1)])
        assert not check_cip(cocycle)
        mismatch = first_inverse_mismatch(build_extension(cocycle).loop)
        assert mismatch is not None

    def test_requires_coinciding_inverses(self, loops, groups):
        with pytest.raises(PreconditionError):
            check_cip(trivial_cocycle(loops["mismatch"], groups["z2"]))

    def test_data_extraction(self, loops, groups):
        cocycle = cocycle_with(loops["z4"], groups["z3"],
                               p_cells=[((3, 1), 1)], q_cells=[((1, 3), 1)])
        data = InverseCoincidenceData.from_cocycle(cocycle)
        assert data.pmap == (0, 1, 0, 0)  # p(1) = P(3, 1)
        assert data.qmap == (0, 0, 0, 1)  # q(3) = Q(1, 3)


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
        built = build_extension(cocycle)
        assert first_lip_counterexample(built.loop) is not None

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

        assert first_rip_counterexample(build_extension(mirrored).loop) is not None


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
        built = build_extension(cocycle)
        add = group.add_table

        def pure_addition():
            for beta in loop.elements():
                for a in group.elements():
                    for b in group.elements():
                        lhs = built.loop.mul(built.pair_index(0, a), built.pair_index(beta, b))
                        rhs = built.loop.mul(built.pair_index(beta, b), built.pair_index(0, a))
                        want = built.pair_index(beta, add[a][b])
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
        cocycle = cocycle_with(loops["klein"], groups["z3"], q_cells=[((1, 0), 1)])
        with pytest.raises(PreconditionError):
            check_ip_conditions(cocycle)
        with pytest.raises(PreconditionError):
            check_equivariance(cocycle)

    def test_requires_ip_loop(self, loops, groups):
        cocycle = trivial_cocycle(loops["lip_only"], groups["z3"])
        with pytest.raises(PreconditionError):
            check_ip_conditions(cocycle)

    def test_equivariance_rejects_order3(self, loops, groups):
        cocycle = trivial_cocycle(loops["z3"], groups["z3"])
        with pytest.raises(PreconditionError):
            check_equivariance(cocycle)
        # the plain conditions stay defined there
        assert check_ip_conditions(cocycle)

    def test_sigma_diagonal_must_be_identity(self, loops, groups):
        # strongly linear but with a negation on the inverse diagonal of
        # Sigma: the closed-form conditions and the built loop both reject it
        cocycle = cocycle_with(loops["klein"], groups["z3"], q_cells=[((1, 1), 1)])
        assert is_strongly_linear(cocycle)
        assert not check_ip_conditions(cocycle)
        assert not analyze_properties(build_extension(cocycle).loop).has_ip

    def test_broken_orbit_entry_detected(self, loops, groups):
        cocycle = construct_ip_cocycle(loops["klein"], groups["z3"], ChoiceSource(5))
        x, y = (2, 3)  # any complement cell of the Klein loop
        broken_p = [list(row) for row in cocycle.ptable]
        broken_p[x][y] ^= 1  # flip between the two automorphisms of Z3
        broken = make_cocycle(cocycle.loop, cocycle.group, broken_p, cocycle.qtable)
        assert not check_equivariance(broken)
        assert not check_ip_conditions(broken)
        assert not analyze_properties(build_extension(broken).loop).has_ip

    @pytest.mark.parametrize("member", range(1, 6))
    def test_changed_orbit_member_detected(self, loops, groups, member):
        # equivariance compares members with their representative only, so a
        # change at any non-representative member must still be seen
        loop = loops["ip8"]
        decomposition = gamma_orbits(loop)
        choices = {orbit.representative: (1, 0) for orbit in decomposition.orbits}
        cocycle = ip_cocycle_from_choices(loop, groups["z3"], choices)
        assert check_equivariance(cocycle)
        x, y = decomposition.orbits[3].members[member]
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
        direct = build_extension(cocycle).loop
        mirrored = build_extension(opposite_cocycle(cocycle)).loop
        assert mirrored == direct.opposite()


class TestKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_normal_and_quotient(self, loops, groups, seed):
        loop, group = loops["z4"], groups["z3"]
        cocycle = random_cocycle(loop, group, ChoiceSource(seed))
        built = build_extension(cocycle)
        kernel = built.kernel()
        assert kernel == frozenset(range(3))
        assert is_normal_subloop(built.loop, kernel)
        assert quotient_loop(built.loop, kernel) == loop
