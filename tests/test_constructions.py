import itertools
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from loopext import constructions, verification
from loopext.abelian import enumerate_automorphisms, make_group
from loopext.catalog import cyclic_loop
from loopext.cli import main
from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_pq,
    construct_rip_cocycle,
    random_cocycle,
)
from loopext.errors import InputError, InternalError, PreconditionError, ResourceError
from loopext.extension import (
    build_extension,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    coincidence_condition_holds,
    is_strongly_linear,
    make_cocycle,
)
from loopext.fileio import dumps_cocycle, emit_loop_file
from loopext.loops import analyze_properties, make_loop
from loopext.orbits import PAIR_MAPS, gamma_orbits, phi_orbits
from reference import Replay, ScalarChoiceSource, compose, invert, opposite_cocycle, opposite_loop


class TestChoiceSource:
    def test_non_integer_seed_and_count_refused(self):
        # refused, not truncated; bools are ints and pass
        with pytest.raises(InputError, match="^choice seed is not an integer: "):
            ChoiceSource(1.5)
        with pytest.raises(InputError, match="^number of alternatives is not an integer: "):
            ChoiceSource(0).pick(3.0)
        assert ChoiceSource(True).seed == 1 and type(ChoiceSource(True).seed) is int
        assert ChoiceSource(0).pick(True) == 0

    def test_reference_vector(self):
        # first three outputs of the mixing recurrence for seed 0
        source = ChoiceSource(0)
        assert [source.pick(1 << 64) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_determinism(self):
        a = ChoiceSource(987654321)
        b = ChoiceSource(987654321)
        assert [a.pick(10) for _ in range(50)] == [b.pick(10) for _ in range(50)]

    def test_seeds_differ(self):
        a = [ChoiceSource(1).pick(100) for _ in range(10)]
        b = [ChoiceSource(2).pick(100) for _ in range(10)]
        assert a != b

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 97))
    def test_pick_range(self, seed, n):
        source = ChoiceSource(seed)
        assert all(0 <= source.pick(n) < n for _ in range(5))

    def test_pick_zero_rejected(self):
        with pytest.raises(InputError):
            ChoiceSource(0).pick(0)

    def test_pick_above_two_to_64_rejected(self):
        # above 2^64 no raw draw lies below the largest multiple of n, so no
        # pick would ever return; 2^64 itself is the raw draw
        for n in (2**64 + 1, 2**65):
            with pytest.raises(InputError, match=f"^cannot pick from {n} alternatives$"):
                ChoiceSource(0).pick(n)
        source = ChoiceSource(0)
        assert [source.pick(2**64) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_count_advances(self):
        source = ChoiceSource(3)
        source.pick(7)
        assert source.count >= 1

    # blocks hold 64 outputs each: 760 raw values span twelve blocks
    STREAM_SEEDS = [0, 1, 2**63, 2**64 - 1, 2**64 + 5]

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_block_stream_is_the_scalar_recurrence(self, seed):
        source, scalar = ChoiceSource(seed), ScalarChoiceSource(seed)
        for _ in range(760):
            assert source.pick(1 << 64) == scalar.next_raw()
            assert source.count == scalar.count

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_interleaved_picks_follow_the_scalar_stream(self, seed):
        source, scalar = ChoiceSource(seed), ScalarChoiceSource(seed)
        sizes = [1, 2, 3, 7, 168, 20160, 2**32 + 1, 2**63 + 1, 2**64]
        for step in range(600):
            if step % 3 == 0:
                assert source.pick(1 << 64) == scalar.next_raw()
            else:
                n = sizes[step % len(sizes)]
                assert source.pick(n) == scalar.pick(n)
            assert source.count == scalar.count
        assert scalar.count > 8 + 16 + 32 + 64

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_half_rejected_picks_follow_the_scalar_stream(self, seed):
        # n = 2^63 + 1: every raw value at or above n is rejected
        n = 2**63 + 1
        source, scalar = ChoiceSource(seed), ScalarChoiceSource(seed)
        picks = [(source.pick(n), source.count) for _ in range(200)]
        assert picks == [(scalar.pick(n), scalar.count) for _ in range(200)]
        assert 300 < source.count < 500


class TestConstructPq:
    def test_single_automorphism_group(self, loops, autgroups):
        pmap, qmap = construct_pq(loops["z4"], autgroups["z2"], ChoiceSource(0))
        assert pmap == (0, 0, 0, 0)
        assert qmap == (0, 0, 0, 0)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("loop_name,aut_name", [
        ("z4", "z3"), ("z5", "z2xz2"), ("klein", "z2xz2"), ("ip7", "z4"),
    ])
    def test_condition_holds(self, loops, autgroups, loop_name, aut_name, seed):
        loop = loops[loop_name]
        autgroup = autgroups[aut_name]
        pmap, qmap = construct_pq(loop, autgroup, ChoiceSource(seed))
        inv = loop.properties().inverse_map
        assert coincidence_condition_holds(autgroup, inv, pmap, qmap)

    @pytest.mark.parametrize("seed", range(20))
    def test_fixed_point_condition(self, loops, autgroups, seed):
        loop = loops["klein"]  # all elements self-inverse
        autgroup = autgroups["z2xz2"]
        for free in (False, True):
            pmap, qmap = construct_pq(loop, autgroup, ChoiceSource(seed), free_fixed_points=free)
            for x in range(loop.size):
                s = autgroup.compose_indices(autgroup.invert_index(pmap[x]), qmap[x])
                assert autgroup.compose_indices(s, s) == autgroup.identity_index

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_forcing(self, loops, autgroups, seed):
        # recomputing the free value from the forced one returns the original
        loop = loops["z4"]
        autgroup = autgroups["z2xz2"]
        pmap, qmap = construct_pq(loop, autgroup, ChoiceSource(seed))
        inv = loop.properties().inverse_map
        members = autgroup
        for x in range(loop.size):
            ix = inv[x]
            recomputed = compose(members[qmap[x]],
                                 compose(invert(members[pmap[ix]]), members[qmap[ix]]))
            assert recomputed == members[pmap[x]]

    def test_both_fixed_point_candidates_valid(self, autgroups, loops):
        # at a self-inverse element with q = negation, both Id and negation
        # satisfy (p^{-1} q)^2 = Id
        autgroup = autgroups["z3"]
        neg = autgroup[1]
        ident = autgroup[0]
        for p in (ident, neg):
            s = compose(invert(p), neg)
            assert compose(s, s) == ident

    def test_free_fixed_points_deterministic(self, loops, autgroups):
        a = construct_pq(loops["klein"], autgroups["z2xz2"], ChoiceSource(9),
                         free_fixed_points=True)
        b = construct_pq(loops["klein"], autgroups["z2xz2"], ChoiceSource(9),
                         free_fixed_points=True)
        assert a == b

    def test_requires_coinciding_inverses(self, loops, autgroups):
        with pytest.raises(PreconditionError):
            construct_pq(loops["mismatch"], autgroups["z2"], ChoiceSource(0))

    def test_free_fixed_points_refused_above_cap(self, loops):
        # klein has three self-inverse x != e and |Aut(Z2^5)| = 9999360
        autgroup = enumerate_automorphisms(make_group([2] * 5))
        source = ChoiceSource(0)
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=r"^free fixed points refused: 3 \* \|Aut\(A\)\| "
                           "= 29998080 candidates exceed the cap 32768$"):
            construct_pq(loops["klein"], autgroup, source, free_fixed_points=True)
        assert time.perf_counter() - start < 1.0
        assert source.count == 0

    def test_free_walk_cap_boundary(self, loops, autgroups, monkeypatch):
        # klein with Aut(Z2^2) tests 3 * 6 candidates
        monkeypatch.setattr(constructions, "FREE_WALK_CAP", 18)
        construct_pq(loops["klein"], autgroups["z2xz2"], ChoiceSource(0), free_fixed_points=True)
        monkeypatch.setattr(constructions, "FREE_WALK_CAP", 17)
        with pytest.raises(ResourceError):
            construct_pq(loops["klein"], autgroups["z2xz2"], ChoiceSource(0),
                         free_fixed_points=True)

    def test_default_mode_admits_large_aut(self, loops):
        # only free mode walks Aut(A)
        autgroup = enumerate_automorphisms(make_group([2] * 5))
        pmap, qmap = construct_pq(loops["klein"], autgroup, ChoiceSource(0))
        inv = loops["klein"].properties().inverse_map
        assert coincidence_condition_holds(autgroup, inv, pmap, qmap)


class TestLipConstruction:
    def test_all_identity_choices(self, loops, groups):
        # with a single-member automorphism group every choice is Id
        cocycle = construct_lip_cocycle(loops["z4"], groups["z2"], ChoiceSource(0))
        assert all(v == 0 for row in cocycle.ptable for v in row)
        assert all(v == 0 for row in cocycle.qtable for v in row)
        built, _ = build_extension(cocycle)
        assert analyze_properties(built).has_lip

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_z4_z3(self, loops, groups, seed):
        cocycle = construct_lip_cocycle(loops["z4"], groups["z3"], ChoiceSource(seed))
        assert check_lip_conditions(cocycle)
        built, _ = build_extension(cocycle)
        assert built.size == 12
        assert analyze_properties(built).has_lip

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("loop_name,orders", [
        ("klein", (2, 2)), ("z5", (3,)), ("ip7", (4,)), ("lip_only", (3,)),
    ])
    def test_other_bases(self, loops, loop_name, orders, seed):
        group = make_group(list(orders))
        cocycle = construct_lip_cocycle(loops[loop_name], group, ChoiceSource(seed))
        assert analyze_properties(build_extension(cocycle)[0]).has_lip

    @pytest.mark.parametrize("seed", range(20))
    def test_representative_independence(self, loops, groups, seed):
        # applying the forcing formula from the non-representative member
        # must reproduce the representative values
        from loopext.orbits import phi_orbits

        loop = loops["z4"]
        cocycle = construct_lip_cocycle(loop, groups["z2xz2"], ChoiceSource(seed))
        autgroup = cocycle.autgroup
        c, v = autgroup.compose_indices, autgroup.invert_index
        inv = loop.properties().inverse_map
        for orbit in phi_orbits(loop).orbits:
            (rx, ry), (mx, my) = orbit
            assert cocycle.qtable[rx][ry] == v(cocycle.qtable[mx][my])
            forced = c(v(cocycle.qtable[mx][my]),
                       c(cocycle.ptable[mx][my],
                         c(v(cocycle.qtable[inv[mx]][mx]), cocycle.ptable[inv[mx]][mx])))
            assert cocycle.ptable[rx][ry] == forced

    def test_requires_lip(self, loops, groups):
        with pytest.raises(PreconditionError):
            construct_lip_cocycle(loops["mismatch"], groups["z2"], ChoiceSource(0))

    def test_seed_reproducibility(self, loops, groups):
        a = construct_lip_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(11))
        b = construct_lip_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(11))
        assert dumps_cocycle(a) == dumps_cocycle(b)
        c = construct_lip_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(12))
        assert dumps_cocycle(a) != dumps_cocycle(c)


class TestRipConstruction:
    def test_all_identity_choices(self, loops, groups):
        cocycle = construct_rip_cocycle(loops["z4"], groups["z2"], ChoiceSource(0))
        assert all(v == 0 for row in cocycle.ptable for v in row)
        assert all(v == 0 for row in cocycle.qtable for v in row)
        assert analyze_properties(build_extension(cocycle)[0]).has_rip

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_z4_klein_kernel(self, loops, groups, seed):
        cocycle = construct_rip_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(seed))
        assert check_rip_conditions(cocycle)
        assert analyze_properties(build_extension(cocycle)[0]).has_rip

    @pytest.mark.parametrize("seed", range(25))
    def test_rip_only_base(self, loops, seed):
        # the opposite of the LIP-only loop has RIP but not LIP
        loop = opposite_loop(loops["lip_only"])
        cocycle = construct_rip_cocycle(loop, make_group([3]), ChoiceSource(seed))
        report = analyze_properties(build_extension(cocycle)[0])
        assert report.has_rip and not report.has_lip

    @pytest.mark.parametrize("seed", range(20))
    def test_representative_independence(self, loops, groups, seed):
        from loopext.orbits import psi_orbits

        loop = loops["z4"]
        cocycle = construct_rip_cocycle(loop, groups["z2xz2"], ChoiceSource(seed))
        autgroup = cocycle.autgroup
        c, v = autgroup.compose_indices, autgroup.invert_index
        inv = loop.properties().inverse_map
        for orbit in psi_orbits(loop).orbits:
            (rx, ry), (mx, my) = orbit
            assert cocycle.ptable[rx][ry] == v(cocycle.ptable[mx][my])
            iy = inv[my]
            forced = c(v(cocycle.ptable[mx][my]),
                       c(cocycle.qtable[mx][my],
                         c(v(cocycle.ptable[my][iy]), cocycle.qtable[my][iy])))
            assert cocycle.qtable[rx][ry] == forced

    def test_requires_rip(self, loops, groups):
        with pytest.raises(PreconditionError):
            construct_rip_cocycle(loops["lip_only"], groups["z2"], ChoiceSource(0))


class TestDuality:
    @pytest.mark.parametrize("seed", range(50))
    def test_opposite_of_lip_is_rip(self, loops, groups, seed):
        cocycle = construct_lip_cocycle(loops["z4"], groups["z3"], ChoiceSource(seed))
        mirrored = opposite_cocycle(cocycle)
        assert check_rip_conditions(mirrored)
        assert analyze_properties(build_extension(mirrored)[0]).has_rip


class TestIpConstruction:
    def test_order2_complement_empty(self, loops, groups):
        cocycle = construct_ip_cocycle(loops["z2"], groups["z2xz2"], ChoiceSource(4))
        assert all(v == 0 for row in cocycle.ptable for v in row)
        assert all(v == 0 for row in cocycle.qtable for v in row)

    def test_trivial_loop(self, loops, groups):
        # l = 1: the extension is the kernel group itself
        cocycle = construct_ip_cocycle(loops["trivial"], groups["z2xz2"], ChoiceSource(0))
        built, _ = build_extension(cocycle)
        assert built.table == loops["klein"].table

    def test_klein_z3_all_choices(self, loops, groups):
        # one orbit, two automorphisms: all four assignments are sound
        results = set()
        for p in (0, 1):
            for q in (0, 1):
                cocycle = construct_ip_cocycle(loops["klein"], groups["z3"], Replay([p, q]))
                assert is_strongly_linear(cocycle)
                assert check_ip_conditions(cocycle)
                report = analyze_properties(build_extension(cocycle)[0])
                assert report.has_ip
                results.add(cocycle)
        assert len(results) == 4

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_z5(self, loops, groups, seed):
        cocycle = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(seed))
        built, _ = build_extension(cocycle)
        assert built.size == 20
        assert analyze_properties(built).has_ip

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_nonassociative_base(self, loops, groups, seed):
        cocycle = construct_ip_cocycle(loops["ip8"], groups["z3"], ChoiceSource(seed))
        built, _ = build_extension(cocycle)
        assert not built.is_associative()
        assert analyze_properties(built).has_ip

    def test_order3_rejected(self, loops, groups):
        # an orbit of two, {(x, x), (x^{-1}, x^{-1})} with x*x = x^{-1}, gets
        # (Id, Id) and draws nothing; a pair its stabiliser {id, phi*psi,
        # psi*phi} does not fix is rejected by both routes, so on z3, whose
        # complement is the one orbit {(1, 1), (2, 2)}, with A = Z2^2 the
        # strongly linear IP cocycles are (Q^{-1}, Q) at (1, 1), Q^3 = Id,
        # and its phi image at (2, 2)
        for name, group in (("z3", "z3"), ("z6", "z2"), ("ip7", "z2xz2")):
            loop, source = loops[name], Replay()
            cocycle = construct_ip_cocycle(loop, groups[group], source)
            orbits = list(gamma_orbits(loop))
            pairs = [o for o in orbits if o[0] == o[4]]
            assert pairs and len(source.asked) == 2 * (len(orbits) - len(pairs))
            ident = cocycle.autgroup.identity_index
            assert all(cocycle.ptable[x][y] == cocycle.qtable[x][y] == ident
                       for members in pairs for x, y in members)

        loop, group = loops["z3"], groups["z2xz2"]
        aut = enumerate_automorphisms(group)
        m, v, ident = aut.products, aut.inverses, aut.identity_index
        survivors = []
        for p1, q1, p2, q2 in itertools.product(range(len(aut)), repeat=4):
            ptable, qtable = [[ident] * 3 for _ in range(3)], [[ident] * 3 for _ in range(3)]
            ptable[1][1], qtable[1][1], ptable[2][2], qtable[2][2] = p1, q1, p2, q2
            cocycle = make_cocycle(loop, group, ptable, qtable)
            ip = analyze_properties(build_extension(cocycle)[0]).has_ip
            assert check_ip_conditions(cocycle) == ip
            if ip:
                survivors.append(((p1, q1), (p2, q2)))
        fixed = [(v[q], q) for q in range(len(aut)) if m[q][m[q][q]] == ident]
        assert len(fixed) == 3
        assert sorted(survivors) == sorted(
            ((p, q), PAIR_MAPS["phi"](m, v, p, q)) for p, q in fixed)
        assert construct_ip_cocycle(loop, group, ChoiceSource(0)) == make_cocycle(
            loop, group, [[ident] * 3] * 3, [[ident] * 3] * 3)

    def test_non_ip_rejected(self, loops, groups):
        with pytest.raises(PreconditionError):
            construct_ip_cocycle(loops["lip_only"], groups["z2"], ChoiceSource(0))

    def test_orbit_count_matches_formula(self, loops, groups):
        from loopext.orbits import gamma_orbits

        for name in ("z2", "klein", "z4", "z5", "z7", "z8", "ip8"):
            loop = loops[name]
            l = loop.size
            assert len(gamma_orbits(loop).orbits) == (l - 1) * (l - 2) // 6

    def test_seed_reproducibility(self, loops, groups):
        a = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(77))
        b = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(77))
        assert dumps_cocycle(a) == dumps_cocycle(b)

    def test_orbits_computed_once(self, loops, groups, monkeypatch):
        from loopext import constructions

        calls = []
        original = constructions.gamma_orbits

        def counting(loop):
            calls.append(loop)
            return original(loop)

        monkeypatch.setattr(constructions, "gamma_orbits", counting)
        cocycle = construct_ip_cocycle(loops["ip8"], groups["z3"], ChoiceSource(5))
        assert len(calls) == 1
        assert check_ip_conditions(cocycle)

    def test_orbits_walked_once(self, loops, groups, monkeypatch):
        # the gate's equivariance check reuses the construction's orbits
        from loopext import orbits

        walks = []
        original = orbits._orbits

        def counting(loop, mode, *args):
            walks.append(mode)
            return original(loop, mode, *args)

        monkeypatch.setattr(orbits, "_orbits", counting)
        loop = make_loop(loops["ip8"].table)  # not walked before
        construct_ip_cocycle(loop, groups["z3"], ChoiceSource(5))
        assert walks == ["gamma"]

    def test_no_orbit_objects(self, loops, groups, monkeypatch):
        # constructions and the gate's equivariance check read the packed
        # cell codes, so a warm process unpacks no orbit into cells per call
        from loopext import orbits

        def refuse(*args):
            raise AssertionError("orbits unpacked")

        monkeypatch.setattr(orbits.OrbitDecomposition, "__iter__", refuse)
        loop = make_loop(loops["ip8"].table)
        for construct in (construct_lip_cocycle, construct_rip_cocycle, construct_ip_cocycle):
            construct(loop, groups["z3"], ChoiceSource(5))


def built_as_not_a_loop(monkeypatch):
    built = (None, "row 0 repeats an entry")
    monkeypatch.setattr(constructions, "build_extension", lambda cocycle: built)


def built_from_another_cocycle(monkeypatch):
    # the gate scans the extension of a random cocycle, whose left and right
    # inverses differ where the construction's coincide
    other = random_cocycle(cyclic_loop(4), make_group([3]), ChoiceSource(0))
    monkeypatch.setattr(constructions, "build_extension", lambda cocycle: build_extension(other))


def last_orbit_dropped(monkeypatch):
    monkeypatch.setattr(constructions, "phi_orbits", lambda loop: SimpleNamespace(
        blocks=lambda: list(phi_orbits(loop).blocks())[:-1]))


def coincidence_refused(monkeypatch):
    monkeypatch.setattr(constructions, "coincidence_condition_holds", lambda *args: False)


def lie(monkeypatch, checker):
    """Make ``verify``'s closed-form ``checker`` give the wrong answer."""
    honest = getattr(verification, checker)
    monkeypatch.setattr(verification, checker, lambda cocycle: not honest(cocycle))


def closed_form_refused(monkeypatch):
    lie(monkeypatch, "check_lip_conditions")


GATE_FAULTS = {
    "closed-form-refuses": (closed_form_refused,
                            "^constructed cocycle fails agreement-lip$"),
    "not-a-loop": (built_as_not_a_loop, "built extension is not a loop"),
    "scan-disagrees": (built_from_another_cocycle,
                       "^constructed cocycle fails agreement-inverse-coincidence$"),
    "cell-unassigned": (last_orbit_dropped, r"construction left P\(2, 1\) unassigned"),
    "pq-not-coincident": (coincidence_refused, "violate the coincidence condition"),
}


class TestGateFaults:
    """A construction that breaks its own invariants raises InternalError,
    a crash that ``loopext construct`` lets through rather than exit 2."""

    @pytest.mark.parametrize("fault", sorted(GATE_FAULTS))
    def test_raised_and_propagated(self, loops, groups, monkeypatch, tmp_path, fault):
        provoke, message = GATE_FAULTS[fault]
        provoke(monkeypatch)
        with pytest.raises(InternalError, match=message):
            construct_lip_cocycle(loops["z4"], groups["z3"], ChoiceSource(0))
        loop_path = tmp_path / "z4.loop"
        emit_loop_file(loops["z4"], loop_path)
        with pytest.raises(InternalError, match=message):
            main(["construct", "--loop", str(loop_path), "--group", "3", "--mode", "lip",
                  "--out", str(tmp_path / "x.coc")])

    def test_gate_checks_every_applicable_condition(self, loops, groups, monkeypatch):
        # a LIP construction over a base with RIP too is proved by the RIP
        # agreement line as well, not by the LIP checker alone
        lie(monkeypatch, "check_rip_conditions")
        with pytest.raises(InternalError, match="^constructed cocycle fails agreement-rip$"):
            construct_lip_cocycle(loops["klein"], groups["z3"], ChoiceSource(0))

    def test_gate_checks_equivariance(self, loops, groups, monkeypatch):
        lie(monkeypatch, "check_equivariance")
        with pytest.raises(InternalError,
                           match="^constructed cocycle fails agreement-equivariance$"):
            construct_ip_cocycle(loops["ip8"], groups["z3"], ChoiceSource(0))

    def test_not_strongly_linear(self, loops, groups, monkeypatch):
        monkeypatch.setattr(constructions, "is_strongly_linear", lambda cocycle: False)
        with pytest.raises(InternalError, match="fails is_strongly_linear$"):
            construct_ip_cocycle(loops["ip8"], groups["z3"], ChoiceSource(0))

    @pytest.mark.parametrize("construct", [construct_lip_cocycle, construct_rip_cocycle,
                                           construct_ip_cocycle])
    def test_verify_reads_the_gate_back(self, loops, groups, monkeypatch, construct):
        # verify on a constructed cocycle repeats no build, closed-form
        # check or inverse scan of the gate
        from loopext import extension, loops as loops_module

        cocycle = construct(loops["ip8"], groups["z3"], ChoiceSource(1))

        def repeated(*args):
            raise AssertionError("verify repeated the gate's work")

        for module, name in ((extension, "_build"), (extension, "_lip_conditions_hold"),
                             (extension, "_equivariance_holds"),
                             (loops_module, "analyze_properties")):
            monkeypatch.setattr(module, name, repeated)
        mode = construct.__name__.split("_")[1]
        assert verification.verify_cocycle(cocycle, mode=mode).passed


class TestRandomCocycle:
    @pytest.mark.parametrize("seed", range(10))
    def test_boundary_pinned(self, loops, groups, seed):
        cocycle = random_cocycle(loops["z4"], groups["z3"], ChoiceSource(seed))
        for x in range(4):
            assert cocycle.ptable[x][0] == 0
            assert cocycle.qtable[0][x] == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_strongly_linear_pins_sigma(self, loops, groups, seed):
        from loopext.orbits import sigma_set

        cocycle = random_cocycle(loops["klein"], groups["z3"], ChoiceSource(seed),
                                 strongly_linear=True)
        assert is_strongly_linear(cocycle)
        for (x, y) in sigma_set(loops["klein"]):
            assert cocycle.ptable[x][y] == 0
            assert cocycle.qtable[x][y] == 0
