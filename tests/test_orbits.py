import tracemalloc

import pytest
from reference import complement, pinned_cells, walked_orbits

from loopext import orbits
from loopext.abelian import enumerate_automorphisms, make_group
from loopext.catalog import abelian_group_loop, bundled_corpus, cyclic_loop, ip_loop8
from loopext.errors import InternalError, PreconditionError
from loopext.loops import make_loop
from loopext.orbits import (
    CELL_MAPS,
    PAIR_MAPS,
    gamma_orbits,
    phi_orbits,
    psi_orbits,
    sigma_set,
)


class TestSigma:
    def test_z2_complement_empty(self, loops):
        sigma = sigma_set(loops["z2"])
        assert len(sigma) == 4
        assert complement(sigma, 2) == ()

    def test_trivial(self, loops):
        sigma = sigma_set(loops["trivial"])
        assert len(sigma) == 1
        assert complement(sigma, 1) == ()

    def test_klein_counts(self, loops):
        sigma = sigma_set(loops["klein"])
        assert len(sigma) == 10
        assert len(complement(sigma, 4)) == 6

    def test_z4_complement_cells(self, loops):
        sigma = sigma_set(loops["z4"])
        assert complement(sigma, 4) == ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3))

    @pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "z7", "klein", "ip7", "ip8"])
    def test_cardinality_formula(self, loops, name):
        loop = loops[name]
        sigma = sigma_set(loop)
        l = loop.size
        assert len(sigma) == 3 * l - 2
        assert len(complement(sigma, l)) == (l - 1) * (l - 2)

    def test_requires_coinciding_inverses(self, loops):
        with pytest.raises(PreconditionError):
            sigma_set(loops["mismatch"])

    @pytest.mark.parametrize("name", [*sorted(bundled_corpus()), "lip_only"])
    def test_is_its_definition(self, loops, name):
        # {(x, e), (e, x), (x^{-1}, x)} from the raw table, on every corpus
        # loop whose inverses coincide; ip7 has x*x = x^{-1}
        loop = {**bundled_corpus(), **loops}[name]
        t = loop.table
        assert [row.index(0) for row in t] == [column.index(0) for column in zip(*t)]
        sigma = sigma_set(loop)
        assert isinstance(sigma, frozenset)
        assert sigma == pinned_cells(loop)


class TestPhiPsiOrbits:
    def test_z4_phi_orbits(self, loops):
        decomposition = phi_orbits(loops["z4"])
        assert decomposition.symmetries == ("id", "phi")
        assert list(decomposition.orbits) == [
            ((1, 1), (3, 2)),
            ((1, 2), (3, 3)),
            ((2, 1), (2, 3)),
        ]

    def test_z4_psi_orbits(self, loops):
        decomposition = psi_orbits(loops["z4"])
        assert list(decomposition.orbits) == [
            ((1, 1), (2, 3)),
            ((1, 2), (3, 2)),
            ((2, 1), (3, 3)),
        ]

    @pytest.mark.parametrize("name", ["z4", "z5", "z7", "klein", "ip7", "ip8", "lip_only"])
    def test_phi_orbits_partition(self, loops, name):
        loop = loops[name]
        decomposition = phi_orbits(loop)
        cells = [cell for orbit in decomposition.orbits for cell in orbit]
        assert sorted(cells) == list(complement(sigma_set(loop), loop.size))
        for orbit in decomposition.orbits:
            assert len(orbit) == 2
            assert orbit[0] == min(orbit)

    def test_phi_requires_lip(self, loops):
        with pytest.raises(PreconditionError):
            phi_orbits(loops["mismatch"])

    def test_psi_requires_rip(self, loops):
        with pytest.raises(PreconditionError):
            psi_orbits(loops["lip_only"])

    def test_representatives_ascending(self, loops):
        for decomposition in (phi_orbits(loops["z7"]), psi_orbits(loops["z7"])):
            reps = [orbit[0] for orbit in decomposition.orbits]
            assert reps == sorted(reps)


class TestGammaOrbit:
    def test_klein_orbit_is_all_distinct_pairs(self, loops):
        (orbit,) = gamma_orbits(loops["klein"]).orbits
        assert orbit[0] == (1, 2)
        assert set(orbit) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b}

    def test_z4_orbit_listing(self, loops):
        decomposition = gamma_orbits(loops["z4"])
        assert decomposition.orbits == ((
            (1, 1), (3, 2), (2, 3), (3, 3), (2, 1), (1, 2),
        ),)
        assert decomposition.symmetries == tuple(CELL_MAPS)

    def test_z3_order3_error(self, loops, monkeypatch):
        # z3's complement is one orbit of two, {(1, 1), (2, 2)} with
        # 1 + 1 = -1: its block is six codes wide and lists each cell three
        # times, and the walker still refuses it if a map leaves the
        # complement
        (orbit,) = gamma_orbits(loops["z3"])
        assert orbit == ((1, 1), (2, 2), (2, 2), (2, 2), (1, 1), (1, 1))
        # (x, y) -> (x, x^{-1}) lands on the inverse diagonal
        monkeypatch.setitem(CELL_MAPS, "psi", lambda t, inv, x, y: (x, inv[x]))
        with pytest.raises(InternalError, match="fresh complement cells"):
            gamma_orbits(make_loop(loops["z3"].table))  # not walked before

    def test_not_ip_rejected(self, loops):
        with pytest.raises(PreconditionError):
            gamma_orbits(loops["lip_only"])

    @pytest.mark.parametrize("name,count", [
        ("z4", 1), ("z5", 2), ("klein", 1), ("z7", 5), ("z8", 7), ("ip8", 7),
    ])
    def test_orbit_counts(self, loops, name, count):
        loop = loops[name]
        decomposition = gamma_orbits(loop)
        assert len(decomposition.orbits) == count
        cells = [cell for orbit in decomposition.orbits for cell in orbit]
        assert sorted(cells) == list(complement(sigma_set(loop), loop.size))
        for orbit in decomposition.orbits:
            assert len(set(orbit)) == 6

    def test_z2_no_orbits(self, loops):
        assert gamma_orbits(loops["z2"]).orbits == ()

    def test_sigma_built_once(self, loops, monkeypatch):
        calls = []
        original = orbits.sigma_set

        def counting(loop):
            calls.append(loop)
            return original(loop)

        monkeypatch.setattr(orbits, "sigma_set", counting)
        decomposition = gamma_orbits(make_loop(loops["ip8"].table))  # not walked before
        assert len(calls) == 1
        assert len(decomposition.orbits) == 7


class TestKeptDecompositions:
    """A loop is walked once per mode; later calls return the kept decomposition."""

    @pytest.mark.parametrize("walk,name", [
        (phi_orbits, "z5"), (psi_orbits, "z5"), (gamma_orbits, "ip8"),
    ])
    def test_second_call_walks_nothing(self, loops, monkeypatch, walk, name):
        loop = make_loop(loops[name].table)
        first = walk(loop)

        def no_walk(*args):
            raise AssertionError("orbits walked again")

        for key in CELL_MAPS:
            monkeypatch.setitem(CELL_MAPS, key, no_walk)
        monkeypatch.setattr(orbits, "sigma_set", no_walk)
        assert walk(loop) is first

    def test_sigma_kept_and_checked_on_every_call(self, loops):
        # the walk reads the kept Sigma; a refused loop is refused each time
        loop = make_loop(loops["ip7"].table)
        sigma = sigma_set(loop)
        gamma_orbits(loop)
        assert sigma_set(loop) is sigma
        mismatch = make_loop(loops["mismatch"].table)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="Sigma is undefined"):
                sigma_set(mismatch)

    def test_preconditions_checked_on_every_call(self, loops):
        loop = make_loop(loops["lip_only"].table)
        assert phi_orbits(loop) is phi_orbits(loop)
        for _ in range(2):
            with pytest.raises(PreconditionError):
                psi_orbits(loop)
            with pytest.raises(PreconditionError):
                gamma_orbits(loop)


def ip8_times_z2(k):
    """The IP loop ip8 x Z2^k, of order 8 * 2^k, on pairs (x, a) -> x * 2^k + a."""
    left, right = ip_loop8().table, abelian_group_loop([2] * k).table
    n = len(right)
    return make_loop([[left[x][y] * n + right[a][b] for y in range(8) for b in range(n)]
                      for x in range(8) for a in range(n)])


WALKS = {"phi": (phi_orbits, ("id", "phi")), "psi": (psi_orbits, ("id", "psi")),
         "gamma": (gamma_orbits, tuple(CELL_MAPS))}


class TestPackedWalk:
    """The packed decomposition lists the orbits of the plain walk that the
    library kept as objects before, in the same order."""

    @staticmethod
    def assert_same_walk(loop):
        report = loop.properties()
        applies = {"phi": report.has_lip, "psi": report.has_rip,
                   "gamma": report.has_ip}
        for mode, (walk, names) in WALKS.items():
            if not applies[mode]:
                continue
            decomposition = walk(loop)
            expected = walked_orbits(loop, names)
            assert len(decomposition) == len(expected)
            assert decomposition.symmetries == names
            assert list(decomposition.orbits) == expected

    @pytest.mark.parametrize("name", sorted(bundled_corpus()))
    def test_corpus(self, name):
        self.assert_same_walk(make_loop(bundled_corpus()[name].table))

    @pytest.mark.parametrize("l", range(1, 17))
    def test_cyclic(self, l):
        self.assert_same_walk(cyclic_loop(l))

    def test_ip_loop_of_order_64(self):
        self.assert_same_walk(ip8_times_z2(3))

    def test_phi_decomposition_of_order_128_is_packed(self):
        # 16002 complement cells at 8 bytes each; as one object per orbit
        # with its cell tuples the same decomposition took 2.34 MB
        loop = ip8_times_z2(4)
        loop.properties()
        tracemalloc.start()
        try:
            decomposition = phi_orbits(loop)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(decomposition) == (128 * 128 - 3 * 128 + 2) // 2
        assert kept <= peak < 0.3e6, (kept, peak)

    def test_orbits_built_on_demand(self, loops):
        decomposition = gamma_orbits(loops["ip8"])
        first = decomposition.orbits
        assert first is not decomposition.orbits
        assert first == decomposition.orbits


class TestWalkerChecks:
    """The walker refuses cell maps that do not partition the complement."""

    @pytest.mark.parametrize("broken", ["order3", "fixes_image"])
    def test_non_involution_rejected(self, loops, monkeypatch, broken):
        phi = CELL_MAPS["phi"]
        maps = {
            # phi*psi has order three: {cell, image} is not closed under it
            "order3": CELL_MAPS["phi*psi"],
            # sends the representative to its partner but fixes the partner
            "fixes_image": lambda t, inv, x, y: max(phi(t, inv, x, y), (x, y)),
        }
        monkeypatch.setitem(CELL_MAPS, "phi", maps[broken])
        with pytest.raises(InternalError, match="not closed under phi"):
            phi_orbits(make_loop(loops["z5"].table))  # not walked before

    def test_map_into_sigma_rejected(self, loops, monkeypatch):
        # (x, y) -> (y^{-1}, y) lands on the inverse diagonal
        monkeypatch.setitem(CELL_MAPS, "phi", lambda t, inv, x, y: (inv[y], y))
        with pytest.raises(InternalError, match="fresh complement cells"):
            phi_orbits(make_loop(loops["z5"].table))  # not walked before


def pair_image(autgroup, name, p, q):
    return PAIR_MAPS[name](autgroup.products, autgroup.inverses, p, q)


def cell_image(loop, inv, name, cell):
    return CELL_MAPS[name](loop.table, inv, *cell)


class TestPairAction:
    def test_same_six_names(self):
        assert tuple(PAIR_MAPS) == tuple(CELL_MAPS)

    def test_swap_row(self, autgroups):
        autgroup = autgroups["z2xz2"]
        assert pair_image(autgroup, "phi*psi*phi", 1, 4) == (4, 1)

    def test_generators_involutive(self, autgroups):
        autgroup = autgroups["z2xz2"]
        for p in range(len(autgroup)):
            for q in range(len(autgroup)):
                for name in ("phi", "psi"):
                    once = pair_image(autgroup, name, p, q)
                    assert pair_image(autgroup, name, *once) == (p, q)

    def test_phi_psi_has_order_three(self, autgroups):
        autgroup = autgroups["z2xz2"]
        for p in range(len(autgroup)):
            for q in range(len(autgroup)):
                pair = (p, q)
                for _ in range(3):
                    pair = pair_image(autgroup, "phi*psi", *pair)
                assert pair == (p, q)

    def test_words_reproduce_table_on_pairs(self, autgroups):
        # composing the generator actions (rightmost first) must give exactly
        # the direct formulas of each table row
        for autgroup in (autgroups["z2xz2"], autgroups["z4"]):
            for tau in PAIR_MAPS:
                for pi in range(len(autgroup)):
                    for qi in range(len(autgroup)):
                        folded = (pi, qi)
                        for name in reversed(tau.split("*")):
                            folded = pair_image(autgroup, name, *folded)
                        assert folded == pair_image(autgroup, tau, pi, qi)

    def test_words_reproduce_table_on_larger_aut(self):
        # Aut(Z3 x Z3) = GL(2, 3) has 48 members, so a formula that only
        # holds in the six-element Aut(Z2 x Z2) would fail here
        autgroup = enumerate_automorphisms(make_group((3, 3)))
        assert len(autgroup) == 48
        m, v = autgroup.products, autgroup.inverses
        for name, pair_map in PAIR_MAPS.items():
            factors = name.split("*")
            for p in range(len(autgroup)):
                for q in range(len(autgroup)):
                    folded = (p, q)
                    for factor in reversed(factors):  # "phi*psi" is phi after psi
                        folded = PAIR_MAPS[factor](m, v, *folded)
                    assert folded == pair_map(m, v, p, q)

    def test_words_reproduce_table_on_cells(self, loops):
        for name in ("klein", "z4", "z5", "ip8"):
            loop = loops[name]
            inv = loop.properties().inverse_map
            for cell in complement(sigma_set(loop), loop.size):
                for tau in CELL_MAPS:
                    folded = cell
                    for gen in reversed(tau.split("*")):
                        folded = cell_image(loop, inv, gen, folded)
                    assert folded == cell_image(loop, inv, tau, cell)
