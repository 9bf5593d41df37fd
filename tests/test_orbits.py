import pytest

from loopext import orbits
from loopext.abelian import enumerate_automorphisms, make_group
from loopext.errors import InternalError, Order3Error, PreconditionError
from loopext.orbits import (
    GAMMA,
    GAMMA_BY_NAME,
    gamma_orbits,
    phi_orbits,
    psi_orbits,
    sigma_set,
)


class TestSigma:
    def test_z2_complement_empty(self, loops):
        sigma = sigma_set(loops["z2"])
        assert len(sigma) == 4
        assert sigma.complement() == ()

    def test_trivial(self, loops):
        sigma = sigma_set(loops["trivial"])
        assert len(sigma) == 1
        assert sigma.complement() == ()

    def test_klein_counts(self, loops):
        sigma = sigma_set(loops["klein"])
        assert len(sigma) == 10
        assert len(sigma.complement()) == 6

    def test_z4_complement_cells(self, loops):
        sigma = sigma_set(loops["z4"])
        assert sigma.complement() == ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3))

    @pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "z7", "klein", "ip7", "ip8"])
    def test_cardinality_formula(self, loops, name):
        loop = loops[name]
        sigma = sigma_set(loop)
        l = loop.size
        assert len(sigma) == 3 * l - 2
        assert len(sigma.complement()) == (l - 1) * (l - 2)

    def test_requires_coinciding_inverses(self, loops):
        with pytest.raises(PreconditionError):
            sigma_set(loops["mismatch"])

    def test_complement_row_major(self, loops):
        complement = sigma_set(loops["z5"]).complement()
        assert list(complement) == sorted(complement)


class TestPhiPsiOrbits:
    def test_z4_phi_orbits(self, loops):
        decomposition = phi_orbits(loops["z4"])
        assert decomposition.mode == "phi"
        assert [orbit.members for orbit in decomposition.orbits] == [
            ((1, 1), (3, 2)),
            ((1, 2), (3, 3)),
            ((2, 1), (2, 3)),
        ]

    def test_z4_psi_orbits(self, loops):
        decomposition = psi_orbits(loops["z4"])
        assert [orbit.members for orbit in decomposition.orbits] == [
            ((1, 1), (2, 3)),
            ((1, 2), (3, 2)),
            ((2, 1), (3, 3)),
        ]

    @pytest.mark.parametrize("name", ["z4", "z5", "z7", "klein", "ip7", "ip8", "lip_only"])
    def test_phi_orbits_partition(self, loops, name):
        loop = loops[name]
        decomposition = phi_orbits(loop)
        cells = [cell for orbit in decomposition.orbits for cell in orbit.members]
        assert sorted(cells) == list(sigma_set(loop).complement())
        for orbit in decomposition.orbits:
            assert len(orbit.members) == 2
            assert orbit.representative == orbit.members[0]
            assert orbit.representative == min(orbit.members)

    def test_phi_requires_lip(self, loops):
        with pytest.raises(PreconditionError):
            phi_orbits(loops["mismatch"])

    def test_psi_requires_rip(self, loops):
        with pytest.raises(PreconditionError):
            psi_orbits(loops["lip_only"])

    def test_representatives_ascending(self, loops):
        for decomposition in (phi_orbits(loops["z7"]), psi_orbits(loops["z7"])):
            reps = [orbit.representative for orbit in decomposition.orbits]
            assert reps == sorted(reps)


class TestGammaOrbit:
    def test_klein_orbit_is_all_distinct_pairs(self, loops):
        (orbit,) = gamma_orbits(loops["klein"]).orbits
        assert orbit.representative == (1, 2)
        assert set(orbit.members) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b}

    def test_z4_orbit_listing(self, loops):
        (orbit,) = gamma_orbits(loops["z4"]).orbits
        assert orbit.members == (
            (1, 1), (3, 2), (2, 3), (3, 3), (2, 1), (1, 2),
        )
        assert orbit.symmetries == tuple(g.name for g in GAMMA)

    def test_z3_order3_error(self, loops):
        with pytest.raises(Order3Error):
            gamma_orbits(loops["z3"])

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
        cells = [cell for orbit in decomposition.orbits for cell in orbit.members]
        assert sorted(cells) == list(sigma_set(loop).complement())
        for orbit in decomposition.orbits:
            assert len(set(orbit.members)) == 6

    def test_z2_no_orbits(self, loops):
        assert gamma_orbits(loops["z2"]).orbits == ()

    def test_sigma_built_once(self, loops, monkeypatch):
        calls = []
        original = orbits.sigma_set

        def counting(loop):
            calls.append(loop)
            return original(loop)

        monkeypatch.setattr(orbits, "sigma_set", counting)
        decomposition = gamma_orbits(loops["ip8"])
        assert len(calls) == 1
        assert len(decomposition.orbits) == 7


class TestWalkerChecks:
    """The walker refuses cell maps that do not partition the complement."""

    @pytest.mark.parametrize("broken", ["order3", "fixes_image"])
    def test_non_involution_rejected(self, loops, monkeypatch, broken):
        phi = orbits._CELL_MAPS["phi"]
        maps = {
            # phi*psi has order three: {cell, image} is not closed under it
            "order3": orbits._CELL_MAPS["phi*psi"],
            # sends the representative to its partner but fixes the partner
            "fixes_image": lambda t, inv, x, y: max(phi(t, inv, x, y), (x, y)),
        }
        monkeypatch.setitem(orbits._CELL_MAPS, "phi", maps[broken])
        with pytest.raises(InternalError, match="not closed under phi"):
            phi_orbits(loops["z5"])

    def test_map_into_sigma_rejected(self, loops, monkeypatch):
        # (x, y) -> (y^{-1}, y) lands on the inverse diagonal
        monkeypatch.setitem(orbits._CELL_MAPS, "phi", lambda t, inv, x, y: (inv[y], y))
        with pytest.raises(InternalError, match="fresh complement cells"):
            phi_orbits(loops["z5"])


class TestPairAction:
    def test_swap_row(self, autgroups):
        autgroup = autgroups["z2xz2"]
        assert GAMMA_BY_NAME["phi*psi*phi"].pair_indices(autgroup, 1, 4) == (4, 1)

    def test_generators_involutive(self, autgroups):
        autgroup = autgroups["z2xz2"]
        for p in range(len(autgroup)):
            for q in range(len(autgroup)):
                for name in ("phi", "psi"):
                    tau = GAMMA_BY_NAME[name]
                    once = tau.pair_indices(autgroup, p, q)
                    assert tau.pair_indices(autgroup, *once) == (p, q)

    def test_phi_psi_has_order_three(self, autgroups):
        autgroup = autgroups["z2xz2"]
        for p in range(len(autgroup)):
            for q in range(len(autgroup)):
                pair = (p, q)
                for _ in range(3):
                    pair = GAMMA_BY_NAME["phi*psi"].pair_indices(autgroup, *pair)
                assert pair == (p, q)

    def test_words_reproduce_table_on_pairs(self, autgroups):
        # composing the generator actions (rightmost first) must give exactly
        # the direct formulas of each table row
        for autgroup in (autgroups["z2xz2"], autgroups["z4"]):
            for tau in GAMMA:
                for pi in range(len(autgroup)):
                    for qi in range(len(autgroup)):
                        folded = (pi, qi)
                        for name in reversed(tau.name.split("*")):
                            folded = GAMMA_BY_NAME[name].pair_indices(autgroup, *folded)
                        assert folded == tau.pair_indices(autgroup, pi, qi)

    def test_words_reproduce_table_on_larger_aut(self):
        # Aut(Z3 x Z3) = GL(2, 3) has 48 members, so a formula that only
        # holds in the six-element Aut(Z2 x Z2) would fail here
        autgroup = enumerate_automorphisms(make_group((3, 3)))
        assert len(autgroup) == 48
        c, v = autgroup.compose_indices, autgroup.invert_index
        for name, pair_map in orbits._PAIR_MAPS.items():
            factors = name.split("*")
            for p in range(len(autgroup)):
                for q in range(len(autgroup)):
                    folded = (p, q)
                    for factor in reversed(factors):  # "phi*psi" is phi after psi
                        folded = orbits._PAIR_MAPS[factor](c, v, *folded)
                    assert folded == pair_map(c, v, p, q)

    def test_words_reproduce_table_on_cells(self, loops):
        for name in ("klein", "z4", "z5", "ip8"):
            loop = loops[name]
            inv = loop.properties().inverse_map
            for cell in sigma_set(loop).complement():
                for tau in GAMMA:
                    folded = cell
                    for gen in reversed(tau.name.split("*")):
                        folded = GAMMA_BY_NAME[gen].cell_image(loop, inv, folded)
                    assert folded == tau.cell_image(loop, inv, cell)
