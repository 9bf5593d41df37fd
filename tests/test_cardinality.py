import pytest
from hypothesis import given, strategies as st

from loopext.cardinality import (
    CardinalityCertificate,
    enumerate_feasible,
    feasible_cardinality,
)
from loopext.constructions import ChoiceSource, construct_ip_cocycle
from loopext.abelian import make_group
from loopext.catalog import abelian_group_loop, bundled_corpus, cyclic_loop
from loopext.cli import main
from loopext.errors import InputError, PreconditionError
from loopext.extension import build_extension
from loopext.fileio import emit_loop_file
from loopext.loops import analyze_properties
from loopext.orbits import gamma_orbits, sigma_set
from loopext.verification import verify_cocycle
from reference import complement

REFERENCE_TRIPLES = [
    (0, 1, 2), (1, 5, 4), (2, 7, 5), (5, 11, 7), (7, 13, 8),
    (12, 17, 10), (15, 19, 11), (22, 23, 13), (26, 25, 14), (35, 29, 16),
]


class TestFeasibleCardinality:
    def test_order_two(self):
        cert = feasible_cardinality(2)
        assert cert == CardinalityCertificate(2, True, 0, 1)

    def test_order_three_infeasible(self):
        cert = feasible_cardinality(3)
        assert not cert.feasible
        assert cert.k is None and cert.h is None

    def test_order_sixteen(self):
        assert feasible_cardinality(16) == CardinalityCertificate(16, True, 35, 29)

    def test_order_one_edge(self):
        # the complement is empty, so order 1 is trivially feasible; h is the
        # positive root of h^2 = 1, although l = (3+h)/2 names the other root
        cert = feasible_cardinality(1)
        assert cert.feasible and cert.k == 0 and cert.h == 1

    def test_invalid_order(self):
        with pytest.raises(InputError):
            feasible_cardinality(0)
        with pytest.raises(InputError):
            feasible_cardinality(-3)

    @pytest.mark.parametrize("bad", [3.0, "7"])
    def test_non_integer_refused(self, bad):
        # refused, not truncated, by the one conversion of outside integers
        with pytest.raises(InputError, match="^loop order is not an integer: "):
            feasible_cardinality(bad)
        with pytest.raises(InputError, match="^max order is not an integer: "):
            enumerate_feasible(bad)

    def test_range_invariants(self):
        for l in range(2, 1001):
            cert = feasible_cardinality(l)
            assert cert.feasible == (l % 6 in (1, 2, 4, 5))
            if cert.feasible:
                assert cert.h == 2 * l - 3
                assert cert.h * cert.h == 1 + 24 * cert.k
                assert 6 * cert.k == l * l - 3 * l + 2
                assert cert.h % 2 == 1 and cert.h % 3 != 0
                assert l == (3 + cert.h) // 2

    @given(st.integers(min_value=2, max_value=5000))
    def test_feasibility_is_residue_condition(self, l):
        assert feasible_cardinality(l).feasible == ((l - 1) * (l - 2) % 6 == 0)


class TestEnumerateFeasible:
    def test_up_to_five(self):
        assert [(c.k, c.h, c.l) for c in enumerate_feasible(5)] == REFERENCE_TRIPLES[:3]

    def test_up_to_sixteen(self):
        assert [(c.k, c.h, c.l) for c in enumerate_feasible(16)] == REFERENCE_TRIPLES

    def test_minimum(self):
        assert [(c.k, c.h, c.l) for c in enumerate_feasible(2)] == [(0, 1, 2)]

    def test_bad_bound(self):
        with pytest.raises(InputError):
            enumerate_feasible(1)


class TestOrbitCrossCheck:
    """The arithmetic against the concrete orbit walk: the complement of
    Sigma has l^2 - 3l + 2 cells in k orbits of six."""

    @pytest.mark.parametrize("name", ["z2", "klein", "z4", "z5", "z7", "z8", "ip8"])
    def test_bundled_loops(self, loops, name):
        loop = loops[name]
        l = loop.size
        decomposition = gamma_orbits(loop)
        assert len(complement(sigma_set(loop), l)) == l * l - 3 * l + 2
        assert len(decomposition.orbits) == feasible_cardinality(l).k

    def test_requires_ip(self, loops):
        with pytest.raises(PreconditionError):
            gamma_orbits(loops["mismatch"])

    def test_requires_no_order3(self, loops):
        # the count 6 | (l-1)(l-2) requires no element x*x = x^{-1}: every
        # order up to 16 that 3 divides is infeasible, and the cyclic loop of
        # that order has two such elements, whose cells form one orbit of two
        for l in range(3, 17, 3):
            assert not feasible_cardinality(l).feasible
            decomposition = gamma_orbits(cyclic_loop(l))
            pairs = [set(orbit) for orbit in decomposition if len(set(orbit)) == 2]
            x = l // 3
            assert pairs == [{(x, x), (2 * x, 2 * x)}]
            assert 6 * (len(decomposition) - 1) + 2 == (l - 1) * (l - 2)


def ip_loops():
    """Every IP loop of the corpus, the cyclic loops of order up to 16, Z3^2
    and Z3 x Z6, by name."""
    found = {name: loop for name, loop in bundled_corpus().items() if loop.properties().has_ip}
    found.update({f"cyclic{l}": cyclic_loop(l) for l in range(1, 17)})
    found.update({"z3^2": abelian_group_loop([3, 3]), "z3xz6": abelian_group_loop([3, 6])})
    return found


class TestProvedCount:
    """What the orbit count proves: on an IP loop the six-element group moves
    every complement cell in an orbit of six, except the cells (x, x) with
    x*x = x^{-1}, which pair up in orbits of two, so (l-1)(l-2) - t is a
    multiple of 6, for t the number of such x != e.  Only when t = 0 does
    6 | (l-1)(l-2) follow; P = Q = Id extends every IP loop with IP."""

    @pytest.mark.parametrize("name", sorted(ip_loops()))
    def test_complement_minus_order3_elements(self, name):
        loop = ip_loops()[name]
        report = loop.properties()
        assert report.has_ip
        l, inverse = loop.size, report.inverse_map
        t = sum(1 for x in range(1, l) if loop.table[x][x] == inverse[x])
        k6, rest = divmod((l - 1) * (l - 2) - t, 6)
        assert rest == 0 and t % 2 == 0
        assert (t > 0) == report.has_order3_element
        assert len(gamma_orbits(loop)) == k6 + t // 2

    @pytest.mark.parametrize("name", sorted(ip_loops()))
    def test_constructed_extension_verifies(self, name, tmp_path, capsys):
        # through the CLI, as a user runs it, orbits of two included; the
        # equivariance route is proved on every base, x*x = x^{-1} or not
        loop_path, coc_path = str(tmp_path / "base.loop"), str(tmp_path / "ip.coc")
        emit_loop_file(ip_loops()[name], loop_path)
        assert main(["construct", "--loop", loop_path, "--group", "3", "--mode", "ip",
                     "--seed", "5", "--out", coc_path]) == 0
        assert main(["verify", "--loop", loop_path, "--cocycle", coc_path,
                     "--mode", "ip"]) == 0
        out = capsys.readouterr().out
        assert "check agreement-equivariance: pass (condition=yes)" in out.splitlines()
        assert out.endswith("result: pass\n")


class TestConstructiveWitness:
    @pytest.mark.parametrize("name,l", [("z2", 2), ("z4", 4), ("klein", 4),
                                        ("z5", 5), ("z7", 7), ("z8", 8), ("ip8", 8),
                                        ("z10", 10), ("z11", 11), ("z13", 13), ("z14", 14),
                                        ("z16", 16)])
    def test_extension_exists_for_feasible_orders(self, loops, name, l):
        # every feasible order up to 16 is witnessed by an actual extension,
        # non-associative and dually verified from l = 4 on (at l = 2 the
        # complement of Sigma is empty, so the extension is the direct product)
        loop = loops[name] if name in loops else cyclic_loop(l)
        assert loop.size == l
        assert feasible_cardinality(l).feasible
        cocycle = construct_ip_cocycle(loop, make_group([3]), ChoiceSource(1))
        built = build_extension(cocycle)[0]
        assert analyze_properties(built).has_ip
        if l >= 4:
            assert not built.is_associative()
            assert verify_cocycle(cocycle, mode="ip").passed

    def test_no_order3_implies_feasible(self, loops):
        # an order-3-free inverse-property loop always has feasible order,
        # because its complement splits into orbits of six
        for name in ("z2", "klein", "z4", "z5", "z7", "z8", "ip8"):
            loop = loops[name]
            report = loop.properties()
            assert report.has_ip and not report.has_order3_element
            assert feasible_cardinality(loop.size).feasible
