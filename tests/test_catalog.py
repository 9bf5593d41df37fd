import pytest

from loopext.catalog import (
    _complete_loop,
    _involutions,
    bundled_corpus,
    cyclic_loop,
    ip_loop7,
    ip_loop8,
    klein_loop,
    search_ip_loop,
)
from loopext.errors import InputError
from loopext.loops import analyze_properties


def test_cyclic_tables():
    z4 = cyclic_loop(4)
    assert z4.table == tuple(
        tuple((i + j) % 4 for j in range(4)) for i in range(4)
    )
    assert cyclic_loop(1).size == 1


def test_int_and_bool_orders():
    # an order is read by operator.index, so a bool is the int it stands for
    assert cyclic_loop(True) == cyclic_loop(1) and cyclic_loop(True).table == ((0,),)
    assert cyclic_loop(3).table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert search_ip_loop(True) is None and search_ip_loop(5) is None


@pytest.mark.parametrize("n", [65, 128])
def test_cyclic_beyond_group_size_cap(n):
    # Z_n as a loop is not bounded by the size cap of the groups A
    loop = cyclic_loop(n)
    assert loop.size == n
    assert loop.table == tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    assert loop.is_commutative()
    assert loop.properties().has_ip


def test_klein_is_elementary():
    klein = klein_loop()
    for x in range(klein.size):
        assert klein.table[x][x] == 0


def test_corpus_self_consistency():
    for name, loop in bundled_corpus().items():
        report = loop.properties()
        assert report.has_ip == (report.has_lip and report.has_rip), name


def test_ip7_shape():
    loop = ip_loop7()
    report = analyze_properties(loop)
    assert loop.size == 7
    assert report.has_ip
    assert not loop.is_associative()
    assert report.has_order3_element


def test_ip8_shape():
    loop = ip_loop8()
    report = analyze_properties(loop)
    assert loop.size == 8
    assert report.has_ip
    assert not loop.is_associative()
    assert not report.has_order3_element


def test_searches_deterministic():
    assert search_ip_loop(7, forbid_order3=False) == ip_loop7()
    assert search_ip_loop(8) == ip_loop8()


def test_involution_count():
    assert sum(1 for _ in _involutions(tuple(range(1, 7)))) == 76


def test_order7_obstruction_is_exhaustive():
    """Every labeled IP loop of order 7 is either a relabeled cyclic group
    (120 of them, all free of x*x = x^{-1}) or non-associative with such an
    element (30 of them).  So the complement of Sigma in a non-associative
    IP loop of order 7 always holds orbits of two, not only orbits of six."""
    tallies = {"total": 0, "nonassociative": 0, "order3_free": 0, "both": 0}

    def tally(loop):
        report = analyze_properties(loop)
        tallies["total"] += 1
        nonassoc = not loop.is_associative()
        order3_free = not report.has_order3_element
        tallies["nonassociative"] += nonassoc
        tallies["order3_free"] += order3_free
        tallies["both"] += nonassoc and order3_free
        return False  # never accept: forces full enumeration

    for inv_rest in _involutions(tuple(range(1, 7))):
        assert _complete_loop(7, {0: 0, **inv_rest}, lip=True, rip=True,
                              predicate=tally) is None

    assert tallies == {
        "total": 150,
        "nonassociative": 30,
        "order3_free": 120,
        "both": 0,
    }


def test_search_machinery_complete_for_order5():
    """Cross-check the propagating search against a plain exhaustive search:
    both must see every order-5 loop (there are 56) and the same IP count."""
    plain = []

    def collect(loop):
        plain.append(loop)
        return False

    _complete_loop(5, predicate=collect)
    assert len(plain) == 56
    expected_ip = sorted(
        loop.table for loop in plain if analyze_properties(loop).has_ip
    )

    via_involutions = []

    def collect_ip(loop):
        via_involutions.append(loop)
        return False

    for inv_rest in _involutions(tuple(range(1, 5))):
        _complete_loop(5, {0: 0, **inv_rest}, lip=True, rip=True, predicate=collect_ip)
    assert sorted(loop.table for loop in via_involutions) == expected_ip


# (call, exception type, exact message) of each catalog refusal that no other
# test reaches
REFUSALS = {
    "cyclic-order-zero": (lambda: cyclic_loop(0), InputError,
                          "cyclic loop order must be >= 1, got 0"),
    "cyclic-order-float": (lambda: cyclic_loop(2.0), InputError,
                           "loop order is not an integer: 'float' object cannot be "
                           "interpreted as an integer"),
    "cyclic-order-str": (lambda: cyclic_loop("3"), InputError,
                         "loop order is not an integer: 'str' object cannot be "
                         "interpreted as an integer"),
    "search-order-zero": (lambda: search_ip_loop(0), InputError,
                          "loop order must be >= 1, got 0"),
    "search-order-float": (lambda: search_ip_loop(5.0), InputError,
                           "loop order is not an integer: 'float' object cannot be "
                           "interpreted as an integer"),
    "search-order-str": (lambda: search_ip_loop("5"), InputError,
                         "loop order is not an integer: 'str' object cannot be "
                         "interpreted as an integer"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
