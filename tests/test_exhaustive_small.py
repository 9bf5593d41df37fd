"""Exhaustive checker validation on instances small enough to enumerate fully.

Random sampling elsewhere covers larger shapes; here every cocycle of the
chosen shape is enumerated, so the closed-form conditions are proved exactly
equivalent to the built-loop properties on these instances.
"""

import itertools

import pytest

from loopext.abelian import enumerate_automorphisms, make_group
from loopext.catalog import cyclic_loop
from loopext.constructions import (
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_rip_cocycle,
)
from loopext.extension import (
    build_extension,
    check_cip,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
    make_cocycle,
)
from loopext.loops import (
    analyze_properties,
    first_inverse_mismatch,
    first_lip_counterexample,
    first_rip_counterexample,
)
from loopext.orbits import sigma_set
from reference import Replay, complement, replay_all


def all_cocycles(loop, group):
    """Every cocycle over (loop, group): boundary pinned, all else free."""
    autgroup = enumerate_automorphisms(group)
    l = loop.size
    naut = len(autgroup)
    p_cells = [(x, y) for x in range(l) for y in range(1, l)]
    q_cells = [(x, y) for x in range(1, l) for y in range(l)]
    cells = p_cells + q_cells
    for values in itertools.product(range(naut), repeat=len(cells)):
        ptable = [[0] * l for _ in range(l)]
        qtable = [[0] * l for _ in range(l)]
        for (cell, value), is_p in zip(zip(cells, values),
                                       [True] * len(p_cells) + [False] * len(q_cells)):
            x, y = cell
            (ptable if is_p else qtable)[x][y] = value
        yield make_cocycle(loop, group, ptable, qtable)


# IP cocycles among all cocycles: most have P(e, x) or Q(x, e) != Id, so
# check_ip_conditions is checked without the strongly linear precondition
IP_COUNTS = {(3,): 4, (2, 2): 24, (4,): 4}


@pytest.mark.parametrize("orders,count", [((3,), 16), ((2, 2), 1296), ((4,), 16)])
def test_all_cocycles_over_order_two_loop(orders, count):
    loop = cyclic_loop(2)
    group = make_group(list(orders))
    seen = having_ip = 0
    for cocycle in all_cocycles(loop, group):
        seen += 1
        ext = build_extension(cocycle)[0]
        lip = first_lip_counterexample(ext) is None
        rip = first_rip_counterexample(ext) is None
        assert check_lip_conditions(cocycle) == lip
        assert check_rip_conditions(cocycle) == rip
        assert check_ip_conditions(cocycle) == (lip and rip)
        assert check_cip(cocycle) == (first_inverse_mismatch(ext) is None)
        assert is_commutative_extension(cocycle) == ext.is_commutative()
        having_ip += lip and rip
    assert seen == count
    assert having_ip == IP_COUNTS[orders]


def test_all_cocycles_over_order_three_loop():
    loop = cyclic_loop(3)
    group = make_group([3])
    seen = having_ip = 0
    for cocycle in all_cocycles(loop, group):
        seen += 1
        ext = build_extension(cocycle)[0]
        lip = first_lip_counterexample(ext) is None
        rip = first_rip_counterexample(ext) is None
        assert check_lip_conditions(cocycle) == lip
        assert check_rip_conditions(cocycle) == rip
        assert check_ip_conditions(cocycle) == (lip and rip)
        assert check_cip(cocycle) == (first_inverse_mismatch(ext) is None)
        assert is_commutative_extension(cocycle) == ext.is_commutative()
        having_ip += lip and rip
    assert seen == 2 ** 12
    assert having_ip == 8


def test_strongly_linear_ip_completeness_z4_z3():
    # same exhaustive construction-vs-enumeration comparison as the Klein
    # instance in the acceptance suite, on the cyclic loop of order 4
    loop = cyclic_loop(4)
    group = make_group([3])
    cells = complement(sigma_set(loop), loop.size)
    assert len(cells) == 6

    survivors = set()
    for values in itertools.product(range(2), repeat=12):
        ptable = [[0] * 4 for _ in range(4)]
        qtable = [[0] * 4 for _ in range(4)]
        for (x, y), p, q in zip(cells, values[:6], values[6:]):
            ptable[x][y] = p
            qtable[x][y] = q
        cocycle = make_cocycle(loop, group, ptable, qtable)
        ext = build_extension(cocycle)[0]
        if (first_lip_counterexample(ext) is None
                and first_rip_counterexample(ext) is None):
            survivors.add(cocycle)

    constructed = {
        construct_ip_cocycle(loop, group, Replay([p, q]))
        for p in range(2) for q in range(2)
    }
    assert len(constructed) == 4
    assert survivors == constructed
    for cocycle in survivors:
        assert check_ip_conditions(cocycle)


@pytest.mark.parametrize("prop,construct", [("lip", construct_lip_cocycle),
                                            ("rip", construct_rip_cocycle)])
@pytest.mark.parametrize("orders,image,total", [((3,), 4, 8), ((2, 2), 36, 144)])
def test_construction_image_over_order_two_loop(prop, construct, orders, image, total):
    # the default LIP and RIP constructions take p(x) = q(x) at the
    # self-inverse element, so they reach only part of the property set
    loop = cyclic_loop(2)
    group = make_group(list(orders))
    having = set()
    for cocycle in all_cocycles(loop, group):
        built, _ = build_extension(cocycle)
        if built is not None and getattr(analyze_properties(built), f"has_{prop}"):
            having.add(cocycle)
    results, vectors = replay_all(
        lambda source: construct(loop, group, source))
    reached = set(results)
    assert vectors == image
    assert len(having) == total
    assert len(reached) == image
    assert reached <= having
