import pytest

from loopext.abelian import enumerate_automorphisms, make_group
from loopext.catalog import (
    cyclic_loop,
    inverse_mismatch_loop,
    ip_loop7,
    ip_loop8,
    klein_loop,
    lip_only_loop,
)

GROUP_ORDERS = {
    "z2": (2,),
    "z3": (3,),
    "z4": (4,),
    "z2xz2": (2, 2),
}


@pytest.fixture(scope="session")
def groups():
    return {name: make_group(orders) for name, orders in GROUP_ORDERS.items()}


@pytest.fixture(scope="session")
def autgroups(groups):
    return {name: enumerate_automorphisms(group) for name, group in groups.items()}


@pytest.fixture(scope="session")
def loops():
    out = {f"z{n}": cyclic_loop(n) for n in range(1, 9)}
    out["klein"] = klein_loop()
    out["ip7"] = ip_loop7()
    out["ip8"] = ip_loop8()
    out["lip_only"] = lip_only_loop()
    out["mismatch"] = inverse_mismatch_loop()
    out["trivial"] = cyclic_loop(1)
    return out
