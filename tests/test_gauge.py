"""Gauge equivalence as a metamorphic test: for any tau: L -> Aut(A) the
cocycle and its gauge image (see ``reference.gauge``) build isomorphic
extensions, so every closed-form verdict, every scan and every pass or fail
of ``verify`` must agree on the two.  A checker or scan that breaks on one
side of a pair fails here without a brute-force oracle."""

import itertools

from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_rip_cocycle,
    random_cocycle,
)
from loopext.extension import (
    build_extension,
    check_cip,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
)
from loopext.loops import first_lip_counterexample, first_rip_counterexample
from loopext.verification import verify_cocycle
from reference import gauge, gauge_map, is_isomorphism

BASES = ("klein", "ip7", "ip8", "z3", "z5")
GROUPS = ("z2xz2", "z3", "z4")
MODES = {
    "random": random_cocycle,
    "lip": construct_lip_cocycle,
    "rip": construct_rip_cocycle,
    "ip": construct_ip_cocycle,
}
SEEDS = range(2)


def verdicts(cocycle, ext):
    """The closed forms and both scans, each as a bool."""
    return {
        "lip": check_lip_conditions(cocycle),
        "rip": check_rip_conditions(cocycle),
        "cip": check_cip(cocycle),
        "commutative": is_commutative_extension(cocycle),
        "lip-scan": first_lip_counterexample(ext) is None,
        "rip-scan": first_rip_counterexample(ext) is None,
    }


def lines(report):
    """Pass or fail per check name; agreement-equivariance is printed only for
    a cocycle that is Id on Sigma, which a gauge need not keep."""
    return {o.name: o.passed for o in report.outcomes if o.name != "agreement-equivariance"}


def result_line(report):
    return report.to_text().splitlines()[-1]


def test_gauge_image_is_isomorphic_with_equal_verdicts(loops, groups):
    seen = {}
    for mode, base, group_name, seed in itertools.product(MODES, BASES, GROUPS, SEEDS):
        loop, group = loops[base], groups[group_name]
        choice = ChoiceSource(1000 * seed + len(base))
        cocycle = MODES[mode](loop, group, choice)
        tau = [choice.pick(len(cocycle.autgroup)) for _ in range(loop.size)]
        image = gauge(cocycle, tau)
        case = (mode, base, group_name, seed)
        ext, image_ext = build_extension(cocycle)[0], build_extension(image)[0]
        assert is_isomorphism(gauge_map(cocycle, tau), ext, image_ext), case
        before = verdicts(cocycle, ext)
        assert verdicts(image, image_ext) == before, case
        for name, verdict in before.items():
            seen.setdefault(name, set()).add(verdict)
        verify_mode = "all" if mode == "random" else mode
        report = verify_cocycle(cocycle, mode=verify_mode)
        image_report = verify_cocycle(image, mode=verify_mode)
        assert result_line(image_report) == result_line(report), case
        assert lines(image_report) == lines(report), case
    # the grid is not vacuous: every verdict is seen both ways
    assert all(outcomes == {False, True} for outcomes in seen.values()), seen
