"""Verification reports: dual-route checks of a cocycle and its extension.

Every structural property is checked twice, via the closed-form condition on
the cocycle and via a definition-level scan of the built extension; a report
line records each outcome, and the agreement and property lines gate every
construction too.  Failing checks carry the first counterexample, as element
indices of the built extension, so failures can be replayed.  Report text is
byte-identical for identical inputs.
"""

from __future__ import annotations

from operator import itemgetter, ne
from typing import Optional

from .errors import InputError, PreconditionError
from .extension import (
    LoopCocycle,
    build_extension,
    check_cip,
    check_equivariance,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
)
from .loops import FiniteLoop, noncommuting_pair, quotient_loop
from .orbits import sigma_set

VERIFY_MODES = ("all", "lip", "rip", "ip")


class CheckOutcome:
    __slots__ = ("name", "passed", "counterexample", "note")

    def __init__(self, name: str, passed: bool,
                 counterexample: Optional[tuple[int, ...]], note: str):
        self.name = name
        self.passed = passed
        self.counterexample = counterexample
        self.note = note


class VerificationReport:
    __slots__ = ("kind", "fingerprints", "outcomes")

    def __init__(self, kind: str, fingerprints: Optional[dict[str, str]] = None):
        self.kind = kind
        self.fingerprints = dict(fingerprints or {})
        self.outcomes: list[CheckOutcome] = []

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def add(self, name: str, passed: bool,
            counterexample: Optional[tuple[int, ...]] = None, note: str = "") -> None:
        self.outcomes.append(CheckOutcome(name, passed, counterexample, note))

    def to_text(self) -> str:
        lines = [f"report: {self.kind}"]
        for key in sorted(self.fingerprints):
            lines.append(f"{key}-sha256: {self.fingerprints[key]}")
        for outcome in self.outcomes:
            status = "pass" if outcome.passed else "fail"
            suffix = f" ({outcome.note})" if outcome.note else ""
            lines.append(f"check {outcome.name}: {status}{suffix}")
            if outcome.counterexample is not None:
                witness = " ".join(str(v) for v in outcome.counterexample)
                lines.append(f"counterexample {outcome.name}: {witness}")
        lines.append(f"result: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"


def _identity_on_sigma(cocycle: LoopCocycle) -> bool:
    ident, pt, qt = cocycle.autgroup.identity_index, cocycle.ptable, cocycle.qtable
    return all(pt[x][y] == qt[x][y] == ident for x, y in sigma_set(cocycle.loop))


def _check_inverse_formulas(cocycle: LoopCocycle, ext: FiniteLoop) -> Optional[tuple[int]]:
    """The first element whose built left or right inverse is not the closed
    form, as a 1-tuple, else None.

    Each kernel coset {x} x A is compared whole: the closed forms of all its
    elements, (e/x, -P(e/x,x)^{-1} Q(e/x,x) a) and (x\\e, -Q(x,x\\e)^{-1} P(x,x\\e) a)
    for a in A, are gathered by one ``itemgetter`` call each from the entries
    z*|A| + (-c), c in A, of the coset of z.  In the first coset that
    differs, the witness is the first position where the gathered (left,
    right) pairs and the built ones differ, the element an element-by-element
    scan finds.  |A| >= 2, so each gather is a tuple.
    """
    lefts, rights = ext._left_inverse, ext._right_inverse
    loop, aut, n = cocycle.loop, cocycle.autgroup, cocycle.group.size
    products, inverses = aut.products, aut.inverses
    pt, qt = cocycle.ptable, cocycle.qtable
    negated = [tuple(base + c for c in cocycle.group.neg_table)
               for base in range(0, ext.size, n)]
    for x, (lx, rx) in enumerate(zip(loop._left_inverse, loop._right_inverse)):
        left = aut[products[inverses[pt[lx][x]]][qt[lx][x]]]
        right = aut[products[inverses[qt[x][rx]]][pt[x][rx]]]
        start = x * n
        closed = (itemgetter(*left)(negated[lx]), itemgetter(*right)(negated[rx]))
        found = (lefts[start:start + n], rights[start:start + n])
        if closed != found:
            return (start + list(map(ne, zip(*closed), zip(*found))).index(True),)
    return None


def _agreement(report: VerificationReport, name: str, condition: bool, brute: bool,
               counterexample: Optional[tuple[int, ...]]) -> None:
    if condition == brute:
        report.add(f"agreement-{name}", True,
                   note=f"condition={'yes' if condition else 'no'}")
    else:
        report.add(f"agreement-{name}", False, counterexample,
                   note=f"condition says {condition}, built extension says {brute}")


def _add_consistency(report: VerificationReport, cocycle: LoopCocycle) -> Optional[FiniteLoop]:
    """Latin table, inverse formulas, kernel normality and quotient lines of the
    cocycle's extension; its loop, or None after the Latin line when it fails."""
    ext, defect = build_extension(cocycle)
    if ext is None:
        report.add("extension-latin", False, (defect.index,), note=str(defect))
        return None
    report.add("extension-latin", True, note=f"size {ext.size}")
    witness = _check_inverse_formulas(cocycle, ext)
    report.add("inverse-formulas", witness is None, witness)
    try:
        quotient = quotient_loop(ext, range(cocycle.group.size))
    except InputError:  # a kernel that is not normal, or no subloop at all
        report.add("kernel-normal", False)
        report.add("quotient-reconstructs-base", False, note="kernel not normal")
    else:
        report.add("kernel-normal", True)
        report.add("quotient-reconstructs-base", quotient == cocycle.loop)
    return ext


def _add_agreement(report: VerificationReport, cocycle: LoopCocycle, ext: FiniteLoop,
                   mode: str) -> None:
    """Agreement lines of each closed-form condition on the base loop with the
    scans of the built extension ``ext``, then, in a property mode, the
    ``property-<mode>`` line: the whole proof of a construction's gate too."""
    base = cocycle.loop.properties()
    noncommuting = noncommuting_pair(ext)
    _agreement(report, "commutative", is_commutative_extension(cocycle),
               noncommuting is None, noncommuting)

    scanned = ext.properties()
    if base.two_sided_inverses_coincide:
        mismatch = scanned.inverse_mismatch
        _agreement(report, "inverse-coincidence", check_cip(cocycle),
                   mismatch is None, None if mismatch is None else (mismatch,))
    lip_witness, rip_witness = scanned.lip_witness, scanned.rip_witness
    ip_witness = lip_witness or rip_witness
    if base.has_lip:
        lip_condition = check_lip_conditions(cocycle)
        _agreement(report, "lip", lip_condition, lip_witness is None, lip_witness)
    if base.has_rip:
        rip_condition = check_rip_conditions(cocycle)
        _agreement(report, "rip", rip_condition, rip_witness is None, rip_witness)
    if base.has_ip:
        # the extension has IP exactly when it has LIP and RIP, so this is
        # check_ip_conditions, exact on every linear cocycle
        ip_condition = lip_condition and rip_condition
        _agreement(report, "ip", ip_condition, ip_witness is None, ip_witness)
        # the equivariance test only sees cells outside Sigma, so it answers
        # the same question as the closed-form conditions exactly when the
        # cocycle is Id on all of Sigma, which makes it strongly linear
        if _identity_on_sigma(cocycle):
            _agreement(report, "equivariance", check_equivariance(cocycle),
                       ip_condition, None)

    if mode != "all":
        witness = {"lip": lip_witness, "rip": rip_witness, "ip": ip_witness}[mode]
        report.add(f"property-{mode}", witness is None, witness)


def verify_cocycle(cocycle: LoopCocycle, *, mode: str = "all",
                   fingerprints: Optional[dict[str, str]] = None) -> VerificationReport:
    """Run the dual-route verification of one cocycle.

    ``mode='all'`` checks internal consistency: inverse formulas, kernel
    normality, quotient reconstruction, and agreement between every
    applicable closed-form condition and the built extension.  A property
    mode (``lip``/``rip``/``ip``) additionally asserts that the property
    itself holds, reporting a counterexample pair when it does not; it is
    refused up front when the base loop lacks the property.
    """
    if mode not in VERIFY_MODES:
        raise PreconditionError(f"unknown verify mode {mode!r}; expected one of {VERIFY_MODES}")
    if mode != "all" and not getattr(cocycle.loop.properties(), f"has_{mode}"):
        raise PreconditionError(f"cannot assert {mode}: base loop lacks the property")
    report = VerificationReport("verify", fingerprints)
    if (ext := _add_consistency(report, cocycle)) is not None:
        _add_agreement(report, cocycle, ext, mode)
    return report


def extension_report(cocycle: LoopCocycle,
                     fingerprints: Optional[dict[str, str]] = None) -> VerificationReport:
    """Consistency report of the extension a cocycle builds."""
    report = VerificationReport("extend", fingerprints)
    _add_consistency(report, cocycle)
    return report
