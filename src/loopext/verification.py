"""Verification reports: dual-route checks of a cocycle and its extension.

Every structural property is checked twice, via the closed-form condition on
the cocycle and via a definition-level scan of the built extension; a report
line records each outcome.  Failing checks carry the first counterexample,
as element indices of the built extension, so failures can be replayed.
Report text is deterministic for identical inputs apart from the trailing
timing line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import NotNormalError, PreconditionError
from .extension import (
    ExtensionLoop,
    LoopCocycle,
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
)
from .loops import (
    first_inverse_mismatch,
    first_lip_counterexample,
    first_noncommuting_pair,
    first_rip_counterexample,
    quotient_loop,
)
from .orbits import sigma_set

VERIFY_MODES = ("all", "lip", "rip", "ip")


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    counterexample: Optional[tuple[int, ...]] = None
    note: str = ""


@dataclass
class VerificationReport:
    kind: str
    fingerprints: dict[str, str] = field(default_factory=dict)
    outcomes: list[CheckOutcome] = field(default_factory=list)
    elapsed_ms: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def add(self, name: str, passed: bool,
            counterexample: Optional[tuple[int, ...]] = None, note: str = "") -> None:
        self.outcomes.append(CheckOutcome(name, passed, counterexample, note))

    def to_text(self, *, include_timing: bool = True) -> str:
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
        if include_timing and self.elapsed_ms is not None:
            lines.append(f"elapsed-ms: {self.elapsed_ms:.1f}")
        return "\n".join(lines) + "\n"


def _identity_on_sigma(cocycle: LoopCocycle) -> bool:
    ident = cocycle.autgroup.identity_index
    return all(
        cocycle.ptable[x][y] == ident and cocycle.qtable[x][y] == ident
        for (x, y) in sigma_set(cocycle.loop).pairs
    )


def _check_inverse_formulas(cocycle: LoopCocycle, built) -> Optional[tuple[int, int]]:
    loop = built.loop
    for index in loop.elements():
        pair = built.pair_of(index)
        left = built.pair_index(*extension_left_inverse(cocycle, pair))
        right = built.pair_index(*extension_right_inverse(cocycle, pair))
        if left != loop.left_inverse(index) or right != loop.right_inverse(index):
            return (index,)
    return None


def _agreement(report: VerificationReport, name: str, condition: bool, brute: bool,
               counterexample: Optional[tuple[int, ...]]) -> None:
    if condition == brute:
        report.add(f"agreement-{name}", True,
                   note=f"condition={'yes' if condition else 'no'}")
    else:
        report.add(f"agreement-{name}", False, counterexample,
                   note=f"condition says {condition}, built extension says {brute}")


def _add_consistency(report: VerificationReport, built: ExtensionLoop) -> bool:
    """Latin table, inverse formulas, kernel normality and quotient lines; False,
    after the Latin line alone, when the build's Latin check failed."""
    if built.loop is None:
        report.add("extension-latin", False, (built.defect.index,), note=str(built.defect))
        return False
    report.add("extension-latin", True, note=f"size {built.loop.size}")
    witness = _check_inverse_formulas(built.cocycle, built)
    report.add("inverse-formulas", witness is None, witness)
    try:
        quotient = quotient_loop(built.loop, built.kernel())
    except NotNormalError:
        report.add("kernel-normal", False)
        report.add("quotient-reconstructs-base", False, note="kernel not normal")
    else:
        report.add("kernel-normal", True)
        report.add("quotient-reconstructs-base", quotient == built.cocycle.loop)
    return True


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
    base = cocycle.loop.properties()
    if mode != "all" and not getattr(base, f"has_{mode}"):
        raise PreconditionError(f"cannot assert {mode}: base loop lacks the property")
    start = time.perf_counter()
    report = VerificationReport("verify", dict(fingerprints or {}))
    built = build_extension(cocycle)
    if not _add_consistency(report, built):
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        return report
    ext = built.loop

    _agreement(report, "commutative", is_commutative_extension(cocycle),
               ext.is_commutative(), first_noncommuting_pair(ext))

    if base.two_sided_inverses_coincide:
        mismatch = first_inverse_mismatch(ext)
        _agreement(report, "inverse-coincidence", check_cip(cocycle),
                   mismatch is None, None if mismatch is None else (mismatch,))
    lip_witness = first_lip_counterexample(ext)
    rip_witness = first_rip_counterexample(ext)
    ip_witness = lip_witness or rip_witness
    if base.has_lip:
        _agreement(report, "lip", check_lip_conditions(cocycle),
                   lip_witness is None, lip_witness)
    if base.has_rip:
        _agreement(report, "rip", check_rip_conditions(cocycle),
                   rip_witness is None, rip_witness)
    if base.has_ip and is_strongly_linear(cocycle):
        ip_condition = check_ip_conditions(cocycle)
        _agreement(report, "ip", ip_condition, ip_witness is None, ip_witness)
        # the equivariance test only sees cells outside Sigma, so it answers
        # the same question as the closed-form conditions exactly when the
        # cocycle is Id on all of Sigma
        if not base.has_order3_element and _identity_on_sigma(cocycle):
            _agreement(report, "equivariance", check_equivariance(cocycle),
                       ip_condition, None)

    if mode != "all":
        witness = {"lip": lip_witness, "rip": rip_witness, "ip": ip_witness}[mode]
        report.add(f"property-{mode}", witness is None, witness)

    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def extension_report(built: ExtensionLoop,
                     fingerprints: Optional[dict[str, str]] = None) -> VerificationReport:
    """Consistency report emitted alongside a built extension."""
    start = time.perf_counter()
    report = VerificationReport("extend", dict(fingerprints or {}))
    _add_consistency(report, built)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
