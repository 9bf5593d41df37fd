"""Command-line interface.

Exit codes: 0 success / property holds; 1 a verified property or check fails
(the report carries a replayable counterexample); 2 input or precondition error,
including a file that cannot be read, written or decoded as UTF-8.  A report
on stdout is byte-stable; its ``elapsed-ms:`` line, the command's wall time
from reading its files to writing its output, goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .abelian import automorphism_count, enumerate_automorphisms, make_group, parse_group_spec
from .cardinality import enumerate_feasible
from .constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_rip_cocycle,
)
from .errors import InternalError, LoopextError, ResourceError, decimals
from .extension import build_extension
from .fileio import (
    emit_cocycle_file,
    emit_loop_file,
    extension_comments,
    parse_cocycle_file,
    parse_loop_file,
    text_sha256,
)
from .loops import analyze_properties
from .orbits import gamma_orbits, phi_orbits, psi_orbits, sigma_set
from .verification import VERIFY_MODES, extension_report, verify_cocycle

# Largest |Aut(A)| that ``aut`` lists, one line per member.  Among groups of
# order <= 64 it refuses exactly Z2^5, Z2^4 x Z4 and Z2^6 (in any factor order).
AUT_ORDER_CAP = 200_000

_CONSTRUCTORS = {
    "lip": construct_lip_cocycle,
    "rip": construct_rip_cocycle,
    "ip": construct_ip_cocycle,
}

_ORBIT_MODES = {"phi": phi_orbits, "psi": psi_orbits, "gamma": gamma_orbits}


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_check(args) -> int:
    loop, digest = parse_loop_file(args.loop)
    report = analyze_properties(loop)
    print(f"loop-sha256: {digest}")
    print(f"size: {loop.size}")
    print(f"lip: {_yes(report.has_lip)}")
    print(f"rip: {_yes(report.has_rip)}")
    print(f"ip: {_yes(report.has_ip)}")
    print(f"inverses-coincide: {_yes(report.two_sided_inverses_coincide)}")
    if report.two_sided_inverses_coincide:
        print(f"inverse-map: {' '.join(str(v) for v in report.inverse_map)}")
        print(f"order3-element: {_yes(report.has_order3_element)}")
    else:
        print("inverse-map: undefined")
        print("order3-element: undefined")
    return 0


def cmd_aut(args) -> int:
    group = make_group(parse_group_spec(args.group))
    if (count := automorphism_count(group)) > AUT_ORDER_CAP:
        raise ResourceError(f"listing refused: |Aut(A)| = {count} exceeds cap {AUT_ORDER_CAP}")
    autgroup = enumerate_automorphisms(group)
    print(f"group: {','.join(str(n) for n in group.orders)}")
    print(f"size: {group.size}")
    print(f"automorphisms: {len(autgroup)}")
    for i, table in enumerate(autgroup):
        print(f"{i}: {' '.join(str(v) for v in table)}")
    return 0


def _orbit_line(i: int, orbit, symmetries) -> str:
    members = " ".join(f"{name}:({x},{y})" for name, (x, y) in zip(symmetries, orbit))
    return f"orbit {i}: {members}"


def cmd_orbits(args) -> int:
    loop, digest = parse_loop_file(args.loop)
    sigma = sigma_set(loop)
    decomposition = _ORBIT_MODES[args.mode](loop)
    print(f"loop-sha256: {digest}")
    print(f"mode: {args.mode}")
    print(f"sigma-size: {len(sigma)}")
    print(f"complement-size: {loop.size * loop.size - len(sigma)}")
    print(f"orbits: {len(decomposition)}")
    for i, orbit in enumerate(decomposition):
        print(_orbit_line(i, orbit, decomposition.symmetries))
    return 0


def cmd_construct(args) -> int:
    loop, _ = parse_loop_file(args.loop)
    group = make_group(parse_group_spec(args.group))
    cocycle = _CONSTRUCTORS[args.mode](loop, group, ChoiceSource(args.seed))
    text = emit_cocycle_file(cocycle, args.out)
    print(f"wrote: {args.out}")
    print(f"cocycle-sha256: {text_sha256(text)}")
    if args.report:
        decomposition = _ORBIT_MODES[{"lip": "phi", "rip": "psi", "ip": "gamma"}[args.mode]](loop)
        for i, orbit in enumerate(decomposition):
            rx, ry = orbit[0]
            print(f"{_orbit_line(i, orbit, decomposition.symmetries)} "
                  f"P={cocycle.ptable[rx][ry]} Q={cocycle.qtable[rx][ry]}")
    return 0


def _read_cocycle(args):
    """The cocycle of ``--cocycle`` over ``--loop`` and each file's parsed-bytes digest."""
    loop, loop_digest = parse_loop_file(args.loop)
    cocycle, cocycle_digest = parse_cocycle_file(args.cocycle, loop)
    return cocycle, {"loop": loop_digest, "cocycle": cocycle_digest}


def _emit_report(report, start: float) -> int:
    sys.stdout.write(report.to_text())
    print(f"elapsed-ms: {(time.perf_counter() - start) * 1000.0:.1f}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_extend(args) -> int:
    start = time.perf_counter()
    cocycle, fingerprints = _read_cocycle(args)
    ext, _ = build_extension(cocycle)
    if ext is not None:
        emit_loop_file(ext, args.out, comments=extension_comments(cocycle))
        print(f"wrote: {args.out}")
    return _emit_report(extension_report(cocycle, fingerprints), start)


def cmd_verify(args) -> int:
    start = time.perf_counter()
    cocycle, fingerprints = _read_cocycle(args)
    report = verify_cocycle(cocycle, mode=args.mode, fingerprints=fingerprints)
    return _emit_report(report, start)


def cmd_feasible(args) -> int:
    certificates = enumerate_feasible(args.max_l)
    print("k: " + ", ".join(str(c.k) for c in certificates))
    print("h: " + ", ".join(str(c.h) for c in certificates))
    print("l: " + ", ".join(str(c.l) for c in certificates))
    for cert in certificates:
        print(f"cardinality l={cert.l} k={cert.k} h={cert.h}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    def decimal(text: str) -> int:  # an integer option is ASCII decimal, as file tokens are
        return decimals([text])[0]

    parser = argparse.ArgumentParser(
        prog="loopext",
        description="Construct and verify linear abelian extensions of groups by loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report the inverse properties of a loop file")
    p.add_argument("--loop", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("aut", help="list the automorphisms of a group canonically")
    p.add_argument("--group", required=True, help="comma-separated factor orders, e.g. 2,2")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("orbits", help="show Sigma and an orbit decomposition")
    p.add_argument("--loop", required=True)
    p.add_argument("--mode", required=True, choices=sorted(_ORBIT_MODES))
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("construct", help="build a seeded cocycle with a chosen property")
    p.add_argument("--loop", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--mode", required=True, choices=sorted(_CONSTRUCTORS))
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true", help="also print the orbit table")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("extend", help="build the extension loop of a cocycle file")
    p.add_argument("--loop", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="run dual-route verification on a cocycle file")
    p.add_argument("--loop", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--mode", default="all", choices=list(VERIFY_MODES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("feasible",
                       help="orders l with 6 | (l-1)(l-2), as in IP loops with no x*x = x^-1")
    p.add_argument("--max-l", type=decimal, required=True)
    p.set_defaults(func=cmd_feasible)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError:
        raise
    except (LoopextError, OSError) as exc:  # an OSError names its file
        print(f"error: {exc}", file=sys.stderr)
        return 2
