"""Command-line interface.

Exit codes: 0 success / property holds; 1 a verified property or check fails
(the report carries a replayable counterexample); 2 input or precondition error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .abelian import DEFAULT_SIZE_CAP, enumerate_automorphisms, make_group, parse_group_spec
from .cardinality import enumerate_feasible
from .constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_rip_cocycle,
)
from .errors import InternalError, LoopextError
from .extension import build_extension
from .fileio import (
    dumps_cocycle,
    emit_cocycle_file,
    emit_loop_file,
    extension_comments,
    file_sha256,
    parse_cocycle_file,
    parse_loop_file,
    text_sha256,
)
from .loops import analyze_properties
from .orbits import gamma_orbits, phi_orbits, psi_orbits, sigma_set
from .verification import VERIFY_MODES, extension_report, verify_cocycle

_CONSTRUCTORS = {
    "lip": construct_lip_cocycle,
    "rip": construct_rip_cocycle,
    "ip": construct_ip_cocycle,
}

_ORBIT_MODES = {
    "phi": phi_orbits,
    "psi": psi_orbits,
    "gamma": gamma_orbits,
}


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_check(args) -> int:
    loop = parse_loop_file(args.loop)
    report = analyze_properties(loop, exhaustive_iota=args.exhaustive_iota)
    print(f"loop-sha256: {file_sha256(args.loop)}")
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
    group = make_group(parse_group_spec(args.group), size_cap=args.aut_cap)
    autgroup = enumerate_automorphisms(group, size_cap=args.aut_cap)
    print(f"group: {','.join(str(n) for n in group.orders)}")
    print(f"size: {group.size}")
    print(f"automorphisms: {len(autgroup)}")
    for i, aut in enumerate(autgroup):
        print(f"{i}: {' '.join(str(v) for v in aut.table)}")
    return 0


def _orbit_line(i: int, orbit) -> str:
    members = " ".join(
        f"{name}:({x},{y})" for name, (x, y) in zip(orbit.symmetries, orbit.members)
    )
    return f"orbit {i}: {members}"


def cmd_orbits(args) -> int:
    loop = parse_loop_file(args.loop)
    sigma = sigma_set(loop)
    decomposition = _ORBIT_MODES[args.mode](loop)
    print(f"loop-sha256: {file_sha256(args.loop)}")
    print(f"mode: {args.mode}")
    print(f"sigma-size: {len(sigma)}")
    print(f"complement-size: {len(sigma.complement())}")
    print(f"orbits: {len(decomposition.orbits)}")
    for i, orbit in enumerate(decomposition.orbits):
        print(_orbit_line(i, orbit))
    return 0


def cmd_construct(args) -> int:
    loop = parse_loop_file(args.loop)
    group = make_group(parse_group_spec(args.group), size_cap=args.aut_cap)
    autgroup = enumerate_automorphisms(group, size_cap=args.aut_cap)
    choice = ChoiceSource(args.seed)
    cocycle = _CONSTRUCTORS[args.mode](loop, group, choice, autgroup=autgroup)
    emit_cocycle_file(cocycle, args.out)
    print(f"wrote: {args.out}")
    print(f"cocycle-sha256: {text_sha256(dumps_cocycle(cocycle))}")
    if args.report:
        decomposition = _ORBIT_MODES[{"lip": "phi", "rip": "psi", "ip": "gamma"}[args.mode]](loop)
        for i, orbit in enumerate(decomposition.orbits):
            rx, ry = orbit.representative
            print(f"{_orbit_line(i, orbit)} P={cocycle.p(rx, ry)} Q={cocycle.q(rx, ry)}")
    return 0


def _fingerprints(args) -> dict[str, str]:
    return {"loop": file_sha256(args.loop), "cocycle": file_sha256(args.cocycle)}


def cmd_extend(args) -> int:
    loop = parse_loop_file(args.loop)
    cocycle = parse_cocycle_file(args.cocycle, loop)
    built = build_extension(cocycle)
    if built.loop is not None:
        emit_loop_file(built.loop, args.out, comments=extension_comments(cocycle))
        print(f"wrote: {args.out}")
    report = extension_report(built, _fingerprints(args))
    sys.stdout.write(report.to_text(include_timing=not args.no_timing))
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    loop = parse_loop_file(args.loop)
    cocycle = parse_cocycle_file(args.cocycle, loop)
    report = verify_cocycle(cocycle, mode=args.mode, fingerprints=_fingerprints(args))
    sys.stdout.write(report.to_text(include_timing=not args.no_timing))
    return 0 if report.passed else 1


def cmd_feasible(args) -> int:
    certificates = enumerate_feasible(args.max_l)
    print("k: " + ", ".join(str(c.k) for c in certificates))
    print("h: " + ", ".join(str(c.h) for c in certificates))
    print("l: " + ", ".join(str(c.l) for c in certificates))
    for cert in certificates:
        print(f"cardinality l={cert.l} k={cert.k} h={cert.h}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopext",
        description="Construct and verify linear abelian extensions of groups by loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report the inverse properties of a loop file")
    p.add_argument("--loop", required=True)
    p.add_argument("--exhaustive-iota", action="store_true",
                   help="search all witness bijections instead of the inverse map")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("aut", help="list the automorphisms of a group canonically")
    p.add_argument("--group", required=True, help="comma-separated factor orders, e.g. 2,2")
    p.add_argument("--aut-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("orbits", help="show Sigma and an orbit decomposition")
    p.add_argument("--loop", required=True)
    p.add_argument("--mode", required=True, choices=sorted(_ORBIT_MODES))
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("construct", help="build a seeded cocycle with a chosen property")
    p.add_argument("--loop", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--mode", required=True, choices=sorted(_CONSTRUCTORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true", help="also print the orbit table")
    p.add_argument("--aut-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("extend", help="build the extension loop of a cocycle file")
    p.add_argument("--loop", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="run dual-route verification on a cocycle file")
    p.add_argument("--loop", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--mode", default="all", choices=list(VERIFY_MODES))
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("feasible", help="orders admitting strongly linear IP extensions")
    p.add_argument("--max-l", type=int, required=True)
    p.set_defaults(func=cmd_feasible)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError:
        raise
    except LoopextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
