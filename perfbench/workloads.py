"""Workloads of the loopext benchmark: inputs, job order, and one job of each kind.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does that).
It drives loopext from outside, through its public CLI and library API.

A *job* is one chain of three CLI processes (``construct -> extend -> verify``)
on the ``chain-*`` workloads, and one generated-and-verified cocycle on
``fuzz-inproc``.  Jobs come in *rounds*: each round visits every
(base loop, group, mode) combination of the workload once, in an order the
workload seed shuffles.  The seed also picks each job's cocycle seed from a
small pool, so that every job has a golden output recorded in
``goldens.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from loopext import abelian, catalog, cli, constructions, verification
from loopext.abelian import make_group
from loopext.cardinality import feasible_cardinality
from loopext.fileio import dumps_cocycle, dumps_loop
from loopext.loops import FiniteLoop, analyze_properties, make_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# The undecorated cache of Aut(A) and the catalog searches, captured before
# any tracing wrapper replaces the module attributes.
AUT_CACHE = abelian.enumerate_automorphisms
CATALOG_CACHES = tuple(v for v in vars(catalog).values() if hasattr(v, "cache_clear"))

MODES = ("lip", "rip", "ip")
SEED_POOL = 4  # cocycle seeds per combination; each has a golden output
STEP_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "chain" or "fuzz"
    pairs: tuple  # (base loop name, group orders)
    modes: tuple
    why: str

    def combos(self):
        return [(base, group, mode) for base, group in self.pairs for mode in self.modes]

    def bases(self):
        return list(dict.fromkeys(base for base, _ in self.pairs))

    def groups(self):
        return list(dict.fromkeys(group for _, group in self.pairs))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "chain-bigloop", "chain",
            (("ip8x2^3", (2, 2, 2)), ("ip8x2^4", (2, 2)), ("ip8x2^4", (3,))),
            MODES,
            "CLI chain on extensions of order 384-512 with |Aut(A)| <= 168: "
            "table work in orbits, build, scans and file I/O dominates",
        ),
        Workload(
            "chain-bigaut", "chain",
            (("klein", (2, 2, 2, 2)), ("klein", (3, 3, 3)), ("ip8", (3, 3, 3)),
             ("klein", (4, 4, 2))),
            MODES,
            "CLI chain on small loops with |Aut(A)| up to 20160: each of the three "
            "processes enumerates Aut(A) again, so the abelian layer dominates",
        ),
        Workload(
            "fuzz-inproc", "fuzz",
            tuple((base, group)
                  for base in ("klein", "z5", "z7", "ip8", "ip8x2", "ip8x2^2")
                  for group in ((2,), (3,), (2, 2), (4,), (2, 2, 2), (5,))),
            ("random",) + MODES,
            "one warm library process generating and verifying cocycles: no process "
            "start, no files, no cold Aut; per-call overhead of the checkers dominates",
        ),
    )
}


@dataclass(frozen=True)
class Job:
    base: str
    group: tuple
    mode: str
    seed: int

    @property
    def spec(self) -> str:
        return ",".join(str(n) for n in self.group)

    @property
    def key(self) -> str:
        return f"{self.base}|{self.spec}|{self.mode}|{self.seed}"


def rounds(workload: Workload, seed: int):
    """Endless stratified job order: each round is one shuffled pass over
    every combination; the seed fixes the order and the cocycle seeds."""
    rng = random.Random(f"{workload.name}/{seed}")
    combos = workload.combos()
    while True:
        order = list(combos)
        rng.shuffle(order)
        yield [Job(base, group, mode, rng.randrange(SEED_POOL)) for base, group, mode in order]


def all_jobs(workload: Workload):
    """Every job that has a golden output, in a fixed order."""
    return [Job(base, group, mode, seed)
            for base, group, mode in workload.combos() for seed in range(SEED_POOL)]


# ---------------------------------------------------------------- base loops

def direct_product(left: FiniteLoop, right: FiniteLoop) -> FiniteLoop:
    """Product loop on pairs (x, a) encoded as x * |right| + a."""
    n = right.size
    lt, rt = left.table, right.table
    return make_loop([
        [lt[x][y] * n + rt[a][b] for y in range(left.size) for b in range(n)]
        for x in range(left.size) for a in range(n)
    ])


def base_loop(name: str) -> FiniteLoop:
    """The named base loop: ``klein``, ``z<n>``, ``ip8`` or ``ip8x2^<k>``."""
    if name == "klein":
        return catalog.klein_loop()
    if name == "ip8":
        return catalog.ip_loop8()
    if name.startswith("ip8x2"):
        k = int(name.partition("^")[2] or 1)
        return direct_product(catalog.ip_loop8(), catalog.abelian_group_loop([2] * k))
    if name.startswith("z"):
        return catalog.cyclic_loop(int(name[1:]))
    raise ValueError(f"unknown base loop {name!r}")


class SetupError(Exception):
    """A base loop does not meet the preconditions every workload relies on."""


def certify_base(name: str, loop: FiniteLoop) -> None:
    """Refuse a base loop that cannot carry every mode of every workload."""
    report = analyze_properties(loop)
    if not report.has_ip:
        raise SetupError(f"base loop {name} lacks the inverse property")
    if report.has_order3_element:
        raise SetupError(f"base loop {name} has an element with x*x = x^-1")
    if not feasible_cardinality(loop.size).feasible:
        raise SetupError(f"base loop {name} has infeasible order {loop.size}")
    if name.startswith("ip8") and loop.is_associative():
        raise SetupError(f"base loop {name} is associative")


def prepare_bases(workload: Workload, tmp: Path) -> dict:
    """Search ip8 afresh, build and certify the bases, and (for the chain
    workloads) write their loop files.  Returns name -> loop."""
    for cache in CATALOG_CACHES:
        cache.cache_clear()
    bases = {}
    for name in workload.bases():
        loop = base_loop(name)
        certify_base(name, loop)
        bases[name] = loop
        if workload.kind == "chain":
            (tmp / f"{name}.loop").write_text(dumps_loop(loop), encoding="utf-8")
    return bases


# ---------------------------------------------------------------- goldens

def load_goldens(workload: Workload) -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))[workload.name]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path):
    """Digest of a file, or None when the program did not write it."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------- chain jobs

def chain_steps(job: Job, tmp: Path) -> list:
    """argv of the three CLI steps of one chain job, with its output files removed."""
    loop = str(tmp / f"{job.base}.loop")
    coc, ext = tmp / "job.coc", tmp / "job-ext.loop"
    coc.unlink(missing_ok=True)
    ext.unlink(missing_ok=True)
    coc, ext = str(coc), str(ext)
    return [
        ["construct", "--loop", loop, "--group", job.spec, "--mode", job.mode,
         "--seed", str(job.seed), "--out", coc],
        ["extend", "--loop", loop, "--cocycle", coc, "--out", ext],
        ["verify", "--loop", loop, "--cocycle", coc, "--mode", job.mode],
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli_process(argv: list, env: dict):
    """One ``python -m loopext`` process; returns (exit code, stdout)."""
    try:
        done = subprocess.run([sys.executable, "-m", "loopext", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return done.returncode, done.stdout


def run_cli_inprocess(argv: list):
    """One ``loopext.cli.main(argv)`` call in this process, as cold as a fresh
    process: the Aut(A) and catalog caches are cleared first."""
    AUT_CACHE.cache_clear()
    for cache in CATALOG_CACHES:
        cache.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed step, reported with its traceback
            code = "exception"
            print(traceback.format_exc(), file=sys.__stderr__)
    return code, out.getvalue()


def check_chain(job: Job, golden: dict, codes: list, outs: list, tmp: Path) -> list:
    """Problems found in the outputs of one chain job (empty when correct)."""
    problems = []
    if codes != golden["exit"]:
        return [f"exit codes {codes}, expected {golden['exit']}"]
    construct, extend, verify = outs
    coc_line = f"cocycle-sha256: {golden['cocycle']}"
    if coc_line not in construct.splitlines():
        problems.append("construct printed another cocycle digest")
    if sha256_file(tmp / "job.coc") != golden["cocycle"]:
        problems.append("cocycle file digest differs from its golden value")
    if sha256_file(tmp / "job-ext.loop") != golden["extension"]:
        problems.append("extension file digest differs from its golden value")
    for name, text in (("extend", extend), ("verify", verify)):
        lines = text.splitlines()
        if "result: pass" not in lines or "result: fail" in lines:
            problems.append(f"{name} report does not pass")
        if coc_line not in lines:
            problems.append(f"{name} report fingerprints another cocycle")
    return problems


# ---------------------------------------------------------------- fuzz jobs

def fuzz_job(job: Job, bases: dict, groups: dict):
    """Generate one cocycle and verify it; returns (cocycle, draws, report).

    Library functions are looked up on their modules at call time, so that
    a traced run sees them through its wrappers.
    """
    loop, group = bases[job.base], groups[job.group]
    choice = constructions.ChoiceSource(job.seed)
    if job.mode == "random":
        cocycle = constructions.random_cocycle(loop, group, choice, strongly_linear=True)
        mode = "all"
    else:
        construct = getattr(constructions, f"construct_{job.mode}_cocycle")
        cocycle = construct(loop, group, choice)
        mode = job.mode
    draws = choice.count
    return cocycle, draws, verification.verify_cocycle(cocycle, mode=mode)


def check_fuzz(golden: dict, cocycle, draws: int, report) -> list:
    problems = []
    if not report.passed:
        problems.append("verify report does not pass")
    if sha256_text(dumps_cocycle(cocycle)) != golden["cocycle"]:
        problems.append("cocycle digest differs from its golden value")
    if draws != golden["draws"]:
        problems.append(f"{draws} draws, expected {golden['draws']}")
    return problems


def prepare_groups(workload: Workload) -> dict:
    """Groups of the fuzz workload with Aut(A) enumerated once, cold."""
    AUT_CACHE.cache_clear()
    groups = {}
    for orders in workload.groups():
        groups[orders] = make_group(orders)
        AUT_CACHE(groups[orders])
    return groups
