"""Set-up, jobs and the two measuring phases of the loopext benchmark.

Imported by ``run.py`` once ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads as wl

ROOT = wl.ROOT
SETUP_PASSES = 5
PROBE_REPEATS = 3  # cli.import_s and catalog.search_s are medians over this many
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many samples beyond,
TAIL_MIN_JOBS = 100  # or the maximum when fewer jobs ran and that percentile is below p90

END_TO_END_UNITS = {
    "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("fileio.bytes"):
        return "bytes"
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "count"


# ---------------------------------------------------------------- set-up

def setup_pass(workload, tmp, env):
    """One set-up: the ip8 search, the certified bases and the warm-up."""
    bases = wl.prepare_bases(workload, tmp)
    groups = {}
    if workload.kind == "chain":
        # compiles the bytecode, so that job 1 does not pay for it
        code, _ = wl.run_cli_process(["check", "--loop", str(tmp / f"{workload.bases()[0]}.loop")], env)
        if code != 0:
            raise wl.SetupError(f"warm-up CLI call exited with {code}")
    else:
        groups = wl.prepare_groups(workload)
    return bases, groups


IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
                "import phases; print(time.perf_counter() - start)")


def import_seconds(env):
    """Import time of loopext and the benchmark modules in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(wl.SRC), str(Path(__file__).parent)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                          timeout=wl.STEP_TIMEOUT_S)
    return float(done.stdout)


def setup(workload, tmp, env, record):
    """setup_s is the median over SETUP_PASSES of import time plus one set-up."""
    times = []
    for _ in range(SETUP_PASSES):
        imported = import_seconds(env)
        start = time.perf_counter()
        state = setup_pass(workload, tmp, env)
        times.append(imported + time.perf_counter() - start)
    record.update(setup_pass_s=times)
    return statistics.median(times), state


# ---------------------------------------------------------------- jobs

def chain_job(job, golden, tmp, env):
    """Run one CLI chain as three processes; returns (seconds, step seconds, problems)."""
    codes, outs, steps = [], [], []
    for argv in wl.chain_steps(job, tmp):
        start = time.perf_counter()
        code, out = wl.run_cli_process(argv, env)
        steps.append(time.perf_counter() - start)
        codes.append(code)
        outs.append(out)
        if code != 0:
            break
    return sum(steps), steps, wl.check_chain(job, golden, codes, outs, tmp)


def chain_inprocess(job, golden, tmp, tracer=None):
    """Run one CLI chain through ``loopext.cli.main``, each step cold.

    With a tracer, its wrappers are installed for the chain and the step
    spans, the Aut(A) cache misses and the construction draws are recorded.
    Returns (seconds, problems).
    """
    codes, outs, misses = [], [], 0
    run = wl.run_cli_inprocess if tracer is None else tracer.span("cli.main", wl.run_cli_inprocess)
    if tracer is not None:
        tracer.choice = None
        tracer.install()
    start = time.perf_counter()
    try:
        for argv in wl.chain_steps(job, tmp):
            code, out = run(argv)
            misses += wl.AUT_CACHE.cache_info().misses
            codes.append(code)
            outs.append(out)
            if code != 0:
                break
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    problems = wl.check_chain(job, golden, codes, outs, tmp)
    if tracer is not None:
        tracer.counts[tracer.job, "abelian.aut_enum_misses"] = misses
        draws = tracer.choice.count if tracer.choice is not None else None
        tracer.counts[tracer.job, "constructions.draws"] = draws or 0
        if draws != golden["draws"]:
            problems.append(f"{draws} draws, expected {golden['draws']}")
    return elapsed, problems


def fuzz_job(job, golden, bases, groups, tracer=None):
    """Generate and verify one cocycle in this process; returns (seconds, problems)."""
    misses = wl.AUT_CACHE.cache_info().misses
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    crash = None
    try:
        cocycle, draws, report = wl.fuzz_job(job, bases, groups)
    except Exception:  # a crash is a failed job, reported with its traceback
        crash = [traceback.format_exc()]
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if crash:
        return elapsed, crash
    if tracer is not None:
        tracer.counts[tracer.job, "abelian.aut_enum_misses"] = \
            wl.AUT_CACHE.cache_info().misses - misses
        tracer.counts[tracer.job, "constructions.draws"] = draws
    return elapsed, wl.check_fuzz(golden, cocycle, draws, report)


# ---------------------------------------------------------------- phases

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {job.key}: {'; '.join(problems)}", file=sys.stderr)


def tail(times):
    """(value, percentile, samples beyond it) at the highest percentile with
    TAIL_BEYOND samples beyond it.  With fewer than TAIL_MIN_JOBS samples that
    percentile would lie below p90 (below the median on the chain workloads),
    so the maximum is taken instead: each round holds every combination, so it
    is the time of the heaviest one."""
    ordered = sorted(times)
    if len(ordered) < TAIL_MIN_JOBS:
        return ordered[-1], 100.0, 0
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND


def timed_phase(workload, state, args, tmp, env, tally, record):
    """Whole rounds, untraced, until at least ``--seconds`` have passed."""
    goldens = wl.load_goldens(workload)
    bases, groups = state
    times, rounds = [], 0
    start = time.perf_counter()
    for jobs in wl.rounds(workload, args.seed):
        for job in jobs:
            if workload.kind == "chain":
                elapsed, _, problems = chain_job(job, goldens[job.key], tmp, env)
            else:
                elapsed, problems = fuzz_job(job, goldens[job.key], bases, groups)
            times.append(elapsed)
            tally.record(job, problems)
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if workload.kind == "chain" else resource.RUSAGE_SELF
    tail_s, tail_pct, beyond = tail(times)
    record.update(rounds=rounds, jobs=len(times), timed_wall_s=wall, tail_percentile=tail_pct,
                  tail_samples_beyond=beyond, fail_ratio=tally.failed / tally.attempted)
    return {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": (tally.attempted - tally.failed) / wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def probe_medians(workload, env):
    """Set-up-time probes of the cli and catalog layers."""
    search = []
    for _ in range(PROBE_REPEATS):
        wl.catalog.ip_loop8.cache_clear()
        start = time.perf_counter()
        wl.catalog.ip_loop8()
        search.append(time.perf_counter() - start)
    probes = {"catalog.search_s": statistics.median(search), "cli.import_s": 0.0}
    if workload.kind == "chain":
        imports = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import loopext.cli"], cwd=ROOT, env=env,
                           check=True, timeout=wl.STEP_TIMEOUT_S)
            imports.append(time.perf_counter() - start)
        probes["cli.import_s"] = statistics.median(imports)
    return probes


def traced_phase(workload, state, args, tmp, env, tally, record):
    """Jobs until ``--seconds`` have passed, each run untraced and traced."""
    goldens = wl.load_goldens(workload)
    bases, groups = state
    tracer = tracing.Tracer()
    metrics = probe_medians(workload, env)
    cli_steps = []
    wall = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    jobs = itertools.chain.from_iterable(wl.rounds(workload, args.seed))
    for index, job in enumerate(jobs):
        if index and time.perf_counter() - start >= args.seconds:
            break
        golden = goldens[job.key]
        tracer.job = index
        problems = []
        if workload.kind == "chain":
            _, steps, problems = chain_job(job, golden, tmp, env)
            cli_steps.append(steps)
        # alternate which goes first, so that warm caches favour neither
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            who = tracer if traced else None
            if workload.kind == "chain":
                elapsed, found = chain_inprocess(job, golden, tmp, who)
            else:
                elapsed, found = fuzz_job(job, golden, bases, groups, who)
            wall[traced] += elapsed
            problems += found
        tally.record(job, problems)
    metrics.update(tracing.medians(tracer.job_metrics(range(tally.attempted))))
    for i, name in enumerate(("cli.construct_s", "cli.extend_s", "cli.verify_s")):
        steps = [s[i] for s in cli_steps if len(s) > i]
        metrics[name] = statistics.median(steps) if steps else 0.0
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans)
    record.update(jobs=tally.attempted, spans=len(tracer.spans), spans_file=str(spans.relative_to(ROOT)),
                  fail_ratio=tally.failed / tally.attempted)
    return metrics


# ---------------------------------------------------------------- record

def run_record(args):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(), "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> int:
    """Set up, measure one phase, check every output and print the result."""
    workload = wl.WORKLOADS[args.workload]
    env = wl.child_env()
    record = run_record(args)
    tally = Tally()
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        setup_s, state = setup(workload, tmp, env, record)
        if args.trace:
            metrics = traced_phase(workload, state, args, tmp, env, tally, record)
        else:
            metrics = timed_phase(workload, state, args, tmp, env, tally, record)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    units = END_TO_END_UNITS if not args.trace else {m: unit_of(m) for m in metrics}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0
