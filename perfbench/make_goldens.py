"""Regenerate goldens.json, the expected output of every benchmark job.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_goldens.py

A chain job records the exit codes of its three CLI steps, the digest of the
cocycle file and of the extension file, and the draws of the construction.
A fuzz job records the digest of its cocycle and its draws.  Each chain job
runs in-process through ``loopext.cli.main``, each step as cold as a fresh
process.  Generation stops at the first job whose outputs do not pass, so
every workload is made only of jobs on which no operation fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def chain_goldens(workload, tmp):
    wl.prepare_bases(workload, tmp)
    real = wl.cli.ChoiceSource
    out = {}
    for job in wl.all_jobs(workload):
        choices = []

        def keep(seed):
            choices.append(real(seed))
            return choices[-1]

        wl.cli.ChoiceSource = keep
        try:
            results = [wl.run_cli_inprocess(argv) for argv in wl.chain_steps(job, tmp)]
        finally:
            wl.cli.ChoiceSource = real
        codes = [code for code, _ in results]
        if codes != [0, 0, 0] or any("result: pass" not in text.splitlines() for _, text in results[1:]):
            raise SystemExit(f"{workload.name} {job.key}: the chain does not pass: {codes}")
        out[job.key] = {
            "exit": codes,
            "cocycle": wl.sha256_file(tmp / "job.coc"),
            "extension": wl.sha256_file(tmp / "job-ext.loop"),
            "draws": choices[0].count,
        }
        print(workload.name, job.key, flush=True)
    return out


def fuzz_goldens(workload, tmp):
    bases = wl.prepare_bases(workload, tmp)
    groups = wl.prepare_groups(workload)
    out = {}
    for job in wl.all_jobs(workload):
        cocycle, draws, report = wl.fuzz_job(job, bases, groups)
        if not report.passed:
            raise SystemExit(f"{workload.name} {job.key}: the verify report does not pass")
        out[job.key] = {"cocycle": wl.sha256_text(wl.dumps_cocycle(cocycle)), "draws": draws}
    print(workload.name, len(out), "jobs", flush=True)
    return out


def main():
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        goldens = {
            name: (chain_goldens if workload.kind == "chain" else fuzz_goldens)(workload, tmp)
            for name, workload in wl.WORKLOADS.items()
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = ["{"]
    for i, (name, jobs) in enumerate(sorted(goldens.items())):
        lines.append(f' "{name}": {{')
        entries = [f'  "{key}": {json.dumps(jobs[key], sort_keys=True)}' for key in sorted(jobs)]
        lines.append(",\n".join(entries))
        lines.append(" }" + ("," if i < len(goldens) - 1 else ""))
    lines.append("}")
    wl.GOLDENS.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
