"""Every fuzz-inproc job of the benchmark (``perfbench/workloads.py``) replayed
against its golden cocycle digest and draw count in ``goldens.json``, so a
change to the draw stream or a construction fails the test suite, not only a
bench run.  The test only imports from ``perfbench/`` and writes nothing there."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_fuzz_inproc_goldens_replay(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS["fuzz-inproc"]
    goldens = workloads.load_goldens(workload)
    bases = workloads.prepare_bases(workload, tmp_path)
    groups = workloads.prepare_groups(workload)
    jobs = workloads.all_jobs(workload)
    assert len(jobs) == 576
    problems = {}
    for job in jobs:
        found = workloads.check_fuzz(goldens[job.key],
                                     *workloads.fuzz_job(job, bases, groups))
        if found:
            problems[job.key] = found
    assert problems == {}
