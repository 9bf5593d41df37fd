"""Spans and counters around calls into loopext's public functions.

Wrappers are installed on *every* loopext module attribute (and module-level
dict value) that names a traced function, not only on the defining module:
``build_extension`` is imported into ``constructions``, ``verification`` and
``cli``, ``sigma_set`` is called through ``orbits`` globals, and ``cli`` keeps
the constructors in a dict.  Otherwise those calls would escape their span.

A span records name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import statistics
import sys
import time
from collections import defaultdict

from loopext import abelian, constructions, extension, fileio, loops, orbits, verification

# span name -> (module, functions); every function named here is public API
SPANS = {
    "abelian.aut_enum": (abelian, ("enumerate_automorphisms",)),
    "loops.analyze": (loops, ("analyze_properties",)),
    "loops.scan": (loops, ("first_lip_counterexample", "first_rip_counterexample",
                           "first_inverse_mismatch", "first_noncommuting_pair")),
    "loops.normal_quotient": (loops, ("is_normal_subloop", "quotient_loop")),
    "orbits.sigma": (orbits, ("sigma_set",)),
    "orbits.orbits": (orbits, ("gamma_orbits", "phi_orbits", "psi_orbits")),
    "extension.build": (extension, ("build_extension",)),
    "extension.closed_form": (extension, ("check_lip_conditions", "check_rip_conditions",
                                          "check_ip_conditions", "check_cip",
                                          "check_equivariance", "is_commutative_extension")),
    "extension.make_cocycle": (extension, ("make_cocycle",)),
    "constructions.construct": (constructions, ("construct_lip_cocycle", "construct_rip_cocycle",
                                                "construct_ip_cocycle", "random_cocycle")),
    "verification.verify": (verification, ("verify_cocycle",)),
    "verification.report": (verification, ("extension_report",)),
    "fileio.parse": (fileio, ("parse_loop_file", "parse_cocycle_file",
                              "loads_loop", "loads_cocycle")),
    "fileio.emit": (fileio, ("emit_loop_file", "emit_cocycle_file",
                             "dumps_loop", "dumps_cocycle")),
}

# the gate of a construction: its child spans in these layers
GATE = {"extension.closed_form", "extension.build", "loops.analyze"}

# span name -> (self-time metric, call-count metric or None)
SELF_TIME = {
    "abelian.aut_enum": ("abelian.aut_enum_s", None),
    "loops.finite_loop": ("loops.finite_loop_s", "loops.finite_loop_calls"),
    "loops.analyze": ("loops.analyze_s", "loops.analyze_calls"),
    "loops.scan": ("loops.scan_s", "loops.scan_calls"),
    "loops.normal_quotient": ("loops.normal_quotient_s", None),
    "orbits.sigma": ("orbits.sigma_s", "orbits.sigma_calls"),
    "orbits.orbits": ("orbits.orbits_s", None),
    "extension.build": ("extension.build_s", "extension.build_calls"),
    "extension.closed_form": ("extension.closed_form_s", "extension.closed_form_calls"),
    "extension.make_cocycle": ("extension.make_cocycle_s", None),
    "constructions.construct": ("constructions.construct_self_s", None),
    "verification.verify": ("verification.verify_self_s", None),
    "verification.report": ("verification.report_self_s", None),
    "fileio.parse": ("fileio.parse_s", None),
    "fileio.emit": ("fileio.emit_s", None),
}

# function name -> (count metric, its value for one call, how calls combine)
COUNTS = {
    **{f: ("orbits.orbit_count", lambda args, result: len(result.orbits), operator.add)
       for f in ("gamma_orbits", "phi_orbits", "psi_orbits")},
    **{f: ("verification.checks", lambda args, result: len(result.outcomes), operator.add)
       for f in ("verify_cocycle", "extension_report")},
    **{f: ("fileio.bytes_in", lambda args, result: os.path.getsize(args[0]), operator.add)
       for f in ("parse_loop_file", "parse_cocycle_file")},
    **{f: ("fileio.bytes_out", lambda args, result: os.path.getsize(args[1]), operator.add)
       for f in ("emit_loop_file", "emit_cocycle_file")},
    "enumerate_automorphisms": ("abelian.aut_order", lambda args, result: len(result), max),
}

# metrics every traced job reports, zero when its layer does not run
JOB_METRICS = sorted(
    {m for pair in SELF_TIME.values() for m in pair if m}
    | {metric for metric, _, _ in COUNTS.values()}
    | {"abelian.aut_enum_misses", "abelian.index_algebra_calls",
       "constructions.gate_s", "constructions.draws"}
)


class Tracer:
    """In-memory span recorder plus per-job counters."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, job id]
        self._stack = []
        self.job = None
        self.counts = defaultdict(int)  # (job, metric) -> count
        self.choice = None  # the last ChoiceSource the CLI created
        self._patches = self._plan()

    # -- recording

    def span(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            record = [name, 0, 0, tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if count is not None:
                metric, value, combine = count
                key = tracer.job, metric
                tracer.counts[key] = combine(tracer.counts[key], value(args, result))
            return result

        return wrapper

    def counter(self, metric, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args):
            counts[tracer.job, metric] += 1
            return fn(*args)

        return wrapper

    # -- installation

    def _plan(self):
        """(owner, key, original, wrapper) for every attribute to replace."""
        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "loopext" or name.startswith("loopext."))]
        namespaces += [value for ns in list(namespaces) for key, value in ns.items()
                       if isinstance(value, dict) and not key.startswith("__")]
        plan = []
        for name, (module, functions) in SPANS.items():
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self.span(name, original, COUNTS.get(fname))
                plan += [(ns, key, original, wrapper) for ns in namespaces
                         for key, value in ns.items() if value is original]
        init = loops.FiniteLoop.__init__
        plan.append((loops.FiniteLoop, "__init__", init, self.span("loops.finite_loop", init)))
        for method in ("compose_indices", "invert_index"):
            original = getattr(abelian.AutomorphismGroup, method)
            plan.append((abelian.AutomorphismGroup, method, original,
                         self.counter("abelian.index_algebra_calls", original)))
        cli = sys.modules["loopext.cli"]
        plan.append((vars(cli), "ChoiceSource", cli.ChoiceSource, self._keep_choice))
        return plan

    def install(self):
        """Replace every loopext attribute naming a traced function."""
        for owner, key, _, wrapper in self._patches:
            _assign(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            _assign(owner, key, original)

    def _keep_choice(self, *args, **kwargs):
        self.choice = constructions.ChoiceSource(*args, **kwargs)
        return self.choice

    # -- aggregation

    def job_metrics(self, job_ids):
        """Per-layer metrics of each traced job, in the order of ``job_ids``."""
        child_ns = defaultdict(int)
        gate_ns = defaultdict(int)
        spans = self.spans
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name in GATE and spans[parent][0] == "constructions.construct":
                    gate_ns[spans[parent][4]] += end - start
        jobs = {job: dict.fromkeys(JOB_METRICS, 0) for job in job_ids}
        for index, (name, start, end, parent, job) in enumerate(spans):
            if name not in SELF_TIME:
                continue
            seconds, calls = SELF_TIME[name]
            jobs[job][seconds] += (end - start - child_ns[index]) / 1e9
            if calls:
                jobs[job][calls] += 1
        for (job, metric), value in self.counts.items():
            jobs[job][metric] += value
        for job, ns in gate_ns.items():
            jobs[job]["constructions.gate_s"] = ns / 1e9
        return [jobs[job] for job in job_ids]

    def write(self, path):
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def medians(per_job: list) -> dict:
    """Median over jobs of every per-layer metric."""
    if not per_job:
        return {}
    return {metric: statistics.median(job[metric] for job in per_job) for metric in per_job[0]}
