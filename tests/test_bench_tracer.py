"""The benchmark's tracer (``perfbench/tracing.py``) wraps loopext functions
and methods by name.  Building and installing it here makes a rename or
removal of any of them fail the test suite instead of the traced bench run.
The test only imports from ``perfbench/`` and writes nothing there."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import loopext.cli  # noqa: F401  (the tracer patches the CLI's names too)
    from loopext import abelian, extension, loops

    import tracing

    init = loops.FiniteLoop.__init__
    compose = abelian.AutomorphismGroup.compose_indices
    build = extension.build_extension
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert loops.FiniteLoop.__init__ is not init
        assert extension.build_extension is not build
        autgroup = abelian.AutomorphismGroup(abelian.make_group([2, 2]))
        assert autgroup.compose_indices(1, 2) == autgroup.products[1][2]
        assert tracer.counts[None, "abelian.index_algebra_calls"] == 1
    finally:
        tracer.uninstall()
    assert loops.FiniteLoop.__init__ is init
    assert abelian.AutomorphismGroup.compose_indices is compose
    assert extension.build_extension is build


def test_tracer_records_normal_quotient_span(monkeypatch):
    # verify's kernel-normal line must run inside a traced normality call,
    # or the bench's loops.normal_quotient_s would silently read 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import loopext.cli  # noqa: F401
    from loopext import abelian, catalog, constructions, verification

    import tracing

    cocycle = constructions.random_cocycle(catalog.klein_loop(), abelian.make_group([3]),
                                           constructions.ChoiceSource(1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = verification.verify_cocycle(cocycle)
    finally:
        tracer.uninstall()
    assert report.passed
    names = [record[0] for record in tracer.spans]
    assert "loops.normal_quotient" in names
    assert tracer.job_metrics([None])[0]["loops.normal_quotient_s"] > 0
