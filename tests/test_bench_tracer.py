"""The benchmark's tracer (``perfbench/tracing.py``) wraps loopext functions
and methods by name.  Building and installing it here makes a rename or
removal of any of them fail the test suite instead of the traced bench run.
The test only imports from ``perfbench/`` and writes nothing there."""

import sys
import traceback
from pathlib import Path

import pytest

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


def test_tracer_records_report_scans(monkeypatch):
    # the report runs its three scans through the loops module's globals, and
    # properties() goes through analyze_properties, or the bench's
    # loops.analyze_* and loops.scan_* metrics would silently read 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import loopext.cli  # noqa: F401
    from loopext import catalog, loops

    import tracing

    loop = loops.make_loop(catalog.ip_loop7().table)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = loop.properties()
    finally:
        tracer.uninstall()
    assert report.has_ip
    spans = tracer.spans
    analyze = [i for i, record in enumerate(spans) if record[0] == "loops.analyze"]
    assert len(analyze) == 1
    scans = [record for record in spans if record[0] == "loops.scan"]
    assert len(scans) == 3 and all(record[3] == analyze[0] for record in scans)
    assert tracer.job_metrics([None])[0]["loops.analyze_calls"] == 1


def test_tracer_records_cocycle_validation(monkeypatch):
    # LoopCocycle validates inside make_cocycle's span, or the bench's
    # extension.make_cocycle_s would move into another layer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import loopext.cli  # noqa: F401
    from loopext import abelian, catalog, extension, fileio
    from loopext.errors import InputError

    import tracing

    loop, group = catalog.klein_loop(), abelian.make_group([3])
    ptable, qtable = [[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)]
    text = fileio.dumps_cocycle(extension.make_cocycle(loop, group, ptable, qtable))
    ptable[1][1] = 7
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fileio.loads_cocycle(text, loop)
        parsed = len(tracer.spans)
        with pytest.raises(InputError, match="^P table entry 7 ") as raised:
            extension.make_cocycle(loop, group, ptable, qtable)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    made = [i for i, record in enumerate(spans[:parsed]) if record[0] == "extension.make_cocycle"]
    assert len(made) == 1 and spans[spans[made[0]][3]][0] == "fileio.parse"
    assert spans[parsed][0] == "extension.make_cocycle" and spans[parsed][3] == -1
    assert all(record[3] >= parsed for record in spans[parsed + 1:])
    frames = [frame.name for frame in traceback.extract_tb(raised.value.__traceback__)]
    assert frames[-4:-1] == ["wrapper", "make_cocycle", "__init__"]
