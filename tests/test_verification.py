import gc
import hashlib
import itertools
import re
import sys

import pytest

from loopext.abelian import make_group
from loopext.catalog import abelian_group_loop, cyclic_loop, ip_loop8, klein_loop
from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    construct_rip_cocycle,
    random_cocycle,
)
from loopext.errors import PreconditionError
from loopext.extension import (
    build_extension,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
    make_cocycle,
)
from loopext.fileio import dumps_cocycle
from loopext.loops import _quotient_table, first_noncommuting_pair, make_loop
from loopext.verification import (
    VerificationReport,
    _check_inverse_formulas,
    extension_report,
    verify_cocycle,
)
from reference import (
    edited_table,
    extension_rows_by_cells,
    inverse_formula_mismatch,
    noncommuting_pair_by_rows,
    quotient_table,
    unpacked,
)


def identity_cocycle(loop, group):
    rows = [[0] * loop.size for _ in range(loop.size)]
    return make_cocycle(loop, group, rows, [row[:] for row in rows])


def outcome_names(report):
    return [outcome.name for outcome in report.outcomes]


class TestVerifyCocycle:
    def test_trivial_cocycle_all_pass(self, loops, groups):
        report = verify_cocycle(identity_cocycle(loops["klein"], groups["z3"]))
        assert report.passed
        names = outcome_names(report)
        assert "agreement-equivariance" in names
        assert "agreement-ip" in names

    def test_constructed_ip_asserts_property(self, loops, groups):
        cocycle = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(1))
        report = verify_cocycle(cocycle, mode="ip")
        assert report.passed
        assert "property-ip" in outcome_names(report)

    def test_property_failure_carries_counterexample(self, loops, groups):
        cocycle = random_cocycle(loops["z4"], groups["z3"], ChoiceSource(0))
        report = verify_cocycle(cocycle, mode="lip")
        assert not report.passed
        failing = [o for o in report.outcomes if o.name == "property-lip"][0]
        assert not failing.passed
        assert failing.counterexample is not None

    def test_unpinned_sigma_skips_equivariance_agreement(self, loops, groups):
        # strongly linear but with a non-identity value on the inverse
        # diagonal: the complement-only equivariance test answers a different
        # question there, so no agreement line is emitted
        rows = [[0] * 4 for _ in range(4)]
        qrows = [row[:] for row in rows]
        qrows[1][1] = 1
        cocycle = make_cocycle(loops["klein"], groups["z3"], rows, qrows)
        report = verify_cocycle(cocycle)
        names = outcome_names(report)
        assert "agreement-ip" in names
        assert "agreement-equivariance" not in names
        assert report.passed  # condition and built loop agree (both reject)

    def test_lying_route_fails_agreement(self, loops, groups, monkeypatch, tmp_path, capsys):
        # a closed-form route that contradicts the built extension fails its
        # agreement line, the report and the exit code of verify
        from loopext import verification
        from loopext.cli import main
        from loopext.fileio import emit_cocycle_file, emit_loop_file

        cocycle = construct_lip_cocycle(loops["z4"], groups["z3"], ChoiceSource(2))
        loop_path, coc_path = tmp_path / "z4.loop", tmp_path / "lip.coc"
        emit_loop_file(loops["z4"], loop_path)
        emit_cocycle_file(cocycle, coc_path)
        honest = verification.check_lip_conditions
        monkeypatch.setattr(verification, "check_lip_conditions", lambda c: not honest(c))
        code = main(["verify", "--loop", str(loop_path), "--cocycle", str(coc_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert ("check agreement-lip: fail (condition says False, built extension says True)"
                in lines)
        assert lines[-1] == "result: fail"

    def test_mode_validation(self, loops, groups):
        with pytest.raises(PreconditionError):
            verify_cocycle(identity_cocycle(loops["z4"], groups["z3"]), mode="moufang")

    def test_mode_precondition(self, loops, groups):
        cocycle = identity_cocycle(loops["lip_only"], groups["z2"])
        with pytest.raises(PreconditionError):
            verify_cocycle(cocycle, mode="rip")

    def test_report_text_shape(self, loops, groups):
        report = verify_cocycle(identity_cocycle(loops["z2"], groups["z2"]),
                                fingerprints={"loop": "f" * 64})
        text = report.to_text()
        assert text.startswith("report: verify\nloop-sha256: " + "f" * 64)
        assert text.endswith("\nresult: pass\n")
        assert "elapsed-ms" not in text
        again = verify_cocycle(identity_cocycle(loops["z2"], groups["z2"]),
                               fingerprints={"loop": "f" * 64})
        assert again.to_text() == text


def count_calls(monkeypatch, module, names, calls=None):
    """Replace ``module.<name>`` for each name by a wrapper that logs the name
    to ``calls`` (a new list by default), and return that list."""
    calls = [] if calls is None else calls
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


SCANS = ("first_inverse_mismatch", "first_lip_counterexample", "first_rip_counterexample")


def count_scans(monkeypatch, scans=SCANS):
    """Count the scans in every loopext module that binds their names, so a
    scan called through another module's import is counted too."""
    calls = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("loopext."):
            count_calls(monkeypatch, module, [s for s in scans if hasattr(module, s)], calls)
    return calls


class TestSinglePass:
    def test_ip_mode_runs_each_scan_once(self, loops, groups, monkeypatch):
        # a cocycle remade from its tables has no extension built yet
        made = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(1))
        cocycle = make_cocycle(made.loop, made.group, made.ptable, made.qtable)
        cocycle.loop.properties()  # the cached base analysis is not part of the count
        calls = count_scans(monkeypatch)
        report = verify_cocycle(cocycle, mode="ip")
        assert report.passed
        assert sorted(calls) == list(SCANS)

    def test_construct_then_verify_builds_and_scans_once(self, loops, groups, monkeypatch):
        # verify reuses the extension and the scans of the construction's
        # gate, the inverse-mismatch scan included
        import loopext.extension as extension_module

        loops["z5"].properties()
        calls = count_scans(monkeypatch)
        builds = count_calls(monkeypatch, extension_module, ["_extension_table"])
        cocycle = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(1))
        report = verify_cocycle(cocycle, mode="ip")
        assert report.passed
        assert sorted(calls) == list(SCANS)
        assert builds == ["_extension_table"]

    def test_commutativity_decided_once_per_loop(self, groups, monkeypatch):
        # the gate scans the base and the extension once each; verify and
        # is_commutative read those pairs back
        loop = cyclic_loop(256)
        calls = count_scans(monkeypatch, ["first_noncommuting_pair"])
        cocycle = construct_ip_cocycle(loop, groups["z2"], ChoiceSource(1))
        report = verify_cocycle(cocycle, mode="ip")
        assert report.passed and "check agreement-commutative: pass (condition=yes)" in report.to_text()
        assert calls == ["first_noncommuting_pair"] * 2  # 4 when each call scanned afresh
        assert loop.is_commutative() and build_extension(cocycle)[0].is_commutative()
        assert len(calls) == 2

    def test_gate_verdicts_are_kept(self, loops, groups, monkeypatch):
        # the gate decides LIP, RIP and equivariance once each; verify reads
        # those verdicts, and a cocycle remade from the tables decides afresh
        import loopext.extension as extension_module

        kernels = count_calls(monkeypatch, extension_module,
                              ["_lip_conditions_hold", "_equivariance_holds"])
        cocycle = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(1))
        gate = list(kernels)
        assert verify_cocycle(cocycle, mode="ip").passed
        assert kernels == gate == ["_lip_conditions_hold"] * 2 + ["_equivariance_holds"]
        remade = make_cocycle(cocycle.loop, cocycle.group, cocycle.ptable, cocycle.qtable)
        assert verify_cocycle(remade, mode="ip").passed
        assert kernels == gate * 2

    def test_kept_verdict_keeps_preconditions(self, loops, groups):
        # a kept verdict is read only after the precondition checks pass
        from loopext.extension import check_equivariance, check_rip_conditions

        cocycle = identity_cocycle(loops["lip_only"], groups["z3"])
        for _ in range(2):
            with pytest.raises(PreconditionError, match="right inverse property"):
                check_rip_conditions(cocycle)
        for _ in range(2):  # strongly linear, over a base without IP
            with pytest.raises(PreconditionError, match="inverse property"):
                check_equivariance(cocycle)

    @pytest.mark.parametrize("name,mode", [
        ("mismatch", "lip"), ("mismatch", "rip"), ("mismatch", "ip"),
        ("lip_only", "rip"), ("lip_only", "ip"),
    ])
    def test_unassertable_mode_refused_before_build(self, loops, groups, monkeypatch,
                                                     name, mode):
        from loopext import verification

        def no_build(cocycle):
            raise AssertionError("extension built for a refused mode")

        monkeypatch.setattr(verification, "build_extension", no_build)
        cocycle = random_cocycle(loops[name], groups["z3"], ChoiceSource(0))
        with pytest.raises(PreconditionError,
                           match=f"^cannot assert {mode}: base loop lacks the property$"):
            verify_cocycle(cocycle, mode=mode)


class TestBuiltOnce:
    def test_latin_failure_is_kept(self, loops, groups, monkeypatch):
        # swap two entries of row 1: rows stay permutations, columns 2 and 3 do not
        from loopext import extension

        original = extension._extension_table
        builds = []

        def swap(rows):
            row = list(rows[1])
            row[2], row[3] = row[3], row[2]
            rows[1] = tuple(row)
            return rows

        def swapped(cocycle):
            builds.append(cocycle)
            return edited_table(original(cocycle), swap)

        monkeypatch.setattr(extension, "_extension_table", swapped)
        cocycle = identity_cocycle(loops["klein"], groups["z3"])
        first, second = (verify_cocycle(cocycle).to_text()
                         for _ in range(2))
        assert first == second == (
            "report: verify\n"
            "check extension-latin: fail (column 2 is not a permutation of 0..11)\n"
            "counterexample extension-latin: 2\n"
            "result: fail\n"
        )
        assert len(builds) == 1
        assert build_extension(cocycle)[1].__traceback__ is None

    def test_build_is_kept_object(self, loops, groups):
        cocycle = identity_cocycle(loops["klein"], groups["z3"])
        built = build_extension(cocycle)
        assert build_extension(cocycle) is built
        ext, defect = built
        assert (ext.size, defect) == (12, None)

    def test_no_reference_cycle(self, loops, groups):
        # the cocycle keeps its built (loop, defect), which does not point
        # back at it, so dropping the cocycle frees both without the collector
        loop = make_loop(loops["z5"].table)
        gc.collect()
        gc.disable()
        try:
            cocycle = construct_ip_cocycle(loop, groups["z2xz2"], ChoiceSource(1))
            assert verify_cocycle(cocycle, mode="ip").passed
            del cocycle
            assert gc.collect() == 0
        finally:
            gc.enable()


def s3_loop():
    """The symmetric group on three points, identity first; {0, 1} (the
    identity and a transposition) is a subgroup whose left cosets partition
    it, but it is not normal."""
    perms = sorted(itertools.permutations(range(3)))
    return make_loop([[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms])


def relabelled_table(original, a, b):
    """``_extension_table`` of an isomorphic copy in which elements ``a`` and
    ``b`` exchange names, so the table stays a loop but its inverses move."""
    def rename(rows):
        name = list(range(len(rows)))
        name[a], name[b] = b, a
        return [tuple(name[rows[u][v]] for v in name) for u in name]

    return lambda cocycle: edited_table(original(cocycle), rename)


class TestGatheredKernels:
    """The row-gathered quotient check and the coset-gathered inverse-formula
    check against cell-by-cell references."""

    @pytest.mark.parametrize("name,members", [
        ("trivial", {0}), ("z2", {0}), ("z2", {0, 1}), ("z4", {0, 2}), ("z6", {0, 3}),
        ("z6", {0, 2, 4}), ("klein", {0, 1}), ("ip7", {0, 1, 2}), ("s3", {0, 1}),
        ("s3", {0, 3, 4}),
    ])
    def test_quotient_table(self, loops, name, members):
        loop = s3_loop() if name == "s3" else loops[name]
        assert _quotient_table(loop, frozenset(members)) == quotient_table(loop, members)

    def test_non_normal_subloop_with_partitioning_cosets(self):
        # {0, 1} of S3: its left cosets partition the group, so only the row
        # gather can refuse it
        loop = s3_loop()
        cosets = {frozenset(loop.table[x][m] for m in (0, 1)) for x in range(6)}
        assert len(cosets) == 3 and set().union(*cosets) == set(range(6))
        assert _quotient_table(loop, frozenset({0, 1})) is None

    @pytest.mark.parametrize("name,orders,mode,seed", [
        ("trivial", (2,), "random", 0), ("z2", (2,), "random", 3), ("z2", (3,), "lip", 1),
        ("klein", (3,), "random", 2), ("z5", (2, 2), "ip", 1), ("ip8", (4,), "rip", 0),
        ("lip_only", (2, 2), "random", 4), ("mismatch", (3,), "random", 5),
    ])
    def test_extension(self, loops, name, orders, mode, seed):
        group = make_group(orders)
        if mode == "random":
            cocycle = random_cocycle(loops[name], group, ChoiceSource(seed))
        else:
            cocycle = CONSTRUCT[mode](loops[name], group, ChoiceSource(seed))
        built, _ = build_extension(cocycle)
        table, kernel = built.table, frozenset(range(cocycle.group.size))
        assert _quotient_table(built, kernel) == quotient_table(built, kernel)
        assert inverse_formula_mismatch(cocycle, table) is None
        assert _check_inverse_formulas(cocycle, built) is None

    BROKEN_INVERSE_CASES = [
        ("z2", (2, 2), "random", 5, 6), ("klein", (3,), "random", 5, 7),
        ("z5", (2, 2), "random", 9, 10), ("z5", (2, 2), "random", 5, 13),
        ("mismatch", (3,), "random", 13, 14),
        ("klein", (3,), "lip", 7, 9), ("lip_only", (3,), "lip", 10, 13),
        ("z5", (2, 2), "rip", 11, 14), ("ip8", (2,), "rip", 9, 13),
        ("z5", (2, 2), "ip", 11, 17), ("ip7", (2, 2), "ip", 15, 18),
    ]

    # the ids of the random cases name no mode
    @pytest.mark.parametrize("name,orders,mode,a,b", BROKEN_INVERSE_CASES, ids=[
        f"{name}-orders{i}-{a}-{b}" if mode == "random" else f"{name}-orders{i}-{mode}-{a}-{b}"
        for i, (name, orders, mode, a, b) in enumerate(BROKEN_INVERSE_CASES)])
    def test_broken_inverse_witness(self, loops, monkeypatch, name, orders, mode, a, b):
        # renaming two elements keeps a loop table but moves inverses away
        # from the closed forms; each witness lies inside its coset, so it
        # is the coset's element scan that finds it.  A constructed cocycle
        # is remade from its tables, so its extension is built renamed here
        from loopext import extension

        group = make_group(orders)
        if mode == "random":
            cocycle = random_cocycle(loops[name], group, ChoiceSource(1))
        else:
            made = CONSTRUCT[mode](loops[name], group, ChoiceSource(1))
            cocycle = make_cocycle(made.loop, made.group, made.ptable, made.qtable)
        monkeypatch.setattr(extension, "_extension_table",
                            relabelled_table(extension._extension_table, a, b))
        built, _ = build_extension(cocycle)
        witness = inverse_formula_mismatch(cocycle, built.table)
        assert witness is not None and witness[0] % group.size != 0
        assert _check_inverse_formulas(cocycle, built) == witness
        text = verify_cocycle(cocycle).to_text()
        assert f"counterexample inverse-formulas: {witness[0]}\n" in text


class TestKernelNotSubloop:
    """A Latin table whose kernel {e} x A is not closed fails the kernel
    lines of the report; it is no input error."""

    EXPECTED = ("check kernel-normal: fail\n"
                "check quotient-reconstructs-base: fail (kernel not normal)\n")

    @pytest.fixture()
    def cocycle(self, loops, monkeypatch):
        # in z2 x Z3 element 4 is (1, 1): named 2, it puts the product
        # (1, 1) * (1, 1) = (0, 2) outside the kernel {0, 1, 2}
        from loopext import extension

        monkeypatch.setattr(extension, "_extension_table",
                            relabelled_table(extension._extension_table, 2, 4))
        return random_cocycle(loops["z2"], make_group([3]), ChoiceSource(0))

    def test_reports(self, cocycle):
        built, _ = build_extension(cocycle)
        kernel, table = frozenset(range(cocycle.group.size)), built.table
        assert any(table[u][v] not in kernel for u in kernel for v in kernel)
        for report in (verify_cocycle(cocycle), extension_report(cocycle)):
            assert not report.passed
            assert self.EXPECTED in report.to_text()

    def test_cli_exit_code(self, cocycle, tmp_path, capsys):
        from loopext.cli import main
        from loopext.fileio import emit_cocycle_file, emit_loop_file

        paths = {name: str(tmp_path / name) for name in ("z2.loop", "c.cocycle", "ext.loop")}
        emit_loop_file(cocycle.loop, paths["z2.loop"])
        emit_cocycle_file(cocycle, paths["c.cocycle"])
        files = ["--loop", paths["z2.loop"], "--cocycle", paths["c.cocycle"]]
        assert main(["verify", *files]) == 1
        assert main(["extend", *files, "--out", paths["ext.loop"]]) == 1
        out, err = capsys.readouterr()
        assert out.count(self.EXPECTED) == 2
        assert re.fullmatch(r"(elapsed-ms: \d+\.\d\n){2}", err)


class TestExtensionReport:
    def test_basic(self, loops, groups):
        report = extension_report(identity_cocycle(loops["z4"], groups["z2xz2"]))
        assert report.passed
        assert outcome_names(report) == [
            "extension-latin", "inverse-formulas", "kernel-normal",
            "quotient-reconstructs-base",
        ]


class TestVerificationReport:
    def test_instances_share_no_state(self):
        first, second = VerificationReport("verify"), VerificationReport("verify")
        first.add("kernel-normal", True)
        first.fingerprints["cocycle"] = "00"
        assert second.outcomes == []
        assert second.fingerprints == {}

    def test_fingerprints_are_copied(self):
        given = {"cocycle": "00"}
        report = VerificationReport("extend", given)
        report.fingerprints["loop"] = "11"
        assert given == {"cocycle": "00"}


# sha256 over cocycle text, draw count and verify text of every job of the
# fuzz grid below, in order; equal on the constructed cocycle (warm caches)
# and on a copy remade from its tables (cold caches).  Recorded again when
# verify began to print agreement-ip for cocycles that are not strongly
# linear: the text gained one "check agreement-ip: pass (condition=no)" line
# on each LIP and RIP job over a group other than Z2, and nothing else
FUZZ_GRID_DIGEST = "93ac6c3a950b3f90e17eef3bfef69e84fba721702608838867c24d9b62b6c5f3"

CONSTRUCT = {"lip": construct_lip_cocycle, "rip": construct_rip_cocycle,
             "ip": construct_ip_cocycle}


def direct_product(left, right):
    """Product loop on pairs (x, a) encoded as x * |right| + a."""
    n = right.size
    lt, rt = left.table, right.table
    return make_loop([
        [lt[x][y] * n + rt[a][b] for y in range(left.size) for b in range(n)]
        for x in range(left.size) for a in range(n)
    ])


FUZZ_GROUP_ORDERS = ((2,), (3,), (2, 2), (4,), (2, 2, 2), (5,))


def fuzz_bases():
    """The base loops of the fuzz grid."""
    return [klein_loop(), cyclic_loop(5), cyclic_loop(7), ip_loop8(),
            direct_product(ip_loop8(), abelian_group_loop([2]))]


def fuzz_cocycle(loop, group, mode, choice):
    """The fuzz job's cocycle: strongly linear at random, or constructed."""
    if mode == "random":
        return random_cocycle(loop, group, choice, strongly_linear=True)
    return CONSTRUCT[mode](loop, group, choice)


def test_frozen_fuzz_grid_text():
    groups = [make_group(orders) for orders in FUZZ_GROUP_ORDERS]
    warm, cold = hashlib.sha256(), hashlib.sha256()
    for loop in fuzz_bases():
        for group in groups:
            for mode in ("random", "lip", "rip", "ip"):
                for seed in (0, 1):
                    choice = ChoiceSource(seed)
                    cocycle = fuzz_cocycle(loop, group, mode, choice)
                    remade = make_cocycle(make_loop(loop.table), group,
                                          cocycle.ptable, cocycle.qtable)
                    for digest, job in ((warm, cocycle), (cold, remade)):
                        report = verify_cocycle(job, mode="all" if mode == "random" else mode)
                        assert report.passed
                        digest.update(f"{dumps_cocycle(job)}draws: {choice.count}\n"
                                      f"{report.to_text()}".encode())
    assert warm.hexdigest() == FUZZ_GRID_DIGEST
    assert cold.hexdigest() == FUZZ_GRID_DIGEST


@pytest.mark.parametrize("mode", ["random", "lip", "rip", "ip"])
def test_closed_forms_read_either_container(mode):
    # the LIP and RIP conditions read the base loop's rows and columns; over
    # a row-container copy of each base the verdicts are the same
    verdicts = set()
    for loop in fuzz_bases():
        rows = unpacked(loop)
        for orders in FUZZ_GROUP_ORDERS:
            for seed in (0, 1):
                cocycle = fuzz_cocycle(loop, make_group(orders), mode, ChoiceSource(seed))
                twin = make_cocycle(rows, cocycle.group, cocycle.ptable, cocycle.qtable)
                verdict = (check_lip_conditions(cocycle), check_rip_conditions(cocycle))
                assert verdict == (check_lip_conditions(twin), check_rip_conditions(twin))
                verdicts.add(verdict)
        assert type(rows._rows[0]) is tuple and type(loop._rows[0]) is bytes
    expected = {"random": {(False, False)}, "lip": {(True, False)}, "rip": {(False, True)},
                "ip": {(True, True)}}[mode]
    assert expected <= verdicts


class TestPackedExtension:
    """An extension of order N <= 256 is born as ``bytes`` rows; every scan
    on the way to a verify report reads them, never their int-tuple view."""

    @pytest.fixture(scope="class")
    def bases(self):
        # the grid's bases and ip8x2^2, whose extension by Z2^3 is the fuzz
        # workload's N = 256 job
        return fuzz_bases() + [direct_product(ip_loop8(), abelian_group_loop([2, 2]))]

    @pytest.mark.parametrize("mode", ["random", "lip", "rip", "ip"])
    def test_verify_builds_no_rows(self, bases, mode):
        for loop in bases:
            for orders in FUZZ_GROUP_ORDERS:
                cocycle = fuzz_cocycle(loop, make_group(orders), mode, ChoiceSource(0))
                assert verify_cocycle(cocycle, mode="all" if mode == "random" else mode).passed
                ext = build_extension(cocycle)[0]
                assert ext.size <= 256 and all(type(row) is bytes for row in ext._rows)
                assert "table" not in ext._kept, (loop.size, orders, mode)
                # == and hash read the bytes rows too
                twin = build_extension(make_cocycle(loop, cocycle.group, cocycle.ptable,
                                                    cocycle.qtable))[0]
                assert twin is not ext and twin == ext and hash(twin) == hash(ext)
                assert "table" not in ext._kept and "table" not in twin._kept
                assert ext.table == tuple(extension_rows_by_cells(cocycle))
                remade = make_loop(ext.table)
                assert ext == remade and hash(ext) == hash(remade)

    @pytest.mark.parametrize("mode", ["random", "lip", "rip", "ip"])
    def test_noncommuting_witness_on_the_grid(self, bases, mode):
        for loop in bases:
            for orders in FUZZ_GROUP_ORDERS:
                cocycle = fuzz_cocycle(loop, make_group(orders), mode, ChoiceSource(1))
                ext = build_extension(cocycle)[0]
                assert first_noncommuting_pair(ext) == noncommuting_pair_by_rows(ext)

    def test_noncommuting_witness_under_relabeling(self, loops):
        # every relabeling of the mismatch loop that keeps e at 0 moves the
        # first non-commuting pair around the table
        base, l = loops["mismatch"].table, loops["mismatch"].size
        witnesses = set()
        for rest in itertools.permutations(range(1, l)):
            name = (0, *rest)
            back = sorted(range(l), key=name.__getitem__)  # back[name[u]] = u
            loop = make_loop([[name[base[back[x]][back[y]]] for y in range(l)]
                              for x in range(l)])
            assert type(loop._rows[0]) is bytes
            witness = first_noncommuting_pair(loop)
            assert witness == noncommuting_pair_by_rows(loop) is not None
            witnesses.add(witness)
        assert len(witnesses) > 1

    def test_commutative_extensions_have_no_witness(self, bases):
        for loop in bases:
            if not loop.is_commutative():
                continue
            for orders in FUZZ_GROUP_ORDERS:
                # P = Q transposed over a commutative base: a commutative extension
                made = random_cocycle(loop, make_group(orders), ChoiceSource(2))
                cocycle = make_cocycle(loop, made.group, zip(*made.qtable), made.qtable)
                assert is_commutative_extension(cocycle)
                ext = build_extension(cocycle)[0]
                assert first_noncommuting_pair(ext) is None is noncommuting_pair_by_rows(ext)
