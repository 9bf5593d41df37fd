import re

import pytest

from loopext.abelian import make_group
from loopext.catalog import bundled_corpus, cyclic_loop
from loopext.cli import main
from loopext.constructions import ChoiceSource, random_cocycle
from loopext.fileio import emit_cocycle_file, emit_loop_file, parse_cocycle_file, parse_loop_file
from loopext.loops import analyze_properties


@pytest.fixture()
def loop_files(tmp_path):
    paths = {}
    for name in ("z2", "z3", "z4", "z5", "klein", "ip7", "ip8"):
        path = tmp_path / f"{name}.loop"
        emit_loop_file(bundled_corpus()[name], path)
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point():
    import os
    import subprocess
    import sys

    import loopext

    # run the package under test, also when only pytest's pythonpath finds it
    src = os.path.dirname(os.path.dirname(loopext.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "loopext", "feasible", "--max-l", "2"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "l: 2" in proc.stdout


class TestFeasible:
    def test_reference_table(self, capsys):
        code, out, _ = run(capsys, "feasible", "--max-l", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k: 0, 1, 2, 5, 7, 12, 15, 22, 26, 35"
        assert lines[1] == "h: 1, 5, 7, 11, 13, 17, 19, 23, 25, 29"
        assert lines[2] == "l: 2, 4, 5, 7, 8, 10, 11, 13, 14, 16"
        assert "cardinality l=16 k=35 h=29" in lines

    def test_bad_bound(self, capsys):
        code, _, err = run(capsys, "feasible", "--max-l", "1")
        assert code == 2
        assert "error:" in err


class TestCheck:
    def test_corpus_reports(self, capsys, loop_files):
        for name in ("z2", "z4", "z5", "klein", "ip7", "ip8"):
            code, out, _ = run(capsys, "check", "--loop", loop_files[name])
            assert code == 0
            assert "lip: yes" in out
            assert "rip: yes" in out
            assert "ip: yes" in out

    def test_exhaustive_iota_flag(self, capsys, loop_files):
        code, out, _ = run(capsys, "check", "--loop", loop_files["klein"], "--exhaustive-iota")
        assert code == 0
        assert "ip: yes" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--loop", str(tmp_path / "nope.loop"))
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("loop 2\n0 1\n1 1\n")
        code, _, err = run(capsys, "check", "--loop", str(bad))
        assert code == 2
        assert "error:" in err


class TestAut:
    def test_klein_group(self, capsys):
        code, out, _ = run(capsys, "aut", "--group", "2,2")
        assert code == 0
        lines = out.splitlines()
        assert "automorphisms: 6" in lines
        assert lines[3] == "0: 0 1 2 3"

    def test_cap(self, capsys):
        code, _, err = run(capsys, "aut", "--group", "2,2,2,2,2,2,2")
        assert code == 2

    def test_cap_override(self, capsys):
        code, out, _ = run(capsys, "aut", "--group", "128", "--aut-cap", "128")
        assert code == 0
        assert "automorphisms: 64" in out  # odd residues mod 128

    @pytest.mark.parametrize("spec", ["2,2,2,2,2", "2,2,2,2,2,2"])
    def test_aut_order_cap(self, capsys, spec):
        code, out, err = run(capsys, "aut", "--group", spec)
        assert code == 2
        assert out == ""
        assert "exceeds cap 200000" in err

    def test_construct_refuses_large_aut(self, capsys, loop_files, tmp_path):
        out_path = tmp_path / "c.coc"
        code, _, err = run(capsys, "construct", "--loop", loop_files["klein"],
                           "--group", "2,2,2,2,2", "--mode", "ip", "--out", str(out_path))
        assert code == 2
        assert "exceeds cap 200000" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["extend", "verify"])
    def test_cocycle_file_refuses_large_aut(self, capsys, loop_files, tmp_path, command):
        coc_path = tmp_path / "c.coc"
        coc_path.write_text("cocycle l=2 group=2,2,2,2,2\nP\n0 0\n0 0\nQ\n0 0\n0 0\n")
        argv = [command, "--loop", loop_files["z2"], "--cocycle", str(coc_path)]
        if command == "extend":
            argv += ["--out", str(tmp_path / "f.loop")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "exceeds cap 200000" in err


# sha256 of ``aut --group X`` stdout, recorded before Aut(A) was enumerated by
# backtracking; cocycle files index into this order, so it is a frozen output
FROZEN_AUT_DIGESTS = {
    "2,2,2,2": "b5f57aea5c466e5a4a02c8cf96a66a4e6becb617daf854324c4a8a0b7e77bcb2",
    "3,3,3": "6b200742ff77a029c64362421d0010ca60fafc17bef2bffeafa572349768c383",
    "4,4,2": "1dbec1c48e211e5bd6460720b9ece3a2d1eb97efdd05d90ccaeb544f07a68b9f",
    "8,8": "a405f48388f10516db106a8750bd0fd5befa8b43c9d4db2c59ecda408469847f",
    "2,6": "e69aaaa53682edfbe94834791ded97a39f9d2ba2483693c4991285f9adb03807",
    "4,6": "cfefc42f9fa5159ce7e31fd368819b8b234c95d2dd702dbddb7cc398edfd032b",
    "2,12": "13e3547ec7aed9f4d4010826a41ee119175fc65c5e5fd1f87f69ea25e24cfb73",
    "8,2,2": "f9c285fe0c699aaf26d8876863f6279256e1d1e0658428e16b2b3d1792f85a27",
}


@pytest.mark.parametrize("spec", sorted(FROZEN_AUT_DIGESTS))
def test_frozen_aut_text(capsys, spec):
    import hashlib

    code, out, _ = run(capsys, "aut", "--group", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_AUT_DIGESTS[spec]


class TestOrbits:
    def test_gamma_klein(self, capsys, loop_files):
        code, out, _ = run(capsys, "orbits", "--loop", loop_files["klein"], "--mode", "gamma")
        assert code == 0
        assert "sigma-size: 10" in out
        assert "complement-size: 6" in out
        assert "orbits: 1" in out

    def test_phi_z4(self, capsys, loop_files):
        code, out, _ = run(capsys, "orbits", "--loop", loop_files["z4"], "--mode", "phi")
        assert code == 0
        assert "orbits: 3" in out
        assert "id:(1,1) phi:(3,2)" in out

    def test_gamma_rejects_order3(self, capsys, loop_files):
        code, _, err = run(capsys, "orbits", "--loop", loop_files["z3"], "--mode", "gamma")
        assert code == 2


class TestConstructVerifyExtend:
    def test_ip_pipeline(self, capsys, loop_files, tmp_path):
        out_path = str(tmp_path / "c.coc")
        code, out, _ = run(capsys, "construct", "--loop", loop_files["klein"],
                           "--group", "3", "--mode", "ip", "--seed", "7",
                           "--out", out_path, "--report")
        assert code == 0
        assert "orbit 0:" in out

        code, out, _ = run(capsys, "verify", "--loop", loop_files["klein"],
                           "--cocycle", out_path, "--mode", "ip", "--no-timing")
        assert code == 0
        assert "check property-ip: pass" in out
        assert "result: pass" in out

        ext_path = str(tmp_path / "f.loop")
        code, out, _ = run(capsys, "extend", "--loop", loop_files["klein"],
                           "--cocycle", out_path, "--out", ext_path, "--no-timing")
        assert code == 0
        built = parse_loop_file(ext_path)
        assert built.size == 12
        assert analyze_properties(built).has_ip

    @pytest.mark.parametrize("mode,loop_name", [("lip", "z4"), ("rip", "z4"), ("ip", "z5")])
    def test_modes_verify_clean(self, capsys, loop_files, tmp_path, mode, loop_name):
        out_path = str(tmp_path / f"{mode}.coc")
        code, _, _ = run(capsys, "construct", "--loop", loop_files[loop_name],
                         "--group", "2,2", "--mode", mode, "--seed", "3", "--out", out_path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--loop", loop_files[loop_name],
                           "--cocycle", out_path, "--mode", mode, "--no-timing")
        assert code == 0
        assert f"check property-{mode}: pass" in out

    def test_extend_builds_once(self, capsys, loop_files, tmp_path, monkeypatch):
        from loopext import cli, extension, verification

        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["klein"], "--group", "3",
            "--mode", "ip", "--seed", "7", "--out", out_path)
        calls = []
        original = extension.build_extension

        def counting(cocycle):
            calls.append(cocycle)
            return original(cocycle)

        for module in (cli, extension, verification):
            monkeypatch.setattr(module, "build_extension", counting)
        code, _, _ = run(capsys, "extend", "--loop", loop_files["klein"], "--cocycle", out_path,
                         "--out", str(tmp_path / "f.loop"), "--no-timing")
        assert code == 0
        assert len(calls) == 1

    def test_extend_runs_one_normality_pass(self, capsys, loop_files, tmp_path, monkeypatch):
        # the kernel-normal and quotient lines share one pass (three at the
        # time both lines called their own normality test)
        from loopext import loops

        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["ip8"], "--group", "2",
            "--mode", "ip", "--seed", "3", "--out", out_path)
        calls = []
        original = loops._normal_cosets

        def counting(loop, members):
            calls.append(members)
            return original(loop, members)

        monkeypatch.setattr(loops, "_normal_cosets", counting)
        code, out, _ = run(capsys, "extend", "--loop", loop_files["ip8"], "--cocycle", out_path,
                           "--out", str(tmp_path / "f.loop"), "--no-timing")
        assert code == 0
        assert "check kernel-normal: pass" in out
        assert "check quotient-reconstructs-base: pass" in out
        assert calls == [frozenset({0, 1})]

    def test_verify_mode_precondition_exit(self, capsys, tmp_path):
        # asserting lip over a base loop without the property is ill-posed
        from loopext.catalog import inverse_mismatch_loop

        loop = inverse_mismatch_loop()
        loop_path = tmp_path / "m.loop"
        emit_loop_file(loop, loop_path)
        cocycle = random_cocycle(loop, make_group([2]), ChoiceSource(0))
        coc_path = tmp_path / "m.coc"
        emit_cocycle_file(cocycle, coc_path)
        code, _, err = run(capsys, "verify", "--loop", str(loop_path),
                           "--cocycle", str(coc_path), "--mode", "lip")
        assert code == 2
        assert "error:" in err

    def test_order3_precondition_exit(self, capsys, loop_files, tmp_path):
        code, _, err = run(capsys, "construct", "--loop", loop_files["z3"],
                           "--group", "3", "--mode", "ip",
                           "--out", str(tmp_path / "x.coc"))
        assert code == 2
        assert "x*x" in err

    def test_ip7_order3_precondition_exit(self, capsys, loop_files, tmp_path):
        code, _, err = run(capsys, "construct", "--loop", loop_files["ip7"],
                           "--group", "2", "--mode", "ip",
                           "--out", str(tmp_path / "x.coc"))
        assert code == 2

    def test_failing_verify_reports_replayable_counterexample(
            self, capsys, loop_files, tmp_path):
        cocycle = random_cocycle(cyclic_loop(4), make_group([3]), ChoiceSource(0))
        path = tmp_path / "random.coc"
        emit_cocycle_file(cocycle, path)
        code, out, _ = run(capsys, "verify", "--loop", loop_files["z4"],
                           "--cocycle", str(path), "--mode", "lip", "--no-timing")
        assert code == 1
        assert "check property-lip: fail" in out
        match = re.search(r"counterexample property-lip: (\d+) (\d+)", out)
        assert match is not None
        x, y = int(match.group(1)), int(match.group(2))
        # replay through the library: the left-inverse law fails at (x, y)
        from loopext.extension import build_extension

        built = build_extension(parse_cocycle_file(path, cyclic_loop(4)))
        iota = built.loop.left_inverse(x)
        assert built.loop.mul(iota, built.loop.mul(x, y)) != y

    def test_verify_all_mode_consistency(self, capsys, loop_files, tmp_path):
        cocycle = random_cocycle(cyclic_loop(4), make_group([3]), ChoiceSource(0))
        path = tmp_path / "random.coc"
        emit_cocycle_file(cocycle, path)
        code, out, _ = run(capsys, "verify", "--loop", loop_files["z4"],
                           "--cocycle", str(path), "--no-timing")
        # agreements hold even though the property itself does not
        assert code == 0
        assert "check agreement-lip: pass (condition=no)" in out

    def test_determinism_byte_identical(self, capsys, loop_files, tmp_path):
        paths = []
        for i in (1, 2):
            out_path = tmp_path / f"c{i}.coc"
            code, _, _ = run(capsys, "construct", "--loop", loop_files["z5"],
                             "--group", "2,2", "--mode", "ip", "--seed", "99",
                             "--out", str(out_path))
            assert code == 0
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]

    def test_verify_handles_mismatched_inverse_base(self, capsys, tmp_path):
        # with no inverse structure on the base, only the always-defined
        # checks run; they must still pass
        from loopext.catalog import inverse_mismatch_loop

        loop = inverse_mismatch_loop()
        loop_path = tmp_path / "m.loop"
        emit_loop_file(loop, loop_path)
        cocycle = random_cocycle(loop, make_group([3]), ChoiceSource(4))
        coc_path = tmp_path / "m.coc"
        emit_cocycle_file(cocycle, coc_path)
        code, out, _ = run(capsys, "verify", "--loop", str(loop_path),
                           "--cocycle", str(coc_path), "--no-timing")
        assert code == 0
        assert "check inverse-formulas: pass" in out
        assert "agreement-lip" not in out

    def test_reports_identical_without_timing(self, capsys, loop_files, tmp_path):
        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["z4"], "--group", "3",
            "--mode", "lip", "--seed", "5", "--out", out_path)
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify", "--loop", loop_files["z4"],
                            "--cocycle", out_path, "--no-timing")
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestBrokenBuild:
    """A build that is not a Latin square is a failed check, not bad input."""

    @pytest.fixture()
    def cocycle_path(self, capsys, loop_files, tmp_path):
        path = str(tmp_path / "c.coc")
        code, _, _ = run(capsys, "construct", "--loop", loop_files["klein"], "--group", "3",
                         "--mode", "ip", "--seed", "7", "--out", path)
        assert code == 0
        return path

    @pytest.fixture()
    def broken_build(self, monkeypatch):
        # swap two entries of row 1: rows stay permutations, columns 2 and 3 do not
        from loopext import extension

        original = extension._extension_rows

        def swapped(cocycle):
            rows = original(cocycle)
            row = list(rows[1])
            row[2], row[3] = row[3], row[2]
            rows[1] = tuple(row)
            return rows

        monkeypatch.setattr(extension, "_extension_rows", swapped)

    @pytest.mark.parametrize("command", ["extend", "verify"])
    def test_latin_line_fails(self, capsys, loop_files, tmp_path, cocycle_path, broken_build,
                              command):
        out_path = tmp_path / "f.loop"
        argv = [command, "--loop", loop_files["klein"], "--cocycle", cocycle_path, "--no-timing"]
        if command == "extend":
            argv += ["--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert [line for line in lines if line.startswith(("check ", "counterexample "))] == [
            "check extension-latin: fail (column 2 is not a permutation of 0..11)",
            "counterexample extension-latin: 2",
        ]
        assert lines[-1] == "result: fail"
        assert not out_path.exists()

    def test_construction_gate_raises(self, loop_files, tmp_path, broken_build):
        from loopext.errors import InternalError

        with pytest.raises(InternalError, match="not a loop: column 2"):
            main(["construct", "--loop", loop_files["klein"], "--group", "3",
                  "--mode", "ip", "--seed", "7", "--out", str(tmp_path / "x.coc")])
        assert not (tmp_path / "x.coc").exists()


# sha256 of the construct -> extend -> verify transcript of each chain below,
# recorded before the right-hand checks were derived from the left-hand ones;
# report text, witnesses and exit codes are frozen outputs
FROZEN_CHAIN_DIGESTS = {
    ("klein", "3", "lip"):
        "c851ae88cd18242a8125a1af5a5d1533f38c7a33d90a299aa61e7ca7d822d996",
    ("klein", "3", "rip"):
        "b671ac067525bf99cdfef5e1aa8ab82e2955ff63f6fb7cd5a8bbacc40e1d7932",
    ("klein", "3", "ip"):
        "7f59660da33c384558d4fab2591a6188d9c52d0ebc910ea0b9c6a052a6c9acf0",
    ("ip8", "2", "lip"):
        "3eb30f6584b13a8dd00e4e3011db283fa3a07f6c0f393999e7673f6e9c89ea62",
    ("ip8", "2", "rip"):
        "639acd1d1844c79dae419ea257c27e6db9af425245d9033187a1486a8f680829",
    ("ip8", "2", "ip"):
        "f9b6cc2a3d03ed376c0148acba66bed76955ad69dbc063cac4343d4b83797a36",
    ("klein", "3", "random"):
        "7d95442052208d4f1b3c31d7d59bc4043d5e2e28e81a35b1ec433ad5a2aaf8c7",
    ("lip_only", "3", "random"):
        "d23fc83ea9e0319365d557db4e723e8fb14ed8042b3d6f0b492a376e438beef0",
    ("mismatch", "3", "random"):
        "a230c05715cc0a8f5dc1cbefd1ea4981ab8a4180b9e2fccd0377a36afa183396",
}


def chain_transcript(capsys, tmp_path, loop, group_spec, source):
    """Exit code, report lines and errors of one chain, without ``wrote:`` paths.

    ``source`` is a construction mode, or ``random`` for a seeded random
    cocycle (which fails the properties, so its reports carry witnesses).
    Every chain ends with one ``verify --no-timing`` per verify mode.
    """
    from loopext.verification import VERIFY_MODES

    loop_path = str(tmp_path / "base.loop")
    coc_path = str(tmp_path / "c.coc")
    emit_loop_file(loop, loop_path)
    steps = []
    if source == "random":
        group = make_group([int(n) for n in group_spec.split(",")])
        emit_cocycle_file(random_cocycle(loop, group, ChoiceSource(4)), coc_path)
    else:
        steps.append(["construct", "--loop", loop_path, "--group", group_spec,
                      "--mode", source, "--seed", "7", "--out", coc_path])
    steps.append(["extend", "--loop", loop_path, "--cocycle", coc_path,
                  "--out", str(tmp_path / "f.loop"), "--no-timing"])
    for mode in VERIFY_MODES:
        steps.append(["verify", "--loop", loop_path, "--cocycle", coc_path,
                      "--mode", mode, "--no-timing"])
    lines = []
    for argv in steps:
        code, out, err = run(capsys, *argv)
        lines.append(f"$ {argv[0]} {argv[argv.index('--mode') + 1] if '--mode' in argv else ''}"
                     f" -> {code}")
        lines += [line for line in out.splitlines() if not line.startswith("wrote:")]
        lines += err.splitlines()
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("key", sorted(FROZEN_CHAIN_DIGESTS))
def test_frozen_report_text(capsys, tmp_path, loops, key):
    import hashlib

    name, group_spec, source = key
    text = chain_transcript(capsys, tmp_path, loops[name], group_spec, source)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_CHAIN_DIGESTS[key], text


# sha256 of the output of ``orbits`` and ``construct --report`` (without the
# ``wrote:`` line), recorded before the phi, psi and gamma orbit walks were
# merged into one; orbit listings and their order are frozen outputs
FROZEN_ORBIT_DIGESTS = {
    ("ip8", "construct", "ip"):
        "27ed35835282f03ae1802c1b2ee15f5ff10d421e9564d6c9a6c9a6a1d1df4023",
    ("ip8", "construct", "lip"):
        "17c2cbc00574f8f992b8c37549bdebf0aa7f2a928ad3fe94a71074f2d54784ea",
    ("ip8", "construct", "rip"):
        "f1861446f37e40e3b4c7e9ebf474084dd3b00117794bffd96dd157b47e5dc539",
    ("ip8", "orbits", "gamma"):
        "0b25002a221658a9010fd0e9caf087ebc47a3a0aa65973fca893f818960ede76",
    ("ip8", "orbits", "phi"):
        "a96f0c20e8aed32db73530bf12805b77a1b60f4855e08abf2cdff3cabdaf623e",
    ("ip8", "orbits", "psi"):
        "0b979a61d4facd7d6f8801fc1690dfc4d15b93a689effa1fdca5bafb39ec5636",
    ("klein", "orbits", "gamma"):
        "7a3b4436de845ec5ebc34f301e28a63942ee165016fd66517ca51acab52f30c4",
    ("klein", "orbits", "phi"):
        "5d4eef9ef7220dea0c187a8debb0578ce31567461f29e3e85255232f01051e10",
    ("klein", "orbits", "psi"):
        "376280a98069375b2c46418723e5405782c28b0634a0ea2163a0f3aebbfda725",
    ("lip_only", "orbits", "phi"):
        "6c7853a28882b56a24811dd58e239249858ca6201551d59182d397ab43477475",
    ("z4", "orbits", "gamma"):
        "93a90499ddf19a4ad9636a0b28ed4a1fdd2b08774c75ac545ee14104c8e511d1",
    ("z4", "orbits", "phi"):
        "776a482a56529595d4e7b512ccd5195bcbec46d383726e4d7f95ed395653a619",
    ("z4", "orbits", "psi"):
        "383626b9a363350d9db98205beabf38e98efb7fdfc9abbe93f57a601e896b0af",
    ("z5", "orbits", "gamma"):
        "46124c4cc8bbfe1666a149eceb4eae8e2ffc6e34a929266ebde546bc54200f3d",
    ("z5", "orbits", "phi"):
        "162d08fc1082fe2e83f6728d7040d72e1d2408c8881761a4de952457fd7fb799",
    ("z5", "orbits", "psi"):
        "fce12c3c3869fb3271613eb4668c8874c4f776d633c285ae5860fd13eac0cfad",
    ("z7", "orbits", "gamma"):
        "d5343479c07753ca012e447c5c1ef79a08b0f31cff3cb1b52e834fdf5ad03742",
    ("z7", "orbits", "phi"):
        "d9fff7c8f76a4f0ccafd92ff71b86b4debf3ad31521080294532ee20c57163e1",
    ("z7", "orbits", "psi"):
        "776b6b3967428d85d281f8587b1fd63fe855aed719dd9fc0705613b886b77f91",
    ("z8", "orbits", "gamma"):
        "04856ae918e1f3e3c6745bc72a8dacd0bcec427f3ef2dce08d5330d9137540da",
    ("z8", "orbits", "phi"):
        "c39298bbf6f1e57eb7ffbd487507f7fc9d0600fc09b3f9a58b42a2c3f6c128ad",
    ("z8", "orbits", "psi"):
        "1367cb07ce71b9643c52e114510a03917e4953301c0ebfbe15057226eef36cfb",
}


@pytest.mark.parametrize("key", sorted(FROZEN_ORBIT_DIGESTS))
def test_frozen_orbit_text(capsys, tmp_path, loops, key):
    import hashlib

    name, command, mode = key
    loop_path = str(tmp_path / "base.loop")
    emit_loop_file(loops[name], loop_path)
    argv = [command, "--loop", loop_path, "--mode", mode]
    if command == "construct":
        argv += ["--group", "2", "--seed", "7", "--out", str(tmp_path / "c.coc"), "--report"]
    code, out, err = run(capsys, *argv)
    lines = [f"-> {code}"] + [line for line in out.splitlines() if not line.startswith("wrote:")]
    text = "\n".join(lines + err.splitlines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_ORBIT_DIGESTS[key], text
