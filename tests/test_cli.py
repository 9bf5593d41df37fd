import builtins
import hashlib
import re
import sys
import time
from pathlib import Path

import pytest

from loopext.abelian import make_group
from loopext.catalog import abelian_group_loop, bundled_corpus, cyclic_loop
from loopext.cli import main
from loopext.constructions import ChoiceSource, random_cocycle
from loopext.extension import build_extension
from loopext.fileio import (
    emit_cocycle_file,
    emit_loop_file,
    parse_cocycle_file,
    parse_loop_file,
)
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


def child_env():
    """Environment for a child interpreter that imports the package under
    test, also when only pytest's pythonpath finds it."""
    import os

    import loopext

    src = os.path.dirname(os.path.dirname(loopext.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "loopext", "feasible", "--max-l", "2"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "l: 2" in proc.stdout


# stdlib modules each of which costs every CLI process milliseconds of import
# (dataclasses about 20 ms of class generation) and which no command needs
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "logging",
                 "subprocess")


def test_cli_import_skips_heavy_modules():
    # what ``import loopext.cli`` adds to a fresh interpreter's modules
    import subprocess
    import sys

    probe = ("import sys; before = set(sys.modules); import loopext.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "loopext.cli" in proc.stdout.split()
    assert not set(HEAVY_MODULES) & set(proc.stdout.split())


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

    def test_large_bound_refused_before_work(self, capsys, monkeypatch):
        from loopext import cardinality

        def refuse(l):
            raise AssertionError("feasible_cardinality reached")

        monkeypatch.setattr(cardinality, "feasible_cardinality", refuse)
        cap = cardinality.MAX_FEASIBLE_ORDER
        code, out, err = run(capsys, "feasible", "--max-l", str(cap + 1))
        assert code == 2
        assert out == ""
        assert f"max order {cap + 1} exceeds the cap {cap}" in err


class TestCheck:
    def test_corpus_reports(self, capsys, loop_files):
        for name in ("z2", "z4", "z5", "klein", "ip7", "ip8"):
            code, out, _ = run(capsys, "check", "--loop", loop_files[name])
            assert code == 0
            assert "lip: yes" in out
            assert "rip: yes" in out
            assert "ip: yes" in out

    def test_exhaustive_iota_flag(self, capsys, loop_files):
        # the witness map is forced, so there is no audit that searches for one
        with pytest.raises(SystemExit) as exc:
            main(["check", "--loop", loop_files["klein"], "--exhaustive-iota"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --exhaustive-iota" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--loop", str(tmp_path / "nope.loop"))
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("loop 2\n0 1\n1 1\n")
        code, _, err = run(capsys, "check", "--loop", str(bad))
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("command,bad", [
    ("check", "directory"), ("check", "not-utf8"), ("construct", "directory"),
    ("extend", "directory"), ("verify", "not-utf8"),
])
def test_unreadable_file_exits_2(capsys, loop_files, tmp_path, command, bad):
    # exit 1 means a verified property fails, so a file that cannot be read,
    # written or decoded is an input error that names the file
    if bad == "directory":
        path = tmp_path / "a-directory"
        path.mkdir()
    else:
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"loop 1\n# caf\xe9\n0\n")
    cocycle = tmp_path / "c.coc"
    run(capsys, "construct", "--loop", loop_files["klein"], "--group", "3", "--mode", "ip",
        "--out", str(cocycle))
    argv = {
        "check": ["check", "--loop", str(path)],
        "construct": ["construct", "--loop", loop_files["klein"], "--group", "3",
                      "--mode", "ip", "--out", str(path)],
        "extend": ["extend", "--loop", loop_files["klein"], "--cocycle", str(path),
                   "--out", str(tmp_path / "f.loop")],
        "verify": ["verify", "--loop", loop_files["klein"], "--cocycle", str(path)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in out + err
    if bad == "not-utf8":
        assert f"{path}:2: not UTF-8 text" in err


@pytest.mark.parametrize("option", ["--seed", "--max-l"])
@pytest.mark.parametrize("value", ["\u0661_6", "1_0", "+3"])
def test_integer_options_are_ascii_decimals(capsys, loop_files, tmp_path, option, value):
    # int() takes an underscore, a plus sign and non-ASCII digits; the file
    # formats and --group refuse them, and so do the integer options
    out = tmp_path / "c.coc"
    argv = {"--seed": ["construct", "--loop", loop_files["klein"], "--group", "3",
                       "--mode", "ip", "--out", str(out)],
            "--max-l": ["feasible"]}[option]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    assert f"argument {option}: invalid decimal value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_seed_is_taken_modulo_2_64(capsys, loop_files, tmp_path):
    # the README's CLI section promises these two pairs of equal files
    def construct(seed):
        out = tmp_path / f"{seed}.coc"
        code, _, _ = run(capsys, "construct", "--loop", loop_files["klein"], "--group", "3",
                         "--mode", "ip", "--seed", seed, "--out", str(out))
        assert code == 0
        return out.read_bytes()

    assert construct("18446744073709551616") == construct("0")
    assert construct("-1") == construct("18446744073709551615") != construct("0")


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
        # the size cap has no override: Z_n alone has an n x n addition table
        with pytest.raises(SystemExit) as exc:
            main(["aut", "--group", "128", "--aut-cap", "128"])
        assert exc.value.code == 2
        code, out, err = run(capsys, "aut", "--group", "128")
        assert code == 2
        assert out == ""
        assert "group size 128 exceeds the size cap 64" in err

    @pytest.mark.parametrize("spec", ["2,2,2,2,2", "2,2,2,2,2,2"])
    def test_aut_order_cap(self, capsys, spec):
        code, out, err = run(capsys, "aut", "--group", spec)
        assert code == 2
        assert out == ""
        assert "exceeds cap 200000" in err

    def test_construct_admits_large_aut(self, capsys, loop_files, tmp_path):
        # the Aut cap bounds the aut listing only; construct admits Z2^5
        out_path = tmp_path / "c.coc"
        code, out, err = run(capsys, "construct", "--loop", loop_files["klein"],
                             "--group", "2,2,2,2,2", "--mode", "ip", "--out", str(out_path))
        assert code == 0, err
        assert "cocycle-sha256: " in out
        assert out_path.read_text().startswith("cocycle l=4 group=2,2,2,2,2\n")

    def test_construct_has_no_cap_override(self, capsys, loop_files, tmp_path):
        # no command takes an --aut-cap, and the size cap has no override
        out_path = tmp_path / "c.coc"
        argv = ["construct", "--loop", loop_files["klein"], "--group", "101",
                "--mode", "ip", "--out", str(out_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--aut-cap", "128"])
        assert exc.value.code == 2
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "group size 101 exceeds the size cap 64" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["extend", "verify"])
    def test_cocycle_file_admits_large_aut(self, capsys, loop_files, tmp_path, command):
        # the Aut cap bounds the aut listing only; a cocycle over Z2^5 is admitted
        coc_path = tmp_path / "c.coc"
        coc_path.write_text("cocycle l=2 group=2,2,2,2,2\nP\n0 0\n0 0\nQ\n0 0\n0 0\n")
        argv = [command, "--loop", loop_files["z2"], "--cocycle", str(coc_path)]
        if command == "extend":
            argv += ["--out", str(tmp_path / "f.loop")]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert "result: pass" in out.splitlines()


# Runs loopext's CLI on its arguments, then prints its own peak RSS.  That is
# VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child of a
# large test process would report the parent's peak.
RSS_PROBE = """\
import re, sys
from loopext.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"^VmHWM:.*$", status.read(), re.M).group(0))
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_largest_admitted_group_chain_memory(loop_files, tmp_path):
    # Z2^2 x Z4^2 has 147456 automorphisms and Z2^6 about 2 * 10^10, over the
    # cap of the aut listing; no step may hold them all
    import subprocess

    coc, ext = str(tmp_path / "big.coc"), str(tmp_path / "big-ext.loop")
    base = ["--loop", loop_files["klein"]]
    for group in ("2,2,4,4", "2,2,2,2,2,2"):
        steps = [
            ["construct", *base, "--group", group, "--mode", "ip", "--seed", "1", "--out", coc],
            ["extend", *base, "--cocycle", coc, "--out", ext],
            ["verify", *base, "--cocycle", coc, "--mode", "ip"],
        ]
        for argv in steps:
            proc = subprocess.run([sys.executable, "-c", RSS_PROBE, *argv], capture_output=True,
                                  text=True, env=child_env(), timeout=120)
            assert proc.returncode == 0, proc.stderr
            kib = int(re.search(r"^VmHWM:\s*(\d+) kB$", proc.stdout, re.M).group(1))
            assert kib < 60 * 1024, (group, argv[0], kib)
        assert "result: pass" in proc.stdout.splitlines()


def test_chain_step_memory_within_table(capsys, tmp_path):
    # N = 512: each step holds the extension table (about 2.2 MB) and little
    # else; the emitted text, the orbit decompositions and the walks stay
    # far below it
    import tracemalloc

    base, ext = str(tmp_path / "z2^6.loop"), str(tmp_path / "ext.loop")
    loop, group = abelian_group_loop([2] * 6), make_group((2, 2, 2))
    emit_loop_file(loop, base)
    tracemalloc.start()
    try:
        held = build_extension(random_cocycle(loop, group, ChoiceSource(0)))
        table = tracemalloc.get_traced_memory()[0]
        del held
    finally:
        tracemalloc.stop()
    assert table > 2e6
    for mode in ("lip", "rip", "ip"):
        coc = str(tmp_path / f"{mode}.coc")
        steps = [
            ["construct", "--loop", base, "--group", "2,2,2", "--mode", mode, "--seed", "4",
             "--out", coc],
            ["extend", "--loop", base, "--cocycle", coc, "--out", ext],
            ["verify", "--loop", base, "--cocycle", coc, "--mode", mode],
        ]
        for argv in steps:
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, capsys.readouterr()
            assert peak < table + 1e6, (argv[0], mode, peak, table)
    capsys.readouterr()


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

    def test_gamma_lists_order3_orbit_of_two(self, capsys, loop_files):
        # z3's complement is the orbit {(1, 1), (2, 2)}, as 1 + 1 = -1: its
        # line names six group elements, each cell three times
        code, out, _ = run(capsys, "orbits", "--loop", loop_files["z3"], "--mode", "gamma")
        assert code == 0
        assert "complement-size: 2\norbits: 1\n" in out
        assert out.endswith("orbit 0: id:(1,1) phi:(2,2) psi:(2,2) phi*psi*phi:(2,2) "
                            "phi*psi:(1,1) psi*phi:(1,1)\n")

    def test_sigma_built_once(self, capsys, loop_files, monkeypatch):
        # the sigma-size line and the walk read one Sigma, kept on the loop
        from loopext import cli, orbits

        built = []
        original = orbits.sigma_set

        def keeping(loop):
            built.append(original(loop))
            return built[-1]

        monkeypatch.setattr(orbits, "sigma_set", keeping)
        monkeypatch.setattr(cli, "sigma_set", keeping)
        code, out, _ = run(capsys, "orbits", "--loop", loop_files["ip7"], "--mode", "gamma")
        assert code == 0
        assert "sigma-size: 19" in out.splitlines()
        assert built and all(sigma is built[0] for sigma in built)

    @pytest.mark.parametrize("mode", ["phi", "psi", "gamma"])
    def test_mismatched_inverses_refused(self, capsys, tmp_path, mode):
        # Sigma is undefined, and that refusal comes first in every mode
        from loopext.catalog import inverse_mismatch_loop

        path = tmp_path / "m.loop"
        emit_loop_file(inverse_mismatch_loop(), path)
        code, out, err = run(capsys, "orbits", "--loop", str(path), "--mode", mode)
        assert code == 2
        assert out == ""
        assert err == ("error: Sigma is undefined: left and right inverses of the loop "
                       "do not coincide\n")

    @pytest.mark.parametrize("mode", ["phi", "psi", "gamma"])
    def test_no_cell_tuple_built(self, capsys, loop_files, monkeypatch, mode):
        # the sizes come from Sigma and the packed codes, and the orbit lines
        # are printed as the decomposition is iterated
        from loopext.orbits import OrbitDecomposition

        def refuse(*args):
            raise AssertionError("l^2-cell tuple built")

        monkeypatch.setattr(OrbitDecomposition, "orbits", property(refuse))
        code, out, _ = run(capsys, "orbits", "--loop", loop_files["ip8"], "--mode", mode)
        assert code == 0
        assert "complement-size: 42" in out.splitlines()
        assert f"orbits: {42 // (6 if mode == 'gamma' else 2)}" in out.splitlines()


class TestConstructVerifyExtend:
    def test_ip_pipeline(self, capsys, loop_files, tmp_path):
        out_path = str(tmp_path / "c.coc")
        code, out, _ = run(capsys, "construct", "--loop", loop_files["klein"],
                           "--group", "3", "--mode", "ip", "--seed", "7",
                           "--out", out_path, "--report")
        assert code == 0
        assert "orbit 0:" in out

        code, out, _ = run(capsys, "verify", "--loop", loop_files["klein"],
                           "--cocycle", out_path, "--mode", "ip")
        assert code == 0
        assert "check property-ip: pass" in out
        assert "result: pass" in out

        ext_path = str(tmp_path / "f.loop")
        code, out, _ = run(capsys, "extend", "--loop", loop_files["klein"],
                           "--cocycle", out_path, "--out", ext_path)
        assert code == 0
        built, _ = parse_loop_file(ext_path)
        assert built.size == 12
        assert analyze_properties(built).has_ip

    @pytest.mark.parametrize("mode,loop_name", [("lip", "z4"), ("rip", "z4"), ("ip", "z5")])
    def test_modes_verify_clean(self, capsys, loop_files, tmp_path, mode, loop_name):
        out_path = str(tmp_path / f"{mode}.coc")
        code, _, _ = run(capsys, "construct", "--loop", loop_files[loop_name],
                         "--group", "2,2", "--mode", mode, "--seed", "3", "--out", out_path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--loop", loop_files[loop_name],
                           "--cocycle", out_path, "--mode", mode)
        assert code == 0
        assert f"check property-{mode}: pass" in out

    def test_extend_builds_once(self, capsys, loop_files, tmp_path, monkeypatch):
        from loopext import extension

        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["klein"], "--group", "3",
            "--mode", "ip", "--seed", "7", "--out", out_path)
        # the report reads the kept build of the table written to the file
        calls = []
        original = extension._extension_rows

        def counting(cocycle):
            calls.append(cocycle)
            return original(cocycle)

        monkeypatch.setattr(extension, "_extension_rows", counting)
        code, _, _ = run(capsys, "extend", "--loop", loop_files["klein"], "--cocycle", out_path,
                         "--out", str(tmp_path / "f.loop"))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("overwritten", ["loop", "cocycle"])
    def test_extend_fingerprints_the_files_it_read(self, capsys, loop_files, tmp_path,
                                                   overwritten):
        # --out may name an input file; the report's digest is of what was parsed
        paths = {"loop": str(tmp_path / "base.loop"), "cocycle": str(tmp_path / "c.coc")}
        emit_loop_file(bundled_corpus()["klein"], paths["loop"])
        run(capsys, "construct", "--loop", paths["loop"], "--group", "2", "--mode", "ip",
            "--seed", "1", "--out", paths["cocycle"])
        before = hashlib.sha256(Path(paths[overwritten]).read_bytes()).hexdigest()
        code, out, _ = run(capsys, "extend", "--loop", paths["loop"], "--cocycle",
                           paths["cocycle"], "--out", paths[overwritten])
        assert code == 0
        assert f"{overwritten}-sha256: {before}" in out.splitlines()
        assert hashlib.sha256(Path(paths[overwritten]).read_bytes()).hexdigest() != before

    def test_extend_runs_one_normality_pass(self, capsys, loop_files, tmp_path, monkeypatch):
        # the kernel-normal and quotient lines share one pass (three at the
        # time both lines called their own normality test)
        from loopext import loops

        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["ip8"], "--group", "2",
            "--mode", "ip", "--seed", "3", "--out", out_path)
        calls = []
        original = loops._quotient_table

        def counting(loop, members):
            calls.append(members)
            return original(loop, members)

        monkeypatch.setattr(loops, "_quotient_table", counting)
        code, out, _ = run(capsys, "extend", "--loop", loop_files["ip8"], "--cocycle", out_path,
                           "--out", str(tmp_path / "f.loop"))
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

    @pytest.mark.parametrize("name,group", [("z3", "3"), ("ip7", "2")])
    def test_order3_base_chain_exits_zero(self, capsys, loop_files, tmp_path, name, group):
        # a base with an element x*x = x^{-1}: construct, extend and verify
        # --mode ip each succeed
        coc, ext = str(tmp_path / "x.coc"), str(tmp_path / "x.loop")
        code, _, _ = run(capsys, "construct", "--loop", loop_files[name],
                         "--group", group, "--mode", "ip", "--out", coc)
        assert code == 0
        code, _, _ = run(capsys, "extend", "--loop", loop_files[name], "--cocycle", coc,
                         "--out", ext)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--loop", loop_files[name], "--cocycle", coc,
                           "--mode", "ip")
        assert code == 0
        assert "check property-ip: pass\nresult: pass\n" in out

    def test_failing_verify_reports_replayable_counterexample(
            self, capsys, loop_files, tmp_path):
        cocycle = random_cocycle(cyclic_loop(4), make_group([3]), ChoiceSource(0))
        path = tmp_path / "random.coc"
        emit_cocycle_file(cocycle, path)
        code, out, _ = run(capsys, "verify", "--loop", loop_files["z4"],
                           "--cocycle", str(path), "--mode", "lip")
        assert code == 1
        assert "check property-lip: fail" in out
        match = re.search(r"counterexample property-lip: (\d+) (\d+)", out)
        assert match is not None
        x, y = int(match.group(1)), int(match.group(2))
        # replay through the library: the left-inverse law fails at (x, y)
        from loopext.extension import build_extension

        cocycle, _ = parse_cocycle_file(path, cyclic_loop(4))
        built, _ = build_extension(cocycle)
        iota = built.left_inverse(x)
        assert built.table[iota][built.table[x][y]] != y

    def test_verify_all_mode_consistency(self, capsys, loop_files, tmp_path):
        cocycle = random_cocycle(cyclic_loop(4), make_group([3]), ChoiceSource(0))
        path = tmp_path / "random.coc"
        emit_cocycle_file(cocycle, path)
        code, out, _ = run(capsys, "verify", "--loop", loop_files["z4"],
                           "--cocycle", str(path))
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
                           "--cocycle", str(coc_path))
        assert code == 0
        assert "check inverse-formulas: pass" in out
        assert "agreement-lip" not in out

    def test_reports_identical_without_timing(self, capsys, loop_files, tmp_path):
        # stdout is the byte-stable report; its timing goes to stderr
        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["z4"], "--group", "3",
            "--mode", "lip", "--seed", "5", "--out", out_path)
        for argv in (["verify"], ["extend", "--out", str(tmp_path / "f.loop")]):
            outputs = []
            for _ in range(2):
                code, out, err = run(capsys, *argv, "--loop", loop_files["z4"],
                                     "--cocycle", out_path)
                assert code == 0
                assert re.fullmatch(r"elapsed-ms: \d+\.\d\n", err)
                outputs.append(out)
            assert outputs[0] == outputs[1]
            assert "elapsed-ms" not in outputs[0]

    def test_elapsed_covers_the_whole_command(self, capsys, loop_files, tmp_path,
                                              monkeypatch):
        # the file write is timed too, not only the checks
        from loopext import cli

        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["z4"], "--group", "3",
            "--mode", "lip", "--seed", "5", "--out", out_path)
        write = cli.emit_loop_file

        def slow_write(*args, **kwargs):
            time.sleep(0.05)
            return write(*args, **kwargs)

        monkeypatch.setattr(cli, "emit_loop_file", slow_write)
        code, _, err = run(capsys, "extend", "--loop", loop_files["z4"], "--cocycle", out_path,
                           "--out", str(tmp_path / "f.loop"))
        assert code == 0
        assert float(err.removeprefix("elapsed-ms: ")) >= 50.0

    @pytest.mark.parametrize("mode", ["lip", "rip"])
    def test_one_sided_construction_proves_no_ip(self, capsys, loop_files, tmp_path, mode):
        # a LIP or RIP construction over klein with A = Z3 is not strongly
        # linear and lacks IP; both routes say so
        out_path = str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop_files["klein"], "--group", "3",
            "--mode", mode, "--seed", "7", "--out", out_path)
        code, out, _ = run(capsys, "verify", "--loop", loop_files["klein"],
                           "--cocycle", out_path, "--mode", mode)
        assert code == 0
        assert "check agreement-ip: pass (condition=no)" in out.splitlines()


class TestOneReadPerInput:
    """check, orbits, extend and verify read each input file once, and each
    ``*-sha256`` line they print is the digest of the bytes that read gave."""

    @pytest.fixture()
    def commands(self, capsys, loop_files, tmp_path):
        """command -> (argv, {input kind: path}) over klein and an ip cocycle."""
        loop, coc = loop_files["klein"], str(tmp_path / "c.coc")
        run(capsys, "construct", "--loop", loop, "--group", "3", "--mode", "ip",
            "--seed", "7", "--out", coc)
        both = {"loop": loop, "cocycle": coc}
        return {
            "check": (["check", "--loop", loop], {"loop": loop}),
            "orbits": (["orbits", "--loop", loop, "--mode", "gamma"], {"loop": loop}),
            "extend": (["extend", "--loop", loop, "--cocycle", coc,
                        "--out", str(tmp_path / "f.loop")], both),
            "verify": (["verify", "--loop", loop, "--cocycle", coc, "--mode", "ip"], both),
        }

    @pytest.mark.parametrize("command", ["check", "orbits", "extend", "verify"])
    def test_each_input_read_once(self, capsys, monkeypatch, tmp_path, commands, command):
        argv, inputs = commands[command]
        reads = []
        read_bytes, builtin_open = Path.read_bytes, builtins.open

        def counting_read_bytes(self):
            reads.append(str(self))
            return read_bytes(self)

        def counting_open(file, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+"):
                reads.append(str(file))
            return builtin_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert sorted(r for r in reads if r.startswith(str(tmp_path))) == sorted(inputs.values())

    @pytest.mark.parametrize("command", ["check", "orbits", "extend", "verify"])
    def test_digest_is_of_the_bytes_parsed(self, capsys, monkeypatch, commands, command):
        # each file is replaced on disk right after its bytes are taken
        argv, inputs = commands[command]
        parsed = {}
        read_bytes = Path.read_bytes

        def read_then_replace(self):
            data = read_bytes(self)
            parsed.setdefault(str(self), data)
            self.write_bytes(b"replaced after it was read\n")
            return data

        monkeypatch.setattr(Path, "read_bytes", read_then_replace)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        for kind, path in inputs.items():
            assert f"{kind}-sha256: {hashlib.sha256(parsed[path]).hexdigest()}" in lines
        assert command in ("check", "orbits") or "result: pass" in lines


class TestExtensionOrderCap:
    """An extension of more than MAX_EXTENSION_ORDER elements is refused with
    exit 2 before its table is built or an orbit walked."""

    @pytest.fixture()
    def files(self, tmp_path, monkeypatch):
        from loopext import extension, orbits
        from loopext.abelian import enumerate_automorphisms

        def refuse(*args):
            raise AssertionError("work began before the size check")

        monkeypatch.setattr(extension, "_extension_rows", refuse)
        monkeypatch.setattr(orbits, "_orbits", refuse)
        loop_path, coc_path = tmp_path / "z65.loop", tmp_path / "id.coc"
        emit_loop_file(cyclic_loop(65), loop_path)
        row = " ".join([str(enumerate_automorphisms(make_group([64])).identity_index)] * 65)
        coc_path.write_text("\n".join(["cocycle l=65 group=64", "P", *[row] * 65,
                                       "Q", *[row] * 65]) + "\n")
        return str(loop_path), str(coc_path), str(tmp_path / "out")

    @pytest.mark.parametrize("argv", [
        ["construct", "--group", "64", "--mode", "lip"],
        ["construct", "--group", "64", "--mode", "rip"],
        ["construct", "--group", "64", "--mode", "ip"],
        ["extend", "--cocycle"],
        ["verify", "--cocycle"],
    ])
    def test_refused_before_work(self, capsys, files, argv):
        loop_path, coc_path, out_path = files
        command, *rest = argv
        if command != "construct":
            rest.append(coc_path)
        if command != "verify":
            rest += ["--out", out_path]
        code, out, err = run(capsys, command, "--loop", loop_path, *rest)
        assert code == 2
        assert out == ""
        assert err == "error: extension order N = 65 * 64 = 4160 exceeds the cap 4096\n"


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
        argv = [command, "--loop", loop_files["klein"], "--cocycle", cocycle_path]
        if command == "extend":
            argv += ["--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert re.fullmatch(r"elapsed-ms: \d+\.\d\n", err)
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
# the klein lip, rip and random digests were recorded again when verify began
# to print agreement-ip for cocycles that are not strongly linear, which added
# only "check agreement-ip: pass (condition=no)" lines.  Report text, witnesses
# and exit codes are frozen outputs
FROZEN_CHAIN_DIGESTS = {
    ("klein", "3", "lip"):
        "c026efb9ce0ae72b25e82fcf889b6377d7a69b59a12383e78c6541ab39e5fdb8",
    ("klein", "3", "rip"):
        "2a82a6bae4ffff157aed72372c6e447102bb2c2670114fb4cbd2149583c8e875",
    ("klein", "3", "ip"):
        "7f59660da33c384558d4fab2591a6188d9c52d0ebc910ea0b9c6a052a6c9acf0",
    ("ip8", "2", "lip"):
        "3eb30f6584b13a8dd00e4e3011db283fa3a07f6c0f393999e7673f6e9c89ea62",
    ("ip8", "2", "rip"):
        "639acd1d1844c79dae419ea257c27e6db9af425245d9033187a1486a8f680829",
    ("ip8", "2", "ip"):
        "f9b6cc2a3d03ed376c0148acba66bed76955ad69dbc063cac4343d4b83797a36",
    ("klein", "3", "random"):
        "65c4dd33be5446f02f33cef71cb0a92e541a36df57e8324661f7eebc5f2b50a9",
    ("lip_only", "3", "random"):
        "d23fc83ea9e0319365d557db4e723e8fb14ed8042b3d6f0b492a376e438beef0",
    ("mismatch", "3", "random"):
        "a230c05715cc0a8f5dc1cbefd1ea4981ab8a4180b9e2fccd0377a36afa183396",
}


def chain_transcript(capsys, tmp_path, loop, group_spec, source):
    """Exit code, report lines and errors of one chain, without ``wrote:`` paths.

    ``source`` is a construction mode, or ``random`` for a seeded random
    cocycle (which fails the properties, so its reports carry witnesses).
    Every chain ends with one ``verify`` per verify mode.  The ``elapsed-ms:``
    line each report writes to stderr is left out.
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
                  "--out", str(tmp_path / "f.loop")])
    for mode in VERIFY_MODES:
        steps.append(["verify", "--loop", loop_path, "--cocycle", coc_path,
                      "--mode", mode])
    lines = []
    for argv in steps:
        code, out, err = run(capsys, *argv)
        lines.append(f"$ {argv[0]} {argv[argv.index('--mode') + 1] if '--mode' in argv else ''}"
                     f" -> {code}")
        lines += [line for line in out.splitlines() if not line.startswith("wrote:")]
        lines += [line for line in err.splitlines() if not line.startswith("elapsed-ms:")]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("key", sorted(FROZEN_CHAIN_DIGESTS))
def test_frozen_report_text(capsys, tmp_path, loops, key):
    import hashlib

    name, group_spec, source = key
    text = chain_transcript(capsys, tmp_path, loops[name], group_spec, source)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_CHAIN_DIGESTS[key], text


# sha256 of the output of ``check`` on every corpus loop, recorded while
# ``check`` still offered an exhaustive witness-search audit beside its
# default scan; the property report is a frozen output
FROZEN_CHECK_DIGESTS = {
    "ip7": "21994c7f4407b5e039fb0f148dce7b239a31e3c01ce26b1062a0add6db691d09",
    "ip8": "65dd61bfa38c8283c143ffc8f875db8703edabf5a64c7c107d963d53b51083a1",
    "klein": "5269d8ad69a3e91e5a62ce1648a081e888512f5f252bb24267f70d3d10c27d6f",
    "lip_only": "14929a98249220db66ce54e6745fee5bdd7cb3f0cb0a31a879f0ab13739f7a35",
    "mismatch": "87e1a9ab9fa136c27d8be41d44036842e5a082df6abac1637826ae2ccdebda4e",
    "trivial": "678c50bc2e5946d407a68aaba9d019846eecf581a29a7bef4aa7a998b56e376b",
    "z1": "678c50bc2e5946d407a68aaba9d019846eecf581a29a7bef4aa7a998b56e376b",
    "z2": "36ac00cdba3e852bdd62695562996f216ccee1b16a07593bb01791f858630666",
    "z3": "2c65e28c556ab44113c91f2948fb54646a25b12f73d14bad0f1b9ea43412a184",
    "z4": "01e185637841ce66b164cd2e633dd22f37e2d2c7e34eabe4caca74f50f8970c7",
    "z5": "91a0e73934aa1ce6da9f7505320a753770436012297839a5553752ba3e31546e",
    "z6": "5d3be02f4aa8bcdeded0b20f20ef0098471ceab5913fc787f2bba9ba03ae25a2",
    "z7": "3136ad15bd8102fcb740b89efd87408038826ba55c30788c2499656e27452893",
    "z8": "bd41567ae0a72e1c8650d69568164faa4423c1b9d4d98ea02776df9409fecc01",
}


@pytest.mark.parametrize("name", sorted(FROZEN_CHECK_DIGESTS))
def test_frozen_check_text(capsys, tmp_path, loops, name):
    import hashlib

    loop_path = str(tmp_path / "base.loop")
    emit_loop_file(loops[name], loop_path)
    code, out, err = run(capsys, "check", "--loop", loop_path)
    text = f"-> {code}\n{out}{err}"
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_CHECK_DIGESTS[name], text


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


def _mutated(data: bytes, rng) -> bytes:
    """``data`` with one flipped byte, dropped or duplicated row, out-of-range
    entry or altered header."""
    lines = data.split(b"\n")
    kind = rng.randrange(5)
    if kind == 0:
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]
    if kind in (1, 2):
        i = rng.randrange(1, len(lines) - 1)
        lines[i:i + 1] = [] if kind == 1 else [lines[i]] * 2
    elif kind == 3:
        i = rng.randrange(1, len(lines) - 1)
        entries = lines[i].split()
        if entries:
            entries[rng.randrange(len(entries))] = str(rng.choice((-1, 7, 8, 64, 10**20))).encode()
        lines[i] = b" ".join(entries)
    else:
        fields = lines[0].split()
        i = rng.randrange(len(fields))
        altered = re.sub(rb"\d+", str(rng.randint(-2, 70)).encode(), fields[i], count=1)
        fields[i:i + 1] = rng.choice(([], [fields[i]] * 2, [altered], [b"x" + fields[i]]))
        lines[0] = b" ".join(fields)
    return b"\n".join(lines)


def test_mutated_files_never_crash(capsys, loop_files, tmp_path):
    # no input reaches an InternalError or any other exception: each run
    # ends in exit 0, 1 or 2
    import random

    rng = random.Random(2024)
    coc = tmp_path / "ip7.coc"
    main(["construct", "--loop", loop_files["ip7"], "--group", "2,2", "--mode", "ip",
          "--seed", "3", "--out", str(coc)])
    files = {"loop": Path(loop_files["ip7"]).read_bytes(), "cocycle": coc.read_bytes()}
    mutant = tmp_path / "mutant"
    codes = []
    for _ in range(300):
        which = rng.choice(sorted(files))
        mutant.write_bytes(_mutated(files[which], rng))
        paths = {"loop": loop_files["ip7"], "cocycle": str(coc), which: str(mutant)}
        inputs = ["--loop", paths["loop"], "--cocycle", paths["cocycle"]]
        runs = [["extend", *inputs, "--out", str(tmp_path / "ext.loop")],
                ["verify", *inputs, "--mode", rng.choice(("all", "lip", "rip", "ip"))]]
        if which == "loop":
            runs.append(["check", "--loop", paths["loop"]])
        for argv in runs:
            codes.append(main(argv))
            capsys.readouterr()
    assert set(codes) == {0, 1, 2}
