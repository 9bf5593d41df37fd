"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Criterion 2 includes the bundled non-associative order-7 loop in the IP
construction matrix.  Exhaustive enumeration (see
test_catalog.test_order7_obstruction_is_exhaustive) shows every
non-associative inverse-property loop of order 7 contains an element with
x*x = x^{-1}; the cells (x, x) and (x^{-1}, x^{-1}) of such an x form an
orbit of two, which the construction fills with (Id, Id).
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loopext.abelian import enumerate_automorphisms, make_group
from loopext.cardinality import enumerate_feasible
from loopext.catalog import bundled_corpus
from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    random_cocycle,
)
from loopext.errors import LoopextError
from loopext.extension import (
    build_extension,
    check_cip,
    check_equivariance,
    check_ip_conditions,
    check_lip_conditions,
    check_rip_conditions,
    is_commutative_extension,
    make_cocycle,
    opposite_cocycle,
)
from loopext.loops import (
    first_inverse_mismatch,
    first_lip_counterexample,
    first_rip_counterexample,
    is_normal_subloop,
    quotient_loop,
)
from loopext.orbits import gamma_orbits, phi_orbits, sigma_set
from reference import Replay, complement, inverse_formula_mismatch

SOUNDNESS_LOOPS = ["z2", "klein", "z4", "z5", "ip7"]
SOUNDNESS_ORDERS = [(2,), (3,), (4,), (2, 2)]
SOUNDNESS_SEEDS = 100

FUZZ_SETTINGS = [
    ("z2", (2, 2)),
    ("z3", (4,)),
    ("z4", (3,)),
    ("z5", (2,)),
    ("klein", (2, 2)),
    ("klein", (3,)),
]
FUZZ_SEEDS = 1000


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def definition_level_ip(loop) -> bool:
    return (first_lip_counterexample(loop) is None
            and first_rip_counterexample(loop) is None)


def kernel_checks_out(cocycle, ext) -> bool:
    kernel = range(cocycle.group.size)
    return (is_normal_subloop(ext, kernel)
            and quotient_loop(ext, kernel) == cocycle.loop)


@pytest.fixture(scope="module")
def corpus():
    return bundled_corpus()


@pytest.fixture(scope="module")
def soundness_runs(corpus):
    """The full IP construction matrix with per-run outcomes."""
    records = []
    start = time.perf_counter()
    for loop_name in SOUNDNESS_LOOPS:
        loop = corpus[loop_name]
        for orders in SOUNDNESS_ORDERS:
            group = make_group(list(orders))
            for seed in range(SOUNDNESS_SEEDS):
                record = {"loop": loop_name, "orders": orders, "seed": seed}
                try:
                    cocycle = construct_ip_cocycle(loop, group, ChoiceSource(seed))
                except LoopextError as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    ext, _ = build_extension(cocycle)
                    record["ip_ok"] = definition_level_ip(ext)
                    record["formulas_ok"] = inverse_formula_mismatch(cocycle, ext.table) is None
                    record["kernel_ok"] = kernel_checks_out(cocycle, ext)
                records.append(record)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def fuzz_runs(corpus):
    """Seeded random cocycles per setting, with checker/brute agreements."""
    records = []
    start = time.perf_counter()
    for loop_name, orders in FUZZ_SETTINGS:
        loop = corpus[loop_name]
        group = make_group(list(orders))
        for seed in range(FUZZ_SEEDS):
            record = {"loop": loop_name, "orders": orders, "seed": seed}

            general = random_cocycle(loop, group, ChoiceSource(seed))
            ext, _ = build_extension(general)
            record["agree_commutative"] = (
                is_commutative_extension(general) == ext.is_commutative())
            record["agree_cip"] = (
                check_cip(general) == (first_inverse_mismatch(ext) is None))
            record["agree_lip"] = (
                check_lip_conditions(general) == (first_lip_counterexample(ext) is None))
            record["agree_rip"] = (
                check_rip_conditions(general) == (first_rip_counterexample(ext) is None))
            record["formulas_ok"] = inverse_formula_mismatch(general, ext.table) is None
            record["kernel_ok"] = kernel_checks_out(general, ext)

            strongly = random_cocycle(loop, group, ChoiceSource(seed), strongly_linear=True)
            sext, _ = build_extension(strongly)
            ip_condition = check_ip_conditions(strongly)
            record["agree_ip"] = (ip_condition == definition_level_ip(sext))
            record["agree_equivariance"] = (check_equivariance(strongly) == ip_condition)
            record["formulas_ok"] &= inverse_formula_mismatch(strongly, sext.table) is None
            record["kernel_ok"] &= kernel_checks_out(strongly, sext)

            records.append(record)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_cardinality_table():
    start = time.perf_counter()
    triples = [(c.k, c.h, c.l) for c in enumerate_feasible(16)]
    elapsed = time.perf_counter() - start
    expected = [
        (0, 1, 2), (1, 5, 4), (2, 7, 5), (5, 11, 7), (7, 13, 8),
        (12, 17, 10), (15, 19, 11), (22, 23, 13), (26, 25, 14), (35, 29, 16),
    ]
    ok = triples == expected and elapsed < 1.0
    report_line("criterion 1 cardinality table", ok, f"{elapsed:.3f}s")
    assert triples == expected
    assert elapsed < 1.0


def test_criterion_02_construction_soundness(soundness_runs):
    records, elapsed = soundness_runs
    total = len(records)
    errors = [r for r in records if "error" in r]
    failures = [r for r in records if not r.get("ip_ok", False)]
    ok = not failures and elapsed < 120.0
    detail = (f"{total - len(failures)}/{total} runs verified in {elapsed:.1f}s; "
              f"{len(errors)} construction errors")
    report_line("criterion 2 construction soundness", ok, detail)
    assert elapsed < 120.0
    if failures:
        sample = failures[0]
        pytest.fail(
            f"{len(failures)}/{total} matrix runs did not produce a verified "
            f"inverse-property extension; first: loop={sample['loop']} "
            f"A={sample['orders']} seed={sample['seed']} -> "
            f"{sample.get('error', 'ip verification failed')}"
        )


def test_criterion_03_construction_completeness_klein_z3(corpus):
    start = time.perf_counter()
    loop = corpus["klein"]
    group = make_group([3])
    autgroup = enumerate_automorphisms(group)
    naut = len(autgroup)
    assert naut == 2

    sigma = sigma_set(loop)
    cells = complement(sigma, loop.size)
    assert len(cells) == 6

    # brute force: all strongly linear assignments on the complement cells,
    # Sigma pinned to Id, kept when the built loop passes the definition-level
    # inverse-property scan
    identity_index = autgroup.identity_index
    survivors = set()
    total = 0
    values = [(p, q) for p in range(naut) for q in range(naut)]
    for assignment in itertools.product(values, repeat=len(cells)):
        total += 1
        ptable = [[identity_index] * 4 for _ in range(4)]
        qtable = [[identity_index] * 4 for _ in range(4)]
        for (x, y), (p, q) in zip(cells, assignment):
            ptable[x][y] = p
            qtable[x][y] = q
        cocycle = make_cocycle(loop, group, ptable, qtable)
        if definition_level_ip(build_extension(cocycle)[0]):
            survivors.add(cocycle)
    assert total == 2 ** 12

    constructed = {
        construct_ip_cocycle(loop, group, Replay([p, q]))
        for p in range(naut) for q in range(naut)
    }
    elapsed = time.perf_counter() - start
    ok = survivors == constructed and len(constructed) == 4 and elapsed < 60.0
    report_line("criterion 3 construction completeness", ok,
                f"{len(survivors)} survivors of {total} in {elapsed:.1f}s")
    assert len(constructed) == 4
    assert survivors == constructed
    assert elapsed < 60.0


def test_criterion_04_checker_equivalence(fuzz_runs):
    records, elapsed = fuzz_runs
    keys = ["agree_commutative", "agree_cip", "agree_lip", "agree_rip",
            "agree_ip", "agree_equivariance"]
    failures = {
        key: [r for r in records if not r.get(key, True)] for key in keys
    }
    bad = {key: lst for key, lst in failures.items() if lst}
    ok = not bad
    report_line("criterion 4 checker equivalence", ok,
                f"{len(records)} cocycle pairs over {len(FUZZ_SETTINGS)} settings "
                f"in {elapsed:.1f}s")
    assert not bad, {key: lst[0] for key, lst in bad.items()}


def test_criterion_05_inverse_formulas(soundness_runs, fuzz_runs):
    srecords, _ = soundness_runs
    frecords, _ = fuzz_runs
    checked = [r for r in srecords if "formulas_ok" in r] + frecords
    failures = [r for r in checked if not r["formulas_ok"]]
    ok = not failures and checked
    report_line("criterion 5 inverse formulas", bool(ok),
                f"{len(checked)} extensions checked")
    assert checked
    assert not failures, failures[0]


def test_criterion_06_orbit_structure(corpus):
    klein = corpus["klein"]
    sigma = sigma_set(klein)
    klein_ok = (len(sigma) == 10 and len(complement(sigma, klein.size)) == 6
                and len(gamma_orbits(klein).orbits) == 1)

    z4_orbits = list(phi_orbits(corpus["z4"]).orbits)
    z4_ok = z4_orbits == [((1, 1), (3, 2)), ((1, 2), (3, 3)), ((2, 1), (2, 3))]

    z5_decomposition = gamma_orbits(corpus["z5"])
    z5_ok = (len(z5_decomposition.orbits) == 2
             and all(len(set(o)) == 6 for o in z5_decomposition.orbits))

    ok = klein_ok and z4_ok and z5_ok
    report_line("criterion 6 orbit structure", ok)
    assert klein_ok and z4_ok and z5_ok


def test_criterion_07_kernel_normality(soundness_runs, fuzz_runs):
    srecords, _ = soundness_runs
    frecords, _ = fuzz_runs
    checked = [r for r in srecords if "kernel_ok" in r] + frecords
    failures = [r for r in checked if not r["kernel_ok"]]
    ok = not failures and checked
    report_line("criterion 7 kernel normality", bool(ok),
                f"{len(checked)} extensions checked")
    assert checked
    assert not failures, failures[0]


def test_criterion_08_duality(corpus):
    failures = []
    cases = ([("z4", (3,), seed) for seed in range(50)]
             + [("klein", (2, 2), seed) for seed in range(50)])
    for loop_name, orders, seed in cases:
        loop = corpus[loop_name]
        group = make_group(list(orders))
        cocycle = construct_lip_cocycle(loop, group, ChoiceSource(seed))
        mirrored = opposite_cocycle(cocycle)
        ext, _ = build_extension(mirrored)
        if not (check_rip_conditions(mirrored)
                and first_rip_counterexample(ext) is None):
            failures.append((loop_name, orders, seed))
    ok = not failures
    report_line("criterion 8 duality", ok, f"{len(cases)} mirrored constructions")
    assert not failures, failures[0]


GOLDEN = {
    "ip": "8bf6f428e28f404da6f50ba3b05e671c9c4a802d4afe60667fb9b1ad1a1e718e",
    "lip": "960a7a33a2a9b2bd3962a1c9e59ed038c269b458f97068bf1680c6567d3f1655",
    "rip": "69d321c188a8a625f1e11360a4dadd67cb82070e1c6ade0eb91e0fc9f586c53c",
}

_DIGEST_SCRIPT = """
from loopext.abelian import make_group
from loopext.catalog import cyclic_loop
from loopext.constructions import (ChoiceSource, construct_ip_cocycle,
                                   construct_lip_cocycle, construct_rip_cocycle)
from loopext.fileio import dumps_cocycle, text_sha256
z5, z4 = cyclic_loop(5), cyclic_loop(4)
g22, g3 = make_group([2, 2]), make_group([3])
print("ip", text_sha256(dumps_cocycle(construct_ip_cocycle(z5, g22, ChoiceSource(2024)))))
print("lip", text_sha256(dumps_cocycle(construct_lip_cocycle(z4, g3, ChoiceSource(2024)))))
print("rip", text_sha256(dumps_cocycle(construct_rip_cocycle(z4, g3, ChoiceSource(2024)))))
"""


def test_criterion_09_determinism():
    # two fresh interpreters with different hash randomization must emit
    # byte-identical cocycle files matching the pinned digests; -B keeps them
    # from writing bytecode caches into the source tree
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hashseed in ("0", "31337"):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _DIGEST_SCRIPT],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONPATH": str(src)},
        )
        outputs.append(proc.stdout)
    digests = dict(line.split() for line in outputs[0].splitlines())
    ok = outputs[0] == outputs[1] and digests == GOLDEN
    report_line("criterion 9 determinism", ok)
    assert outputs[0] == outputs[1]
    assert digests == GOLDEN
