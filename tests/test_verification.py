import pytest

from loopext.constructions import ChoiceSource, construct_ip_cocycle, random_cocycle
from loopext.errors import PreconditionError
from loopext.extension import build_extension, make_cocycle
from loopext.verification import VerificationReport, extension_report, verify_cocycle


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
        text = report.to_text(include_timing=False)
        assert text.startswith("report: verify\nloop-sha256: " + "f" * 64)
        assert text.rstrip().endswith("result: pass")
        assert "elapsed-ms" not in text
        timed = report.to_text()
        assert "elapsed-ms" in timed


class TestSinglePass:
    def test_ip_mode_runs_each_scan_once(self, loops, groups, monkeypatch):
        import loopext.loops as loops_module
        from loopext import verification

        cocycle = construct_ip_cocycle(loops["z5"], groups["z2xz2"], ChoiceSource(1))
        cocycle.loop.properties()  # the cached base analysis is not part of the count
        calls = []
        for name in ("first_lip_counterexample", "first_rip_counterexample"):
            original = getattr(loops_module, name)

            def counting(loop, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(loop, *args)

            monkeypatch.setattr(loops_module, name, counting)
            monkeypatch.setattr(verification, name, counting)
        report = verify_cocycle(cocycle, mode="ip")
        assert report.passed
        assert sorted(calls) == ["first_lip_counterexample", "first_rip_counterexample"]

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


class TestExtensionReport:
    def test_basic(self, loops, groups):
        report = extension_report(build_extension(identity_cocycle(loops["z4"], groups["z2xz2"])))
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
