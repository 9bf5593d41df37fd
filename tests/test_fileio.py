import pytest

from loopext.constructions import ChoiceSource, construct_ip_cocycle, construct_lip_cocycle
from loopext.errors import ParseError, ResourceError
from loopext.fileio import (
    dumps_cocycle,
    dumps_loop,
    emit_cocycle_file,
    emit_loop_file,
    extension_comments,
    file_sha256,
    loads_cocycle,
    loads_loop,
    parse_cocycle_file,
    parse_loop_file,
    text_sha256,
)

Z2_TEXT = "loop 2\n0 1\n1 0\n"


class TestLoopFormat:
    def test_parse_z2(self):
        loop = loads_loop(Z2_TEXT)
        assert loop.size == 2
        assert loop.table == ((0, 1), (1, 0))

    def test_round_trip_is_identity_on_canonical(self):
        assert dumps_loop(loads_loop(Z2_TEXT)) == Z2_TEXT

    @pytest.mark.parametrize("name", ["z4", "klein", "ip7", "ip8", "lip_only"])
    def test_emit_parse_round_trip(self, loops, name):
        text = dumps_loop(loops[name])
        assert loads_loop(text) == loops[name]
        assert dumps_loop(loads_loop(text)) == text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nloop 2\n# another\n0 1\n\n1 0\n"
        assert loads_loop(text).size == 2

    def test_file_round_trip(self, loops, tmp_path):
        path = tmp_path / "klein.loop"
        emit_loop_file(loops["klein"], path, comments=("bundled",))
        assert parse_loop_file(path) == loops["klein"]
        assert path.read_text().startswith("# bundled\nloop 4\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            loads_loop("0 1\n1 0\n")

    def test_bad_size(self):
        with pytest.raises(ParseError):
            loads_loop("loop x\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            loads_loop("loop 3\n0 1 2\n1 2 0\n")

    def test_row_width_mismatch_names_line(self):
        with pytest.raises(ParseError) as err:
            loads_loop("loop 2\n0 1\n1\n")
        assert err.value.line == 3

    def test_non_integer_entry(self):
        with pytest.raises(ParseError):
            loads_loop("loop 2\n0 1\n1 q\n")

    def test_non_latin_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            loads_loop("loop 2\n0 1\n1 1\n")

    def test_identity_position_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            loads_loop("loop 3\n0 2 1\n1 0 2\n2 1 0\n")

    def test_duplicate_row_entry_error_mentions_row(self):
        with pytest.raises(ParseError, match="row 1"):
            loads_loop("loop 3\n0 1 2\n1 1 0\n2 0 1\n")


class TestCocycleFormat:
    @pytest.fixture()
    def sample(self, loops, groups):
        cocycle = construct_lip_cocycle(loops["z4"], groups["z2xz2"], ChoiceSource(5))
        return loops["z4"], cocycle

    def test_round_trip(self, sample):
        loop, cocycle = sample
        text = dumps_cocycle(cocycle)
        parsed = loads_cocycle(text, loop)
        assert parsed == cocycle
        assert dumps_cocycle(parsed) == text

    def test_header_contents(self, sample):
        _, cocycle = sample
        assert dumps_cocycle(cocycle).startswith("cocycle l=4 group=2,2\nP\n")

    def test_file_round_trip(self, sample, tmp_path):
        loop, cocycle = sample
        path = tmp_path / "c.coc"
        emit_cocycle_file(cocycle, path)
        assert parse_cocycle_file(path, loop) == cocycle

    def test_size_mismatch(self, sample, loops):
        _, cocycle = sample
        with pytest.raises(ParseError):
            loads_cocycle(dumps_cocycle(cocycle), loops["z5"])

    def test_bad_header(self, loops):
        with pytest.raises(ParseError):
            loads_cocycle("cocycle l=2\nP\n0 0\n0 0\nQ\n0 0\n0 0\n", loops["z2"])

    def test_missing_section(self, sample):
        loop, cocycle = sample
        text = dumps_cocycle(cocycle).replace("\nQ\n", "\nR\n")
        with pytest.raises(ParseError):
            loads_cocycle(text, loop)

    def test_bad_automorphism_index(self, loops):
        text = "cocycle l=2 group=3\nP\n0 0\n0 9\nQ\n0 0\n0 0\n"
        with pytest.raises(ParseError):
            loads_cocycle(text, loops["z2"])

    def test_boundary_violation_is_parse_error(self, loops):
        text = "cocycle l=2 group=3\nP\n0 1\n0 0\nQ\n0 0\n0 0\n"
        parsed = loads_cocycle(text, loops["z2"])  # P(e, 1) is free
        assert parsed.p(0, 1) == 1
        bad = "cocycle l=2 group=3\nP\n0 0\n1 0\nQ\n0 0\n0 0\n"
        with pytest.raises(ParseError):  # P(1, e) must be Id
            loads_cocycle(bad, loops["z2"])
        bad_q = "cocycle l=2 group=3\nP\n0 0\n0 0\nQ\n0 1\n0 0\n"
        with pytest.raises(ParseError):  # Q(e, 1) must be Id
            loads_cocycle(bad_q, loops["z2"])

    def test_oversized_aut_is_resource_error(self, loops):
        # refusing Aut(Z2^5) is a resource limit, not a defect of the file
        text = "cocycle l=2 group=2,2,2,2,2\nP\n0 0\n0 0\nQ\n0 0\n0 0\n"
        with pytest.raises(ResourceError) as info:
            loads_cocycle(text, loops["z2"])
        assert not isinstance(info.value, ParseError)
        assert "exceeds cap 200000" in str(info.value)

    def test_comment_lines_allowed(self, sample):
        loop, cocycle = sample
        text = "# made for a test\n" + dumps_cocycle(cocycle)
        assert loads_cocycle(text, loop) == cocycle


class TestHashesAndComments:
    def test_extension_comments(self, loops, groups):
        cocycle = construct_ip_cocycle(loops["klein"], groups["z3"], ChoiceSource(2))
        comments = extension_comments(cocycle)
        assert any("pair encoding" in c for c in comments)

    def test_sha_stability(self, tmp_path):
        path = tmp_path / "x.loop"
        path.write_text(Z2_TEXT)
        assert file_sha256(path) == text_sha256(Z2_TEXT)
        assert len(file_sha256(path)) == 64
