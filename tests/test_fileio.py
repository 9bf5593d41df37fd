import hashlib
import tracemalloc

import pytest

from loopext.abelian import make_group
from loopext.catalog import abelian_group_loop, klein_loop
from loopext.cli import main
from loopext.constructions import (
    ChoiceSource,
    construct_ip_cocycle,
    construct_lip_cocycle,
    random_cocycle,
)
from loopext.errors import InputError, ParseError
from loopext.fileio import (
    dumps_cocycle,
    dumps_loop,
    emit_cocycle_file,
    emit_loop_file,
    extension_comments,
    loads_cocycle,
    loads_loop,
    parse_cocycle_file,
    parse_loop_file,
    text_sha256,
)
from loopext.extension import build_extension
from loopext.loops import make_loop

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

    @pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_lines_end_at_line_feed_only(self, brk):
        # a comment holding another line break of str.splitlines is one line
        assert loads_loop(f"loop 2\n# a{brk}b\n0 1\n1 0\n") == loads_loop(Z2_TEXT)
        with pytest.raises(ParseError, match="non-integer entry") as err:
            loads_loop(f"loop 2\n# a{brk}b\n0 1\n1 x\n")
        assert err.value.line == 4

    def test_crlf_lines(self):
        assert loads_loop(Z2_TEXT.replace("\n", "\r\n")) == loads_loop(Z2_TEXT)

    def test_file_round_trip(self, loops, tmp_path):
        path = tmp_path / "klein.loop"
        emit_loop_file(loops["klein"], path, comments=("bundled",))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert parse_loop_file(path) == (loops["klein"], digest)
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

    def test_row_error_names_that_rows_line(self):
        with pytest.raises(ParseError, match="row 2") as err:
            loads_loop("loop 3\n0 1 2\n1 2 0\n2 0 0\n")
        assert err.value.line == 4

    def test_column_error_names_first_row_line(self):
        with pytest.raises(ParseError, match="column 1") as err:
            loads_loop("# header\nloop 3\n0 1 2\n1 2 0\n2 1 0\n")
        assert err.value.line == 3

    def test_duplicate_row_entry_error_mentions_row(self):
        with pytest.raises(ParseError, match="row 1"):
            loads_loop("loop 3\n0 1 2\n1 1 0\n2 0 1\n")


# Files each parser refuses, by case: the text, the line the refusal names
# (None where it names the file alone) and a fragment of its message.
LOOP_REFUSALS = {
    "empty": ("# nothing but a comment\n\n", None, "empty loop file"),
    "order-zero": ("# comment\nloop 0\n", 2, "loop size must be >= 1, got 0"),
}

COCYCLE_BODY = "P\n0 0\n0 0\nQ\n0 0\n0 0\n"

COCYCLE_REFUSALS = {
    "empty": ("\n# nothing\n", None, "empty cocycle file"),
    "field-without-equals": ("cocycle l=2 group3\n" + COCYCLE_BODY, 1,
                             "bad header field 'group3'"),
    "other-fields": ("cocycle l=2 size=3\n" + COCYCLE_BODY, 1,
                     "header must carry exactly 'l' and 'group', got ['l', 'size']"),
    "non-integer-l": ("cocycle l=two group=3\n" + COCYCLE_BODY, 1, "bad size 'two'"),
    "bad-group": ("cocycle l=2 group=1x\n" + COCYCLE_BODY, 1, "bad group spec '1x'"),
    "body-count": ("cocycle l=2 group=3\n" + COCYCLE_BODY[:-4], 1,
                   "expected 'P', 2 rows, 'Q', 2 rows; found 5 lines"),
    "no-p-section": ("# comment\ncocycle l=2 group=3\n" + COCYCLE_BODY.replace("P", "R"), 3,
                     "expected 'P' section, got 'R'"),
}


def refusal_prefix(path, line):
    return f"{path}:{line}: " if line is not None else f"{path}: "


class TestParseRefusals:
    """Each parser refusal names the file and line, and the CLI turns it into
    exit 2 with an ``error:`` line."""

    @pytest.mark.parametrize("case", sorted(LOOP_REFUSALS))
    def test_loop(self, tmp_path, capsys, case):
        text, line, fragment = LOOP_REFUSALS[case]
        path = tmp_path / "bad.loop"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_loop_file(path)
        assert str(err.value).startswith(refusal_prefix(path, line)) and fragment in str(err.value)
        assert main(["check", "--loop", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    @pytest.mark.parametrize("case", sorted(COCYCLE_REFUSALS))
    def test_cocycle(self, tmp_path, capsys, loops, case):
        text, line, fragment = COCYCLE_REFUSALS[case]
        loop_path, path = tmp_path / "z2.loop", tmp_path / "bad.coc"
        emit_loop_file(loops["z2"], loop_path)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_cocycle_file(path, loops["z2"])
        assert str(err.value).startswith(refusal_prefix(path, line)) and fragment in str(err.value)
        assert main(["verify", "--loop", str(loop_path), "--cocycle", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"


# Tokens that ``int`` takes and the formats do not: an underscore, a plus
# sign, a non-ASCII digit.  Each used to parse (``loop 0_2`` as size 2,
# ``--group 1_6`` as Z16); each is now refused with the message of a token
# that is no integer at all.  A group spec with an empty or bare ``-`` part
# gets the same message.
ASCII_DECIMAL_REFUSALS = [
    ("loop", "loop 2\n0 1\n1 0_0\n", "non-integer entry"),
    ("loop", "loop 2\n0 1\n1 +0\n", "non-integer entry"),
    ("loop", "loop 2\n0 \u0661\n1 0\n", "non-integer entry"),
    ("loop", "loop 0_2\n0 1\n1 0\n", "bad loop size '0_2'"),
    ("loop", "loop +2\n0 1\n1 0\n", "bad loop size '+2'"),
    ("cocycle", "cocycle l=2 group=3\nP\n0 0\n0 +0\nQ\n0 0\n0 0\n", "non-integer entry"),
    ("cocycle", "cocycle l=2 group=3\nP\n0 0\n0 0\nQ\n0 0\n0 0_0\n", "non-integer entry"),
    ("cocycle", "cocycle l=\u0662 group=3\n" + COCYCLE_BODY, "bad size"),
    ("cocycle", "cocycle l=2 group=1_6\n" + COCYCLE_BODY, "bad group spec '1_6'"),
    ("group", "1_6", "bad group spec '1_6'"),
    ("group", "2,+2", "bad group spec '2,+2'"),
    ("group", "2,,2", "bad group spec '2,,2'"),
    ("group", "2,", "bad group spec '2,'"),
    ("group", ",", "bad group spec ','"),
    ("group", "-", "bad group spec '-'"),
]


@pytest.mark.parametrize("kind, text, fragment", ASCII_DECIMAL_REFUSALS)
def test_tokens_are_ascii_decimals(loops, capsys, kind, text, fragment):
    if kind == "group":  # the --group option of the CLI
        assert main(["aut", "--group", text]) == 2
        assert fragment in capsys.readouterr().err
        return
    with pytest.raises(ParseError) as err:
        if kind == "loop":
            loads_loop(text)
        else:
            loads_cocycle(text, loops["z2"])
    assert fragment in str(err.value)


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
        text = emit_cocycle_file(cocycle, path)
        assert text == path.read_text(encoding="utf-8") == dumps_cocycle(cocycle)
        assert parse_cocycle_file(path, loop) == (cocycle, text_sha256(text))

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
        assert parsed.ptable[0][1] == 1
        bad = "cocycle l=2 group=3\nP\n0 0\n1 0\nQ\n0 0\n0 0\n"
        with pytest.raises(ParseError):  # P(1, e) must be Id
            loads_cocycle(bad, loops["z2"])
        bad_q = "cocycle l=2 group=3\nP\n0 0\n0 0\nQ\n0 1\n0 0\n"
        with pytest.raises(ParseError):  # Q(e, 1) must be Id
            loads_cocycle(bad_q, loops["z2"])

    def test_large_aut_cocycle_parses(self, loops):
        # only the aut listing caps |Aut(A)|: a cocycle over Z2^5 parses
        text = "cocycle l=2 group=2,2,2,2,2\nP\n0 0\n0 0\nQ\n0 0\n0 0\n"
        cocycle = loads_cocycle(text, loops["z2"])
        assert len(cocycle.autgroup) == 9_999_360
        assert dumps_cocycle(cocycle) == text

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
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == text_sha256(Z2_TEXT) == parse_loop_file(path)[1]
        assert len(digest) == 64


class TestCommentLineBreaks:
    """Both emitters refuse a comment holding any line break of
    ``str.splitlines``, before any file is touched, although the parser
    splits at a line feed only."""

    @pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
    def test_dumps_loop_refuses(self, brk):
        with pytest.raises(InputError, match="holds a line break"):
            dumps_loop(klein_loop(), ["a" + brk + "b"])

    @pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
    def test_emit_loop_file_refuses_before_opening(self, tmp_path, brk):
        old, new = tmp_path / "old.loop", tmp_path / "new.loop"
        old.write_text(Z2_TEXT)
        for path in (old, new):
            with pytest.raises(InputError, match="holds a line break"):
                emit_loop_file(klein_loop(), path, comments=iter(["fine", "a" + brk + "b"]))
        assert old.read_text() == Z2_TEXT
        assert not new.exists()

    def test_plain_comments_round_trip(self):
        text = dumps_loop(klein_loop(), ["a\tb", ""])
        assert text.startswith("# a\tb\n# \nloop 4\n")
        assert loads_loop(text) == klein_loop()


class TestStreamedLoopFile:
    """``emit_loop_file`` writes row by row exactly the text of ``dumps_loop``."""

    @pytest.mark.parametrize("comments", [(), ("first comment", "second comment")])
    def test_trivial_loop(self, loops, tmp_path, comments):
        path = tmp_path / "e.loop"
        emit_loop_file(loops["trivial"], path, comments=comments)
        assert path.read_bytes() == dumps_loop(loops["trivial"], comments).encode()

    def test_extension_of_order_512(self, tmp_path):
        loop, group = abelian_group_loop([2] * 6), make_group((2, 2, 2))
        cocycle = random_cocycle(loop, group, ChoiceSource(3))
        ext = build_extension(cocycle)[0]
        assert ext.size == 512
        comments = extension_comments(cocycle)
        for given in ((), comments):
            path = tmp_path / "e.loop"
            tracemalloc.start()
            try:
                emit_loop_file(ext, path, comments=given)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one row at a time: the whole text (about 1 MB) is never held
            assert peak < 0.25e6, peak
            assert path.read_bytes() == dumps_loop(ext, given).encode()

    def test_packed_born_extension_builds_no_rows(self):
        # an extension of order <= 256 is written from its bytes rows, and
        # its int-tuple view is never built
        loop, group = abelian_group_loop([2] * 5), make_group((2, 2, 2))
        ext = build_extension(construct_ip_cocycle(loop, group, ChoiceSource(1)))[0]
        assert ext.size == 256 and all(type(row) is bytes for row in ext._rows)
        assert "table" not in ext._kept
        text = dumps_loop(ext, ("a comment",))
        assert "table" not in ext._kept
        assert text == dumps_loop(make_loop(ext.table), ("a comment",))
        assert text == "# a comment\nloop 256\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in ext.table)
