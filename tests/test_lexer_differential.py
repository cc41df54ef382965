"""The master-pattern lexer against the per-character one it replaced
(tests/lexer_oracle.py): same tokens -- kind, text, value, line, column --
or the same error, message and location, on every shipped ``.ncl`` file,
on splice / truncate / reverse / inject mutations of them and on
Hypothesis-generated text over the token alphabet.

The two are *meant* to differ in three places, each a bug of the old
lexer; inputs that touch one (``touches_known_difference``) are left out
of the equality and the cases are asserted one by one in
``TestIntendedDifferences``, old behaviour beside new.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NclSyntaxError
from repro.ncl.lexer import Lexer, tokenize
from repro.ncl.tokens import PUNCTUATORS, TokenKind

from tests.lexer_oracle import tokenize as oracle_tokenize

ROOT = Path(__file__).resolve().parent.parent
NCL_FILES = sorted(
    path
    for top in ("examples", "bench/inputs", "tests")
    for path in (ROOT / top).rglob("*.ncl")
)

_INT_SHAPE = re.compile(
    r"(?:0[xX]_*[0-9a-fA-F][0-9a-fA-F_]*|0[bB]_*[01][01_]*|0[0-7_]*|[1-9][0-9_]*)[uUlL]*"
)
_DIGIT_RUN = re.compile(r"(?<![A-Za-z0-9_])[0-9][A-Za-z0-9_]*")
_INDENTED_HASH = re.compile(r"^[ \t]+#", re.MULTILINE)


def touches_known_difference(source: str) -> bool:
    """Conservative: could one of the three intended differences decide
    what this text lexes to?  (It may sit in a comment; never mind.)"""
    return (
        any(ord(ch) > 127 and ch.isalnum() for ch in source)  # (a)
        or any(  # (b)
            not _INT_SHAPE.fullmatch(m.group()) for m in _DIGIT_RUN.finditer(source)
        )
        or source.endswith("\\")  # (c) a string ending in a backslash at EOF
        or _INDENTED_HASH.search(source) is not None  # (c) an indented # line
    )


def lexed(lexer, source: str, **kwargs):
    try:
        return [
            (t.kind, t.text, t.value, t.loc.filename, t.loc.line, t.loc.column)
            for t in lexer(source, "f.ncl", **kwargs)
        ]
    except NclSyntaxError as exc:
        return ("NclSyntaxError", exc.message, repr(exc.loc))
    except (ValueError, OverflowError) as exc:  # '\x110000': chr() out of range
        return (type(exc).__name__,)


def assert_same(source: str, **kwargs):
    mine, theirs = lexed(tokenize, source, **kwargs), lexed(oracle_tokenize, source, **kwargs)
    if len(theirs) == 1 and mine != theirs:
        # The oracle decodes '\x110000' (and dies in chr()) before it looks
        # for the closing quote or at the next escape; the pattern never
        # accepts a literal that does not close.
        assert mine[0] == "NclSyntaxError", repr(source)
        return
    assert mine == theirs, repr(source)


@pytest.mark.parametrize("path", NCL_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_sources_lex_the_same(path):
    source = path.read_text()
    assert len(NCL_FILES) >= 16
    assert not touches_known_difference(source)
    assert_same(source)
    assert_same(source, defines={"DATA_LEN": 64, "WIN_LEN": 8, "CACHE_SIZE": 4})


INJECT = [
    "'", '"', "\\", "#", "/*", "*/", "//", "0x", "0b", "\n", "#x\n", "1u", "'\\x",
    "_", "9", "\t", "''", "'\\q'", '"\\', "\r\n", "\f", "$", "@", "`", "...", "::",
]


@pytest.mark.parametrize("path", NCL_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_mutated_sources_lex_the_same(path):
    source = path.read_text()
    rng = random.Random(path.name)
    compared = 0
    for _ in range(200):
        a, b = sorted((rng.randrange(len(source) + 1), rng.randrange(len(source) + 1)))
        how = rng.randrange(4)
        if how == 0:
            mutant = source[:a] + source[b:]  # splice
        elif how == 1:
            mutant = source[:a]  # truncate
        elif how == 2:
            mutant = source[:a] + source[a:b][::-1] + source[b:]  # reverse
        else:
            mutant = source[:a] + rng.choice(INJECT) + source[a:]  # inject
        if not touches_known_difference(mutant):
            compared += 1
            assert_same(mutant)
    assert compared >= 100


ALPHABET = st.sampled_from(
    PUNCTUATORS
    + ["int", "unsigned", "_net_", "if", "x", "acc_1", "_", "window", "A9"]
    + ["0", "7", "42", "0x1F", "0b101", "017", "1_000", "42u", "7UL", "0x", "0b"]
    + ["'a'", "'\\n'", "'\\x41'", "'", "''", "'\\", "'\\q'", "'ab'"]
    + ['"s1"', '"a\\tb"', '"', '"\\x"', '"\\q"', '"a\nb"', "\\"]
    + [" ", "  ", "\t", "\n", "\r\n", "// c\n", "//", "/* c */", "/*", "*/", "/*/"]
    + ["#include <x>\n", "#define A \\\n 1\n", "#", "$", "@", "\f", "\x00"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(ALPHABET, max_size=24).map("".join))
def test_generated_text_lexes_the_same(source):
    if not touches_known_difference(source):
        assert_same(source)
    else:  # still: tokens or a syntax error, never a crash
        lexed(tokenize, source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text_never_crashes(source):
    out = lexed(tokenize, source)
    if not touches_known_difference(source):
        assert out == lexed(oracle_tokenize, source)
    if isinstance(out, list):
        assert out[-1][0] is TokenKind.EOF


class TestLongLiteralsThatDoNotClose:
    """A literal that fails to close is given up on once, not once per way
    of splitting its escapes: were ``\\x11`` also ``\\x1`` then ``1``, the
    pattern would retry 2^n splits over n escapes and these would not
    return (200 escapes; the per-character oracle is linear)."""

    TAILS = ["", '\\q"', "\n", '\n"', "\\", "\\x", '\\xg"', "'"]

    @pytest.mark.parametrize("tail", TAILS)
    @pytest.mark.parametrize("piece", ["\\x11", "\\xA", "\\x1\\n1", "\\\\", '\\"', "a1"])
    def test_unclosed_string_of_escapes(self, piece, tail):
        source = 'x = "' + piece * 200 + tail
        if not touches_known_difference(source):
            assert_same(source)
        assert error_of(tokenize, source)[1:] == (1, 5)

    def test_the_messages(self):
        body = '"' + "\\x11" * 200
        assert error_of(tokenize, body) == ("unterminated string literal", 1, 1)
        assert error_of(tokenize, body + "\n") == ("unterminated string literal", 1, 1)
        assert error_of(tokenize, body + '\\q"') == ("unknown escape sequence \\q", 1, 1)
        assert error_of(tokenize, body + '\\xg"') == ("\\x escape with no hex digits", 1, 1)

    def test_out_of_range_escape_crashes_only_where_the_literal_closes(self):
        assert lexed(tokenize, '"\\x110000"') == lexed(oracle_tokenize, '"\\x110000"') == (
            "ValueError",
        )
        assert lexed(oracle_tokenize, '"\\x110000') == ("ValueError",)
        assert error_of(tokenize, '"\\x110000') == ("unterminated string literal", 1, 1)
        assert error_of(tokenize, "'\\x110000") == ("unterminated character literal", 1, 1)

    def test_closed_string_of_escapes(self):
        assert_same('"' + "\\x41\\x4a1" * 200 + '" y')
        assert tokenize('"' + "\\x41" * 200 + '"')[0].value == "A" * 200

    @pytest.mark.parametrize("tail", ["", "\n", "x", "''"])
    def test_unclosed_character_literal(self, tail):
        assert_same("'\\x4" + tail)
        assert_same("'\\x41" + tail)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["\\x11", "\\xfF", "\\n", "\\\\", '\\"', "1", "a", "f", " "]),
            min_size=40,
            max_size=120,
        ).map("".join),
        st.sampled_from(TAILS + ['"', '" z']),
    )
    def test_generated_string_bodies(self, body, tail):
        source = '"' + body + tail
        if not touches_known_difference(source):
            assert_same(source)


def test_lexer_class_yields_the_same_tokens():
    source = (ROOT / "examples" / "fig4_allreduce.ncl").read_text()
    mine = [(t.kind, t.text, t.value, repr(t.loc)) for t in Lexer(source, "f").tokens()]
    assert mine == [(t.kind, t.text, t.value, repr(t.loc)) for t in tokenize(source, "f")]


def error_of(lexer, source):
    with pytest.raises(NclSyntaxError) as exc:
        lexer(source, "f.ncl")
    return exc.value.message, exc.value.loc.line, exc.value.loc.column


def texts(lexer, source):
    return [t.text for t in lexer(source, "f.ncl") if t.kind is not TokenKind.EOF]


class TestIntendedDifferences:
    """Satellite 1 of ISSUE 23: the only token / diagnostic changes."""

    # (a) NCL is a C subset: identifiers and digits are ASCII.

    def test_superscript_is_not_an_identifier_character(self):
        assert texts(oracle_tokenize, "x²") == ["x²"]  # str.isalnum
        assert error_of(tokenize, "x²") == ("unexpected character '²'", 1, 2)

    def test_arabic_indic_digits_are_not_a_literal(self):
        old = oracle_tokenize("١٢", "f.ncl")[0]
        assert (old.kind, old.value) == (TokenKind.INT_LIT, 12)  # str.isdigit + int()
        assert error_of(tokenize, "١٢") == ("unexpected character '١'", 1, 1)

    def test_bare_superscript_is_an_unexpected_character(self):
        assert error_of(oracle_tokenize, "²")[0] == "malformed integer literal '²'"
        assert error_of(tokenize, "a = ²;") == ("unexpected character '²'", 1, 5)

    def test_accented_letter_is_not_an_identifier_start(self):
        assert texts(oracle_tokenize, "été") == ["été"]
        assert error_of(tokenize, "été") == ("unexpected character 'é'", 1, 1)

    # (b) a literal does not run into what follows.

    @pytest.mark.parametrize(
        "source,old",
        [
            ("0b102", ["0b10", "2"]),
            ("12ab", ["12", "ab"]),
            ("1uu2", ["1uu", "2"]),
            ("0o17", ["0", "o17"]),
            ("09", None),  # already "malformed integer literal '09'"
        ],
    )
    def test_literal_swallows_its_alphanumeric_run(self, source, old):
        if old is not None:
            assert texts(oracle_tokenize, source) == old
        assert error_of(tokenize, f"  {source};") == (
            f"malformed integer literal {source!r}", 1, 3
        )

    def test_hex_already_did(self):
        assert error_of(oracle_tokenize, "0x1G") == error_of(tokenize, "0x1G") == (
            "malformed integer literal '0x1G'", 1, 1
        )

    def test_binary_prefix_alone_names_the_whole_run(self):
        assert error_of(oracle_tokenize, "0b2")[0] == "malformed integer literal '0b'"
        assert error_of(tokenize, "0b2")[0] == "malformed integer literal '0b2'"

    # (c) the two misreported positions.

    def test_string_ending_in_backslash_at_eof_is_unterminated(self):
        assert error_of(oracle_tokenize, '"a\\')[0] == "unknown escape sequence \\"
        assert error_of(tokenize, 'x = "a\\') == ("unterminated string literal", 1, 5)

    def test_indented_preprocessor_line_is_skipped(self):
        source = "int a;\n  \t#include <x>\nint b;"
        assert error_of(oracle_tokenize, source) == ("unexpected character '#'", 2, 4)
        assert texts(tokenize, source) == ["int", "a", ";", "int", "b", ";"]
        assert tokenize(source)[3].loc.line == 3

    def test_hash_after_code_on_its_line_is_still_an_error(self):
        for lexer in (oracle_tokenize, tokenize):
            assert error_of(lexer, "int a; #x") == ("unexpected character '#'", 1, 8)
            assert error_of(lexer, "/* c */ #x") == ("unexpected character '#'", 1, 9)


class TestLocations:
    def test_columns_after_block_comments_and_continuations(self):
        source = "a /* x\n y */ b\n#define Q \\\n  1\n\tc 'z' \"s\" 0x10"
        assert_same(source)
        toks = tokenize(source)
        assert [(t.text, t.loc.line, t.loc.column) for t in toks[:3]] == [
            ("a", 1, 1), ("b", 2, 7), ("c", 5, 2),
        ]

    def test_raw_newline_in_a_character_literal_advances_the_line(self):
        assert_same("'\n' x\ny")
        toks = tokenize("'\n' x\ny")
        assert [(t.loc.line, t.loc.column) for t in toks] == [(1, 1), (2, 3), (3, 1), (3, 2)]
