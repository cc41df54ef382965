"""Lexer for the NCL C subset: one compiled pattern, one loop.

``_MASTER`` *is* the lexical grammar (docs/LANGUAGE.md "Lexical grammar"):
a run of trivia (blanks, ``//`` and ``/* */`` comments), then at most one
of: an identifier or keyword (ASCII), an integer literal (decimal, ``0x``
hex, ``0b`` binary, leading-``0`` octal; ``_`` separators; ``u``/``l``
suffixes), a punctuator (longest first, from ``PUNCTUATORS``), a character
or string literal with the common escapes, or a ``#``-line (preprocessor
directives are recognized and skipped -- NCL programs in this reproduction
use constants via the ``defines`` compiler option instead of a full
preprocessor).  Whatever the pattern does not match is an error, named by
``_diagnose``.  Line and column come from match offsets.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Mapping, Optional

from repro.errors import NclSyntaxError, SourceLocation
from repro.ncl.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
}

# The lookahead gives a hex run one length: were ``\x11`` also ``\x1`` then
# ``1``, a string that fails to close would be retried 2^n ways.
_ESCAPE = r"""\\(?:[ntr0\\'"]|x[0-9a-fA-F]+(?![0-9a-fA-F]))"""
_STRING_BODY = rf'(?:[^"\\\n]|{_ESCAPE})*'
_INT = (
    r"(?:0[xX]_*[0-9a-fA-F][0-9a-fA-F_]*|0[bB]_*[01][01_]*|0[0-7_]*|[1-9][0-9_]*)"
    r"[uUlL]*(?![A-Za-z0-9_])"
)

_MASTER = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)?"
    r"(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    rf"|(?P<int>{_INT})"
    r"|(?!/\*)(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")"
    rf"|'(?P<char>[^\\']|{_ESCAPE})'"
    rf'|"(?P<string>{_STRING_BODY})"'
    r"|(?P<hash>\#(?:\\\n|[^\n])*))?",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(_ESCAPE)
_OPEN_STRING = re.compile('"' + _STRING_BODY)
_ALNUM_RUN = re.compile(r"[A-Za-z0-9_]*")


def _decode_escape(m) -> str:
    esc = m.group()
    return chr(int(esc[2:], 16)) if esc[1] == "x" else _ESCAPES[esc[1]]


def _unescape(body: str) -> str:
    """Decode the escapes of a literal body the pattern already accepted."""
    return _ESCAPE_RE.sub(_decode_escape, body) if "\\" in body else body


def _int_value(text: str) -> int:
    body = text.rstrip("uUlL").replace("_", "")
    prefix = body[:2].lower()
    if prefix == "0x":
        return int(body, 16)
    if prefix == "0b":
        return int(body, 2)
    return int(body, 8 if body[0] == "0" and len(body) > 1 else 10)


def _bad_escape(source: str, at: int, at_end: str) -> str:
    """What is wrong with the backslash escape at ``source[at]``."""
    esc = source[at + 1 : at + 2]
    if esc == "x":
        return "\\x escape with no hex digits"
    return f"unknown escape sequence \\{esc}" if esc else at_end


def _diagnose(source: str, start: int, loc: SourceLocation) -> NclSyntaxError:
    """The error for text at ``source[start]`` that is no token."""
    ch = source[start]
    if source.startswith("/*", start):
        return NclSyntaxError("unterminated block comment", loc)
    if ch in "0123456789":
        text = _ALNUM_RUN.match(source, start).group()
        return NclSyntaxError(f"malformed integer literal {text!r}", loc)
    if ch == "'":
        nxt = source[start + 1 : start + 2]
        if nxt == "'":
            return NclSyntaxError("empty character literal", loc)
        if nxt == "\\" and not _ESCAPE_RE.match(source, start + 1):
            return NclSyntaxError(
                _bad_escape(source, start + 1, "unknown escape sequence \\"), loc
            )
        return NclSyntaxError("unterminated character literal", loc)
    if ch == '"':
        stop = _OPEN_STRING.match(source, start).end()
        if source.startswith("\\", stop):
            return NclSyntaxError(
                _bad_escape(source, stop, "unterminated string literal"), loc
            )
        return NclSyntaxError("unterminated string literal", loc)
    return NclSyntaxError(f"unexpected character {ch!r}", loc)


def tokenize(
    source: str,
    filename: str = "<ncl>",
    defines: Optional[Mapping[str, int]] = None,
) -> List[Token]:
    """Tokenize NCL source, substituting integer *defines* for identifiers.

    ``defines`` stands in for ``#define`` object macros (e.g. ``DATA_LEN``
    in the paper's Fig 4); each occurrence of a defined name becomes an
    integer literal token.  The list ends with a single EOF token.
    """
    defines = defines or {}
    out: List[Token] = []
    match = _MASTER.match
    # ``line_start`` is the offset of the current line's first character;
    # newlines are counted over source[counted:start] once per token.
    pos = counted = line_start = 0
    line = 1
    while True:
        m = match(source, pos)
        start = m.end(1)
        if start < 0:
            start = pos
        if start > counted:
            newlines = source.count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", counted, start) + 1
        loc = SourceLocation(filename, line, start - line_start + 1)
        kind = m.lastgroup
        counted = pos = m.end()
        if kind == "word":
            text = source[start:pos]
            if text in KEYWORDS:
                out.append(Token(TokenKind.KEYWORD, text, loc))
            elif text in defines:
                value = defines[text]
                out.append(Token(TokenKind.INT_LIT, str(value), loc, value))
            else:
                out.append(Token(TokenKind.IDENT, text, loc))
        elif kind == "punct":
            out.append(Token(TokenKind.PUNCT, source[start:pos], loc))
        elif kind == "int":
            text = source[start:pos]
            out.append(Token(TokenKind.INT_LIT, text, loc, _int_value(text)))
        elif kind == "string":
            value = _unescape(m.group("string"))
            out.append(Token(TokenKind.STRING_LIT, f'"{value}"', loc, value))
        elif kind == "char":
            value = _unescape(m.group("char"))
            out.append(Token(TokenKind.CHAR_LIT, f"'{value}'", loc, ord(value)))
            counted = start  # a raw newline is a legal character literal
        elif kind == "hash" and not source[line_start:start].strip(" \t"):
            counted = start  # continuation lines
        elif start == len(source):
            out.append(Token(TokenKind.EOF, "", loc))
            return out
        else:
            raise _diagnose(source, start, loc)


class Lexer:
    """Tokenizes one NCL translation unit."""

    def __init__(self, source: str, filename: str = "<ncl>"):
        self._src = source
        self._filename = filename

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens, ending with a single EOF token."""
        return iter(tokenize(self._src, self._filename))
