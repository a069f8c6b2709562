"""The ESL-EV lexer.

Turns query text into a flat list of :class:`Token` objects.  Notable
conventions:

* ``--`` starts a line comment; ``/* ... */`` is a block comment.
* ``*`` is always lexed as :data:`TokenType.STAR`; the parser decides
  between multiplication, ``SELECT *``, and star-sequence ``R1*``.
* Strings use single quotes with ``''`` as the escaped quote, per SQL.
* ``:=`` (UDA assignment), ``<=``, ``>=``, ``<>``, ``!=``, ``||`` are
  multi-character operators.
* Unicode comparison operators ``≤`` and ``≥`` are accepted (the paper's
  typeset queries use them) and normalized to ``<=`` / ``>=``.
"""

from __future__ import annotations

from ...dsms.errors import EslSyntaxError
from .tokens import Token, TokenType

_SIMPLE = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
}

_TWO_CHAR_OPS = {"<=", ">=", "<>", "!=", "||", ":="}
_ONE_CHAR_OPS = set("=<>+-/%:")

_UNICODE_OPS = {"≤": "<=", "≥": ">="}


def tokenize(text: str) -> list[Token]:
    """Lex *text* into tokens, ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def column(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        ch = text[i]
        # Whitespace / newlines
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        # Comments
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise EslSyntaxError("unterminated block comment", line, column(i))
            for scanned in text[i:end]:
                if scanned == "\n":
                    line += 1
                    line_start = i  # close enough for error positions
            i = end + 2
            continue
        # Strings
        if ch == "'":
            start = i
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise EslSyntaxError(
                        "unterminated string literal", line, column(start)
                    )
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(text[i])
                i += 1
            tokens.append(
                Token(TokenType.STRING, "".join(parts), line, column(start))
            )
            continue
        # Numbers (integer or decimal; exponent accepted).  A leading dot is
        # NOT a number start — ``r1.5`` must lex as a dotted reference, so
        # write ``0.5`` rather than ``.5``.
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            is_float = False
            if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                peek = i + 1
                if peek < n and text[peek] in "+-":
                    peek += 1
                if peek < n and text[peek].isdigit():
                    is_float = True
                    i = peek
                    while i < n and text[i].isdigit():
                        i += 1
            raw = text[start:i]
            value: int | float = float(raw) if is_float else int(raw)
            tokens.append(Token(TokenType.NUMBER, value, line, column(start)))
            continue
        # Identifiers / keywords
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(
                Token(TokenType.IDENT, word, line, column(start), word.upper())
            )
            continue
        # Star (disambiguated by the parser)
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", line, column(i)))
            i += 1
            continue
        if ch == ".":
            tokens.append(Token(TokenType.DOT, ".", line, column(i)))
            i += 1
            continue
        if ch in _SIMPLE:
            tokens.append(Token(_SIMPLE[ch], ch, line, column(i)))
            i += 1
            continue
        if ch in _UNICODE_OPS:
            tokens.append(
                Token(TokenType.OPERATOR, _UNICODE_OPS[ch], line, column(i))
            )
            i += 1
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenType.OPERATOR, two, line, column(i)))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenType.OPERATOR, ch, line, column(i)))
            i += 1
            continue
        raise EslSyntaxError(f"unexpected character {ch!r}", line, column(i))

    tokens.append(Token(TokenType.EOF, None, line, column(i)))
    return tokens
