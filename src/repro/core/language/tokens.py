"""Token definitions for the ESL-EV lexer."""

from __future__ import annotations

import enum
from typing import Any


class TokenType(enum.Enum):
    IDENT = "ident"          # identifiers and keywords (keywords resolved later)
    NUMBER = "number"        # integer or float literal
    STRING = "string"        # 'single quoted'
    OPERATOR = "operator"    # = <> != < <= > >= + - * / % || :=
    LPAREN = "lparen"
    RPAREN = "rparen"
    LBRACKET = "lbracket"
    RBRACKET = "rbracket"
    COMMA = "comma"
    DOT = "dot"
    SEMICOLON = "semicolon"
    STAR = "star"            # '*' — multiplication, SELECT *, or star-sequence
    EOF = "eof"


#: Reserved words recognized case-insensitively.  Stored uppercase.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AS",
        "INSERT", "INTO", "VALUES", "CREATE", "STREAM", "TABLE",
        "AGGREGATE", "INITIALIZE", "ITERATE", "TERMINATE", "RETURN",
        "AND", "OR", "NOT", "EXISTS", "IN", "IS", "NULL", "LIKE",
        "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "TRUE", "FALSE",
        "OVER", "RANGE", "ROWS", "PRECEDING", "FOLLOWING", "CURRENT",
        "UNBOUNDED", "MODE", "SEQ", "EXCEPTION_SEQ", "CLEVEL_SEQ",
        "UNRESTRICTED", "RECENT", "CHRONICLE", "CONSECUTIVE",
        "MILLISECONDS", "SECONDS", "MINUTES", "HOURS", "DAYS",
        "MILLISECOND", "SECOND", "MINUTE", "HOUR", "DAY",
        "FIRST", "LAST", "COUNT", "PREVIOUS", "DELETE", "UPDATE", "SET",
    }
)

#: Time-unit keywords (upper-case) accepted after a number.
TIME_UNIT_KEYWORDS = frozenset(
    {
        "MILLISECONDS", "SECONDS", "MINUTES", "HOURS", "DAYS",
        "MILLISECOND", "SECOND", "MINUTE", "HOUR", "DAY",
    }
)


class Token:
    """One lexical token with its source position.

    ``upper`` is an identifier's upper-case spelling, computed once when
    the lexer builds the token (None for every other token type), so a
    keyword test is one membership check.
    """

    __slots__ = ("type", "value", "line", "column", "upper")

    def __init__(
        self,
        type: TokenType,
        value: Any,
        line: int,
        column: int,
        upper: str | None = None,
    ) -> None:
        self.type = type
        self.value = value
        self.line = line
        self.column = column
        self.upper = upper

    def is_keyword(self, *words: str) -> bool:
        """True when this token is an identifier spelling one of *words*
        in any case; *words* are given upper-case."""
        return self.upper in words

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r}, {self.line}:{self.column})"
