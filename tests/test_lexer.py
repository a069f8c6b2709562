"""Unit tests for the ESL-EV lexer."""

import pytest

from repro.core.language.lexer import tokenize
from repro.core.language.tokens import TokenType
from repro.dsms.errors import EslSyntaxError


def kinds(text):
    return [t.type for t in tokenize(text)[:-1]]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasics:
    def test_idents_and_keywords_are_idents(self):
        assert kinds("SELECT foo") == [TokenType.IDENT, TokenType.IDENT]

    def test_eof_terminated(self):
        assert tokenize("")[-1].type is TokenType.EOF

    def test_numbers(self):
        assert values("1 2.5 1e3 2.5e-1") == [1, 2.5, 1000.0, 0.25]

    def test_integer_stays_int(self):
        tokens = tokenize("42")
        assert tokens[0].value == 42
        assert isinstance(tokens[0].value, int)

    def test_strings_with_escaped_quote(self):
        assert values("'it''s'") == ["it's"]

    def test_unterminated_string(self):
        with pytest.raises(EslSyntaxError):
            tokenize("'oops")

    def test_punctuation(self):
        assert kinds("( ) [ ] , ; .") == [
            TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACKET,
            TokenType.RBRACKET, TokenType.COMMA, TokenType.SEMICOLON,
            TokenType.DOT,
        ]

    def test_star_token(self):
        assert kinds("*") == [TokenType.STAR]

    def test_unexpected_char(self):
        with pytest.raises(EslSyntaxError):
            tokenize("SELECT @")


class TestOperators:
    def test_two_char_operators(self):
        assert values("<= >= <> != || :=") == [
            "<=", ">=", "<>", "!=", "||", ":=",
        ]

    def test_one_char_operators(self):
        assert values("= < > + - / %") == ["=", "<", ">", "+", "-", "/", "%"]

    def test_unicode_comparisons_normalized(self):
        # The paper's typeset queries use ≤ and ≥.
        assert values("a ≤ 5") == ["a", "<=", 5]
        assert values("a ≥ 5") == ["a", ">=", 5]

    def test_dotted_reference(self):
        assert values("r1.tagid") == ["r1", ".", "tagid"]

    def test_decimal_vs_dot(self):
        # "1.5" is a number; "r1.5"? identifiers cannot contain dots.
        assert values("1.5") == [1.5]
        assert kinds("x.5") == [TokenType.IDENT, TokenType.DOT, TokenType.NUMBER]


class TestCommentsAndPositions:
    def test_line_comment(self):
        assert values("SELECT -- comment\n x") == ["SELECT", "x"]

    def test_block_comment(self):
        assert values("SELECT /* anything \n at all */ x") == ["SELECT", "x"]

    def test_unterminated_block_comment(self):
        with pytest.raises(EslSyntaxError):
            tokenize("/* never closed")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    def test_is_keyword_case_insensitive(self):
        token = tokenize("select")[0]
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")

    def test_mixed_case_keywords_match(self):
        select, mode, recent = tokenize("sElEcT mode Recent")[:3]
        assert select.is_keyword("SELECT") and select.upper == "SELECT"
        assert select.value == "sElEcT"  # the spelling itself is kept
        assert mode.is_keyword("OVER", "MODE")
        assert recent.is_keyword("RECENT")

    def test_string_literal_is_never_a_keyword(self):
        token = tokenize("'select'")[0]
        assert token.type is TokenType.STRING
        assert token.upper is None
        assert not token.is_keyword("SELECT")

    def test_only_identifiers_carry_an_upper_spelling(self):
        tokens = tokenize("x = 1 , 'y'")[:-1]
        assert [t.upper for t in tokens] == ["X", None, None, None, None]


class TestPaperQueries:
    def test_example1_lexes(self):
        text = """
        INSERT INTO cleaned_readings
        SELECT * FROM readings AS r1
        WHERE NOT EXISTS
        (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
         WHERE r2.reader_id = r1.reader_id
           AND r2.tag_id = r1.tag_id)
        """
        tokens = tokenize(text)
        assert tokens[-1].type is TokenType.EOF
        assert any(t.is_keyword("PRECEDING") for t in tokens[:-1])

    def test_example7_star_and_le(self):
        text = "WHERE SEQ(R1*, R2) MODE CHRONICLE AND R2.tagtime - LAST(R1*).tagtime ≤ 5 SECONDS"
        tokens = tokenize(text)
        stars = [t for t in tokens if t.type is TokenType.STAR]
        assert len(stars) == 2
        assert any(t.type is TokenType.OPERATOR and t.value == "<=" for t in tokens)
