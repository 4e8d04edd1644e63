"""The one lexer of the SELECT dialect.

``TOKEN`` is a single compiled pattern; each match is one named group:
skipped text (whitespace and closed comments), a string, a quoted
identifier, a number, an identifier, an operator, or an error: an
unterminated comment or quote, which swallows the rest of the text, or a
stray character. :func:`tokenize` turns the matches into a token list
with character offsets and raises ``ParseError`` on an error match; the
ORDER BY scan in :mod:`solidql.evaluation` iterates the same pattern and
never raises. Keyword classification is left to the parser so that
identifiers that collide with soft keywords keep working.

As in SQLite, a doubled quote inside a string (``''``) or a quoted
identifier (``""``, or two backquotes inside backquotes) stands for the
quote itself; ``[…]`` has no escape. Character classes are Python's:
whitespace is ``\\s`` (``str.isspace``), and an identifier is a run of
``\\w`` (``str.isalnum`` or ``_``) whose first character is not a
digit. A digit is a decimal digit only (``\\d``, ``str.isdecimal``), so
any other numeral, such as ``²`` or ``½``, is an identifier character,
as every non-ASCII character is in SQLite.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

SKIP = "skip"
STRING = "string"
QIDENT = "qident"
NUMBER = "number"
IDENT = "ident"
ERROR = "error"
EOF = "eof"

# Each group is named after the token type it yields. The lookahead after a
# closing quote keeps a quoted span from ending at the first quote of a
# doubled pair. An atomic group would do the same; the lookahead is kept so
# that every statement still tokenizes exactly as it did.
TOKEN = re.compile(
    r"""(?P<skip>\s+|--[^\n]*|/\*.*?\*/)
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<qident>"[^"]*(?:""[^"]*)*"(?!")|`[^`]*(?:``[^`]*)*`(?!`)|\[[^\]]*\])
    |(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<ident>[^\W\d]\w*)
    |(?P<op><>|!=|>=|<=|[-=<>(),.+*%;]|/(?!\*))
    |(?P<error>/\*.*|['"`\[].*|.)""",
    re.DOTALL | re.VERBOSE,
)

_UNTERMINATED = {
    "/": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "`": "unterminated quoted identifier",
    "[": "unterminated quoted identifier",
}


class Token(NamedTuple):
    type: str
    text: str
    offset: int
    lower: str


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with an ``EOF`` token.

    Raises:
        ParseError: on an unterminated comment or quote, or a stray
            character, at its offset.
    """
    tokens = []
    for match in TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == SKIP:
            continue
        word = match.group()
        if kind == ERROR:
            first = word[0]
            raise ParseError(_UNTERMINATED.get(first, f"unexpected character {first!r}"), match.start())
        tokens.append(Token(kind, word, match.start(), word.lower()))
    tokens.append(Token(EOF, "", len(text), ""))
    return tokens
