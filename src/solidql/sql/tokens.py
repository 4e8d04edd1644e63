"""The one lexer of the SELECT dialect.

``TOKEN`` is a single compiled pattern; each match is one named group:
skipped text (whitespace and closed comments), a string, a quoted
identifier, a number, an identifier, an operator, or an error: an
unterminated comment or quote, which swallows the rest of the text, or a
stray character. :func:`scan` turns the matches into four parallel
lists, the token types, texts, lowercase texts and character offsets,
ending with an ``EOF`` token, and raises ``ParseError`` on an error
match; the parser reads these lists by position, most often the
lowercase texts. The ORDER BY scan in :mod:`solidql.evaluation`
iterates the same pattern and never raises. Keyword classification is
left to the parser so that identifiers that collide with soft keywords
keep working.

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


def scan(text: str) -> tuple[list[str], list[str], list[str], list[int]]:
    """The types, texts, lowercase texts and offsets of the tokens of ``text``.

    Four parallel lists, each ending with the ``EOF`` token's entry.

    Raises:
        ParseError: on an unterminated comment or quote, or a stray
            character, at its offset.
    """
    types: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    add_type, add_text, add_offset = types.append, texts.append, offsets.append
    for match in TOKEN.finditer(text):
        kind = match.lastgroup
        if kind != SKIP:
            add_type(kind)
            add_text(match[0])
            add_offset(match.start())
    if ERROR in types:
        i = types.index(ERROR)
        first = texts[i][0]
        raise ParseError(_UNTERMINATED.get(first, f"unexpected character {first!r}"), offsets[i])
    types.append(EOF)
    texts.append("")
    offsets.append(len(text))
    return types, texts, list(map(str.lower, texts)), offsets

