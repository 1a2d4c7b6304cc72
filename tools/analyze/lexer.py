"""Comment/string/raw-string-aware C++ line scanner.

The old regex linter stripped comments with per-line regex heuristics
and a "this codebase never mixes code and block comments on one line"
assumption. This lexer drops the assumptions: it walks the file once,
character by character, tracking

  - // line comments,
  - /* ... */ block comments (any nesting of lines, code after the
    closing marker on the same line is kept),
  - "..." and '...' literals with escape handling,
  - R"delim( ... )delim" raw strings (the delimiter is captured, so a
    `)"` inside the raw body does not terminate it),

and emits, per physical line, the code text with comment and literal
*contents* blanked out. Literal quotes are kept as empty tokens (`""`)
so token boundaries survive; everything else keeps its column position,
which keeps rule regexes honest about word boundaries.

The scanner also records #include targets per line, which the layering
rule consumes without re-parsing.
"""

from __future__ import annotations

import dataclasses
import re

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]')
# Raw-string opener: an R (optionally u8R/uR/UR/LR) followed by "delim(.
_RAW_OPEN_RE = re.compile(r'(?:u8|u|U|L)?R"([^()\\ \t\v\f\n]{0,16})\(')


@dataclasses.dataclass
class CodeLine:
    """One physical line of a scanned file."""

    lineno: int  # 1-based
    code: str  # comment/string contents blanked out
    raw: str  # the original line (waiver comments live here)
    include: str | None  # #include target, if the line is an include


def scan(text: str) -> list[CodeLine]:
    """Lexes `text` into CodeLines. Never raises on malformed input:
    an unterminated construct simply swallows the rest of the file,
    which is also what a compiler would effectively do."""
    lines: list[CodeLine] = []
    code_chars: list[str] = []
    raw_chars: list[str] = []
    lineno = 1

    # Scanner state across characters.
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_delim = ""  # active raw-string delimiter

    def flush_line() -> None:
        nonlocal code_chars, raw_chars, lineno
        raw = "".join(raw_chars)
        code = "".join(code_chars)
        # Includes are matched against the RAW line: the code view blanks
        # string contents, which would erase the very path we need.
        m = _INCLUDE_RE.match(raw)
        lines.append(
            CodeLine(lineno=lineno, code=code, raw=raw,
                     include=m.group(1) if m else None))
        code_chars = []
        raw_chars = []
        lineno += 1

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        raw_chars.append(ch) if ch != "\n" else None

        if ch == "\n":
            if state == LINE_COMMENT:
                state = NORMAL
            flush_line()
            i += 1
            continue

        if state == NORMAL:
            if ch == "/" and i + 1 < n and text[i + 1] == "/":
                state = LINE_COMMENT
                i += 2
                raw_chars.append("/")
                continue
            if ch == "/" and i + 1 < n and text[i + 1] == "*":
                state = BLOCK_COMMENT
                i += 2
                raw_chars.append("*")
                continue
            m = _RAW_OPEN_RE.match(text, i) if ch in "RuUL" else None
            if m is not None:
                state = RAW_STRING
                raw_delim = m.group(1)
                skip = m.end() - i
                raw_chars.extend(text[i + 1:m.end()])
                code_chars.append('""')  # empty token placeholder
                i = m.end()
                continue
            if ch == '"':
                state = STRING
                code_chars.append('""')
                i += 1
                continue
            if ch == "'":
                state = CHAR
                code_chars.append("''")
                i += 1
                continue
            code_chars.append(ch)
            i += 1
            continue

        if state in (LINE_COMMENT, BLOCK_COMMENT):
            if state == BLOCK_COMMENT and ch == "*" and i + 1 < n and \
                    text[i + 1] == "/":
                state = NORMAL
                i += 2
                raw_chars.append("/")
                continue
            i += 1
            continue

        if state == STRING or state == CHAR:
            quote = '"' if state == STRING else "'"
            if ch == "\\" and i + 1 < n:
                if text[i + 1] != "\n":
                    raw_chars.append(text[i + 1])
                i += 2
                continue
            if ch == quote:
                state = NORMAL
            i += 1
            continue

        # RAW_STRING: look for )delim"
        closer = ")" + raw_delim + '"'
        if text.startswith(closer, i):
            raw_chars.extend(closer[1:])
            state = NORMAL
            i += len(closer)
            continue
        i += 1

    if raw_chars or code_chars:
        flush_line()
    return lines


def scan_file(path) -> list[CodeLine]:
    return scan(path.read_text(encoding="utf-8"))
