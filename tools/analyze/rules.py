"""Rule registry, findings, and inline waivers.

A rule is a callable registered under a unique name; it receives a
SourceFile (lexed lines + repo-relative path) and yields Findings. The
registry is the single source of truth consumed by the CLI, the fixture
tests, and the docs table in DESIGN.md section 16.

Waivers: a finding is waived by a comment on the same physical line,

    // analyze: allow(rule-name) -- justification

(the legacy `// lint: allow(rule-name)` spelling from the old regex
linter is still honored, so existing waivers keep working). The waiver is part
of the diff and shows up in review; the analyzer records waived findings
in the JSON report but never fails on them.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Iterable, Iterator

from tools.analyze import lexer

_ALLOW_RE = re.compile(
    r"//\s*(?:analyze|lint):\s*allow\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


@dataclasses.dataclass
class Finding:
    file: str  # repo-relative posix path
    line: int  # 1-based
    rule: str
    message: str
    code: str = ""  # the offending code text (lexed), for baseline keys
    waived: bool = False

    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def render(self) -> str:
        tag = " (waived)" if self.waived else ""
        return f"{self.file}:{self.line}: [{self.rule}]{tag} {self.message}"


class SourceFile:
    """A lexed file plus its repo-relative identity."""

    def __init__(self, rel: str, lines: list[lexer.CodeLine]):
        self.rel = rel
        self.lines = lines
        self._text = None

    @classmethod
    def from_path(cls, root, rel: str) -> "SourceFile":
        return cls(rel, lexer.scan_file(root / rel))

    @classmethod
    def from_text(cls, rel: str, text: str) -> "SourceFile":
        return cls(rel, lexer.scan(text))

    def code_text(self) -> str:
        """Whole-file code text (comments/strings blanked), cached."""
        if self._text is None:
            self._text = "\n".join(line.code for line in self.lines)
        return self._text

    def waivers_on(self, lineno: int) -> set[str]:
        """Waivers covering `lineno`: on the line itself, or in the
        contiguous block of comment-only lines directly above it (where
        multi-line justifications live)."""
        waivers = self._collect_allows(lineno)
        k = lineno - 1
        while k >= 1 and self.lines[k - 1].raw.lstrip().startswith("//"):
            waivers |= self._collect_allows(k)
            k -= 1
        return waivers

    def _collect_allows(self, lineno: int) -> set[str]:
        m = _ALLOW_RE.search(self.lines[lineno - 1].raw)
        if m is None:
            return set()
        return {r.strip() for r in m.group("rules").split(",")}


@dataclasses.dataclass
class Rule:
    name: str
    doc: str  # one-line "what + why" shown by --list-rules
    check: Callable[[SourceFile], Iterable[Finding]]


_REGISTRY: dict[str, Rule] = {}


def register(name: str, doc: str):
    """Decorator: registers `fn(SourceFile) -> Iterable[Finding]`."""

    def wrap(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate rule name: {name}")
        _REGISTRY[name] = Rule(name=name, doc=doc, check=fn)
        return fn

    return wrap


def all_rules() -> list[Rule]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_rules(names: Iterable[str] | None) -> list[Rule]:
    if names is None:
        return all_rules()
    unknown = sorted(set(names) - set(_REGISTRY))
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
    return [_REGISTRY[name] for name in sorted(set(names))]


def run_rules(source: SourceFile,
              rules: Iterable[Rule]) -> Iterator[Finding]:
    """Runs rules over one file, resolving inline waivers."""
    for rule in rules:
        for finding in rule.check(source):
            if rule.name in source.waivers_on(finding.line):
                finding.waived = True
            if not finding.code and 1 <= finding.line <= len(source.lines):
                finding.code = source.lines[finding.line - 1].code.strip()
            yield finding
