"""Project invariant analyzer: the static-analysis layer clang cannot see.

Clang Thread Safety Analysis (common/sync.h + the thread-safety CI job)
enforces lock discipline; clang-tidy enforces general C++ hygiene. This
package enforces the invariants that are *project* contracts — bit-exact
determinism, the single sanctioned home for each dangerous primitive,
the layering of the include graph — none of which a generic tool can
know about. See DESIGN.md section 16 for the architecture and the
rule -> bug-class table.

Components:
  lexer.py      comment/string/raw-string-aware C++ line scanner; rules
                only ever see real code text, so a rule name in a comment
                or a log string can never fire.
  rules.py      Finding, the rule registry, and inline-waiver parsing
                (`// analyze: allow(rule) -- why`; the legacy
                `// lint: allow(rule)` spelling still works).
  cpp_rules.py  the concrete rules.
  baseline.py   committed-findings baseline: load/save/diff keyed on
                (file, rule, code-text hash, occurrence) so findings
                survive unrelated line drift but not edits to the line.
  __main__.py   CLI: scan, JSON report, baseline gating.

Entry point: `python3 -m tools.analyze` from the repo root. Exit status
1 iff any finding is neither waived inline nor present in the committed
baseline.
"""
