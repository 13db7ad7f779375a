#!/usr/bin/env python3
"""Repo-specific lint for ssjoin. Runs as the `ssjoin_lint` ctest test.

Rules (scope: the directories named in RULE_SCOPES):

  no-raw-rand          `rand()` / `std::rand` / `srand` make experiments
                       irreproducible across platforms; use the seeded PCG32
                       in util/random.h.
  no-assert            `assert(` vanishes in NDEBUG builds *silently*; use
                       SSJOIN_CHECK / SSJOIN_DCHECK (util/check.h), which
                       are explicit about their build-mode behavior and
                       print file:line with a formatted message.
  pragma-once          every header uses `#pragma once` (no #ifndef-style
                       include guards, no unguarded headers).
  no-using-namespace   `using namespace` in a header leaks into every
                       includer; fully qualify or alias instead.
  no-dropped-status    a bare-statement call to a util::Status-returning
                       guardrail/IO function (Checkpoint, CheckBreaker,
                       SaveSetsBinary, ...) silently discards a trip or an
                       IO failure; propagate it (SSJOIN_RETURN_NOT_OK,
                       assign, or branch on it).
  no-raw-timing        src/core must not time joins with a raw Stopwatch
                       (util/timer.h) or <chrono> clock reads; every
                       driver is timed once per stage, by the stage
                       ledger (obs::Stage), so spans, metrics and
                       JoinStats stay in one place.
                       execution_guard.{h,cc} are exempt (deadline
                       enforcement needs a wall clock, not telemetry).
  no-unchecked-io      a bare-statement call to a C stdio / POSIX write
                       primitive (fwrite, fflush, fclose, fsync, ...)
                       discards the only notification of a short write or
                       a full disk; consume the result (branch on it or
                       fold it into a Status). Destructor-style
                       best-effort closes may suppress with an allow
                       marker and a justification.
  telemetry-registry   every span / attribute / metric / explain name
                       emitted as a string literal from src/ must be
                       registered in src/obs/stability.h (the single
                       vocabulary the exporters, the explain layer, and
                       downstream diff tooling agree on). Emissions through
                       obs::names:: constants are registered by
                       construction; a raw literal that is not in the
                       registry is a typo or an unregistered name.

Usage:
  tools/lint/ssjoin_lint.py [--root REPO_ROOT] [--list-rules]

Exit status: 0 clean, 1 violations (printed as file:line: rule: message),
2 usage error. Suppress a single line with a trailing
`// ssjoin-lint: allow(<rule>)` comment — use sparingly and justify it in
an adjacent comment.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# rule name -> directories (relative to repo root) it applies to.
RULE_SCOPES = {
    "no-raw-rand": ("src", "tools", "bench", "examples"),
    "no-assert": ("src",),
    "pragma-once": ("src", "tools", "bench", "tests"),
    "no-using-namespace": ("src", "tools", "bench"),
    "no-dropped-status": ("src", "tools", "bench", "examples"),
    # Scoped tighter than a top-level directory: see NO_RAW_TIMING_PREFIX.
    "no-raw-timing": ("src",),
    "no-unchecked-io": ("src", "tools", "bench"),
    "telemetry-registry": ("src",),
}

# telemetry-registry: the registry file and the emission seams it guards.
STABILITY_HEADER = ("src", "obs", "stability.h")
# Methods/functions whose first string-literal argument is a telemetry
# name: JoinTelemetry (Sample/Attr/Event/AddCount/SetGauge; Phase/Time
# stay listed), Tracer (StartSpan/SetAttr/AddEvent), MetricsRegistry
# (counter/gauge/histogram), the explain seams (SetParam/Predict/
# Actual + the null-safe RecordActual wrapper), and the structured-log
# seams (Logger::Log / the null-safe LogEvent wrapper, whose event name
# is the first literal after the level). Calls that pass a
# names:: constant (or any non-literal) are skipped — they are registered
# by construction.
TELEMETRY_CALL_RE = re.compile(
    r"(?<![\w:])(?:StartSpan|AddCount|SetGauge|SetAttr|AddEvent|"
    r"Attr|LogEvent|Log|Event|Sample|Phase|Time|counter|gauge|histogram|"
    r"RecordActual|SetParam|Predict|Actual)"
    r"\s*\(")
STRING_LIT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

# no-raw-timing applies only below this prefix, minus the exempt files —
# the guard needs a real clock for deadlines; everything else in src/core
# times joins through obs::JoinTelemetry.
NO_RAW_TIMING_PREFIX = ("src", "core")
NO_RAW_TIMING_EXEMPT = {"execution_guard.h", "execution_guard.cc"}

ALLOW_RE = re.compile(r"//\s*ssjoin-lint:\s*allow\(([a-z-]+)\)")

# Lint self-test fixtures: deliberately-bad sources that must never be
# linted as part of the real tree. `--self-test` runs the linter over
# FIXTURE_DIR ("regex" subtree) and diffs the findings against
# `// expect(<rule>)` markers in the fixtures.
FIXTURE_PREFIX = ("tests", "lint", "fixtures")
FIXTURE_DIR = ("tests", "lint", "fixtures", "regex")
EXPECT_RE = re.compile(r"//\s*expect\(([a-z-]+)\)")

RAW_RAND_RE = re.compile(r"(?<![\w:.])(std\s*::\s*)?s?rand\s*\(")
ASSERT_RE = re.compile(r"(?<![\w:.])(assert\s*\(|static_assert\s*\()")
CASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](cassert|assert\.h)[>"]')
USING_NAMESPACE_RE = re.compile(r"(?<!\w)using\s+namespace\s+[\w:]+")
INCLUDE_GUARD_RE = re.compile(r"#\s*ifndef\s+\w*_H_?\b")
# Functions whose util::Status return must not be discarded. A line that
# consists of nothing but such a call (optionally through `obj.` / `ptr->`)
# followed by `;` drops the Status on the floor: a guard trip or an IO
# failure would vanish. `return f(...)`, `auto s = f(...)`,
# `SSJOIN_RETURN_NOT_OK(f(...))` and `if (f(...).ok())` all keep the value
# and do not match (the call is then not the start of the statement).
STATUS_FUNCTIONS = ("Checkpoint", "CheckBreaker", "SaveSetsBinary",
                    "SavePairsBinary", "Validate")
DROPPED_STATUS_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:\w+(?:\.|->))?(%s)\s*\(.*\)\s*;\s*$"
    % "|".join(STATUS_FUNCTIONS))
# Raw timing machinery forbidden in src/core: the util/timer.h include
# (where Stopwatch lives) and direct <chrono> clock reads. `#include
# <chrono>` alone is also flagged — stage time comes from the stage
# ledger (obs::Stage), sample time from a JoinTelemetry scope.
# I/O primitives whose int/size_t result is the only report of a short
# write, ENOSPC, or a buffered-write failure surfacing at flush/close.
# A line that is nothing but such a call (even behind a `(void)` cast)
# throws that report away. Member-style calls (`out.write(...)` on a
# stream whose state is checked afterwards) deliberately do not match.
IO_FUNCTIONS = ("fwrite", "fread", "fflush", "fclose", "fsync",
                "fdatasync", "ftruncate", "pwrite", "pread")
UNCHECKED_IO_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:std\s*::\s*)?(%s)\s*\(.*\)\s*;\s*$"
    % "|".join(IO_FUNCTIONS))
TIMER_INCLUDE_RE = re.compile(r'#\s*include\s*"util/timer\.h"')
CHRONO_INCLUDE_RE = re.compile(r"#\s*include\s*<chrono>")
CHRONO_CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*\w*clock\w*\s*::\s*now\s*\(")


def strip_comments(text: str) -> str:
    """Blanks out comments but keeps string literals, preserving line
    structure — the telemetry-registry rule needs to read the literal
    names that strip_comments_and_strings would blank."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            span = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so the regex rules only see code. A trailing line comment is
    kept when it is an ssjoin-lint allow marker (checked separately)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            span = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(" " * (j + 1 - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[tuple[Path, int, str, str]] = []
        self.telemetry_registry = self._load_telemetry_registry()

    def _load_telemetry_registry(self) -> set[str] | None:
        """Every string literal in src/obs/stability.h (comments stripped)
        is a registered telemetry name. None disables the rule (header
        missing, e.g. a partial checkout)."""
        path = self.root.joinpath(*STABILITY_HEADER)
        if not path.is_file():
            return None
        code = strip_comments(
            path.read_text(encoding="utf-8", errors="replace"))
        return {m.group(1) for m in STRING_LIT_RE.finditer(code)}

    def report(self, path: Path, line: int, rule: str, message: str):
        self.violations.append((path, line, rule, message))

    def in_scope(self, rule: str, rel: Path) -> bool:
        if rule == "no-raw-timing":
            return (rel.parts[: len(NO_RAW_TIMING_PREFIX)]
                    == NO_RAW_TIMING_PREFIX
                    and rel.name not in NO_RAW_TIMING_EXEMPT)
        return rel.parts and rel.parts[0] in RULE_SCOPES[rule]

    def lint_file(self, path: Path):
        rel = path.relative_to(self.root)
        raw = path.read_text(encoding="utf-8", errors="replace")
        code = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        code_lines = code.splitlines()

        def allowed(lineno: int, rule: str) -> bool:
            line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            m = ALLOW_RE.search(line)
            return bool(m and m.group(1) == rule)

        for lineno, line in enumerate(code_lines, start=1):
            if self.in_scope("no-raw-rand", rel) and RAW_RAND_RE.search(line):
                if not allowed(lineno, "no-raw-rand"):
                    self.report(rel, lineno, "no-raw-rand",
                                "use the seeded Rng from util/random.h, not "
                                "rand()/srand()")
            if self.in_scope("no-assert", rel):
                m = ASSERT_RE.search(line)
                if m and not m.group(1).startswith("static_assert"):
                    if not allowed(lineno, "no-assert"):
                        self.report(rel, lineno, "no-assert",
                                    "use SSJOIN_CHECK/SSJOIN_DCHECK from "
                                    "util/check.h instead of assert()")
                if CASSERT_INCLUDE_RE.search(line):
                    if not allowed(lineno, "no-assert"):
                        self.report(rel, lineno, "no-assert",
                                    "do not include <cassert>; use "
                                    "util/check.h")
            if self.in_scope("no-dropped-status", rel):
                m = DROPPED_STATUS_RE.match(line)
                if m and not allowed(lineno, "no-dropped-status"):
                    self.report(rel, lineno, "no-dropped-status",
                                f"util::Status returned by {m.group(1)}() is "
                                "discarded; propagate it "
                                "(SSJOIN_RETURN_NOT_OK / assign / branch)")
            if self.in_scope("no-unchecked-io", rel):
                m = UNCHECKED_IO_RE.match(line)
                if m and not allowed(lineno, "no-unchecked-io"):
                    self.report(rel, lineno, "no-unchecked-io",
                                f"result of {m.group(1)}() is discarded — a "
                                "short write / ENOSPC / deferred flush error "
                                "vanishes; consume it (branch or fold into a "
                                "Status)")
            if self.in_scope("no-raw-timing", rel):
                # The include path is a string literal, which the stripper
                # blanks — match it on the raw line instead.
                raw_line = (raw_lines[lineno - 1]
                            if lineno - 1 < len(raw_lines) else "")
                if (TIMER_INCLUDE_RE.search(raw_line)
                        or CHRONO_INCLUDE_RE.search(line)
                        or CHRONO_CLOCK_RE.search(line)):
                    if not allowed(lineno, "no-raw-timing"):
                        self.report(rel, lineno, "no-raw-timing",
                                    "src/core times joins through the "
                                    "stage ledger (obs::Stage), not raw "
                                    "util/timer.h or std::chrono clocks "
                                    "(execution_guard is the only "
                                    "exemption)")
            if (self.in_scope("no-using-namespace", rel)
                    and path.suffix in HEADER_SUFFIXES
                    and USING_NAMESPACE_RE.search(line)
                    and not allowed(lineno, "no-using-namespace")):
                self.report(rel, lineno, "no-using-namespace",
                            "headers must not contain `using namespace`")

        if (self.telemetry_registry is not None
                and self.in_scope("telemetry-registry", rel)
                and rel.parts != STABILITY_HEADER):
            with_strings = strip_comments(raw)
            for m in TELEMETRY_CALL_RE.finditer(with_strings):
                # The name argument is the first string literal of the
                # statement (calls may wrap across lines). No literal =
                # a names:: constant or a runtime value — registered by
                # construction or out of this rule's reach.
                stmt = with_strings[m.end() : m.end() + 240].split(";", 1)[0]
                lit = STRING_LIT_RE.search(stmt)
                if not lit:
                    continue
                name = lit.group(1)
                if name in self.telemetry_registry:
                    continue
                lineno = with_strings[: m.start()].count("\n") + 1
                if not allowed(lineno, "telemetry-registry"):
                    self.report(rel, lineno, "telemetry-registry",
                                f'telemetry name "{name}" is not registered '
                                "in src/obs/stability.h (add it to the "
                                "names:: vocabulary or emit a registered "
                                "constant)")

        if (path.suffix in HEADER_SUFFIXES
                and self.in_scope("pragma-once", rel)):
            if "#pragma once" not in raw:
                self.report(rel, 1, "pragma-once",
                            "header lacks `#pragma once`")
            m = INCLUDE_GUARD_RE.search(code)
            if m:
                lineno = code[: m.start()].count("\n") + 1
                if not allowed(lineno, "pragma-once"):
                    self.report(rel, lineno, "pragma-once",
                                "use `#pragma once`, not #ifndef include "
                                "guards (repo convention)")

    def collect_files(self) -> list[Path]:
        scopes = sorted({d for dirs in RULE_SCOPES.values() for d in dirs})
        return sorted(
            p
            for scope in scopes
            for p in (self.root / scope).rglob("*")
            if p.is_file() and p.suffix in SOURCE_SUFFIXES
            and p.relative_to(self.root).parts[: len(FIXTURE_PREFIX)]
            != FIXTURE_PREFIX
        )

    def run(self) -> int:
        files = self.collect_files()
        if not files:
            print(f"ssjoin_lint: no sources found under {self.root}",
                  file=sys.stderr)
            return 2
        for path in files:
            self.lint_file(path)
        for rel, lineno, rule, message in self.violations:
            print(f"{rel}:{lineno}: {rule}: {message}")
        if self.violations:
            print(f"ssjoin_lint: {len(self.violations)} violation(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"ssjoin_lint: OK ({len(files)} files)")
        return 0


def run_self_test(repo_root: Path) -> int:
    """Lints tests/lint/fixtures/regex (a miniature repo layout full of
    deliberate violations) and diffs the findings against the fixtures'
    `// expect(<rule>)` markers. Fixtures without markers but with
    `// ssjoin-lint: allow(...)` comments prove suppression works: a
    broken allow-path shows up here as an UNEXPECTED finding."""
    fixture_root = repo_root.joinpath(*FIXTURE_DIR)
    if not fixture_root.is_dir():
        print(f"ssjoin_lint: self-test fixture tree missing: {fixture_root}",
              file=sys.stderr)
        return 2

    linter = Linter(fixture_root)
    files = linter.collect_files()
    for path in files:
        linter.lint_file(path)
    actual = {(str(rel), lineno, rule)
              for rel, lineno, rule, _ in linter.violations}

    expected: set[tuple[str, int, str]] = set()
    rules_covered: set[str] = set()
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in EXPECT_RE.finditer(line):
                rel = str(path.relative_to(fixture_root))
                expected.add((rel, lineno, m.group(1)))
                rules_covered.add(m.group(1))

    missing_rules = set(RULE_SCOPES) - rules_covered
    ok = True
    if missing_rules:
        print(f"ssjoin_lint self-test: fixtures exercise no violation for: "
              f"{', '.join(sorted(missing_rules))}", file=sys.stderr)
        ok = False
    for miss in sorted(expected - actual):
        print(f"ssjoin_lint self-test: MISSED expected finding: "
              f"{miss[0]}:{miss[1]} [{miss[2]}]", file=sys.stderr)
        ok = False
    for extra in sorted(actual - expected):
        print(f"ssjoin_lint self-test: UNEXPECTED finding: "
              f"{extra[0]}:{extra[1]} [{extra[2]}]", file=sys.stderr)
        ok = False
    if not ok:
        return 1
    print(f"ssjoin_lint self-test OK: {len(expected)} expected findings "
          f"matched across {len(files)} fixtures, all "
          f"{len(RULE_SCOPES)} rules fire, suppressions honored")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and scopes, then exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against "
                        "tests/lint/fixtures/regex")
    args = parser.parse_args()
    if args.list_rules:
        for rule, dirs in RULE_SCOPES.items():
            print(f"{rule}: {', '.join(dirs)}")
        return 0
    root = args.root.resolve()
    if args.self_test:
        return run_self_test(root)
    if not (root / "src").is_dir():
        print(f"ssjoin_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
