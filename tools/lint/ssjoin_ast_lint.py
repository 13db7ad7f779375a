#!/usr/bin/env python3
"""AST-level lint for the ssjoin codebase.

Complements the regex lint (tools/lint/ssjoin_lint.py) with rules that
need structure — function extents, call graphs, class member lists —
rather than single-line pattern matches.

Rules
-----
  deterministic-iteration  Range-for over std::unordered_map/unordered_set
                           (or their multi variants) inside a function
                           that can reach a result sink (Write*/Save*
                           exporters). Unordered iteration order is not
                           part of the determinism contract (DESIGN.md
                           Section 7); anything on a path to external
                           bytes must iterate a sorted container or sort
                           before emitting.
  no-unjoined-thread       std::thread / std::jthread outside
                           util/thread_pool.{h,cc}. All parallelism goes
                           through ThreadPool so threads are always
                           joined and exceptions are propagated.
  status-must-use          A call to a Status/Result-returning function
                           used as a bare expression statement. Mirrors
                           the class-level [[nodiscard]] on
                           util::Status; `(void)Call();` is the explicit
                           opt-out.
  mutex-wrapper-only       Bare <mutex>/<condition_variable> vocabulary
                           (std::mutex, std::lock_guard, ...) outside
                           util/thread_annotations.h. The util::Mutex /
                           util::MutexLock / util::CondVar wrappers carry
                           the Clang Thread Safety capability
                           annotations; bare std primitives are invisible
                           to -Wthread-safety.
  guarded-by-required      In a class that owns a util::Mutex, every
                           mutable data member must carry
                           SSJOIN_GUARDED_BY / SSJOIN_PT_GUARDED_BY or an
                           explicit allow-comment. Clang's analysis can
                           only check annotations that exist; this rule
                           makes *deleting* a GUARDED_BY a test failure
                           (members of atomic, Mutex, CondVar, or const
                           type are exempt — they need no capability).

Suppression: append `// ssjoin-lint: allow(<rule>)` to the offending
line, with a justification.

Parser
------
  A dependency-free lexer + scope tracker with a name-based call graph.
  It needs nothing beyond the Python standard library, so the ctest
  entry and CI enforce the same rules everywhere.

Exit codes: 0 clean, 1 findings, 2 configuration error.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import re
import sys
from pathlib import Path

RULES = (
    "deterministic-iteration",
    "no-unjoined-thread",
    "status-must-use",
    "mutex-wrapper-only",
    "guarded-by-required",
)

# Directories (relative to --root) each rule patrols.
RULE_SCOPES = {
    "deterministic-iteration": ("src",),
    "no-unjoined-thread": ("src", "tools"),
    "status-must-use": ("src", "tools"),
    "mutex-wrapper-only": ("src", "tools"),
    "guarded-by-required": ("src",),
}

# Files exempt from a rule outright (the implementation sites).
RULE_EXEMPT_FILES = {
    "no-unjoined-thread": ("src/util/thread_pool.h", "src/util/thread_pool.cc"),
    "mutex-wrapper-only": ("src/util/thread_annotations.h",),
}

# Result sinks: functions whose output is externally visible bytes. A
# function "reaches a sink" when its name-based call graph can reach one
# of these (or it is one).
SINK_FUNCTIONS = frozenset({
    "WriteTextFile", "WriteTraceJsonl", "WriteMetricsJsonl",
    "WriteChromeTrace", "WriteJsonlReport", "WriteTraceAuto",
    "WriteExplainJsonl", "SaveStrings", "SaveSets", "SaveSetsBinary",
})

ALLOW_RE = re.compile(r"//\s*ssjoin-lint:\s*allow\(([a-z-]+)\)")

SCAN_DIRS = ("src", "tools")
SCAN_SUFFIXES = (".h", ".cc")

THREAD_RE = re.compile(r"\bstd\s*::\s*(jthread|thread)\b(?!\s*::)")
MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(recursive_timed_mutex|recursive_mutex|shared_timed_mutex|"
    r"shared_mutex|timed_mutex|mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable_any|condition_variable|call_once|"
    r"once_flag)\b")
UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b")
STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]|\bstatic\s|\bfriend\s)\s*(?:::)?(?:ssjoin\s*::\s*)?"
    r"(?:Status|Result\s*<[^;{}()]*>)\s+([A-Za-z_]\w*)\s*\(", re.M)
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "catch", "alignof",
    "noexcept", "decltype", "assert", "defined", "new", "delete", "throw",
    "case", "do", "else", "goto", "not", "and", "or", "co_await",
    "co_return", "co_yield", "static_assert", "requires",
})
SPECIFIER_WORDS = frozenset({
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "try",
})


@dataclasses.dataclass
class Finding:
    rule: str
    file: str   # path relative to root, posix separators
    line: int   # 1-based
    message: str

    def key(self):
        return (self.file, self.line, self.rule)


@dataclasses.dataclass
class FunctionFact:
    file: str
    line: int
    name: str
    qualname: str
    calls: set
    unordered_fors: list  # [(line, expr_text)]


@dataclasses.dataclass
class MemberFact:
    file: str
    line: int
    name: str
    guarded: bool
    exempt: bool


@dataclasses.dataclass
class ClassFact:
    file: str
    line: int
    name: str
    has_mutex: bool
    members: list


@dataclasses.dataclass
class RepoFacts:
    functions: list = dataclasses.field(default_factory=list)
    classes: list = dataclasses.field(default_factory=list)
    thread_uses: list = dataclasses.field(default_factory=list)  # (file, line, what)
    mutex_uses: list = dataclasses.field(default_factory=list)   # (file, line, what)
    status_fn_names: set = dataclasses.field(default_factory=set)
    discards: list = dataclasses.field(default_factory=list)     # (file, line, callee)


# ---------------------------------------------------------------------------
# Shared text utilities
# ---------------------------------------------------------------------------

def strip_code(text):
    """Blanks comments, string/char literal contents, and preprocessor
    directives with spaces, preserving every offset and newline so
    positions in the result map 1:1 to the original."""
    out = list(text)
    n = len(text)
    i = 0
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    out[i] = out[i + 1] = " "
                    i += 2
                    break
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            continue
        if c == '"' and i > 0 and text[i - 1] == "R":
            m = re.match(r'R"([^()\s\\"]{0,16})\(', text[i - 1:i + 20])
            if m:
                delim = ")" + m.group(1) + '"'
                end = text.find(delim, i + 1)
                end = n if end < 0 else end + len(delim)
                for j in range(i + 1, end - 1 if end < n else n):
                    if text[j] != "\n":
                        out[j] = " "
                i = end
                continue
        if c == '"' or c == "'":
            if c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEFxX" \
                    and i + 1 < n and text[i + 1].isalnum():
                i += 1  # digit separator, e.g. 1'000'000
                continue
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
            continue
        i += 1
    # Blank preprocessor directives (including \-continuations).
    lines = "".join(out).split("\n")
    j = 0
    while j < len(lines):
        if lines[j].lstrip().startswith("#"):
            while True:
                cont = lines[j].rstrip().endswith("\\")
                lines[j] = " " * len(lines[j])
                if not cont or j + 1 >= len(lines):
                    break
                j += 1
        j += 1
    return "\n".join(lines)


def make_line_index(text):
    offsets = [0]
    for m in re.finditer("\n", text):
        offsets.append(m.end())
    return offsets


def line_of(offsets, pos):
    return bisect.bisect_right(offsets, pos)


def skip_angles(code, i):
    """From code[i] == '<', returns the index just past the matching '>'
    (heuristic template-argument scan)."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            if i > 0 and code[i - 1] == "-":  # ->
                i += 1
                continue
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return i  # gave up: not a template argument list
        i += 1
    return n


def match_paren_back(s, close):
    """Index of the '(' matching s[close] == ')'. -1 if unbalanced."""
    depth = 0
    for i in range(close, -1, -1):
        if s[i] == ")":
            depth += 1
        elif s[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


def top_level_colon(s):
    """Index of the first ':' at paren depth 0 that is not part of '::',
    or -1. Used to find constructor initializer lists."""
    depth = 0
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < n and s[i + 1] == ":":
                i += 2
                continue
            if i > 0 and s[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def function_header_name(seg):
    """If `seg` (text between the previous ;/{/} and a '{') looks like a
    function definition header, returns the function's unqualified name;
    otherwise None."""
    s = re.sub(r"^\s*(?:public|private|protected)\s*:", " ", seg).strip()
    # Constructor initializer list: analyze only the declarator part.
    colon = top_level_colon(s)
    if colon >= 0:
        left = s[:colon].strip()
        if left.endswith(")") or re.search(r"\)\s*\w+$", left):
            s = left
        else:
            return None  # base-clause of a class, label, ...
    guard = 0
    while guard < 24:
        guard += 1
        s = s.strip()
        if not s:
            return None
        m = re.search(r"\b(" + "|".join(SPECIFIER_WORDS) + r")\s*$", s)
        if m:
            s = s[:m.start()]
            continue
        m = re.search(r"->\s*[\w:<>,\s*&()]+$", s)
        if m and not s.endswith(")"):
            s = s[:m.start()]
            continue
        if s.endswith(")"):
            op = match_paren_back(s, len(s) - 1)
            if op <= 0:
                return None
            before = s[:op]
            m = re.search(r"([\w~]+)\s*$", before)
            if not m:
                return None
            word = m.group(1)
            if word.startswith("SSJOIN_") or word in ("noexcept", "throw",
                                                      "alignas"):
                s = before[:m.start()]
                continue
            if word in KEYWORDS or word in ("class", "struct", "union",
                                            "enum", "namespace"):
                return None
            return word
        return None
    return None


def class_header_name(seg):
    s = re.sub(r"^\s*(?:public|private|protected)\s*:", " ", seg)
    kw = re.search(r"\b(class|struct|union)\b", s)
    if not kw:
        return None
    paren = s.find("(")
    if 0 <= paren < kw.start():
        return None
    colon = top_level_colon(s[kw.end():])
    head = s[kw.end():kw.end() + colon] if colon >= 0 else s[kw.end():]
    words = [w for w in re.findall(r"[A-Za-z_]\w*", head) if w != "final"]
    return words[-1] if words else None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

MEMBER_RE = re.compile(
    r"\b([A-Za-z_]\w*_)\s*"
    r"((?:SSJOIN_\w+\s*\([^()]*\)\s*)*)"
    r"(=[^;]*)?$")
MEMBER_EXEMPT_RE = re.compile(
    r"std\s*::\s*atomic\b|\bMutex\b|\bCondVar\b|\bconst\b|\bstatic\b|"
    r"\bconstexpr\b|\busing\b|\bfriend\b|\btypedef\b")
MUTEX_MEMBER_RE = re.compile(r"\bMutex\s+[A-Za-z_]\w*_?\s*$")


class _Scope:
    __slots__ = ("kind", "name", "start")

    def __init__(self, kind, name="", start=-1):
        self.kind = kind
        self.name = name
        self.start = start


def parse_file(relpath, code, offsets, facts, unordered_vars,
               unordered_fns):
    """One pass over the stripped text: functions (extents, calls,
    range-fors), classes (member annotations), and token-level rules."""
    n = len(code)
    stack = []
    functions = []   # (FunctionFact, body_start); extents patched on close
    classes = []     # (ClassFact, body_start)
    open_records = []  # parallel to stack: record or None

    i = 0
    while i < n:
        ch = code[i]
        if ch == "{":
            in_fn = any(s.kind in ("function", "block") for s in stack)
            if in_fn:
                stack.append(_Scope("block"))
                open_records.append(None)
                i += 1
                continue
            seg_start = max(code.rfind(";", 0, i), code.rfind("{", 0, i),
                            code.rfind("}", 0, i))
            seg = code[seg_start + 1:i]
            if re.search(r"\benum\b", seg):
                stack.append(_Scope("enum"))
                open_records.append(None)
            else:
                fn = function_header_name(seg)
                if fn is not None:
                    qual = "::".join([s.name for s in stack
                                      if s.kind == "class"] + [fn])
                    rec = FunctionFact(relpath, line_of(offsets, i), fn, qual,
                                       set(), [])
                    stack.append(_Scope("function", fn, i))
                    open_records.append(rec)
                    functions.append((rec, i))
                else:
                    cls = class_header_name(seg)
                    if cls is not None:
                        rec = ClassFact(relpath, line_of(offsets, i), cls,
                                        False, [])
                        stack.append(_Scope("class", cls, i))
                        open_records.append(rec)
                        classes.append((rec, i))
                    elif re.search(r"\bnamespace\b", seg):
                        stack.append(_Scope("namespace"))
                        open_records.append(None)
                    else:
                        stack.append(_Scope("other"))
                        open_records.append(None)
            i += 1
            continue
        if ch == "}":
            if stack:
                scope = stack.pop()
                rec = open_records.pop()
                if rec is not None:
                    rec.end = i  # attach extent
            i += 1
            continue
        i += 1

    for rec, start in functions:
        end = getattr(rec, "end", n)
        body = code[start + 1:end]
        analyze_function_body(rec, body, start + 1, offsets, unordered_vars,
                              unordered_fns)
        facts.functions.append(rec)
    for rec, start in classes:
        end = getattr(rec, "end", n)
        analyze_class_body(rec, code[start + 1:end], start + 1, offsets)
        facts.classes.append(rec)

    for m in THREAD_RE.finditer(code):
        facts.thread_uses.append((relpath, line_of(offsets, m.start()),
                                  "std::" + m.group(1)))
    for m in MUTEX_RE.finditer(code):
        facts.mutex_uses.append((relpath, line_of(offsets, m.start()),
                                 "std::" + m.group(1)))
    for m in STATUS_DECL_RE.finditer(code):
        facts.status_fn_names.add(m.group(1))


def analyze_function_body(rec, body, base, offsets, unordered_vars,
                          unordered_fns):
    for m in CALL_RE.finditer(body):
        name = m.group(1)
        if name not in KEYWORDS:
            rec.calls.add(name)
    for m in re.finditer(r"\bfor\s*\(", body):
        open_paren = m.end() - 1
        depth = 0
        j = open_paren
        while j < len(body):
            if body[j] == "(":
                depth += 1
            elif body[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        inner = body[open_paren + 1:j]
        colon = top_level_colon(inner)
        if colon < 0:
            continue
        expr = inner[colon + 1:].strip()
        if range_expr_is_unordered(expr, unordered_vars, unordered_fns):
            rec.unordered_fors.append(
                (line_of(offsets, base + m.start()), expr))


def range_expr_is_unordered(expr, unordered_vars, unordered_fns):
    if "unordered_" in expr:
        return True
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    if m and m.group(1) in unordered_vars:
        return True
    m = re.search(r"([A-Za-z_]\w*)\s*\(\s*\)\s*$", expr)
    if m and m.group(1) in unordered_fns:
        return True
    return False


def analyze_class_body(rec, body, base, offsets):
    """Collapses nested braces to ';' (length-preserving) and inspects the
    class's direct member declarations."""
    out = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
            out.append(";" if depth == 1 else ("\n" if ch == "\n" else " "))
            continue
        if ch == "}":
            depth -= 1
            out.append(" ")
            continue
        if depth > 0:
            out.append("\n" if ch == "\n" else " ")
        else:
            out.append(ch)
    flat = "".join(out)

    pos = 0
    for seg in flat.split(";"):
        seg_off = pos
        pos += len(seg) + 1
        text = re.sub(r"^\s*(?:public|private|protected)\s*:", " ", seg)
        stripped = text.rstrip()
        if not stripped:
            continue
        m = MEMBER_RE.search(stripped)
        if not m:
            continue
        name = m.group(1)
        prefix = stripped[:m.start(1)]
        if not prefix.strip():
            continue  # bare identifier, not a declaration
        if "(" in re.sub(r"SSJOIN_\w+\s*\([^()]*\)", " ",
                         stripped[m.start(1):]):
            continue  # function declarator, not a data member
        # Search from the right so an identical token inside the type
        # (e.g. a template argument) cannot shadow the declarator.
        name_off = base + seg_off + seg.rfind(name)
        line = line_of(offsets, name_off)
        if MUTEX_MEMBER_RE.search(prefix + name):
            rec.has_mutex = True
            continue
        exempt = bool(MEMBER_EXEMPT_RE.search(prefix))
        guarded = "GUARDED_BY" in m.group(2)
        rec.members.append(MemberFact(rec.file, line, name, guarded, exempt))


DISCARD_RE = re.compile(
    r"^(\(\s*void\s*\)\s*)?((?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*)"
    r"([A-Za-z_]\w*)\s*\(")


def collect_discards(relpath, code, offsets, facts):
    """Bare expression statements whose top-level call target might return
    Status/Result. Filtered against the declared-name set later."""
    for m in re.finditer(r"[;{}]", code):
        start = m.end()
        end = code.find(";", start)
        if end < 0:
            continue
        brace = min((p for p in (code.find("{", start), code.find("}", start))
                     if 0 <= p < end), default=-1)
        if brace >= 0:
            continue  # not a simple statement
        seg = code[start:end].strip()
        if not seg or not seg.endswith(")"):
            continue
        dm = DISCARD_RE.match(seg)
        if not dm:
            continue
        callee = dm.group(3)
        if callee in KEYWORDS or dm.group(2).split("::")[0].strip() in KEYWORDS:
            continue
        if dm.group(1):
            continue  # (void) cast: explicit discard, sanctioned
        if match_paren_back(seg, len(seg) - 1) != dm.end() - 1:
            continue  # trailing ')' closes something other than this call
        stmt_off = start + (len(code[start:end]) - len(code[start:end].lstrip()))
        facts.discards.append((relpath, line_of(offsets, stmt_off), callee))


def paired_header(path):
    h = path.with_suffix(".h")
    return h if h.exists() else None


def collect_facts(root, files, verbose):
    facts = RepoFacts()
    stripped_cache = {}

    def stripped(path):
        if path not in stripped_cache:
            stripped_cache[path] = strip_code(
                path.read_text(encoding="utf-8", errors="replace"))
        return stripped_cache[path]

    for path in files:
        relpath = path.relative_to(root).as_posix()
        code = stripped(path)
        offsets = make_line_index(code)
        uv, uf = set(), set()
        sources = [code]
        if path.suffix == ".cc":
            hdr = paired_header(path)
            if hdr is not None:
                sources.append(stripped(hdr))
        for src in sources:
            collect_unordered_decls(src, uv, uf)
        parse_file(relpath, code, offsets, facts, uv, uf)
        collect_discards(relpath, code, offsets, facts)
        if verbose:
            print(f"  [parse] {relpath}", file=sys.stderr)
    return facts


def collect_unordered_decls(code, out_vars, out_fns):
    aliases = set(re.findall(
        r"\busing\s+(\w+)\s*=\s*std\s*::\s*unordered_", code))
    for m in UNORDERED_RE.finditer(code):
        j = code.find("<", m.end())
        if j < 0 or code[m.end():j].strip():
            continue
        j = skip_angles(code, j)
        dm = re.match(r"\s*[*&]*\s*([A-Za-z_]\w*)", code[j:])
        if not dm:
            continue
        name = dm.group(1)
        after = code[j + dm.end():].lstrip()
        if after.startswith("("):
            out_fns.add(name)
        else:
            out_vars.add(name)
    for alias in aliases:
        for dm in re.finditer(r"\b" + re.escape(alias) +
                              r"\b\s*[*&]?\s*([a-z_]\w*)\s*[;={(]", code):
            name = dm.group(1)
            if code[dm.end() - 1] == "(":
                out_fns.add(name)
            else:
                out_vars.add(name)


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------

def reaches_sink(facts):
    """Name-level call graph reachability to SINK_FUNCTIONS. Returns the
    set of function names that can reach a sink, mapped to one witness."""
    graph = {}
    for fn in facts.functions:
        if fn.name:
            graph.setdefault(fn.name, set()).update(fn.calls)
    witness = {name: name for name in SINK_FUNCTIONS}
    changed = True
    while changed:
        changed = False
        for name, calls in graph.items():
            if name in witness:
                continue
            for callee in calls:
                if callee in witness:
                    witness[name] = witness[callee]
                    changed = True
                    break
    return witness


def evaluate_rules(facts):
    findings = []
    witness = reaches_sink(facts)

    for fn in facts.functions:
        if not fn.unordered_fors:
            continue
        sink = witness.get(fn.name) if fn.name else None
        if fn.name in SINK_FUNCTIONS:
            sink = fn.name
        if sink is None:
            continue
        for line, expr in fn.unordered_fors:
            findings.append(Finding(
                "deterministic-iteration", fn.file, line,
                f"range-for over unordered container in '{fn.qualname}', "
                f"which reaches result sink '{sink}'; iterate a sorted "
                f"container or sort before emitting"))

    for file, line, what in facts.thread_uses:
        findings.append(Finding(
            "no-unjoined-thread", file, line,
            f"raw {what} (use util::ThreadPool so threads are joined and "
            f"exceptions propagate)"))

    for file, line, callee in facts.discards:
        if callee in facts.status_fn_names:
            findings.append(Finding(
                "status-must-use", file, line,
                f"result of Status-returning '{callee}' is discarded; use "
                f"SSJOIN_RETURN_NOT_OK, branch on it, or cast to (void)"))

    for file, line, what in facts.mutex_uses:
        findings.append(Finding(
            "mutex-wrapper-only", file, line,
            f"bare {what}; use util::Mutex / util::MutexLock / util::CondVar "
            f"from util/thread_annotations.h so -Wthread-safety sees it"))

    for cls in facts.classes:
        if not cls.has_mutex:
            continue
        for member in cls.members:
            if member.guarded or member.exempt:
                continue
            findings.append(Finding(
                "guarded-by-required", cls.file, member.line,
                f"member '{member.name}' of mutex-owning class '{cls.name}' "
                f"lacks SSJOIN_GUARDED_BY (annotate, make it atomic/const, "
                f"or allow with a justification)"))
    return findings


def filter_findings(findings, root):
    """Applies per-rule directory scopes, file exemptions, allow-comments,
    and de-duplication."""
    line_cache = {}

    def raw_lines(relfile):
        if relfile not in line_cache:
            try:
                line_cache[relfile] = (root / relfile).read_text(
                    encoding="utf-8", errors="replace").split("\n")
            except OSError:
                line_cache[relfile] = []
        return line_cache[relfile]

    kept = []
    seen = set()
    for f in sorted(findings, key=lambda f: (f.file, f.line, f.rule)):
        if f.key() in seen:
            continue
        seen.add(f.key())
        scopes = RULE_SCOPES.get(f.rule, ())
        if scopes and not any(f.file == s or f.file.startswith(s + "/")
                              for s in scopes):
            continue
        if f.file in RULE_EXEMPT_FILES.get(f.rule, ()):
            continue
        lines = raw_lines(f.file)
        if 1 <= f.line <= len(lines):
            m = ALLOW_RE.search(lines[f.line - 1])
            if m and m.group(1) == f.rule:
                continue
        kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root, scan_dirs):
    files = []
    for d in scan_dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SCAN_SUFFIXES and path.is_file():
                if "fixtures" in path.relative_to(root).parts:
                    continue
                files.append(path)
    return files


def run_lint(root, files, verbose):
    return filter_findings(evaluate_rules(collect_facts(root, files, verbose)),
                           root)


EXPECT_RE = re.compile(r"//\s*expect\(([a-z-]+)\)")


def run_self_test(root, verbose):
    """Runs the parser over tests/lint/fixtures/ast and diffs findings
    against `// expect(<rule>)` markers in the fixtures."""
    fixture_root = root / "tests" / "lint" / "fixtures" / "ast"
    if not fixture_root.is_dir():
        print(f"self-test: fixture tree missing: {fixture_root}",
              file=sys.stderr)
        return 2

    expected = set()
    rules_covered = set()
    for path in sorted(fixture_root.rglob("*")):
        if path.suffix not in SCAN_SUFFIXES:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").split("\n"), start=1):
            for m in EXPECT_RE.finditer(line):
                rule = m.group(1)
                expected.add((path.relative_to(fixture_root).as_posix(),
                              lineno, rule))
                rules_covered.add(rule)

    missing_rules = set(RULES) - rules_covered
    if missing_rules:
        print(f"self-test: fixtures exercise no violation for: "
              f"{', '.join(sorted(missing_rules))}", file=sys.stderr)
        return 1

    # Fixtures double as the lint's own scope tree (fixtures/ast/src/...).
    files = [p for d in SCAN_DIRS if (fixture_root / d).is_dir()
             for p in sorted((fixture_root / d).rglob("*"))
             if p.suffix in SCAN_SUFFIXES]
    actual = {(f.file, f.line, f.rule)
              for f in run_lint(fixture_root, files, verbose)}

    ok = True
    for miss in sorted(expected - actual):
        print(f"self-test: MISSED expected finding: {miss[0]}:{miss[1]} "
              f"[{miss[2]}]", file=sys.stderr)
        ok = False
    for extra in sorted(actual - expected):
        print(f"self-test: UNEXPECTED finding: {extra[0]}:{extra[1]} "
              f"[{extra[2]}]", file=sys.stderr)
        ok = False
    if ok:
        print(f"ssjoin_ast_lint self-test OK: "
              f"{len(expected)} expected findings matched, all "
              f"{len(RULES)} rules fire, suppressions honored")
        return 0
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="AST-level lint for the ssjoin codebase")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against tests/lint/fixtures/ast")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = args.root.resolve()
    if args.self_test:
        return run_self_test(root, args.verbose)

    files = collect_files(root, SCAN_DIRS)
    if not files:
        print(f"ssjoin_ast_lint: no sources found under {root} in "
              f"{SCAN_DIRS}", file=sys.stderr)
        return 2
    findings = run_lint(root, files, args.verbose)

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"\nssjoin_ast_lint: {len(findings)} finding(s). Suppress a "
              f"justified case with '// ssjoin-lint: allow(<rule>)'.",
              file=sys.stderr)
        return 1
    print("ssjoin_ast_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
