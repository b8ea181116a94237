#!/usr/bin/env python3
"""biosens-lint: AST/token-level invariant checker for the measurement stack.

Enforces the project invariants that keep batches deterministic and
byte-identical (docs/static-analysis.md) at a level grep cannot reach:
the source is lexed into real C++ tokens, so string literals, comments,
macros split over lines, and identifiers that merely *contain* a banned
word can no longer fool the lint.

Checks (check-id -> invariant):
  throw-discipline        throw/try/catch confined to
                          src/common/{error,expected}.hpp
  span-temporary          every ObsSpan is a named local, never a
                          discarded temporary (which would destruct
                          immediately and record a zero-length span)
  determinism-discipline  std::rand, std::random_device, time(),
                          std::chrono::system_clock and <random> engines
                          confined to src/common/rng.* and src/obs/
  expected-discard        every call of a try_* function has its
                          Expected result consumed
  nodiscard-decl          every try_* declaration returning Expected<T>
                          carries [[nodiscard]]
  service-discipline      unbounded growth primitives (push_back,
                          emplace_back, push/emplace_front, .push(,
                          thread detach) confined to
                          src/service/bounded.hpp — every service
                          queue must carry a capacity
  transducer-discipline   src/core/ never names the electrochemical
                          simulators (electrochem::Cell and the
                          *Sim types) directly — core reaches
                          signal generation only through the
                          core::Transducer seam
  recorder-discipline     raw event machinery (EventPhase,
                          RecorderEvent, record_event) and health-reason
                          minting (add_reason) confined to src/obs/
  stale-suppression       every `biosens-lint: allow(...)` directive
                          must actually suppress a finding — an allow()
                          that matches nothing is dead weight that
                          silently blesses future regressions

Output format: file:line: [check-id] message

Suppressions: a `// biosens-lint: allow(check-id)` comment on the same
line or the immediately preceding line silences that check there.
Multiple ids: allow(a, b). A directive whose ids all belong to checks
that ran but which suppressed nothing is itself reported
(stale-suppression); directives naming foreign ids (biosens-graph
checks, skipped checks) are left alone.

Backends:
  --backend token   built-in C++ lexer (default; zero dependencies)
  --backend clang   libclang (clang.cindex) AST frontend; needs the
                    clang python bindings and a compile_commands.json
  --backend auto    clang when importable, token otherwise

Usage:
  tools/lint/biosens_lint.py [paths...]             # default: src
  tools/lint/biosens_lint.py --compdb build/compile_commands.json src
  tools/lint/biosens_lint.py --self-test            # fixture manifests
"""

from __future__ import annotations

import argparse
import bisect as _bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"

_PUNCTS = (
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
)


@dataclass
class Token:
    kind: str
    text: str
    line: int


@dataclass
class SourceFile:
    """One lexed translation-unit fragment (header or source file)."""

    path: str            # path on disk
    effective_path: str  # repo-relative path used for scoping rules
    tokens: list         # list[Token], comments/preprocessor excluded
    includes: list       # list[(line, header_name)] from #include <...>/"..."
    suppressions: dict   # line -> set of allowed check-ids ('*' = all)
    #: one record per allow() directive, for stale-suppression tracking:
    #: {"line": directive line, "ids": ids named, "lines": covered
    #:  lines, "used": ids that actually suppressed a finding}
    suppression_groups: list = field(default_factory=list)


_ALLOW_RE = re.compile(r"biosens-lint:\s*allow\(([^)]*)\)")
_FIXTURE_PATH_RE = re.compile(r"biosens-lint-fixture:\s*(\S+)")


def lex_file(path: str, effective_path: str | None = None) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return lex_text(text, path, effective_path)


def lex_text(text: str, path: str,
             effective_path: str | None = None) -> SourceFile:
    tokens: list[Token] = []
    includes: list[tuple[int, str]] = []
    suppressions: dict[int, set] = {}
    suppression_groups: list[dict] = []
    fixture_path = None

    # Precompute line numbers from offsets.
    nl_positions = [m.start() for m in re.finditer("\n", text)]

    def line_of(pos: int) -> int:
        return _bisect.bisect_right(nl_positions, pos - 1) + 1

    def note_comment(body: str, start_line: int) -> None:
        nonlocal fixture_path
        m = _ALLOW_RE.search(body)
        if m:
            ids = {s.strip() for s in m.group(1).split(",") if s.strip()}
            # The suppression covers its own line and the next code line.
            end_line = start_line + body.count("\n")
            covered = {start_line, end_line, end_line + 1}
            for ln in covered:
                suppressions.setdefault(ln, set()).update(ids)
            suppression_groups.append({"line": start_line, "ids": ids,
                                       "lines": covered, "used": set()})
        m = _FIXTURE_PATH_RE.search(body)
        if m:
            fixture_path = m.group(1)

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j == -1 else j
                note_comment(text[i:j], line_of(i))
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j == -1 else j
                note_comment(text[i:j], line_of(i))
                i = j + 2
                continue
        # Preprocessor directives: record #include targets, then skip the
        # (possibly continued) directive so macro bodies with banned
        # spellings do not leak into the token stream as code.  Checks
        # that need macro bodies (none today) would lex them separately.
        if c == "#":
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k == -1 else k
                if text[k - 1: k] == "\\":
                    j = k + 1
                    continue
                break
            directive = text[i:k]
            m = re.match(r'#\s*include\s*([<"])([^">]+)[">]', directive)
            if m:
                includes.append((line_of(i), m.group(2)))
            # Comments inside the directive still count for suppressions.
            cm = _ALLOW_RE.search(directive)
            if cm:
                note_comment(directive[cm.start():], line_of(i))
            i = k
            continue
        # String / char literals (incl. raw strings and common prefixes).
        m = re.match(r'(?:u8|[uUL])?R"([^()\\ \t\n]*)\(', text[i:])
        if m:
            delim = ")" + m.group(1) + '"'
            j = text.find(delim, i + m.end())
            j = n if j == -1 else j + len(delim)
            tokens.append(Token(STRING, text[i:j], line_of(i)))
            i = j
            continue
        m = re.match(r'(?:u8|[uUL])?"', text[i:])
        if m:
            j = i + m.end()
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token(STRING, text[i: j + 1], line_of(i)))
            i = j + 1
            continue
        if c == "'" or re.match(r"(?:u8|[uUL])'", text[i:]):
            j = i + (1 if c == "'" else
                     re.match(r"(?:u8|[uUL])'", text[i:]).end())
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token(CHAR, text[i: j + 1], line_of(i)))
            i = j + 1
            continue
        # Identifiers / keywords.
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[i:])
        if m:
            tokens.append(Token(IDENT, m.group(0), line_of(i)))
            i += m.end()
            continue
        # Numbers (pp-number is close enough for linting).
        m = re.match(r"\.?[0-9](?:[eEpP][+-]|[A-Za-z0-9_.'])*", text[i:])
        if m:
            tokens.append(Token(NUMBER, m.group(0), line_of(i)))
            i += m.end()
            continue
        # Punctuators, longest first.
        for p in _PUNCTS:
            if text.startswith(p, i):
                tokens.append(Token(PUNCT, p, line_of(i)))
                i += len(p)
                break
        else:
            tokens.append(Token(PUNCT, c, line_of(i)))
            i += 1

    return SourceFile(path=path,
                      effective_path=fixture_path or effective_path or path,
                      tokens=tokens, includes=includes,
                      suppressions=suppressions,
                      suppression_groups=suppression_groups)


# --------------------------------------------------------------------------
# Findings and scoping
# --------------------------------------------------------------------------

@dataclass
class Finding:
    path: str
    line: int
    check_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check_id}] {self.message}"


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def in_dirs(path: str, prefixes: tuple) -> bool:
    p = _norm(path)
    return any(p.startswith(pre) or f"/{pre}" in p for pre in prefixes)


def is_file(path: str, names: tuple) -> bool:
    p = _norm(path)
    return any(p == name or p.endswith("/" + name) for name in names)


# --------------------------------------------------------------------------
# Token-stream helpers
# --------------------------------------------------------------------------

def match_forward(tokens: list, i: int, opener: str, closer: str) -> int:
    """Index of the token closing the group opened at tokens[i]; -1 if
    unbalanced. Treats '>>' as two closers when matching '<'."""
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return j
        elif opener == "<" and t == ">>":
            depth -= 2
            if depth <= 0:
                return j
        elif opener == "<" and t in (";", "{"):
            return -1  # not a template argument list after all
    return -1


def skip_back_over_group(tokens: list, j: int) -> int:
    """Given tokens[j] a closing ')' or ']', return index before the
    matching opener; j unchanged if unbalanced."""
    pairs = {")": "(", "]": "["}
    opener = pairs[tokens[j].text]
    closer = tokens[j].text
    depth = 0
    for k in range(j, -1, -1):
        t = tokens[k].text
        if t == closer:
            depth += 1
        elif t == opener:
            depth -= 1
            if depth == 0:
                return k - 1
    return j


STATEMENT_BOUNDARY = {";", "{", "}", "else", "do", "then"}
CONSUMING_PREV = {
    "=", "return", "(", ",", "!", "&&", "||", "?", ":", "co_return",
    "co_await", "co_yield", "+", "-", "*", "/", "%", "<", ">", "<=",
    ">=", "==", "!=", "&", "|", "^", "<<", ">>", "[", "+=", "-=",
    "*=", "/=", "case",
}


# --------------------------------------------------------------------------
# Checks (token backend)
# --------------------------------------------------------------------------

class Check:
    check_id = ""

    def run(self, src: SourceFile) -> list:
        raise NotImplementedError


class ThrowDiscipline(Check):
    """throw/try/catch are confined to the error-core headers: everything
    else reports failure as an Expected value (docs/errors.md)."""

    check_id = "throw-discipline"
    ALLOWED = ("src/common/error.hpp", "src/common/expected.hpp")

    def run(self, src: SourceFile) -> list:
        if is_file(src.effective_path, self.ALLOWED):
            return []
        out = []
        for tok in src.tokens:
            if tok.kind == IDENT and tok.text in ("throw", "try", "catch"):
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    f"'{tok.text}' outside src/common/{{error,expected}}.hpp"
                    " — report failure through Expected<T> instead"))
        return out


class SpanTemporary(Check):
    """ObsSpan must be a named local: a discarded temporary destructs at
    the end of the full expression and records a zero-length span."""

    check_id = "span-temporary"
    ALLOWED_DIRS = ("src/obs/",)

    def run(self, src: SourceFile) -> list:
        if in_dirs(src.effective_path, self.ALLOWED_DIRS):
            return []
        out = []
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind != IDENT or tok.text != "ObsSpan":
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if nxt not in ("(", "{"):
                continue  # named local, reference, member type, ...
            prev = toks[i - 1].text if i > 0 else ""
            if prev == "new":  # heap span: caught as its own pattern below
                pass
            out.append(Finding(
                src.path, tok.line, self.check_id,
                "ObsSpan constructed as a discarded temporary — bind it "
                "to a named local so the span covers the scoped work"))
        return out


class DeterminismDiscipline(Check):
    """Nondeterminism sources are confined to common/rng (the one seeded
    generator) and obs/ (wall-clock timestamps are observability-only),
    so engine/sim-cache byte-identity cannot silently rot."""

    check_id = "determinism-discipline"
    ALLOWED_FILES = ("src/common/rng.hpp", "src/common/rng.cpp")
    ALLOWED_DIRS = ("src/obs/",)
    BANNED_IDENTS = {
        "random_device": "std::random_device is nondeterministic",
        "system_clock": "wall-clock reads are obs-only",
        "mt19937": "<random> engines vary across standard libraries",
        "mt19937_64": "<random> engines vary across standard libraries",
        "minstd_rand": "<random> engines vary across standard libraries",
        "minstd_rand0": "<random> engines vary across standard libraries",
        "ranlux24": "<random> engines vary across standard libraries",
        "ranlux48": "<random> engines vary across standard libraries",
        "ranlux24_base": "<random> engines vary across standard libraries",
        "ranlux48_base": "<random> engines vary across standard libraries",
        "knuth_b": "<random> engines vary across standard libraries",
        "default_random_engine": "implementation-defined engine",
    }
    BANNED_CALLS = {"rand", "srand", "time"}

    def run(self, src: SourceFile) -> list:
        if (is_file(src.effective_path, self.ALLOWED_FILES)
                or in_dirs(src.effective_path, self.ALLOWED_DIRS)):
            return []
        out = []
        for line, header in src.includes:
            if header == "random":
                out.append(Finding(
                    src.path, line, self.check_id,
                    "#include <random> outside common/rng — draw from "
                    "biosens::Rng so streams are reproducible"))
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind != IDENT:
                continue
            if tok.text in self.BANNED_IDENTS:
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    f"'{tok.text}' — {self.BANNED_IDENTS[tok.text]}; use "
                    "biosens::Rng (or keep clocks in src/obs/)"))
            elif tok.text in self.BANNED_CALLS:
                nxt = toks[i + 1].text if i + 1 < len(toks) else ""
                prev = toks[i - 1].text if i > 0 else ""
                if nxt != "(":
                    continue
                # `time(` is a common word: flag qualified std::time and
                # the classic time(nullptr/NULL/0) seed idiom only;
                # member calls like watch.time() stay legal.
                if tok.text == "time":
                    arg = toks[i + 2].text if i + 2 < len(toks) else ""
                    qualified = prev == "::" and i >= 2 and \
                        toks[i - 2].text == "std"
                    if not qualified and arg not in ("nullptr", "NULL", "0"):
                        continue
                if prev in (".", "->"):
                    continue  # member function of some other type
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    f"'{tok.text}()' is a nondeterministic seed source — "
                    "derive streams from biosens::Rng::child instead"))
        return out


class ExpectedDiscard(Check):
    """A try_* call whose Expected result is dropped loses the error it
    was designed to carry; consume it (or suppress with justification)."""

    check_id = "expected-discard"
    TRY_RE = re.compile(r"try_\w+$")

    def run(self, src: SourceFile) -> list:
        out = []
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind != IDENT or not self.TRY_RE.match(tok.text):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            close = match_forward(toks, i + 1, "(", ")")
            if close == -1 or close + 1 >= len(toks):
                continue
            after = toks[close + 1].text
            if after != ";":
                continue  # .value(), chained, compared, passed on, ...
            # Walk back over the object chain: a.b->c::try_x(...) and
            # get(i)[j].try_x(...) all reduce to the token before the
            # chain head. Only `.`/`->`/`::` extend the chain — a bare
            # `)` right before the call is an if/while/cast context.
            j = i - 1
            while j >= 0 and toks[j].text in (".", "->", "::"):
                j -= 1  # step over the connector
                while j >= 0 and toks[j].text in (")", "]"):
                    j = skip_back_over_group(toks, j)
                if j >= 0 and toks[j].kind in (IDENT, NUMBER):
                    j -= 1
            prev = toks[j].text if j >= 0 else "{"
            if prev in CONSUMING_PREV:
                continue
            # A type name / declarator right before the chain head means
            # this is a function declaration, not a discarded call:
            # `bool try_submit(Task&& t);`.
            if j >= 0 and (toks[j].kind == IDENT or prev in
                           (">", "*", "&", "]", "~")) and \
                    prev not in STATEMENT_BOUNDARY:
                continue
            # `(void)` explicit casts still count: the invariant is
            # "consumed", and the allow() comment is the audited escape.
            out.append(Finding(
                src.path, tok.line, self.check_id,
                f"result of '{tok.text}' is discarded — the Expected "
                "carries the failure; check it or bind it"))
        return out


class NodiscardDecl(Check):
    """Every try_* declaration returning Expected<T> must be
    [[nodiscard]] so dropped results also fail at compile time."""

    check_id = "nodiscard-decl"
    DECL_SPECIFIERS = {"static", "inline", "constexpr", "virtual",
                       "friend", "explicit", "typename", "const"}

    def run(self, src: SourceFile) -> list:
        if not src.effective_path.endswith((".hpp", ".h")):
            return []
        out = []
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind != IDENT or tok.text != "Expected":
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "<":
                continue
            close = match_forward(toks, i + 1, "<", ">")
            if close == -1:
                continue
            # Return statements and nested template args are not decls.
            prev_t = toks[i - 1].text if i > 0 else ""
            if prev_t in ("return", "<", ",", "(", "new"):
                continue
            if prev_t == "::":  # qualified use inside an expression
                i2 = i - 2
                while i2 >= 0 and toks[i2].kind == IDENT and i2 - 1 >= 0 \
                        and toks[i2 - 1].text == "::":
                    i2 -= 2
                prev_t = toks[i2 - 1].text if i2 > 0 else ""
                if prev_t in ("return", "<", ",", "(", "new"):
                    continue
            j = close + 1
            # Optional namespace/class qualification of the declared name.
            name_idx = -1
            while j + 1 < len(toks):
                if toks[j].kind == IDENT and toks[j + 1].text == "::":
                    j += 2
                    continue
                break
            if j < len(toks) and toks[j].kind == IDENT:
                name_idx = j
            if name_idx == -1 or not toks[name_idx].text.startswith("try_"):
                continue
            if name_idx + 1 >= len(toks) or toks[name_idx + 1].text != "(":
                continue
            # Out-of-line definitions (Class::try_x in a .cpp) carry the
            # attribute on their in-class declaration instead.
            if toks[name_idx - 1].text == "::" and name_idx - 2 > close:
                continue
            # Scan the decl-specifier run before `Expected` for `]]`.
            k = i - 1
            while k >= 0 and (
                    (toks[k].kind == IDENT
                     and toks[k].text in self.DECL_SPECIFIERS)
                    or toks[k].text == "::"
                    or (toks[k].kind == IDENT and k - 1 >= 0
                        and toks[k - 1].text == "::")):
                k -= 1
            if k >= 1 and toks[k].text == "]" and toks[k - 1].text == "]":
                continue  # [[nodiscard]] (or another attribute) present
            out.append(Finding(
                src.path, tok.line, self.check_id,
                f"'{toks[name_idx].text}' returns Expected but is not "
                "[[nodiscard]] — dropped results must fail to compile"))
        return out


class ServiceDiscipline(Check):
    """src/service/ is the resident, admission-controlled layer: every
    queue must be bounded so a tenant burst degrades into structured
    kOverloaded rejections instead of unbounded memory growth. Raw
    container-growth primitives (and fire-and-forget thread detach) are
    confined to src/service/bounded.hpp, the audited capacity-checked
    wrappers everything else must go through."""

    check_id = "service-discipline"
    SCOPE_DIRS = ("src/service/",)
    ALLOWED_FILES = ("src/service/bounded.hpp",)
    BANNED_GROWTH = {"push_back", "emplace_back", "push_front",
                     "emplace_front", "push"}

    def run(self, src: SourceFile) -> list:
        if not in_dirs(src.effective_path, self.SCOPE_DIRS):
            return []
        if is_file(src.effective_path, self.ALLOWED_FILES):
            return []
        out = []
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind != IDENT:
                continue
            banned = tok.text in self.BANNED_GROWTH or tok.text == "detach"
            if not banned:
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            # Only member calls count: `q.push_back(...)` / `t->push(...)`.
            # Names that merely contain the word (try_push_back) are
            # separate identifiers and never match.
            if prev not in (".", "->") or nxt != "(":
                continue
            if tok.text == "detach":
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    "thread '.detach()' in src/service/ — detached "
                    "threads outlive drain(); keep workers joinable and "
                    "owned by the pool"))
            else:
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    f"unbounded growth '.{tok.text}(' in src/service/ — "
                    "grow through BoundedDeque::try_push_* or "
                    "bounded_append (src/service/bounded.hpp) so the "
                    "queue carries a capacity"))
        return out


class TransducerDiscipline(Check):
    """src/core/ orchestrates measurements through the core::Transducer
    seam (docs/transducers.md); naming an electrochemical simulator type
    there re-couples core to one transduction family and breaks the
    multi-backend contract. The simulator types live behind
    src/electrochem/transducer.cpp, the amperometric implementation of
    the seam."""

    check_id = "transducer-discipline"
    SCOPE_DIRS = ("src/core/",)
    BANNED_TYPES = {"Cell", "ChronoamperometrySim", "VoltammetrySim",
                    "DifferentialPulseSim"}

    def run(self, src: SourceFile) -> list:
        if not in_dirs(src.effective_path, self.SCOPE_DIRS):
            return []
        out = []
        for tok in src.tokens:
            if tok.kind == IDENT and tok.text in self.BANNED_TYPES:
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    f"electrochemical simulator type '{tok.text}' named "
                    "in src/core/ — run signal generation through the "
                    "core::Transducer seam (docs/transducers.md)"))
        return out


class RecorderDiscipline(Check):
    """The flight recorder (the one event store) and the health model
    observe without perturbing, and that only holds while raw emission
    stays inside src/obs/: other layers record through ObsSpan,
    instant and async_end, attribute via FlightRecorder::ScopedContext,
    signal incidents via the trigger_* helpers, and describe their state
    through HealthInputs. Direct event construction (EventPhase,
    RecorderEvent, record_event) or reason fabrication (add_reason)
    outside src/obs/ bypasses the ring accounting and the policy
    thresholds (docs/operations.md)."""

    check_id = "recorder-discipline"
    SCOPE_DIRS = ("src/",)
    ALLOWED_DIRS = ("src/obs/",)
    BANNED = {"EventPhase", "record_event", "RecorderEvent", "add_reason"}

    def run(self, src: SourceFile) -> list:
        if not in_dirs(src.effective_path, self.SCOPE_DIRS):
            return []
        if in_dirs(src.effective_path, self.ALLOWED_DIRS):
            return []
        out = []
        for tok in src.tokens:
            if tok.kind == IDENT and tok.text in self.BANNED:
                out.append(Finding(
                    src.path, tok.line, self.check_id,
                    f"recorder/health primitive '{tok.text}' outside "
                    "src/obs/ — record through ObsSpan / instant / "
                    "async_end, attribute via "
                    "FlightRecorder::ScopedContext, signal via "
                    "trigger_overload / trigger_job_failure, and report "
                    "state through HealthInputs (docs/operations.md)"))
        return out


class StaleSuppression:
    """every `biosens-lint: allow(...)` directive must suppress a finding

    Driver-level check: lint_files() runs the token checks, lets
    apply_suppressions() record which directives fired, then reports the
    directives whose ids all name checks that ran yet caught nothing.
    Directives naming foreign ids (biosens-graph checks, or checks
    skipped via --check) are left alone — they may be live for a tool
    that is not running right now, so only this tool's own dead weight
    is flagged.
    """

    check_id = "stale-suppression"

    def run(self, src: SourceFile) -> list:
        return []  # needs post-suppression state; see the driver


ALL_CHECKS = [ThrowDiscipline(), SpanTemporary(),
              DeterminismDiscipline(), ExpectedDiscard(), NodiscardDecl(),
              ServiceDiscipline(),
              TransducerDiscipline(), RecorderDiscipline(),
              StaleSuppression()]
CHECK_IDS = {c.check_id for c in ALL_CHECKS}


# --------------------------------------------------------------------------
# Driver: file discovery, suppression filtering
# --------------------------------------------------------------------------

SOURCE_EXTS = (".hpp", ".h", ".cpp", ".cc", ".cxx")


def discover_files(paths: list, root: str) -> list:
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(full):
            for dirpath, _dirnames, filenames in os.walk(full):
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(full):
            files.append(full)
        else:
            print(f"biosens-lint: no such path: {p}", file=sys.stderr)
    return sorted(set(files))


def files_from_compdb(compdb_path: str) -> list:
    with open(compdb_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    files = set()
    for e in entries:
        f_ = e.get("file", "")
        full = f_ if os.path.isabs(f_) else \
            os.path.join(e.get("directory", "."), f_)
        if full.endswith(SOURCE_EXTS):
            files.add(os.path.normpath(full))
    return sorted(files)


def effective_path_for(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    return _norm(rel)


def apply_suppressions(src: SourceFile, findings: list) -> list:
    kept = []
    for f in findings:
        allowed = src.suppressions.get(f.line, set())
        if f.check_id in allowed or "*" in allowed:
            for g in src.suppression_groups:
                if f.line in g["lines"]:
                    if f.check_id in g["ids"]:
                        g["used"].add(f.check_id)
                    elif "*" in g["ids"]:
                        g["used"].add("*")
            continue
        kept.append(f)
    return kept


def stale_suppression_findings(src: SourceFile, ran_ids: set) -> list:
    """Directives that could have fired (every id names a check that
    ran) but suppressed nothing. `*` never counts as coverable: it may
    target any tool, so an unused allow(*) stays silent here."""
    active = ran_ids - {StaleSuppression.check_id}
    out = []
    for g in src.suppression_groups:
        if not g["ids"] or not g["ids"].issubset(active):
            continue
        if g["used"]:
            continue
        ids = ", ".join(sorted(g["ids"]))
        out.append(Finding(
            src.path, g["line"], StaleSuppression.check_id,
            f"suppression allow({ids}) matches no finding on the lines "
            "it covers — delete the directive (a dead allow() silently "
            "blesses the next real violation)"))
    return out


def _lint_one(path: str, eff: str | None, checks: list) -> list:
    src = lex_file(path, eff)
    per_file = []
    for check in checks:
        per_file.extend(check.run(src))
    kept = apply_suppressions(src, per_file)
    ran_ids = {c.check_id for c in checks}
    if StaleSuppression.check_id in ran_ids:
        kept.extend(apply_suppressions(
            src, stale_suppression_findings(src, ran_ids)))
    return kept


def _lint_one_task(task):  # module-level for multiprocessing pickling
    path, eff, check_ids = task
    checks = [c for c in ALL_CHECKS if c.check_id in check_ids]
    return _lint_one(path, eff, checks)


def lint_files(files: list, root: str, checks: list,
               fixture_mode: bool = False, jobs: int = 1) -> list:
    findings = []
    if jobs > 1 and len(files) > 1:
        import concurrent.futures
        check_ids = {c.check_id for c in checks}
        tasks = [(path,
                  None if fixture_mode else effective_path_for(path, root),
                  check_ids) for path in files]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(files))) as pool:
            for per_file in pool.map(_lint_one_task, tasks, chunksize=8):
                findings.extend(per_file)
    else:
        for path in files:
            eff = None if fixture_mode else effective_path_for(path, root)
            findings.extend(_lint_one(path, eff, checks))
    findings.sort(key=lambda f: (f.path, f.line, f.check_id))
    return findings


# --------------------------------------------------------------------------
# libclang backend (gated: requires the clang python bindings)
# --------------------------------------------------------------------------

class ClangUnavailable(RuntimeError):
    pass


def load_cindex():
    try:
        import clang.cindex as cindex  # noqa: F401
    except ImportError as e:
        raise ClangUnavailable(
            "python clang bindings not importable "
            f"({e}); install libclang + python3-clang or use "
            "--backend token") from e
    lib = os.environ.get("BIOSENS_LIBCLANG")
    if lib:
        cindex.Config.set_library_file(lib)
    return cindex


def lint_files_clang(files: list, root: str, compdb_path: str | None,
                     checks: list) -> list:
    """AST-level pass over the same checks via clang.cindex. Falls back
    (by raising ClangUnavailable) when the bindings or the parse are not
    usable; the caller downgrades to the token backend with a warning."""
    cindex = load_cindex()
    CursorKind = cindex.CursorKind

    comp_args: dict = {}
    if compdb_path:
        for e in json.load(open(compdb_path, encoding="utf-8")):
            f_ = os.path.normpath(os.path.join(e.get("directory", "."),
                                               e["file"]))
            args = e.get("arguments") or e.get("command", "").split()
            # Drop the compiler, the -o/-c targets and the input file.
            cleaned, skip = [], False
            for a in args[1:]:
                if skip:
                    skip = False
                    continue
                if a in ("-o", "-c"):
                    skip = a == "-o"
                    continue
                if a == f_ or a.endswith(os.path.basename(f_)):
                    continue
                cleaned.append(a)
            comp_args[f_] = cleaned

    index = cindex.Index.create()
    want_ids = {c.check_id for c in checks}
    findings: list = []

    banned_det = set(DeterminismDiscipline.BANNED_IDENTS)

    def loc(cursor):
        f = cursor.location.file
        return (f.name if f else "<unknown>"), cursor.location.line

    def in_lint_set(cursor) -> bool:
        f = cursor.location.file
        return f is not None and os.path.normpath(f.name) in lintable

    def has_nodiscard(cursor) -> bool:
        return any(ch.kind == CursorKind.WARN_UNUSED_RESULT_ATTR
                   for ch in cursor.get_children()) or \
            "[[nodiscard]]" in " ".join(
                t.spelling for t in cursor.get_tokens())[:200]

    lintable = {os.path.normpath(f) for f in files}
    tu_files = [f for f in files if f.endswith((".cpp", ".cc", ".cxx"))]

    for tu_path in tu_files:
        args = comp_args.get(os.path.normpath(tu_path),
                             ["-std=c++20", f"-I{os.path.join(root, 'src')}"])
        try:
            tu = index.parse(tu_path, args=args)
        except cindex.TranslationUnitLoadError as e:
            raise ClangUnavailable(f"parse failed for {tu_path}: {e}") from e

        hot_stack: list = []

        def visit(cursor, parent_is_stmt: bool):
            if not in_lint_set(cursor) and cursor.kind.is_translation_unit() \
                    is False and cursor.location.file is not None:
                pass  # still recurse: children may live in lintable headers
            path_, line = loc(cursor)
            eff = effective_path_for(path_, root) \
                if path_ != "<unknown>" else path_
            k = cursor.kind

            def emit(check_id, message):
                if check_id in want_ids and \
                        os.path.normpath(path_) in lintable:
                    findings.append(Finding(path_, line, check_id, message))

            if k in (CursorKind.CXX_THROW_EXPR, CursorKind.CXX_TRY_STMT,
                     CursorKind.CXX_CATCH_STMT) and \
                    not is_file(eff, ThrowDiscipline.ALLOWED):
                emit("throw-discipline",
                     "exception construct outside the error core")
            if k in (CursorKind.TYPE_REF, CursorKind.DECL_REF_EXPR) and \
                    cursor.spelling.split("::")[-1] in banned_det | \
                    {"rand", "srand"} and \
                    not in_dirs(eff, DeterminismDiscipline.ALLOWED_DIRS) \
                    and not is_file(eff, DeterminismDiscipline.ALLOWED_FILES):
                emit("determinism-discipline",
                     f"nondeterminism source '{cursor.spelling}'")
            if k == CursorKind.CALL_EXPR and \
                    cursor.spelling.startswith("try_") and parent_is_stmt:
                rt = cursor.type.spelling
                if "Expected<" in rt:
                    emit("expected-discard",
                         f"result of '{cursor.spelling}' is discarded")
            if k in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD) and \
                    cursor.spelling.startswith("try_") and \
                    "Expected<" in cursor.result_type.spelling and \
                    eff.endswith((".hpp", ".h")) and not has_nodiscard(cursor):
                emit("nodiscard-decl",
                     f"'{cursor.spelling}' returns Expected without "
                     "[[nodiscard]]")
            is_stmt_ctx = k == CursorKind.COMPOUND_STMT
            for child in cursor.get_children():
                visit(child, is_stmt_ctx)

        visit(tu.cursor, False)
        del hot_stack

    # The clang pass cannot see suppression comments or header-only
    # checks outside a TU; run the token backend for the remainder and
    # let it also provide suppression filtering for the AST findings.
    token_findings = lint_files(files, root, checks)
    merged = {(f.path, f.line, f.check_id): f
              for f in findings + token_findings}
    return sorted(merged.values(),
                  key=lambda f: (f.path, f.line, f.check_id))


# --------------------------------------------------------------------------
# Fixture self-test
# --------------------------------------------------------------------------

def run_self_test(fixtures_dir: str, verbose: bool = False) -> int:
    manifest_path = os.path.join(fixtures_dir, "expected.txt")
    if not os.path.isfile(manifest_path):
        print(f"biosens-lint: missing manifest {manifest_path}",
              file=sys.stderr)
        return 2
    expected = set()
    with open(manifest_path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            locpart, check_id = line.rsplit(" ", 1)
            expected.add((locpart, check_id))

    files = discover_files([fixtures_dir], root=fixtures_dir)
    findings = lint_files(files, fixtures_dir, ALL_CHECKS, fixture_mode=True)
    actual = {(f"{os.path.basename(f.path)}:{f.line}", f.check_id)
              for f in findings}

    missing = expected - actual
    extra = actual - expected
    for locpart, check_id in sorted(missing):
        print(f"self-test: expected finding not produced: "
              f"{locpart} [{check_id}]", file=sys.stderr)
    for locpart, check_id in sorted(extra):
        print(f"self-test: unexpected finding: {locpart} [{check_id}]",
              file=sys.stderr)
    ok = not missing and not extra
    n_clean = sum(1 for f in files if "clean" in os.path.basename(f))
    print(f"self-test: {len(files)} fixtures ({n_clean} clean), "
          f"{len(expected)} expected findings, "
          f"{len(actual)} produced -> {'OK' if ok else 'FAIL'}")
    if verbose:
        for f in findings:
            print("  " + f.render())
    return 0 if ok else 1


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biosens-lint",
        description="AST/token-level invariant checker "
                    "(docs/static-analysis.md)")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--root", default=None,
                        help="repository root for scoping rules "
                             "(default: two levels above this script)")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json (file list + clang args)")
    parser.add_argument("--backend", choices=["auto", "token", "clang"],
                        default="auto")
    parser.add_argument("--check", action="append", dest="checks",
                        metavar="CHECK-ID",
                        help="run only these check ids (repeatable)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="scan N files in parallel (token backend; "
                             "default 1). Output stays deterministic.")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="lint tools/lint/fixtures/ against its "
                             "expected-violation manifest")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(script_dir))

    if args.list_checks:
        for c in ALL_CHECKS:
            print(f"{c.check_id}: {(c.__doc__ or '').strip().splitlines()[0]}")
        return 0

    if args.self_test:
        return run_self_test(os.path.join(script_dir, "fixtures"),
                             verbose=args.verbose)

    checks = ALL_CHECKS
    if args.checks:
        unknown = set(args.checks) - CHECK_IDS
        if unknown:
            print(f"biosens-lint: unknown check ids: {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        checks = [c for c in ALL_CHECKS if c.check_id in set(args.checks)]

    if args.jobs < 1:
        print(f"biosens-lint: --jobs must be >= 1 (got {args.jobs})",
              file=sys.stderr)
        return 2

    if args.compdb and not args.paths:
        try:
            files = files_from_compdb(args.compdb)
        except (OSError, ValueError, KeyError) as e:
            print(f"biosens-lint: cannot read compile database "
                  f"{args.compdb}: {e}", file=sys.stderr)
            return 2
    else:
        files = discover_files(args.paths or ["src"], root)
    if not files:
        print("biosens-lint: no source files found", file=sys.stderr)
        return 2

    backend = args.backend
    if backend == "auto":
        try:
            load_cindex()
            backend = "clang"
        except ClangUnavailable:
            backend = "token"

    if backend == "clang":
        try:
            findings = lint_files_clang(files, root, args.compdb, checks)
        except ClangUnavailable as e:
            if args.backend == "clang":
                print(f"biosens-lint: clang backend unavailable: {e}",
                      file=sys.stderr)
                return 2
            print(f"biosens-lint: falling back to token backend ({e})",
                  file=sys.stderr)
            findings = lint_files(files, root, checks, jobs=args.jobs)
    else:
        findings = lint_files(files, root, checks, jobs=args.jobs)

    for f in findings:
        print(f.render())
    summary = (f"biosens-lint[{backend}]: {len(files)} files, "
               f"{len(checks)} checks, {len(findings)} finding(s)")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
