#!/usr/bin/env python3
"""biosens-lint: per-file and whole-program invariant checker.

Enforces the project invariants that keep batches deterministic and
byte-identical and the layers composable (docs/static-analysis.md) at a
level grep cannot reach: each source file is lexed once into real C++
tokens, so string literals, comments, macros split over lines, and
identifiers that merely *contain* a banned word can no longer fool a
check. The per-file checks read one file's tokens; the whole-program
checks read an include graph and a function-level call graph built from
the same tokens.

Per-file checks (check-id -> invariant):
  throw-discipline        throw/try/catch confined to
                          src/common/{error,expected}.hpp
  determinism-discipline  std::rand, std::random_device, time(),
                          std::chrono::system_clock and <random> engines
                          confined to the [determinism] allow-list of
                          layers.toml (src/common/rng.* and src/obs/)
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
  stale-suppression       every `biosens-lint: allow(...)` directive
                          must actually suppress a finding — an allow()
                          that matches nothing is dead weight that
                          silently blesses future regressions

Whole-program checks:
  hot-path-transitive     a function annotated BIOSENS_HOT
                          (common/annotations.hpp) must not transitively
                          reach heap allocation, std::function
                          construction, exception rematerialization
                          (throw / ErrorInfo::raise / Expected::value) or
                          mutex acquisition. Functions in src/obs/ (spans
                          are one relaxed atomic when disabled) and the
                          audited precondition guard `require` are the
                          sanctioned escapes.
  determinism-taint       anything reachable from the simulation roots
                          (Transducer::try_transduce,
                          BiosensorModel::try_measure, the session
                          stepping paths) must not transitively reach a
                          nondeterminism source outside the
                          [determinism] allow-list.
  layer-dag               every #include and every unambiguous
                          cross-layer call must follow the sanctioned
                          architecture edges declared in
                          tools/lint/layers.toml; a violation prints
                          the offending dependency path.
  span-coverage           every public try_* entry point declared in the
                          configured facade headers (core/engine/service)
                          must create an obs::ObsSpan somewhere on its
                          call path, so per-layer latency attribution
                          (docs/observability.md) cannot silently rot.

The compiler, not this tool, rejects a dropped Expected, a temporary or
heap ObsSpan and raw recorder access from outside src/obs/
(tests/test_compiler_guards.py).

Output format: file:line: [check-id] message
Exit codes: 0 clean, 1 findings, 2 tool or configuration error.

Suppressions: a `// biosens-lint: allow(check-id)` comment on the same
line or the immediately preceding line silences that check there.
Multiple ids: allow(a, b); allow(*) silences every check. A directive
that suppresses nothing is itself reported (stale-suppression), unless
a --check filter skipped a check it names.

Usage:
  tools/lint/biosens_lint.py [paths...]             # default: src
  tools/lint/biosens_lint.py --check layer-dag src
  tools/lint/biosens_lint.py --self-test            # fixture manifest
"""

from __future__ import annotations

import argparse
import bisect as _bisect
import fnmatch
import os
import re
import sys
from dataclasses import dataclass, field

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None

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


def lex_file(path: str, effective_path: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return lex_text(text, path, effective_path)


def lex_text(text: str, path: str, effective_path: str) -> SourceFile:
    tokens: list[Token] = []
    includes: list[tuple[int, str]] = []
    suppressions: dict[int, set] = {}
    suppression_groups: list[dict] = []

    # Precompute line numbers from offsets.
    nl_positions = [m.start() for m in re.finditer("\n", text)]

    def line_of(pos: int) -> int:
        return _bisect.bisect_right(nl_positions, pos - 1) + 1

    def note_comment(body: str, start_line: int) -> None:
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

    return SourceFile(path=path, effective_path=effective_path,
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
# layers.toml: the layer DAG and the scope lists of the config-driven checks
# --------------------------------------------------------------------------

class ConfigError(RuntimeError):
    """A tool or configuration error: exit code 2, never a finding."""


@dataclass
class LayerConfig:
    members: list
    edges: dict                 # layer -> set(allowed layers)
    closure: dict               # layer -> transitively allowed layers
    exemptions: list            # [(from_glob, [to_globs], reason)]
    det_roots: list
    det_allowed_files: tuple
    det_allowed_dirs: tuple
    hot_exempt_dirs: tuple
    hot_exempt_functions: tuple
    entry_headers: tuple

    def nondeterminism_allowed(self, eff: str) -> bool:
        """True inside the [determinism] allow-list, which both
        determinism-discipline and determinism-taint read."""
        return (is_file(eff, self.det_allowed_files)
                or in_dirs(eff, self.det_allowed_dirs))


def load_layers(path: str) -> LayerConfig:
    if tomllib is None:
        raise ConfigError("python >= 3.11 (tomllib) required to read "
                          f"{path}")
    try:
        with open(path, "rb") as f:
            raw = tomllib.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read layer config {path}: {e}") from e
    except tomllib.TOMLDecodeError as e:
        raise ConfigError(f"malformed layer config {path}: {e}") from e

    layers = raw.get("layers", {})
    members = list(layers.get("members", []))
    edges_raw = raw.get("edges", {})
    if not members:
        raise ConfigError(f"{path}: [layers].members must list the "
                          "src/ subdirectories")
    unknown = set(edges_raw) - set(members)
    if unknown:
        raise ConfigError(f"{path}: [edges] names unknown layers "
                          f"{sorted(unknown)}")
    edges = {m: set(edges_raw.get(m, [])) for m in members}
    for m, deps in edges.items():
        bad = deps - set(members)
        if bad:
            raise ConfigError(f"{path}: layer '{m}' allows unknown "
                              f"layers {sorted(bad)}")

    # The sanctioned edge table must itself be a DAG.
    state: dict = {}

    def visit(node, trail):
        state[node] = "visiting"
        for dep in sorted(edges[node]):
            if state.get(dep) == "visiting":
                cycle = " -> ".join(trail + [node, dep])
                raise ConfigError(f"{path}: layer table has a cycle: "
                                  f"{cycle}")
            if state.get(dep) != "done":
                visit(dep, trail + [node])
        state[node] = "done"

    for m in members:
        if state.get(m) != "done":
            visit(m, [])

    closure = {}
    for m in members:
        seen: set = set()
        stack = list(edges[m])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(edges[x] - seen)
        closure[m] = seen

    exemptions = []
    for ex in raw.get("exemptions", []):
        frm = ex.get("from", "")
        to = ex.get("to", [])
        if not frm or not to:
            raise ConfigError(f"{path}: each [[exemptions]] entry needs "
                              "'from' and 'to'")
        exemptions.append((frm, list(to), ex.get("reason", "")))

    det = raw.get("determinism", {})
    hot = raw.get("hot-path", {})
    spans = raw.get("span-coverage", {})
    return LayerConfig(
        members=members, edges=edges, closure=closure,
        exemptions=exemptions,
        det_roots=list(det.get("roots", [])),
        det_allowed_files=tuple(det.get("allowed-files", ())),
        det_allowed_dirs=tuple(det.get("allowed-dirs", ())),
        hot_exempt_dirs=tuple(hot.get("exempt-dirs", ())),
        hot_exempt_functions=tuple(hot.get("exempt-functions", ())),
        entry_headers=tuple(spans.get("entry-headers", ())),
    )


def layer_of(eff: str, cfg: LayerConfig) -> str | None:
    p = _norm(eff)
    if not p.startswith("src/"):
        return None
    parts = p.split("/")
    if len(parts) < 3:
        return None
    return parts[1] if parts[1] in cfg.members else None


def _exempted(cfg: LayerConfig, from_eff: str, to_eff: str) -> bool:
    for frm, tos, _reason in cfg.exemptions:
        if fnmatch.fnmatch(from_eff, frm):
            if any(fnmatch.fnmatch(to_eff, t) for t in tos):
                return True
    return False


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


# --------------------------------------------------------------------------
# Per-file checks
# --------------------------------------------------------------------------

class Check:
    check_id = ""

    def run(self, src: SourceFile, cfg: LayerConfig) -> list:
        raise NotImplementedError


class ThrowDiscipline(Check):
    """throw, try and catch appear only in the error-core headers.

    Everything else reports failure as an Expected value
    (docs/errors.md)."""

    check_id = "throw-discipline"
    ALLOWED = ("src/common/error.hpp", "src/common/expected.hpp")

    def run(self, src: SourceFile, cfg: LayerConfig) -> list:
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


class DeterminismDiscipline(Check):
    """Nondeterminism sources appear only in common/rng and obs/.

    common/rng is the one seeded generator and obs/ reads wall clocks
    for observability only, so engine/sim-cache byte-identity cannot
    silently rot. The allow-list is [determinism] in layers.toml,
    shared with determinism-taint."""

    check_id = "determinism-discipline"
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

    def run(self, src: SourceFile, cfg: LayerConfig) -> list:
        if cfg.nondeterminism_allowed(src.effective_path):
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


class ServiceDiscipline(Check):
    """Every queue in src/service/ grows through a bounded wrapper.

    src/service/ is the resident, admission-controlled layer: a tenant
    burst must degrade into structured kOverloaded rejections instead
    of unbounded memory growth. Raw container-growth primitives (and
    fire-and-forget thread detach) are confined to
    src/service/bounded.hpp, the audited capacity-checked wrappers
    everything else must go through."""

    check_id = "service-discipline"
    SCOPE_DIRS = ("src/service/",)
    ALLOWED_FILES = ("src/service/bounded.hpp",)
    BANNED_GROWTH = {"push_back", "emplace_back", "push_front",
                     "emplace_front", "push"}

    def run(self, src: SourceFile, cfg: LayerConfig) -> list:
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
    """src/core/ names no electrochemical simulator type.

    Core orchestrates measurements through the core::Transducer seam
    (docs/transducers.md); naming a simulator type there re-couples
    core to one transduction family and breaks the multi-backend
    contract. The simulator types live behind
    src/electrochem/transducer.cpp, the amperometric implementation of
    the seam."""

    check_id = "transducer-discipline"
    SCOPE_DIRS = ("src/core/",)
    BANNED_TYPES = {"Cell", "ChronoamperometrySim", "VoltammetrySim",
                    "DifferentialPulseSim"}

    def run(self, src: SourceFile, cfg: LayerConfig) -> list:
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


class StaleSuppression:
    """Every `biosens-lint: allow(...)` directive suppresses a finding.

    Runs after apply_suppressions() has recorded which directives fired
    for the findings of every other check, per-file and whole-program
    alike. A directive that fired for nothing is reported whatever ids
    it names, `*` included. Only when a --check filter skipped some
    checks are the directives naming a skipped id (or `*`) left alone.
    Its own findings are not suppressible: delete the directive instead.
    """

    check_id = "stale-suppression"

    def run(self, src: SourceFile, ran_ids: set) -> list:
        every_check_ran = ran_ids >= set(CHECK_IDS)
        out = []
        for g in src.suppression_groups:
            if g["used"] or not (every_check_ran or g["ids"] <= ran_ids):
                continue
            ids = ", ".join(sorted(g["ids"]))
            out.append(Finding(
                src.path, g["line"], self.check_id,
                f"suppression allow({ids}) matches no finding on the lines "
                "it covers — delete the directive (a dead allow() silently "
                "blesses the next real violation)"))
        return out


# --------------------------------------------------------------------------
# Whole-program graphs: data model
# --------------------------------------------------------------------------

#: identifiers that can never start a function definition
NOT_FUNC_NAMES = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "alignas", "decltype", "noexcept", "static_assert",
    "throw", "new", "delete", "else", "do", "case", "goto", "operator",
    "co_await", "co_return", "co_yield", "using", "typedef", "template",
    "requires", "assert", "defined", "typename", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast",
    # primitive type names: `int(int)` inside std::function<...> and
    # functional casts look like calls but never name a project def
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "auto",
}

#: member-call names too ubiquitous across STL types for name-only
#: resolution — `x.find(...)` on a std::map must not resolve to
#: SimCache::find, so the edge is deliberately dropped.
STL_MEMBER_NAMES = {
    "find", "clear", "begin", "end", "front", "back", "at", "insert",
    "erase", "count", "contains", "push", "pop", "pop_front",
    "pop_back", "size", "empty", "reserve", "resize", "data", "swap",
    "reset", "get", "str", "c_str", "top", "first", "second", "emplace",
    "append", "substr", "length", "assign", "fill", "merge", "wait",
    "notify_one", "notify_all", "load", "store", "exchange", "min",
    "max", "abs",
}

#: qualifier tokens legal between a parameter list and the function body
BODY_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable",
                   "volatile", "requires", "try"}

#: banned-primitive kinds
ALLOC = "heap-allocation"
STDFUNCTION = "std::function-construction"
MUTEX = "mutex-acquisition"
THROWING = "exception-rematerialization"
NONDET = "nondeterminism-source"

_ALLOC_CALLS = {"make_unique", "make_shared", "malloc", "calloc", "realloc"}
_MUTEX_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
_NONDET_IDENTS = set(DeterminismDiscipline.BANNED_IDENTS)
_NONDET_CALLS = {"rand", "srand"}


@dataclass
class FunctionDef:
    """One function definition found in the tree."""

    name: str            # simple name ('try_measure', '~Session', ...)
    qual: str            # 'Class::name' when known, else == name
    path: str            # on-disk path
    eff: str             # repo-relative path used for scoping rules
    line: int            # line of the name token
    body: tuple          # token range scanned for calls: from after the
                         # parameter list (a constructor's initializer
                         # list included) to the body's closing '}'
    hot: bool = False    # carries (or matches a decl carrying) BIOSENS_HOT
    cls: str = ""        # enclosing/qualifying class name
    calls: list = field(default_factory=list)   # [(name, qual, line, member)]
    prims: list = field(default_factory=list)   # [(kind, line, detail)]
    creates_span: bool = False

    def key(self) -> str:
        return f"{self.eff}:{self.line}:{self.qual}"


@dataclass
class Graph:
    """Whole-program include + call graph."""

    defs: list = field(default_factory=list)          # [FunctionDef]
    by_simple: dict = field(default_factory=dict)     # name -> [idx]
    by_qual: dict = field(default_factory=dict)       # qual -> [idx]
    includes: dict = field(default_factory=dict)      # eff -> [(line, eff2)]
    entry_decls: list = field(default_factory=list)   # [(eff,line,cls,name)]
    hot_decls: set = field(default_factory=set)       # names from decls
    files: dict = field(default_factory=dict)         # eff -> path on disk
    namespaces: set = field(default_factory=set)      # project namespaces
    cls_names: set = field(default_factory=set)       # classes owning defs

    def index(self) -> None:
        for i, d in enumerate(self.defs):
            self.by_simple.setdefault(d.name, []).append(i)
            if d.qual != d.name:
                self.by_qual.setdefault(d.qual, []).append(i)
            if d.cls:
                self.cls_names.add(d.cls)
        for name in self.hot_decls:
            for i in (self.by_qual.get(name, []) if "::" in name
                      else self.by_simple.get(name, [])):
                self.defs[i].hot = True

    def resolve(self, name: str, qual_hint: str | None,
                member: bool = False, caller_cls: str = "") -> list:
        """Candidate definition indices for a call target."""
        if qual_hint:
            hit = self.by_qual.get(qual_hint)
            if hit:
                return hit
            # A qualifier naming no project class or namespace means a
            # foreign library (std::, chrono::, ...): never resolve it
            # to a project def by simple name.
            qualifier = qual_hint.split("::", 1)[0]
            if (qualifier not in self.cls_names
                    and qualifier not in self.namespaces):
                return []
        if member and name in STL_MEMBER_NAMES:
            return []
        # Unqualified call inside a member function: ordinary C++ lookup
        # finds the enclosing class's own member before any namespace-
        # scope function of the same name, so when Caller::name exists it
        # shadows every free `name` for this call site.
        if not qual_hint and caller_cls:
            own = self.by_qual.get(f"{caller_cls}::{name}")
            if own:
                return own
        return self.by_simple.get(name, [])


# --------------------------------------------------------------------------
# Whole-program graphs: extraction from the token stream
# --------------------------------------------------------------------------

def _find_body_after(toks: list, close: int) -> int:
    """Token index of the '{' opening the body of a function whose
    parameter list closed at toks[close]; -1 when this is a declaration,
    a call, or anything else that has no body."""
    n = len(toks)
    j = close + 1
    depth = 0
    after_arrow = False
    while j < n:
        t = toks[j].text
        if depth == 0:
            if t == "{":
                return j
            if t in (";", "=", ",", ")", "}", "."):
                return -1
            if t == ":":
                return _skip_ctor_inits(toks, j + 1)
            if t == "->":
                after_arrow = True
            elif t in ("(", "["):
                depth += 1
            elif toks[j].kind == IDENT:
                if t not in BODY_QUALIFIERS and not after_arrow:
                    return -1
            elif t in ("&", "*", "<", ">", ">>", "::", "]", "..."):
                pass  # ref-qualifiers / trailing-return-type tokens
            elif not after_arrow:
                return -1
        else:
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
        j += 1
    return -1


def _skip_ctor_inits(toks: list, j: int) -> int:
    """Walks a constructor member-initializer list starting at toks[j];
    returns the index of the body '{' or -1."""
    n = len(toks)
    while j < n:
        t = toks[j].text
        if t in ("(", "{"):
            closer = ")" if t == "(" else "}"
            m = match_forward(toks, j, t, closer)
            if m == -1:
                return -1
            j = m + 1
            if j < n and toks[j].text == ",":
                j += 1
                continue
            if j < n and toks[j].text == "{":
                return j
            return -1
        if toks[j].kind == IDENT or t in ("::", "<", ">", ",", "..."):
            j += 1
            continue
        return -1
    return -1


def _decl_run_start(toks: list, j: int) -> int:
    """Index of the first token of the declaration run ending at toks[j]
    (exclusive scan back to the previous statement boundary)."""
    k = j
    depth = 0
    while k >= 0:
        t = toks[k].text
        if depth == 0 and t in (";", "{", "}"):
            return k + 1
        if t in (")", "]", ">"):
            depth += 1
        elif t in ("(", "[", "<"):
            depth -= 1
            if depth < 0:
                # Escaped the enclosing group: the run started inside a
                # parenthesized context (a call argument, an if
                # condition), not at a statement boundary.
                return k + 1
        k -= 1
    return 0


def _resolve_include(target: str, files: dict) -> str | None:
    """Maps an #include string to a project file's effective path."""
    for prefix in ("src/", ""):
        cand = prefix + target
        if cand in files:
            return cand
    return None


def extract_file(src: SourceFile, graph: Graph) -> None:
    """Adds one lexed file to the graph: its function definitions with
    their call edges, banned primitives and span creation, its
    BIOSENS_HOT declarations, namespaces, project includes and public
    try_* entry declarations. graph.files must already list every file
    so that includes resolve."""
    toks = src.tokens
    n = len(toks)
    eff = src.effective_path
    defs: list[FunctionDef] = []
    body_opens: dict[int, FunctionDef] = {}   # token index of '{' -> def

    i = 0
    while i < n:
        tok = toks[i]
        if (tok.kind != IDENT or tok.text in NOT_FUNC_NAMES
                or i + 1 >= n or toks[i + 1].text != "("):
            i += 1
            continue
        close = match_forward(toks, i + 1, "(", ")")
        if close == -1:
            i += 1
            continue
        # Qualified name: walk back over `A::B::name` chains.
        name = tok.text
        j = i - 1
        if j >= 0 and toks[j].text == "~":
            name = "~" + name
            j -= 1
        quals = []
        while j >= 1 and toks[j].text == "::" and toks[j - 1].kind == IDENT:
            quals.insert(0, toks[j - 1].text)
            j -= 2
        prev = toks[j].text if j >= 0 else ""
        if prev in (".", "->"):
            i += 1
            continue
        body = _find_body_after(toks, close)
        run_start = _decl_run_start(toks, j if j >= 0 else 0)
        decl_toks = {toks[k].text for k in range(run_start, i)}
        hot = "BIOSENS_HOT" in decl_toks
        qual = "::".join(quals[-1:] + [name]) if quals else name
        if body == -1:
            if hot:
                graph.hot_decls.add(qual)
            i = close + 1
            continue
        body_close = match_forward(toks, body, "{", "}")
        if body_close == -1:
            body_close = n - 1
        d = FunctionDef(name=name, qual=qual, path=src.path, eff=eff,
                        line=tok.line, body=(close + 1, body_close),
                        hot=hot, cls=quals[-1] if quals else "")
        body_opens[body] = d
        defs.append(d)
        i = body  # past any initializer list; bodies may nest lambdas

    for cls, name, line in _walk_scopes(toks, body_opens):
        graph.entry_decls.append((eff, line, cls, name))

    # Call edges + primitives per body. A token may fall inside several
    # def ranges when a local class/lambda nests; attribute to the
    # innermost (the def with the largest body start <= index).
    spans = sorted(d.body for d in defs)
    for d in defs:
        _scan_body(toks, d, spans)
    graph.defs.extend(defs)

    for k in range(n - 1):
        if toks[k].kind != IDENT or toks[k].text != "namespace":
            continue
        # Every component of `namespace a::b::c {`.
        m = k + 1
        while m < n and toks[m].kind == IDENT:
            graph.namespaces.add(toks[m].text)
            if m + 1 >= n or toks[m + 1].text != "::":
                break
            m += 2
    for line, target in src.includes:
        resolved = _resolve_include(target, graph.files)
        if resolved:
            graph.includes.setdefault(eff, []).append((line, resolved))


def _walk_scopes(toks: list, body_opens: dict) -> list:
    """One pass over the brace structure: gives each def found at class
    scope (inline member definitions) its class name, and returns the
    public try_* declarations and inline definitions at class scope as
    [(cls, name, line)] for the span-coverage entry-point scan."""
    entries = []
    stack: list[list] = []  # [kind, name, access]
    n = len(toks)
    for idx, tok in enumerate(toks):
        t = tok.text
        if t == "{":
            if idx in body_opens:
                stack.append(["fn", "", ""])
                d = body_opens[idx]
                for s in reversed(stack[:-1]):
                    if s[0] == "class":
                        if not d.cls:
                            d.cls = s[1]
                            d.qual = f"{s[1]}::{d.name}"
                        break
                continue
            stack.append(list(_scope_of_brace(toks, idx)))
        elif t == "}":
            if stack:
                stack.pop()
        elif (tok.kind == IDENT and t in ("public", "private", "protected")
              and idx + 1 < n and toks[idx + 1].text == ":"):
            for s in reversed(stack):
                if s[0] == "class":
                    s[2] = t
                    break
                if s[0] == "fn":
                    break
        elif (tok.kind == IDENT and t.startswith("try_")
              and idx + 1 < n and toks[idx + 1].text == "("):
            cls_scope = next((s for s in reversed(stack)
                              if s[0] in ("class", "fn")), None)
            if cls_scope and cls_scope[0] == "class" \
                    and cls_scope[2] == "public":
                entries.append((cls_scope[1], t, tok.line))
    return entries


def _scope_of_brace(toks: list, idx: int) -> tuple:
    start = _decl_run_start(toks, idx - 1)
    head = [toks[k].text for k in range(start, idx)]
    if "namespace" in head:
        return ("namespace", head[-1] if len(head) > 1 else "", "")
    # Scan from the END so `template <class T> struct Foo` names Foo,
    # not the template parameter.
    for k in range(len(head) - 1, -1, -1):
        key = head[k]
        if key not in ("class", "struct", "union"):
            continue
        if k > 0 and head[k - 1] == "enum":
            return ("enum", "", "")
        # The name is the first identifier after the keyword, skipping
        # attribute/alignas groups: `class [[nodiscard]] Expected`.
        m, depth = k + 1, 0
        name = ""
        while m < len(head):
            t = head[m]
            if t in ("[", "("):
                depth += 1
            elif t in ("]", ")"):
                depth -= 1
            elif depth == 0:
                if t in (":", "{", "<", ">"):
                    break
                if t not in ("alignas",) and t[0].isalpha() or t[0] == "_":
                    name = t
                    break
            m += 1
        if name:
            default = "private" if key == "class" else "public"
            return ("class", name, default)
    if "enum" in head:
        return ("enum", "", "")
    return ("block", "", "")


def _scan_body(toks: list, d: FunctionDef, spans: list) -> None:
    """Collects call edges and banned primitives from one body range,
    skipping sub-ranges owned by nested defs."""
    lo, hi = d.body
    nested = [(a, b) for a, b in spans if lo < a and b <= hi]
    j = lo
    while j <= hi:
        for a, b in nested:
            if a <= j <= b:
                j = b + 1
                break
        else:
            if toks[j].kind == IDENT:
                _scan_ident(toks, j, hi, d)
            j += 1


def _scan_ident(toks: list, j: int, hi: int, d: FunctionDef) -> None:
    t = toks[j].text
    nxt = toks[j + 1].text if j + 1 < len(toks) else ""
    prev = toks[j - 1].text if j > 0 else ""
    prev2 = toks[j - 2].text if j > 1 else ""
    line = toks[j].line

    if t == "ObsSpan":
        d.creates_span = True
    if t == "new" and prev != "operator":
        d.prims.append((ALLOC, line, "operator new"))
        return
    if t in _ALLOC_CALLS and nxt in ("(", "<"):
        d.prims.append((ALLOC, line, f"{t}()"))
        return
    if t == "function" and prev == "::" and prev2 == "std":
        d.prims.append((STDFUNCTION, line, "std::function"))
        return
    if t in _MUTEX_TYPES:
        d.prims.append((MUTEX, line, f"std::{t}"))
        return
    if t in ("lock", "try_lock") and prev in (".", "->") and nxt == "(":
        d.prims.append((MUTEX, line, f".{t}()"))
        return
    if t == "throw":
        d.prims.append((THROWING, line, "throw statement"))
        return
    if t in _NONDET_IDENTS:
        d.prims.append((NONDET, line, t))
        return
    if t in _NONDET_CALLS and nxt == "(" and prev not in (".", "->"):
        d.prims.append((NONDET, line, f"{t}()"))
        return
    if t == "time" and nxt == "(" and prev not in (".", "->"):
        arg = toks[j + 2].text if j + 2 < len(toks) else ""
        qualified = prev == "::" and prev2 == "std"
        if qualified or arg in ("nullptr", "NULL", "0"):
            d.prims.append((NONDET, line, "time()"))
            return

    # Call edge. `x.foo(`, `Cls::foo(`, `foo(`, `tmpl<...>(...)` and
    # `Type name(...)` construction all resolve by name against project
    # defs; the `member` flag records `.`/`->` call style so resolution
    # can refuse ubiquitous STL member names.
    if t in NOT_FUNC_NAMES or t in BODY_QUALIFIERS:
        return
    member = prev in (".", "->")
    qual = None
    if prev == "::" and j >= 2 and toks[j - 2].kind == IDENT:
        qual = f"{toks[j - 2].text}::{t}"
    if nxt == "(":
        d.calls.append((t, qual, line, member))
        return
    if nxt == "<":
        m = match_forward(toks, j + 1, "<", ">")
        if m != -1 and m + 1 < len(toks) and toks[m + 1].text == "(":
            d.calls.append((t, qual, line, member))
            return
    if not member and (nxt == "{"
                       or (j + 1 <= hi and toks[j + 1].kind == IDENT)):
        # `Type{...}` / `Type name` constructions: resolved only if a
        # constructor definition with this class name exists.
        d.calls.append((t, f"{t}::{t}", line, False))


def build_graph(sources: list) -> Graph:
    graph = Graph()
    graph.files = {src.effective_path: src.path for src in sources}
    for src in sorted(sources, key=lambda s: s.effective_path):
        extract_file(src, graph)
    graph.index()
    return graph


# --------------------------------------------------------------------------
# Whole-program checks
# --------------------------------------------------------------------------

def _bfs(graph: Graph, start: int, skip) -> dict:
    """BFS over call edges; returns {def_idx: parent_idx} (start: -1).
    Neighbor order is deterministic (sorted by def key)."""
    parent = {start: -1}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        d = graph.defs[cur]
        targets = []
        for name, qual, _line, member in d.calls:
            for t in graph.resolve(name, qual, member, caller_cls=d.cls):
                if t not in parent and not skip(graph.defs[t]):
                    targets.append(t)
        for t in sorted(set(targets), key=lambda k: graph.defs[k].key()):
            if t not in parent:
                parent[t] = cur
                queue.append(t)
    return parent


def _path_of(graph: Graph, parent: dict, idx: int) -> str:
    chain = []
    while idx != -1:
        chain.append(graph.defs[idx].qual)
        idx = parent[idx]
    return " -> ".join(reversed(chain))


def check_hot_path(graph: Graph, cfg: LayerConfig) -> list:
    """BIOSENS_HOT code reaches no allocation, std::function, throw or lock."""
    check_id = "hot-path-transitive"
    banned = {ALLOC, STDFUNCTION, MUTEX, THROWING}

    def skip(d: FunctionDef) -> bool:
        return (in_dirs(d.eff, cfg.hot_exempt_dirs)
                or d.name in cfg.hot_exempt_functions)

    out = []
    for i, root in enumerate(graph.defs):
        if not root.hot or skip(root):
            continue
        parent = _bfs(graph, i, skip)
        reported: set = set()
        for idx in sorted(parent, key=lambda k: graph.defs[k].key()):
            d = graph.defs[idx]
            for kind, line, detail in d.prims:
                if kind not in banned or kind in reported:
                    continue
                reported.add(kind)
                where = "" if idx == i else (
                    f" via {_path_of(graph, parent, idx)}"
                    f" ({d.eff}:{line})")
                out.append(Finding(
                    root.path, root.line, check_id,
                    f"BIOSENS_HOT '{root.qual}' transitively reaches "
                    f"{kind} ({detail}){where} — hot kernels must stay "
                    "allocation-, lock- and exception-free "
                    "(docs/performance.md)"))
    return out


def check_determinism(graph: Graph, cfg: LayerConfig) -> list:
    """Simulation roots reach no nondeterminism source off the allow-list."""
    check_id = "determinism-taint"

    def allowed(d: FunctionDef) -> bool:
        return cfg.nondeterminism_allowed(d.eff)

    roots = []
    for name in cfg.det_roots:
        hits = (graph.by_qual.get(name, []) if "::" in name
                else graph.by_simple.get(name, []))
        roots.extend(hits)
    out = []
    for i in sorted(set(roots), key=lambda k: graph.defs[k].key()):
        root = graph.defs[i]
        parent = _bfs(graph, i, allowed)
        hit = False
        for idx in sorted(parent, key=lambda k: graph.defs[k].key()):
            if hit:
                break
            d = graph.defs[idx]
            if allowed(d):
                continue
            for kind, line, detail in d.prims:
                if kind != NONDET:
                    continue
                where = "" if idx == i else (
                    f" via {_path_of(graph, parent, idx)}"
                    f" ({d.eff}:{line})")
                out.append(Finding(
                    root.path, root.line, check_id,
                    f"simulation root '{root.qual}' transitively "
                    f"reaches nondeterminism source '{detail}'{where} — "
                    "draw every stream from biosens::Rng so replays "
                    "stay byte-identical (docs/determinism.md)"))
                hit = True
                break
    return out


def check_layer_dag(graph: Graph, cfg: LayerConfig) -> list:
    """Includes and calls follow the sanctioned edges in layers.toml."""
    check_id = "layer-dag"
    out = []
    for eff in sorted(graph.includes):
        a = layer_of(eff, cfg)
        if a is None:
            continue
        for line, target in sorted(set(graph.includes[eff])):
            b = layer_of(target, cfg)
            if b is None or b == a:
                continue
            if b in cfg.closure[a]:
                continue
            if _exempted(cfg, eff, target):
                continue
            sanctioned = ", ".join(sorted(cfg.edges[a])) or "(none)"
            out.append(Finding(
                graph.files[eff], line, check_id,
                f"include crosses the layer DAG: {a} -> {b} is not a "
                f"sanctioned edge (layer '{a}' may depend on: "
                f"{sanctioned}); dependency path: {eff} -> {target}"))

    # Cross-layer calls. Token-level name resolution over-approximates,
    # so only the cases it can get right are flagged: non-member calls
    # that either carry an explicit `Cls::`/`ns::` qualifier resolving
    # to exactly one def, or resolve to free functions living in exactly
    # one foreign layer. Member calls are covered by the include check
    # (calling a foreign method requires including its header).
    for d in graph.defs:
        a = layer_of(d.eff, cfg)
        if a is None:
            continue
        for name, qual, line, member in d.calls:
            if member:
                continue
            targets = graph.resolve(name, qual, member)
            if not targets:
                continue
            if not qual and any(graph.defs[t].cls for t in targets):
                continue  # unqualified name hitting methods: untypable
            layers = {layer_of(graph.defs[t].eff, cfg) for t in targets}
            if len(layers) != 1:
                continue
            b = layers.pop()
            if b is None or b == a or b in cfg.closure[a]:
                continue
            if any(_exempted(cfg, d.eff, graph.defs[t].eff)
                   for t in targets):
                continue
            callee = graph.defs[targets[0]]
            out.append(Finding(
                d.path, line, check_id,
                f"call crosses the layer DAG: {a} -> {b} is not a "
                f"sanctioned edge; dependency path: {d.qual} ({d.eff}) "
                f"-> {callee.qual} ({callee.eff})"))
    return out


def check_span_coverage(graph: Graph, cfg: LayerConfig) -> list:
    """Public try_* facade entries create an ObsSpan on some call path."""
    check_id = "span-coverage"
    entry_set = {_norm(h) for h in cfg.entry_headers}
    out = []
    seen_entries: set = set()
    for eff, line, cls, name in sorted(graph.entry_decls):
        if _norm(eff) not in entry_set:
            continue
        if (cls, name) in seen_entries:
            continue  # overloads share one verdict
        seen_entries.add((cls, name))
        defs = graph.resolve(name, f"{cls}::{name}")
        defs = [t for t in defs if graph.defs[t].cls in ("", cls)]
        if not defs:
            continue  # definition not visible to the graph
        covered = False
        report_at = graph.defs[defs[0]]
        for t in defs:
            parent = _bfs(graph, t, lambda _d: False)
            if any(graph.defs[k].creates_span for k in parent):
                covered = True
                break
        if not covered:
            out.append(Finding(
                report_at.path, report_at.line, check_id,
                f"public entry point '{cls}::{name}' never creates an "
                "obs::ObsSpan on any call path — per-layer latency "
                "attribution (docs/observability.md) loses this entry"))
    return out


FILE_CHECKS = [ThrowDiscipline(), DeterminismDiscipline(),
               ServiceDiscipline(), TransducerDiscipline()]
STALE = StaleSuppression()
GRAPH_CHECKS = {
    "hot-path-transitive": check_hot_path,
    "determinism-taint": check_determinism,
    "layer-dag": check_layer_dag,
    "span-coverage": check_span_coverage,
}
CHECK_IDS = ([c.check_id for c in FILE_CHECKS] + [STALE.check_id]
             + list(GRAPH_CHECKS))


# --------------------------------------------------------------------------
# Driver: file discovery, one pass over both check families, suppressions
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
            # A mistyped path must not silently narrow the scan.
            raise ConfigError(f"no such path: {p}")
    return sorted(set(files))


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


def lint_files(files: list, root: str, cfg: LayerConfig,
               check_ids: set) -> list:
    """Lexes each file once and runs the selected checks of both
    families over it. Every finding passes through the allow()
    directives of its file; stale-suppression then reports the
    directives that suppressed nothing."""
    sources = [lex_file(path, effective_path_for(path, root))
               for path in files]
    found = {src.path: [] for src in sources}
    for src in sources:
        for check in FILE_CHECKS:
            if check.check_id in check_ids:
                found[src.path].extend(check.run(src, cfg))

    graph_ids = [cid for cid in GRAPH_CHECKS if cid in check_ids]
    if graph_ids:
        graph = build_graph(sources)
        seen: set = set()
        for cid in graph_ids:
            for f in GRAPH_CHECKS[cid](graph, cfg):
                key = (f.path, f.line, f.check_id, f.message)
                if key not in seen:
                    seen.add(key)
                    found[f.path].append(f)

    findings = []
    for src in sources:
        findings.extend(apply_suppressions(src, found[src.path]))
        if STALE.check_id in check_ids:
            findings.extend(STALE.run(src, check_ids))
    findings.sort(key=lambda f: (f.path, f.line, f.check_id))
    return findings


# --------------------------------------------------------------------------
# Fixture self-test
# --------------------------------------------------------------------------

def run_self_test(fixtures_dir: str, default_layers: str,
                  verbose: bool = False) -> int:
    """Checks every case directory under fixtures_dir (a tree shaped like
    the repository's src/, with its own layers.toml or else
    default_layers) and compares the findings with expected.txt."""
    manifest_path = os.path.join(fixtures_dir, "expected.txt")
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"missing manifest {manifest_path}")
    expected = set()
    with open(manifest_path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line:
                locpart, check_id = line.split()
                expected.add((locpart, check_id))

    cases = sorted(d for d in os.listdir(fixtures_dir)
                   if os.path.isdir(os.path.join(fixtures_dir, d)))
    actual = set()
    n_files = 0
    for case in cases:
        case_dir = os.path.join(fixtures_dir, case)
        layers = os.path.join(case_dir, "layers.toml")
        cfg = load_layers(layers if os.path.isfile(layers)
                          else default_layers)
        files = discover_files(["src"], case_dir)
        n_files += len(files)
        for f in lint_files(files, case_dir, cfg, set(CHECK_IDS)):
            rel = _norm(os.path.relpath(f.path, fixtures_dir))
            actual.add((f"{rel}:{f.line}", f.check_id))
            if verbose:
                print("  " + f.render())

    missing = expected - actual
    extra = actual - expected
    for locpart, check_id in sorted(missing):
        print(f"self-test: expected finding not produced: "
              f"{locpart} [{check_id}]", file=sys.stderr)
    for locpart, check_id in sorted(extra):
        print(f"self-test: unexpected finding: {locpart} [{check_id}]",
              file=sys.stderr)
    ok = not missing and not extra
    print(f"self-test: {len(cases)} cases, {n_files} files, "
          f"{len(expected)} expected findings, {len(actual)} produced "
          f"-> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biosens-lint",
        description="per-file and whole-program invariant checker "
                    "(docs/static-analysis.md)")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to check (default: src)")
    parser.add_argument("--root", default=None,
                        help="repository root for scoping rules "
                             "(default: two levels above this script)")
    parser.add_argument("--layers", default=None,
                        help="layer DAG and scope config "
                             "(default: tools/lint/layers.toml)")
    parser.add_argument("--check", action="append", dest="checks",
                        metavar="CHECK-ID",
                        help="run only these check ids (repeatable)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="check each case under tools/lint/fixtures/ "
                             "against its expected-finding manifest")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="self-test: print every finding")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(script_dir))
    layers = args.layers or os.path.join(script_dir, "layers.toml")

    if args.list_checks:
        docs = [(c.check_id, c.__doc__) for c in FILE_CHECKS + [STALE]]
        docs += [(cid, fn.__doc__) for cid, fn in GRAPH_CHECKS.items()]
        for check_id, doc in docs:
            print(f"{check_id}: {doc.strip().splitlines()[0]}")
        return 0

    try:
        if args.self_test:
            return run_self_test(os.path.join(script_dir, "fixtures"),
                                 layers, verbose=args.verbose)
        check_ids = set(CHECK_IDS)
        if args.checks:
            unknown = set(args.checks) - check_ids
            if unknown:
                raise ConfigError(f"unknown check ids: {sorted(unknown)}")
            check_ids = set(args.checks)
        cfg = load_layers(layers)
        files = discover_files(args.paths or ["src"], root)
        if not files:
            raise ConfigError("no source files found")
        findings = lint_files(files, root, cfg, check_ids)
    except ConfigError as e:
        print(f"biosens-lint: {e}", file=sys.stderr)
        return 2

    for f in findings:
        print(f.render())
    print(f"biosens-lint: {len(files)} files, {len(check_ids)} checks, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
