#!/usr/bin/env python3
"""biosens-graph: whole-program architecture analyzer.

Where tools/lint/biosens_lint.py enforces invariants a single file can
prove (docs/static-analysis.md), this tool builds two whole-program
graphs — a project include/dependency graph and a function-level call
graph — and enforces the *transitive* disciplines a file-local pass
cannot see:

  hot-path-transitive   a function annotated BIOSENS_HOT
                        (common/annotations.hpp) must not transitively
                        reach heap allocation, std::function
                        construction, exception rematerialization
                        (throw / ErrorInfo::raise / Expected::value) or
                        mutex acquisition. Functions in src/obs/ (spans
                        are one relaxed atomic when disabled) and the
                        audited precondition guard `require` are the
                        sanctioned escapes.
  determinism-taint     anything reachable from the simulation roots
                        (Transducer::try_transduce,
                        BiosensorModel::try_measure, the session
                        stepping paths) must not transitively reach a
                        nondeterminism source defined outside
                        common/rng + src/obs/.
  layer-dag             every #include and every unambiguous
                        cross-layer call must follow the sanctioned
                        architecture edges declared in
                        tools/analyze/layers.toml; a violation prints
                        the offending dependency path.
  span-coverage         every public try_* entry point declared in the
                        configured facade headers (core/engine/service)
                        must create an obs::ObsSpan somewhere on its
                        call path, so per-layer latency attribution
                        (docs/observability.md) cannot silently rot.

Output format: file:line: [check-id] message  (same as biosens-lint).
Suppressions: `// biosens-lint: allow(check-id)` on the reported line
or the line above, same syntax as the linter.

Backends:
  --backend token   reuses the linter's C++ lexer (default; no deps)
  --backend clang   libclang (clang.cindex) AST graphs; needs the clang
                    python bindings and a compile_commands.json
  --backend auto    clang when importable, token otherwise

Usage:
  tools/analyze/biosens_graph.py [paths...]          # default: src
  tools/analyze/biosens_graph.py --compdb build-ci/compile_commands.json \
      --graph-cache build-ci/biosens_graph_cache.json src
  tools/analyze/biosens_graph.py --self-test         # fixture manifests

Exit codes: 0 clean, 1 findings, 2 tool/config error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from dataclasses import dataclass, field

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None

_SCRIPT_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_SCRIPT_DIR), "lint"))

import biosens_lint as lint  # noqa: E402  (shared lexer + driver helpers)
from biosens_lint import (  # noqa: E402
    IDENT, Finding, SourceFile, discover_files, effective_path_for,
    in_dirs, is_file, lex_file, match_forward, _norm,
)

TOOL = "biosens-graph"

# ---------------------------------------------------------------------------
# Graph data model
# ---------------------------------------------------------------------------

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
#: SimCache::find. The clang backend resolves these precisely; the
#: token backend deliberately drops the edge (documented heuristic).
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
_NONDET_IDENTS = set(lint.DeterminismDiscipline.BANNED_IDENTS)
_NONDET_CALLS = {"rand", "srand"}


@dataclass
class FunctionDef:
    """One function definition found in the tree."""

    name: str            # simple name ('try_measure', '~Session', ...)
    qual: str            # 'Class::name' when known, else == name
    path: str            # on-disk path
    eff: str             # repo-relative path used for scoping rules
    line: int            # line of the name token
    hot: bool = False    # carries (or matches a decl carrying) BIOSENS_HOT
    access: str = ""     # 'public'/'protected'/'private' for class scope
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
        self.by_simple.clear()
        self.by_qual.clear()
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


# ---------------------------------------------------------------------------
# Token-backend extraction
# ---------------------------------------------------------------------------

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


def extract_file(src: SourceFile) -> dict:
    """Extracts function definitions, call edges, primitives and entry
    declarations from one lexed file. Returns a JSON-serializable dict
    (also the graph-cache record shape)."""
    toks = src.tokens
    n = len(toks)
    defs: list[dict] = []
    hot_decls: list[str] = []
    body_opens: dict[int, int] = {}   # token index of '{' -> def index

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
        if body == -1:
            if hot:
                hot_decls.append("::".join(quals[-1:] + [name])
                                 if quals else name)
            i = close + 1
            continue
        body_close = match_forward(toks, body, "{", "}")
        if body_close == -1:
            body_close = n - 1
        d = {
            "name": name,
            "qual": "::".join(quals[-1:] + [name]) if quals else name,
            "line": tok.line,
            "hot": hot,
            "access": "",
            "cls": quals[-1] if quals else "",
            "body": [body, body_close],
        }
        body_opens[body] = len(defs)
        defs.append(d)
        i = close + 1  # bodies may nest lambdas; keep scanning inside

    _classify_scopes(toks, defs, body_opens)

    # Call edges + primitives per body. A token may fall inside several
    # def ranges when a local class/lambda nests; attribute to the
    # innermost (the def with the largest body start <= index).
    spans = sorted(((d["body"][0], d["body"][1], k)
                    for k, d in enumerate(defs)))
    for d in defs:
        d["calls"] = []
        d["prims"] = []
        d["creates_span"] = False
    for lo, hi, k in spans:
        _scan_body(toks, lo, hi, defs[k], spans)

    namespaces = sorted({
        toks[k + 1].text for k in range(n - 1)
        if toks[k].kind == IDENT and toks[k].text == "namespace"
        and toks[k + 1].kind == IDENT})

    return {
        "defs": defs,
        "hot_decls": hot_decls,
        "includes": list(src.includes),
        "entry_decls": _entry_decls(toks, defs),
        "namespaces": namespaces,
    }


def _classify_scopes(toks: list, defs: list, body_opens: dict) -> None:
    """Single pass assigning class name + access specifier to the defs
    found at class scope (inline member definitions)."""
    stack: list[list] = []  # [kind, name, access]
    for idx, tok in enumerate(toks):
        t = tok.text
        if t == "{":
            if idx in body_opens:
                stack.append(["fn", "", ""])
                d = defs[body_opens[idx]]
                for s in reversed(stack[:-1]):
                    if s[0] == "class":
                        if not d["cls"]:
                            d["cls"] = s[1]
                            d["qual"] = f"{s[1]}::{d['name']}"
                        d["access"] = s[2]
                        break
                continue
            kind, name, access = _scope_of_brace(toks, idx)
            stack.append([kind, name, access])
        elif t == "}":
            if stack:
                stack.pop()
        elif (tok.kind == IDENT and t in ("public", "private", "protected")
              and idx + 1 < len(toks) and toks[idx + 1].text == ":"):
            for s in reversed(stack):
                if s[0] == "class":
                    s[2] = t
                    break
                if s[0] == "fn":
                    break


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


def _scan_body(toks: list, lo: int, hi: int, d: dict, spans: list) -> None:
    """Collects call edges and banned primitives from one body range,
    skipping sub-ranges owned by nested defs."""
    nested = [(a, b) for a, b, _k in spans if lo < a and b <= hi]
    j = lo
    while j <= hi:
        for a, b in nested:
            if a <= j <= b:
                j = b + 1
                break
        else:
            tok = toks[j]
            if tok.kind == IDENT:
                _scan_ident(toks, j, hi, d)
            j += 1
            continue


def _scan_ident(toks: list, j: int, hi: int, d: dict) -> None:
    t = toks[j].text
    nxt = toks[j + 1].text if j + 1 < len(toks) else ""
    prev = toks[j - 1].text if j > 0 else ""
    prev2 = toks[j - 2].text if j > 1 else ""
    line = toks[j].line

    if t == "ObsSpan":
        d["creates_span"] = True
    if t == "new" and prev != "operator":
        d["prims"].append([ALLOC, line, "operator new"])
        return
    if t in _ALLOC_CALLS and nxt in ("(", "<"):
        d["prims"].append([ALLOC, line, f"{t}()"])
        return
    if t == "function" and prev == "::" and prev2 == "std":
        d["prims"].append([STDFUNCTION, line, "std::function"])
        return
    if t in _MUTEX_TYPES:
        d["prims"].append([MUTEX, line, f"std::{t}"])
        return
    if t in ("lock", "try_lock") and prev in (".", "->") and nxt == "(":
        d["prims"].append([MUTEX, line, f".{t}()"])
        return
    if t == "throw":
        d["prims"].append([THROWING, line, "throw statement"])
        return
    if t in _NONDET_IDENTS:
        d["prims"].append([NONDET, line, t])
        return
    if t in _NONDET_CALLS and nxt == "(" and prev not in (".", "->"):
        d["prims"].append([NONDET, line, f"{t}()"])
        return
    if t == "time" and nxt == "(" and prev not in (".", "->"):
        arg = toks[j + 2].text if j + 2 < len(toks) else ""
        qualified = prev == "::" and prev2 == "std"
        if qualified or arg in ("nullptr", "NULL", "0"):
            d["prims"].append([NONDET, line, "time()"])
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
        d["calls"].append([t, qual, line, member])
        return
    if nxt == "<":
        m = match_forward(toks, j + 1, "<", ">")
        if m != -1 and m + 1 < len(toks) and toks[m + 1].text == "(":
            d["calls"].append([t, qual, line, member])
            return
    if not member and (nxt == "{"
                       or (j + 1 <= hi and toks[j + 1].kind == IDENT)):
        # `Type{...}` / `Type name` constructions: resolved only if a
        # constructor definition with this class name exists.
        d["calls"].append([t, f"{t}::{t}", line, False])


def _entry_decls(toks: list, defs: list) -> list:
    """Public try_* declarations (and inline definitions) at class
    scope, for the span-coverage entry-point scan. Re-walks the scope
    stack; cheap relative to lexing."""
    out = []
    stack: list[list] = []
    body_opens = {d["body"][0]: k for k, d in enumerate(defs)}
    n = len(toks)
    for idx, tok in enumerate(toks):
        t = tok.text
        if t == "{":
            if idx in body_opens:
                stack.append(["fn", "", ""])
            else:
                stack.append(list(_scope_of_brace(toks, idx)))
            continue
        if t == "}":
            if stack:
                stack.pop()
            continue
        if (tok.kind == IDENT and t in ("public", "private", "protected")
                and idx + 1 < n and toks[idx + 1].text == ":"):
            for s in reversed(stack):
                if s[0] == "class":
                    s[2] = t
                    break
                if s[0] == "fn":
                    break
            continue
        if (tok.kind == IDENT and t.startswith("try_")
                and idx + 1 < n and toks[idx + 1].text == "("):
            cls_scope = next((s for s in reversed(stack)
                              if s[0] in ("class", "fn")), None)
            if not cls_scope or cls_scope[0] != "class":
                continue
            if cls_scope[2] != "public":
                continue
            out.append([cls_scope[1], t, tok.line])
    return out


# ---------------------------------------------------------------------------
# Graph build (token backend) + cache
# ---------------------------------------------------------------------------

CACHE_VERSION = 1


def _resolve_include(target: str, files: dict) -> str | None:
    """Maps an #include string to a project file's effective path."""
    for prefix in ("src/", ""):
        cand = prefix + target
        if cand in files:
            return cand
    return None


def build_graph(files: list, root: str,
                cache_path: str | None = None) -> Graph:
    cache = {}
    if cache_path and os.path.isfile(cache_path):
        try:
            with open(cache_path, encoding="utf-8") as f:
                loaded = json.load(f)
            if loaded.get("version") == CACHE_VERSION:
                cache = loaded.get("files", {})
        except (OSError, ValueError):
            cache = {}

    graph = Graph()
    for path in files:
        eff = effective_path_for(path, root)
        graph.files[eff] = path

    fresh: dict = {}
    for eff, path in sorted(graph.files.items()):
        try:
            st = os.stat(path)
            stamp = [st.st_mtime_ns, st.st_size]
        except OSError:
            continue
        entry = cache.get(eff)
        if not entry or entry.get("stamp") != stamp:
            entry = {"stamp": stamp, "data": extract_file(lex_file(path, eff))}
        fresh[eff] = entry
        data = entry["data"]
        for d in data["defs"]:
            fd = FunctionDef(
                name=d["name"], qual=d["qual"], path=path, eff=eff,
                line=d["line"], hot=d["hot"], access=d["access"],
                cls=d["cls"], calls=[tuple(c) for c in d["calls"]],
                prims=[tuple(p) for p in d["prims"]],
                creates_span=d["creates_span"])
            graph.defs.append(fd)
        graph.hot_decls.update(data["hot_decls"])
        graph.namespaces.update(data.get("namespaces", []))
        for line, target in data["includes"]:
            resolved = _resolve_include(target, graph.files)
            if resolved:
                graph.includes.setdefault(eff, []).append((line, resolved))
        for cls, name, line in data["entry_decls"]:
            graph.entry_decls.append((eff, line, cls, name))

    graph.index()

    if cache_path:
        try:
            os.makedirs(os.path.dirname(os.path.abspath(cache_path)),
                        exist_ok=True)
            with open(cache_path, "w", encoding="utf-8") as f:
                json.dump({"version": CACHE_VERSION, "files": fresh}, f)
        except OSError:
            pass  # the cache is an optimization, never a requirement
    return graph


# ---------------------------------------------------------------------------
# clang backend (gated; falls back to the token graphs)
# ---------------------------------------------------------------------------

def build_graph_clang(files: list, root: str,
                      compdb_path: str | None) -> Graph:
    """AST-accurate graph via clang.cindex. Any failure raises
    ClangUnavailable so --backend auto degrades to the token build."""
    cindex = lint.load_cindex()
    try:
        CursorKind = cindex.CursorKind
        comp_args: dict = {}
        if compdb_path:
            with open(compdb_path, encoding="utf-8") as f:
                for e in json.load(f):
                    f_ = os.path.normpath(
                        os.path.join(e.get("directory", "."), e["file"]))
                    args = e.get("arguments") or e.get("command", "").split()
                    cleaned, skip = [], False
                    for a in args[1:]:
                        if skip:
                            skip = False
                            continue
                        if a in ("-o", "-c"):
                            skip = a == "-o"
                            continue
                        if a.endswith(os.path.basename(f_)):
                            continue
                        cleaned.append(a)
                    comp_args[f_] = cleaned

        graph = Graph()
        for path in files:
            graph.files[effective_path_for(path, root)] = path
        lintable = {os.path.normpath(p) for p in files}
        index = cindex.Index.create()
        seen_defs: dict = {}

        fn_kinds = (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                    CursorKind.CONSTRUCTOR, CursorKind.DESTRUCTOR,
                    CursorKind.FUNCTION_TEMPLATE)

        def fn_key(cursor):
            f = cursor.location.file
            return (f.name if f else "?", cursor.location.line,
                    cursor.spelling)

        for tu_path in [f for f in files
                        if f.endswith((".cpp", ".cc", ".cxx"))]:
            args = comp_args.get(
                os.path.normpath(tu_path),
                ["-std=c++20", f"-I{os.path.join(root, 'src')}"])
            tu = index.parse(tu_path, args=args)
            for inc in tu.get_includes():
                src_f = os.path.normpath(inc.location.file.name) \
                    if inc.location.file else None
                dst_f = os.path.normpath(inc.include.name)
                if src_f in lintable and dst_f in lintable:
                    graph.includes.setdefault(
                        effective_path_for(src_f, root), []).append(
                        (inc.location.line,
                         effective_path_for(dst_f, root)))

            def walk(cursor, current):
                k = cursor.kind
                f = cursor.location.file
                here = os.path.normpath(f.name) if f else None
                if k in fn_kinds and cursor.is_definition() \
                        and here in lintable:
                    key = fn_key(cursor)
                    if key in seen_defs:
                        current = seen_defs[key]
                    else:
                        eff = effective_path_for(here, root)
                        sem = cursor.semantic_parent
                        cls = sem.spelling if sem and sem.kind in (
                            CursorKind.CLASS_DECL,
                            CursorKind.STRUCT_DECL) else ""
                        qual = f"{cls}::{cursor.spelling}" if cls \
                            else cursor.spelling
                        toks200 = " ".join(
                            t.spelling for t in cursor.get_tokens())[:400]
                        fd = FunctionDef(
                            name=cursor.spelling, qual=qual,
                            path=here, eff=eff, line=cursor.location.line,
                            hot="BIOSENS_HOT" in toks200
                                or "gnu::hot" in toks200,
                            access=(cursor.access_specifier.name.lower()
                                    if cls else ""),
                            cls=cls)
                        graph.defs.append(fd)
                        seen_defs[key] = fd
                        current = fd
                elif current is not None and here in lintable:
                    if k == CursorKind.CALL_EXPR:
                        ref = cursor.referenced
                        qual = None
                        if ref is not None:
                            sem = ref.semantic_parent
                            if sem is not None and sem.spelling:
                                qual = f"{sem.spelling}::{ref.spelling}"
                        if cursor.spelling:
                            # AST resolution is precise; never subject
                            # these edges to the STL-name blocklist.
                            current.calls.append(
                                (cursor.spelling, qual,
                                 cursor.location.line, False))
                    elif k == CursorKind.CXX_THROW_EXPR:
                        current.prims.append(
                            (THROWING, cursor.location.line,
                             "throw statement"))
                    elif k == CursorKind.CXX_NEW_EXPR:
                        current.prims.append(
                            (ALLOC, cursor.location.line, "operator new"))
                    elif k in (CursorKind.TYPE_REF,
                               CursorKind.DECL_REF_EXPR):
                        base = cursor.spelling.split("::")[-1]
                        if base == "function" and \
                                "std::function" in cursor.spelling:
                            current.prims.append(
                                (STDFUNCTION, cursor.location.line,
                                 "std::function"))
                        elif base in _MUTEX_TYPES:
                            current.prims.append(
                                (MUTEX, cursor.location.line,
                                 f"std::{base}"))
                        elif base in _NONDET_IDENTS | _NONDET_CALLS:
                            current.prims.append(
                                (NONDET, cursor.location.line, base))
                        elif base == "ObsSpan":
                            current.creates_span = True
                for ch in cursor.get_children():
                    walk(ch, current)

            walk(tu.cursor, None)

        # Headers never reached through a TU (and entry declarations)
        # still come from the token extraction; merge them in.
        token_graph = build_graph(files, root, cache_path=None)
        graph.entry_decls = token_graph.entry_decls
        graph.hot_decls = token_graph.hot_decls
        graph.namespaces = token_graph.namespaces
        have = {(d.eff, d.line) for d in graph.defs}
        for d in token_graph.defs:
            if (d.eff, d.line) not in have:
                graph.defs.append(d)
        for eff, edges in token_graph.includes.items():
            merged = set(graph.includes.get(eff, [])) | set(edges)
            graph.includes[eff] = sorted(merged)
        graph.index()
        return graph
    except lint.ClangUnavailable:
        raise
    except Exception as e:  # noqa: BLE001 - any parse trouble degrades
        raise lint.ClangUnavailable(f"clang graph build failed: {e}") from e


# ---------------------------------------------------------------------------
# layers.toml
# ---------------------------------------------------------------------------

class ConfigError(RuntimeError):
    pass


DEFAULT_LAYERS = os.path.join(_SCRIPT_DIR, "layers.toml")


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
        det_allowed_files=tuple(det.get(
            "allowed-files",
            ("src/common/rng.hpp", "src/common/rng.cpp"))),
        det_allowed_dirs=tuple(det.get("allowed-dirs", ("src/obs/",))),
        hot_exempt_dirs=tuple(hot.get("exempt-dirs", ("src/obs/",))),
        hot_exempt_functions=tuple(hot.get("exempt-functions",
                                           ("require",))),
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


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

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
    check_id = "determinism-taint"

    def allowed(d: FunctionDef) -> bool:
        return (is_file(d.eff, cfg.det_allowed_files)
                or in_dirs(d.eff, cfg.det_allowed_dirs))

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


ALL_CHECKS = {
    "hot-path-transitive": check_hot_path,
    "determinism-taint": check_determinism,
    "layer-dag": check_layer_dag,
    "span-coverage": check_span_coverage,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def analyze(files: list, root: str, cfg: LayerConfig, check_ids: list,
            backend: str, compdb: str | None,
            cache_path: str | None) -> tuple:
    """Returns (findings, backend_used)."""
    used = backend
    if backend == "auto":
        try:
            lint.load_cindex()
            used = "clang"
        except lint.ClangUnavailable:
            used = "token"
    if used == "clang":
        try:
            graph = build_graph_clang(files, root, compdb)
        except lint.ClangUnavailable as e:
            if backend == "clang":
                raise
            print(f"{TOOL}: falling back to token backend ({e})",
                  file=sys.stderr)
            used = "token"
            graph = build_graph(files, root, cache_path)
    else:
        graph = build_graph(files, root, cache_path)

    findings = []
    seen: set = set()
    for cid in check_ids:
        for f in ALL_CHECKS[cid](graph, cfg):
            key = (f.path, f.line, f.check_id, f.message)
            if key not in seen:
                seen.add(key)
                findings.append(f)

    # Suppressions use the linter's allow() comment syntax; re-lex only
    # the files that carry findings.
    by_file: dict = {}
    for f in findings:
        by_file.setdefault(f.path, []).append(f)
    kept = []
    for path, file_findings in by_file.items():
        src = lex_file(path, effective_path_for(path, root))
        kept.extend(lint.apply_suppressions(src, file_findings))
    kept.sort(key=lambda f: (f.path, f.line, f.check_id))
    return kept, used


# ---------------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------------

def run_self_test(fixtures_dir: str, verbose: bool = False) -> int:
    manifest_path = os.path.join(fixtures_dir, "expected.txt")
    if not os.path.isfile(manifest_path):
        print(f"{TOOL}: missing manifest {manifest_path}", file=sys.stderr)
        return 2
    expected = set()
    with open(manifest_path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            locpart, check_id = line.rsplit(" ", 1)
            expected.add((locpart, check_id))

    cases = sorted(
        d for d in os.listdir(fixtures_dir)
        if os.path.isdir(os.path.join(fixtures_dir, d)))
    actual = set()
    n_files = 0
    for case in cases:
        case_dir = os.path.join(fixtures_dir, case)
        layers_path = os.path.join(case_dir, "layers.toml")
        if not os.path.isfile(layers_path):
            print(f"{TOOL}: fixture case '{case}' is missing layers.toml",
                  file=sys.stderr)
            return 2
        try:
            cfg = load_layers(layers_path)
        except ConfigError as e:
            print(f"{TOOL}: {e}", file=sys.stderr)
            return 2
        files = discover_files(["src"], case_dir)
        n_files += len(files)
        findings, _used = analyze(
            files, case_dir, cfg, sorted(ALL_CHECKS), backend="token",
            compdb=None, cache_path=None)
        for f in findings:
            rel = os.path.relpath(f.path, fixtures_dir)
            actual.add((f"{_norm(rel)}:{f.line}", f.check_id))
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


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="whole-program architecture analyzer "
                    "(docs/static-analysis.md)")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--root", default=None,
                        help="repository root for scoping rules "
                             "(default: two levels above this script)")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json (clang backend args)")
    parser.add_argument("--layers", default=None,
                        help="layer DAG config "
                             "(default: tools/analyze/layers.toml)")
    parser.add_argument("--graph-cache", default=None,
                        help="JSON file caching the extracted per-file "
                             "graphs between runs (CI stage 11)")
    parser.add_argument("--backend", choices=["auto", "token", "clang"],
                        default="auto")
    parser.add_argument("--check", action="append", dest="checks",
                        metavar="CHECK-ID",
                        help="run only these check ids (repeatable)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="analyze tools/analyze/fixtures/ against "
                             "its expected-violation manifest")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    script_dir = _SCRIPT_DIR
    root = args.root or os.path.dirname(os.path.dirname(script_dir))

    if args.list_checks:
        docs = {
            "hot-path-transitive": "BIOSENS_HOT functions must not "
                                   "transitively reach allocation, "
                                   "std::function, exceptions or locks",
            "determinism-taint": "simulation roots must not transitively "
                                 "reach nondeterminism sources outside "
                                 "common/rng + obs",
            "layer-dag": "includes and calls must follow the sanctioned "
                         "architecture edges in layers.toml",
            "span-coverage": "public try_* entry points must create an "
                             "ObsSpan on some call path",
        }
        for cid in sorted(ALL_CHECKS):
            print(f"{cid}: {docs[cid]}")
        return 0

    if args.self_test:
        return run_self_test(os.path.join(script_dir, "fixtures"),
                             verbose=args.verbose)

    check_ids = sorted(ALL_CHECKS)
    if args.checks:
        unknown = set(args.checks) - set(ALL_CHECKS)
        if unknown:
            print(f"{TOOL}: unknown check ids: {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        check_ids = sorted(set(args.checks))

    layers_path = args.layers or os.path.join(script_dir, "layers.toml")
    try:
        cfg = load_layers(layers_path)
    except ConfigError as e:
        print(f"{TOOL}: {e}", file=sys.stderr)
        return 2

    if args.compdb and not os.path.isfile(args.compdb):
        print(f"{TOOL}: no such compile database: {args.compdb}",
              file=sys.stderr)
        return 2

    files = discover_files(args.paths or ["src"], root)
    if not files:
        print(f"{TOOL}: no source files found", file=sys.stderr)
        return 2

    try:
        findings, used = analyze(files, root, cfg, check_ids,
                                 args.backend, args.compdb,
                                 args.graph_cache)
    except lint.ClangUnavailable as e:
        print(f"{TOOL}: clang backend unavailable: {e}", file=sys.stderr)
        return 2

    for f in findings:
        print(f.render())
    print(f"{TOOL}[{used}]: {len(files)} files, {len(check_ids)} checks, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
