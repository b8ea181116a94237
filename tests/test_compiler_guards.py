#!/usr/bin/env python3
"""CTest wrapper proving that the compiler holds four invariants of src/.

Each case is a snippet with one planted line that breaks an invariant,
and a clean twin that differs only in that line. Both are compiled with
the flags src/ is built with (BIOSENS_SRC_WARNINGS from the top-level
CMakeLists.txt): the planted snippet must fail with an error at the
planted line, and the clean twin must compile.

  1. A dropped Expected fails under -Werror=unused-result: Expected is a
     [[nodiscard]] class, so this holds for a try_* declaration without
     the attribute too. `(void)try_x(...)` is the explicit discard.
  2. An obs::ObsSpan is a named local: its [[nodiscard]] constructor
     rejects a discarded temporary, written with () or {}, and its
     deleted operator new rejects a heap span.
  3. Raw event emission stays in src/obs/: FlightRecorder::record_event
     is private, and health.cpp's add_reason has internal linkage.

Run via ctest (entry `compiler_guards`), or directly:
  python3 tests/test_compiler_guards.py <c++> <src include root> \\
      [src warning flags...]
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

# Set from the command line: the compiler, src/'s include root and
# src/'s warning flags.
CXX, INCLUDE_ROOT, WARNINGS = None, None, []

SPAN_SNIPPET = """\
#include "obs/span.hpp"
namespace biosens {
void traced_work() {
{line}
}
}  // namespace biosens
"""

# (name, snippet with a {line} slot, planted line, clean line)
CASES = [
    ("dropped try_* result", """\
#include "chem/species.hpp"
namespace biosens {
int lookup() {
{line}
  return 0;
}
}  // namespace biosens
""",
     '  chem::try_species("glucose");',
     '  if (!chem::try_species("glucose").has_value()) return 1;'),
    ("dropped Expected of a declaration without [[nodiscard]]", """\
#include "common/expected.hpp"
namespace biosens {
Expected<int> try_plain(int x);
int call_plain() {
{line}
  return 0;
}
}  // namespace biosens
""",
     "  try_plain(1);",
     "  if (!try_plain(1).has_value()) return 1;"),
    ("span temporary with ()", SPAN_SNIPPET,
     '  obs::ObsSpan(Layer::kCore, "work");',
     '  const obs::ObsSpan span(Layer::kCore, "work");'),
    ("span temporary with {}", SPAN_SNIPPET,
     '  obs::ObsSpan{Layer::kCore, "work"};',
     '  obs::ObsSpan span{Layer::kCore, "work"};'),
    ("heap span", SPAN_SNIPPET,
     '  delete new obs::ObsSpan(Layer::kCore, "work");',
     '  obs::ObsSpan span(Layer::kCore, "work");'),
    ("record_event outside src/obs/", """\
#include "obs/recorder.hpp"
namespace biosens {
void emit(obs::FlightRecorder& recorder) {
{line}
}
}  // namespace biosens
""",
     "  recorder.record_event(obs::RecorderEvent{});",
     '  obs::instant(Layer::kCore, "emit");'),
    ("add_reason outside health.cpp", """\
#include "obs/health.hpp"
namespace biosens {
obs::HealthReport judge(const obs::HealthInputs& inputs) {
  obs::HealthReport report;
{line}
  return report;
}
}  // namespace biosens
""",
     '  obs::add_reason(report, obs::HealthState::kDegraded, "x", "y");',
     "  report = obs::evaluate_health(inputs);"),
]


def compile_snippet(test, source):
    """Compiles one snippet with src/'s flags; returns (exit code,
    diagnostics, path of the compiled file)."""
    fd, path = tempfile.mkstemp(prefix="biosens_guard_", suffix=".cpp")
    test.addCleanup(os.remove, path)
    with os.fdopen(fd, "w") as f:
        f.write(source)
    proc = subprocess.run(
        [CXX, "-std=c++20", "-fsyntax-only", "-I", INCLUDE_ROOT,
         *WARNINGS, path],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr, path


class CompilerGuardTest(unittest.TestCase):
    def test_planted_line_fails_and_clean_twin_compiles(self):
        for name, snippet, planted, clean in CASES:
            with self.subTest(case=name):
                line = snippet.splitlines().index("{line}") + 1
                code, diag, path = compile_snippet(
                    self, snippet.replace("{line}", planted))
                self.assertNotEqual(code, 0,
                                    f"planted line compiled:\n{diag}")
                self.assertRegex(
                    diag, re.escape(path) + f":{line}:\\d+: error:",
                    "no error at the planted line")
                code, diag, _ = compile_snippet(
                    self, snippet.replace("{line}", clean))
                self.assertEqual(code, 0, f"clean twin failed:\n{diag}")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    CXX, INCLUDE_ROOT, *WARNINGS = sys.argv[1:]
    unittest.main(argv=sys.argv[:1], verbosity=2)
