#!/usr/bin/env python3
"""CTest wrapper for the biosens-lint fixture self-test.

These properties mirror the CI acceptance criteria
(docs/static-analysis.md):
  1. the fixture manifest matches exactly — every check-id fires on its
     seeded violation and stays silent on the matching clean fixture and
     the negatives (suppressed hot root, config-exempt guard,
     grandfathered include, traced entry point);
  2. every registered check-id, per-file and whole-program, is exercised
     by a fixture;
  3. the real tree (src/) is clean under the repo's own layers.toml;
  4. seeding a forbidden construct into a src-shaped tree fails with
     the correct check-id and file:line, and an allow() suppression
     silences it again;
  5. a path that does not exist is a configuration error: exit 2, not 1.

The planted-tree tests of the whole-program checks are in
tests/test_analyzer_fixtures.py, which reuses this file's helpers.
Run directly (python3 tests/test_lint_fixtures.py) or via ctest
(test target `lint_fixtures`).
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "tools", "lint", "biosens_lint.py")
FIXTURES = os.path.join(REPO_ROOT, "tools", "lint", "fixtures")


def run_linter(*args):
    return subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120)


def plant(test, files):
    """Writes {src-relative path: content} into a fresh tree, removed
    when the test ends; returns the tree's root."""
    tree = tempfile.mkdtemp(prefix="biosens_lint_seed_")
    test.addCleanup(lambda: subprocess.run(["rm", "-rf", tree]))
    for rel_path, content in files.items():
        full = os.path.join(tree, rel_path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(content)
    return tree


def lint_tree(tree):
    return run_linter("--root", tree, os.path.join(tree, "src"))


class FixtureSelfTest(unittest.TestCase):
    def test_manifest_matches_exactly(self):
        proc = run_linter("--self-test")
        self.assertEqual(
            proc.returncode, 0,
            f"fixture self-test failed:\n{proc.stdout}\n{proc.stderr}")

    def test_every_check_id_is_exercised(self):
        listed = run_linter("--list-checks")
        self.assertEqual(listed.returncode, 0, listed.stderr)
        summaries = dict(line.split(": ", 1)
                         for line in listed.stdout.splitlines())
        self.assertEqual(len(summaries), 9)
        for check_id, summary in summaries.items():
            self.assertTrue(summary.endswith("."),
                            f"{check_id}: summary is not a whole "
                            f"sentence: {summary!r}")
        check_ids = set(summaries)

        exercised = set()
        for raw in open(os.path.join(FIXTURES, "expected.txt")):
            entry = raw.split("#", 1)[0].strip()
            if entry:
                exercised.add(entry.split()[1])
        self.assertEqual(
            check_ids, exercised,
            "every check-id must have a seeded-violation fixture")

    def test_repository_tree_is_clean(self):
        proc = run_linter("src")
        self.assertEqual(
            proc.returncode, 0,
            f"src/ has lint findings:\n{proc.stdout}\n{proc.stderr}")


class SeededViolationTest(unittest.TestCase):
    """A forbidden construct planted in a src-shaped tree must fail
    with the right check-id and location (acceptance criterion)."""

    CASES = [
        ("src/chem/planted.cpp",
         'int f(int x) {\n  if (x < 0) throw x;\n  return x;\n}\n',
         "throw-discipline", 2),
        ("src/engine/planted.cpp",
         '#include <random>\nint f() {\n  std::random_device d;\n'
         '  return static_cast<int>(d());\n}\n',
         "determinism-discipline", 1),
        ("src/core/planted_transducer.cpp",
         'namespace biosens::electrochem {\nclass Cell;\n}\n'
         'void f(biosens::electrochem::Cell* cell);\n',
         "transducer-discipline", 2),
    ]

    def test_seeded_violations_fail_with_id_and_location(self):
        for rel_path, content, check_id, line in self.CASES:
            with self.subTest(check=check_id):
                tree = plant(self, {rel_path: content})
                proc = lint_tree(tree)
                self.assertEqual(proc.returncode, 1,
                                 f"expected failure:\n{proc.stdout}")
                full = os.path.join(tree, rel_path)
                self.assertIn(f"{full}:{line}: [{check_id}]", proc.stdout)

    def test_allow_comment_suppresses(self):
        rel_path, content, check_id, line = self.CASES[0]
        lines = content.splitlines()
        lines[line - 1] += f"  // biosens-lint: allow({check_id})"
        tree = plant(self, {rel_path: "\n".join(lines) + "\n"})
        proc = lint_tree(tree)
        self.assertEqual(
            proc.returncode, 0,
            f"suppression did not silence {check_id}:\n{proc.stdout}")


class ConfigErrorTest(unittest.TestCase):
    def test_missing_path_exits_2(self):
        proc = run_linter("src/nonexistent_dir", "src")
        self.assertEqual(proc.returncode, 2,
                         f"a missing path must be a config error "
                         f"(exit 2):\n{proc.stdout}\n{proc.stderr}")
        self.assertIn("no such path: src/nonexistent_dir", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
