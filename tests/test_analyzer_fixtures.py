#!/usr/bin/env python3
"""CTest wrapper for the whole-program checks of biosens-lint.

These properties mirror the CI acceptance criteria
(docs/static-analysis.md, "Whole-program analysis"):
  1. a chem -> engine include planted in a src-shaped tree fails with
     [layer-dag] and the offending dependency path printed, and an
     allow() suppression silences it again;
  2. the same allow() over a legal file suppresses nothing and fails
     as [stale-suppression] at its own line;
  3. a malformed layer config (cycle) exits 2, not 1.

The fixture manifest, the clean-tree check and the per-file seeded
violations are in tests/test_lint_fixtures.py, whose helpers this file
reuses. Run directly (python3 tests/test_analyzer_fixtures.py) or via
ctest (test target `analyzer_fixtures`).
"""

import os
import tempfile
import unittest

from test_lint_fixtures import lint_tree, plant, run_linter


class PlantedLayerViolationTest(unittest.TestCase):
    """A chem -> engine include planted in a src-shaped tree must fail
    end-to-end with the dependency path printed (acceptance
    criterion)."""

    ENGINE_HEADER = "namespace biosens::engine {\nvoid engine_step();\n}\n"
    CHEM_SOURCE = ('#include "engine/planted_engine.hpp"\n'
                   "namespace biosens::chem {\n"
                   "int planted_react() { return 0; }\n"
                   "}\n")

    def plant_chem(self, chem_source):
        return plant(self, {
            "src/engine/planted_engine.hpp": self.ENGINE_HEADER,
            "src/chem/planted.cpp": chem_source,
        })

    def test_planted_include_fails_with_path(self):
        tree = self.plant_chem(self.CHEM_SOURCE)
        proc = lint_tree(tree)
        self.assertEqual(proc.returncode, 1,
                         f"expected failure:\n{proc.stdout}\n{proc.stderr}")
        planted = os.path.join(tree, "src/chem/planted.cpp")
        self.assertIn(f"{planted}:1: [layer-dag]", proc.stdout)
        self.assertIn(
            "dependency path: src/chem/planted.cpp -> "
            "src/engine/planted_engine.hpp", proc.stdout,
            "the finding must print the offending dependency path")

    def test_allow_comment_suppresses(self):
        suppressed = ("// biosens-lint: allow(layer-dag)\n" +
                      self.CHEM_SOURCE)
        tree = self.plant_chem(suppressed)
        proc = lint_tree(tree)
        self.assertEqual(
            proc.returncode, 0,
            f"suppression did not silence layer-dag:\n{proc.stdout}")

    def test_dead_allow_is_stale(self):
        # The same directive over a legal chem file suppresses nothing.
        tree = plant(self, {
            "src/chem/planted.cpp":
                "namespace biosens::chem {\n"
                "// biosens-lint: allow(layer-dag)\n"
                "int planted_react() { return 0; }\n"
                "}\n",
        })
        proc = lint_tree(tree)
        self.assertEqual(proc.returncode, 1,
                         f"expected failure:\n{proc.stdout}\n{proc.stderr}")
        planted = os.path.join(tree, "src/chem/planted.cpp")
        self.assertIn(f"{planted}:2: [stale-suppression]", proc.stdout)


class ConfigErrorTest(unittest.TestCase):
    def test_cyclic_layer_table_exits_2(self):
        cfg = tempfile.NamedTemporaryFile(
            mode="w", suffix=".toml", delete=False)
        self.addCleanup(lambda: os.unlink(cfg.name))
        cfg.write('[layers]\nmembers = ["a", "b"]\n'
                  '[edges]\na = ["b"]\nb = ["a"]\n')
        cfg.close()
        proc = run_linter("--layers", cfg.name, "src")
        self.assertEqual(proc.returncode, 2,
                         f"cycle must be a config error (exit 2):\n"
                         f"{proc.stdout}\n{proc.stderr}")
        self.assertIn("cycle", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
