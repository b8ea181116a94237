#!/usr/bin/env python3
"""End-to-end biosens benchmark: builds e2ebench/ and runs one workload.

    python3 e2ebench/run.py --workload cohort_cold --seed 1 --seconds 20 \
        --trace 0
    python3 e2ebench/run.py --workload poc_sessions --quick ...   # short check
    python3 e2ebench/run.py --write-manifest   # regenerate BENCHMARK.json

The package builds from the repository's src/ into $CARGO_TARGET_DIR
(default .bench_build) under the repository root; build output goes to a
log there and is shown only when the build fails. The benchmark's last
stdout line is its JSON result; a failed build or check exits nonzero
without one. Results and spans are written under <build>/results.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    """Configures (once) and builds the benchmark; returns the bin dir."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "bench_e2e", "e2e_selftest"])
        # Keep the compiler's temporary files inside the build tree too.
        env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % log_path)
                sys.exit(2)
    return out


def src_lines():
    """Lines of C++ under src/ (informational, tracked beside the numbers)."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".cpp", ".hpp")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def main(argv):
    if "--write-manifest" in argv:
        out = build(build_dir())
        manifest = subprocess.run(
            [os.path.join(out, "bench_e2e"), "--manifest"],
            stdout=subprocess.PIPE, check=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json"), "wb") as f:
            f.write(manifest)
        return 0
    out = build(build_dir())
    results = os.path.join(out, "results")
    cmd = [os.path.join(out, "bench_e2e")] + argv + [
        "--out-dir", results, "--src-lines", str(src_lines())]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
