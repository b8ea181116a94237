#!/usr/bin/env bash
# CI gate for the measurement stack (docs/static-analysis.md):
#   1. biosens-lint       per-file invariant checks (throw/
#                         determinism/service/transducer discipline) and
#                         whole-program transitive checks (hot paths,
#                         determinism taint, the layer DAG in
#                         tools/lint/layers.toml, span coverage) in one
#                         pass, + fixture self-test
#   2. clang-format       check-only formatting gate (skips with a
#                         notice when clang-format is not installed)
#   3. clang-tidy         bugprone/performance/concurrency baseline
#                         over compile_commands.json (skips with a
#                         notice when clang-tidy is not installed)
#   4. release            Release build with BIOSENS_WERROR=ON + the
#                         full ctest suite
#   5. tsan               ThreadSanitizer over the engine, thread-pool,
#                         service, sim-cache and recorder tests
#   6. ubsan              UndefinedBehaviorSanitizer over error paths
#   7. asan               AddressSanitizer+LeakSanitizer over the
#                         allocation-bearing engine/cache/obs tests
#   8. perf               solver step-rate smoke vs BENCH_sim.json,
#                         service throughput vs BENCH_service.json and
#                         FET-backend measurement rate vs the "fet"
#                         section of BENCH_engine.json
#   9. obs                traced smoke run + exporter validation
#  10. service            streaming sessions under overload: saturation
#                         tests, mixed-priority demo (amperometric +
#                         FET patients) with mid-run drain/restore,
#                         per-tenant and per-priority Prometheus series
#                         validation
#  11. e2e                the end-to-end benchmark's own tests
#                         (e2ebench/test_e2ebench.py): builds e2ebench/
#                         from src/ and runs every workload briefly, so
#                         a src/ API change cannot break it unnoticed
#
# A per-stage wall-time summary table is printed at the end of the run.
#
#   ci/check.sh            # everything
#   ci/check.sh <stage>    # one stage: lint|format|tidy|release|tsan|
#                          #            ubsan|asan|perf|obs|service|e2e
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
STAGE="${1:-all}"

STAGE_NAMES=()
STAGE_SECS=()

# Runs one stage function under a wall clock; the table at the bottom
# shows where CI time actually goes.
run_stage() {
  local name="$1" start end
  shift
  start="$(date +%s)"
  "$@"
  end="$(date +%s)"
  STAGE_NAMES+=("${name}")
  STAGE_SECS+=("$((end - start))")
}

print_summary() {
  [ "${#STAGE_NAMES[@]}" -gt 0 ] || return 0
  local i total=0
  echo
  echo "=== per-stage wall time ==="
  printf '  %-10s %9s\n' "stage" "seconds"
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-10s %9s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
  done
  printf '  %-10s %9s\n' "total" "${total}"
}

run_lint() {
  echo "=== [1/11] biosens-lint: per-file and whole-program invariant checks ==="
  # tools/lint/biosens_lint.py replaces the old grep lints: it lexes
  # real C++ tokens (strings, comments and multi-line statements can
  # no longer fool it), once per file, and enforces throw-discipline,
  # determinism-discipline, service-discipline (every queue in
  # src/service/ must be bounded), transducer-discipline and
  # stale-suppression (allow() directives must earn their keep). From
  # the same tokens it builds the include and call graphs for the
  # properties a single file cannot show: hot-path-transitive
  # (BIOSENS_HOT code must not reach allocation/throwing/locking
  # through any call chain), determinism-taint (simulation roots must
  # not reach entropy or clock sources outside common/rng), layer-dag
  # (only the edges sanctioned in tools/lint/layers.toml, offending
  # path printed) and span-coverage (every public try_* facade entry
  # opens an ObsSpan). Dropped Expecteds, temporary spans and raw
  # recorder access are compile errors instead (the release stage's
  # compiler_guards test). Check ids, rationale and the allow()
  # suppression syntax: docs/static-analysis.md.
  python3 tools/lint/biosens_lint.py src
  # The fixture self-test proves every check-id fires on its seeded
  # violation and stays silent on the clean files and negatives.
  python3 tools/lint/biosens_lint.py --self-test
  echo "lint: OK"
}

run_format() {
  echo "=== [2/11] clang-format: check-only formatting gate ==="
  if ! command -v clang-format > /dev/null 2>&1; then
    echo "format: clang-format not installed — stage skipped"
    return 0
  fi
  # --dry-run --Werror: exits nonzero on any file that would change.
  find src tools/lint/fixtures -name '*.hpp' -o -name '*.cpp' \
    | xargs clang-format --style=file --dry-run --Werror
  echo "format: OK"
}

run_tidy() {
  echo "=== [3/11] clang-tidy: bugprone/performance/concurrency baseline ==="
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "tidy: clang-tidy not installed — stage skipped"
    return 0
  fi
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  # .clang-tidy at the repo root carries the check set; warnings are
  # errors so the codebase stays tidy-clean once brought clean.
  run_clang_tidy_bin="$(command -v run-clang-tidy || true)"
  if [ -n "${run_clang_tidy_bin}" ]; then
    "${run_clang_tidy_bin}" -p build-ci -quiet \
      -warnings-as-errors='*' 'src/.*\.cpp$'
  else
    find src -name '*.cpp' \
      | xargs clang-tidy -p build-ci --quiet --warnings-as-errors='*'
  fi
  echo "tidy: OK"
}

run_release() {
  echo "=== [4/11] Release build (BIOSENS_WERROR=ON) + full test suite ==="
  # CI promotes the hardened src/ warning set to errors so a new
  # warning cannot land silently; local builds default it off.
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release -DBIOSENS_WERROR=ON
  cmake --build build-ci -j "${JOBS}"
  ctest --test-dir build-ci --output-on-failure -j "${JOBS}"
}

run_tsan() {
  echo "=== [5/11] ThreadSanitizer: engine, pool, service, cache, recorder ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBIOSENS_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" \
    --target test_engine test_engine_determinism test_rng \
    test_thread_pool test_service test_sim_cache test_obs
  # halt_on_error: any reported race fails CI immediately.
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan \
    -R 'engine|rng|thread_pool|service|sim_cache|obs' --output-on-failure
}

run_ubsan() {
  echo "=== [6/11] UndefinedBehaviorSanitizer: error-path tests ==="
  cmake -B build-ubsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBIOSENS_SANITIZE=undefined
  cmake --build build-ubsan -j "${JOBS}" \
    --target test_expected test_engine test_trace
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir build-ubsan -R 'expected|engine$|trace' \
    --output-on-failure
}

run_asan() {
  echo "=== [7/11] AddressSanitizer+LeakSanitizer: allocation-bearing tests ==="
  # The engine's worker pool, the sharded sim-cache LRU and the obs
  # per-thread buffers own the bulk of the dynamic allocations; ASan
  # with leak detection guards use-after-free and unreleased buffers.
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBIOSENS_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
    --target test_engine test_sim_cache test_obs test_expected
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
    ctest --test-dir build-asan -R 'engine$|sim_cache|obs|expected' \
    --output-on-failure
}

run_perf() {
  echo "=== [8/11] Perf smoke: solver step rate + service throughput ==="
  # A reduced-configuration run of the kernel bench (BIOSENS_SMOKE=1
  # shrinks the step/patient counts and skips the google-benchmark
  # timings; the per-step rate it prints is comparable to the full
  # run). Fails when the measured solver step rate regresses more than
  # 30% below the committed baseline — or on any byte-identity
  # violation, which exits the bench nonzero on its own.
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "${JOBS}" --target bench_sim_kernels
  out="$(BIOSENS_SMOKE=1 ./build-ci/bench/bench_sim_kernels)"
  printf '%s\n' "${out}"
  # A baseline recorded under BIOSENS_SMOKE/BIOSENS_BENCH_SMOKE carries
  # "smoke": true — its absolute rates came from a reduced run on an
  # arbitrary machine, so absolute-rate gates against it are
  # meaningless. Byte-identity and the factorization-count invariant
  # are machine-independent and stay enforced.
  sim_smoke=0
  if grep -q '"smoke": true' BENCH_sim.json; then
    sim_smoke=1
    echo "perf smoke: BENCH_sim.json baseline was recorded in smoke" \
         "mode; skipping absolute-rate gates against it"
  fi
  if [ "${sim_smoke}" -eq 0 ]; then
  current="$(printf '%s\n' "${out}" \
    | sed -n 's/^solver_steps_per_sec_after=\([0-9.]*\)$/\1/p')"
  baseline="$(sed -n \
    's/.*"steps_per_sec_after": \([0-9.]*\).*/\1/p' BENCH_sim.json \
    | head -n 1)"
  if [ -z "${current}" ] || [ -z "${baseline}" ]; then
    echo "perf smoke: could not parse step rates" >&2
    echo "  (bench printed '${current:-?}', baseline '${baseline:-?}')" >&2
    exit 1
  fi
  awk -v cur="${current}" -v base="${baseline}" 'BEGIN {
    floor = 0.70 * base;
    printf "perf smoke: %.0f steps/s vs baseline %.0f (floor %.0f)\n",
           cur, base, floor;
    exit (cur >= floor) ? 0 : 1;
  }' || {
    echo "perf smoke: solver step rate regressed more than 30%" >&2
    exit 1
  }
  # Batched lockstep stepper vs the "batched" section (the K=8 point).
  # Aggregate rates are noisier than the single-field loop, so the
  # floor is 50% of the committed baseline.
  batched_current="$(printf '%s\n' "${out}" \
    | sed -n 's/^batched_steps_per_sec=\([0-9.]*\)$/\1/p')"
  batched_baseline="$(sed -n \
    's/.*"steps_per_sec_batched": \([0-9.]*\).*/\1/p' BENCH_sim.json \
    | head -n 1)"
  if [ -z "${batched_current}" ] || [ -z "${batched_baseline}" ]; then
    echo "perf smoke: could not parse batched step rates" >&2
    echo "  (bench printed '${batched_current:-?}'," \
         "baseline '${batched_baseline:-?}')" >&2
    exit 1
  fi
  awk -v cur="${batched_current}" -v base="${batched_baseline}" 'BEGIN {
    floor = 0.50 * base;
    printf "perf smoke: %.0f batched steps/s vs baseline %.0f (floor %.0f)\n",
           cur, base, floor;
    exit (cur >= floor) ? 0 : 1;
  }' || {
    echo "perf smoke: batched step rate regressed more than 50%" >&2
    exit 1
  }
  fi
  # One shared factorization for the whole fixed-dt K=8 batch — the
  # invariant the batched layer exists for. Machine-independent, so it
  # is asserted even when the baseline is a smoke recording.
  batched_fact="$(printf '%s\n' "${out}" \
    | sed -n 's/^batched_factorizations=\([0-9]*\)$/\1/p')"
  if [ "${batched_fact}" != "1" ]; then
    echo "perf smoke: fixed-dt batched run performed" \
         "'${batched_fact:-?}' factorizations, expected 1" >&2
    exit 1
  fi
  # Service scheduler throughput vs BENCH_service.json. The smoke
  # configuration (1k sessions) is noisier than the kernel bench, so
  # the floor is 50% of the committed 4-worker baseline; snapshot
  # byte-identity across worker counts exits the bench nonzero itself.
  cmake --build build-ci -j "${JOBS}" --target bench_service
  svc_out="$(BIOSENS_SMOKE=1 ./build-ci/bench/bench_service)"
  printf '%s\n' "${svc_out}"
  svc_current="$(printf '%s\n' "${svc_out}" \
    | sed -n 's/^service_jobs_per_sec=\([0-9.]*\)$/\1/p')"
  svc_baseline="$(sed -n \
    's/.*"4": {"jobs_per_sec": \([0-9.]*\).*/\1/p' BENCH_service.json \
    | head -n 1)"
  if [ -z "${svc_current}" ] || [ -z "${svc_baseline}" ]; then
    echo "perf smoke: could not parse service job rates" >&2
    echo "  (bench printed '${svc_current:-?}'," \
         "baseline '${svc_baseline:-?}')" >&2
    exit 1
  fi
  awk -v cur="${svc_current}" -v base="${svc_baseline}" 'BEGIN {
    floor = 0.50 * base;
    printf "perf smoke: %.0f service jobs/s vs baseline %.0f (floor %.0f)\n",
           cur, base, floor;
    exit (cur >= floor) ? 0 : 1;
  }' || {
    echo "perf smoke: service throughput regressed more than 50%" >&2
    exit 1
  }
  # FET backend measurement rate vs the "fet" section of
  # BENCH_engine.json (docs/transducers.md). bench_fet also asserts
  # cache on/off byte-identity inline and exits nonzero on violation,
  # so a determinism break in the new backend fails here too.
  cmake --build build-ci -j "${JOBS}" --target bench_fet
  fet_out="$(BIOSENS_SMOKE=1 ./build-ci/bench/bench_fet)"
  printf '%s\n' "${fet_out}"
  fet_current="$(printf '%s\n' "${fet_out}" \
    | sed -n 's/^fet_measurements_per_sec=\([0-9.]*\)$/\1/p')"
  fet_baseline="$(sed -n \
    's/.*"fet_meas_per_sec": \([0-9.]*\).*/\1/p' BENCH_engine.json \
    | head -n 1)"
  if [ -z "${fet_current}" ] || [ -z "${fet_baseline}" ]; then
    echo "perf smoke: could not parse FET measurement rates" >&2
    echo "  (bench printed '${fet_current:-?}'," \
         "baseline '${fet_baseline:-?}')" >&2
    exit 1
  fi
  awk -v cur="${fet_current}" -v base="${fet_baseline}" 'BEGIN {
    floor = 0.50 * base;
    printf "perf smoke: %.0f FET meas/s vs baseline %.0f (floor %.0f)\n",
           cur, base, floor;
    exit (cur >= floor) ? 0 : 1;
  }' || {
    echo "perf smoke: FET measurement rate regressed more than 50%" >&2
    exit 1
  }
}

run_obs() {
  echo "=== [9/11] Observability smoke: traced batch + exporter validation ==="
  # One small traced service run must yield a Chrome trace that loads
  # in Perfetto (valid JSON, balanced begin/end nesting per thread) and
  # a Prometheus exposition with well-formed cumulative histograms.
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "${JOBS}" --target service_demo
  obs_dir="$(mktemp -d)"
  trap 'rm -rf "${obs_dir}"' RETURN
  ./build-ci/examples/service_demo --quick --waves=1 --samples=48 \
    --trace-out="${obs_dir}/trace.json" \
    --metrics-out="${obs_dir}/metrics.prom" \
    --events-out="${obs_dir}/events.jsonl"
  python3 - "${obs_dir}" <<'PY'
import json, sys, os
d = sys.argv[1]

# Chrome trace: valid JSON, balanced B/E nesting per thread track.
with open(os.path.join(d, "trace.json")) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
depth = {}
spans = 0
for e in events:
    ph, tid = e["ph"], e["tid"]
    if ph == "B":
        depth[tid] = depth.get(tid, 0) + 1
        spans += 1
    elif ph == "E":
        depth[tid] = depth.get(tid, 0) - 1
        assert depth[tid] >= 0, f"E without B on tid {tid}"
assert all(v == 0 for v in depth.values()), f"unbalanced spans: {depth}"
assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in events), \
    "missing thread_name metadata"
print(f"chrome trace: OK ({len(events)} events, {spans} spans, "
      f"{len(depth)} tracks)")

# Prometheus: every histogram series (family + label set) is
# cumulative and ends at +Inf.
hist = {}
with open(os.path.join(d, "metrics.prom")) as f:
    for line in f:
        if "_bucket{" not in line:
            continue
        name, rest = line.split("_bucket{", 1)
        labels = rest.split("}", 1)[0].split(",")
        le = next(l for l in labels if l.startswith('le="'))
        series = (name,) + tuple(l for l in labels if not l.startswith('le="'))
        value = float(line.rsplit(" ", 1)[1])
        hist.setdefault(series, []).append((le[4:-1], value))
assert hist, "no histogram buckets in Prometheus exposition"
for series, buckets in hist.items():
    assert buckets[-1][0] == "+Inf", f"{series} missing +Inf bucket"
    values = [v for _, v in buckets]
    assert values == sorted(values), f"{series} buckets not cumulative"
assert any(s[0] == "biosens_layer_span_seconds" for s in hist), \
    "missing per-layer histograms"
print(f"prometheus: OK ({len(hist)} histogram series)")

# Metadata discipline: every exported family must carry # HELP and
# # TYPE, and the exposition must identify the producing build.
helps, types, families = set(), set(), set()
with open(os.path.join(d, "metrics.prom")) as f:
    for line in f:
        line = line.strip()
        if line.startswith("# HELP "):
            helps.add(line.split()[2])
        elif line.startswith("# TYPE "):
            types.add(line.split()[2])
        elif line and not line.startswith("#"):
            name = line.split("{", 1)[0].split(" ", 1)[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
                    break
            families.add(name)
assert families - helps == set(), f"families without # HELP: {families - helps}"
assert families - types == set(), f"families without # TYPE: {families - types}"
assert "biosens_build_info" in families, "missing biosens_build_info gauge"
print(f"prometheus metadata: OK ({len(families)} families, all with "
      f"HELP/TYPE, build info present)")

# JSONL: one valid object per line.
with open(os.path.join(d, "events.jsonl")) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines and all("phase" in e for e in lines), "bad JSONL events"
print(f"jsonl: OK ({len(lines)} events)")
PY
  echo "observability smoke: OK"
}

run_service() {
  echo "=== [10/11] Service smoke: streaming sessions under overload ==="
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "${JOBS}" --target service_demo test_service
  svc_dir="$(mktemp -d)"
  trap 'rm -rf "${svc_dir}"' RETURN
  # Deterministic overload + determinism coverage: the gated saturation
  # tests prove kOverloaded rejections carry the tenant and a
  # retry-after hint while the service keeps serving, and the
  # snapshot/restore suite proves restarts are byte-invisible.
  ./build-ci/tests/test_service \
    --gtest_filter='ServiceSaturation.*:ServiceDeterminism.*'
  # Streaming smoke: mixed-priority tenants with a mid-run drain +
  # snapshot/restore (the demo exits nonzero if any restored stream
  # diverges), then validate the per-tenant / per-priority series in
  # the Prometheus exposition it writes after the final drain.
  ./build-ci/examples/service_demo --quick \
    --metrics-out="${svc_dir}/service.prom"
  python3 - "${svc_dir}/service.prom" <<'PY'
import re, sys

counters = {}
gauges = {}
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("#") or not line.strip():
            continue
        m = re.match(r"(\w+)(?:\{([^}]*)\})? (\S+)$", line.strip())
        assert m, f"unparseable exposition line: {line!r}"
        name, labels, value = m.group(1), m.group(2) or "", float(m.group(3))
        kv = dict(p.split("=", 1) for p in labels.split(",") if p)
        kv = {k: v.strip('"') for k, v in kv.items()}
        if name.endswith("_total"):
            counters[(name, tuple(sorted(kv.items())))] = value
        elif "_bucket" not in name and not name.endswith(("_sum", "_count")):
            gauges[name] = value

def total(name, **want):
    return sum(v for (n, kv), v in counters.items()
               if n == name and all(dict(kv).get(k) == w
                                    for k, w in want.items()))

# Per-priority series: both classes streamed, and per class the
# admitted work is fully accounted for (submitted = completed+failed).
for cls in ("interactive", "bulk"):
    sub = total("biosens_service_requests_total", **{
        "class": cls, "outcome": "submitted"})
    done = total("biosens_service_requests_total", **{
        "class": cls, "outcome": "completed"})
    fail = total("biosens_service_requests_total", **{
        "class": cls, "outcome": "failed"})
    assert sub > 0, f"no {cls} traffic in exposition"
    assert sub == done + fail, \
        f"{cls}: submitted {sub} != completed {done} + failed {fail}"

# Per-tenant series: every demo tenant shows up with its own labels.
# fet-ward is the patient streaming through the field-effect backend
# (docs/transducers.md) — its presence proves the mixed
# amperometric+FET panel ran end-to-end through the service.
tenants = {dict(kv).get("tenant")
           for (n, kv) in counters
           if n == "biosens_service_tenant_requests_total"}
for tenant in ("clinic-a", "ward-c", "fet-ward", "lab-bulk"):
    assert tenant in tenants, f"missing per-tenant series for {tenant}"

# The FET session must have completed real measurements, not just
# opened: completed interactive work from fet-ward specifically.
fet_done = total("biosens_service_tenant_requests_total",
                 tenant="fet-ward", outcome="completed")
assert fet_done > 0, "fet-ward session completed no measurements"

# Clean drain: the exposition is written after the final drain, so
# nothing may still be queued or running.
assert gauges.get("biosens_service_pending") == 0.0, gauges
assert gauges.get("biosens_service_in_flight") == 0.0, gauges
assert gauges.get("biosens_service_sessions_open", 0) > 0, gauges
print(f"service exposition: OK ({len(counters)} counter series, "
      f"{sorted(t for t in tenants if t)} tenants, drained clean)")
PY
  # Flight-recorder + introspection smoke: the demo's shallow queues
  # guarantee kOverloaded rejections, whose first occurrence must
  # auto-dump the recorder (attributed to the rejected tenant) and whose
  # introspection probes must walk healthy -> degraded
  # (queue-saturation) -> healthy across the drain (docs/operations.md).
  ./build-ci/examples/service_demo --quick \
    --recorder-out="${svc_dir}/recorder.json" \
    --introspect-out="${svc_dir}/introspect.json"
  python3 - "${svc_dir}" <<'PY'
import json, os, sys
d = sys.argv[1]

LAYERS = {"common", "chem", "transport", "electrode", "electrochem",
          "readout", "analysis", "classify", "core", "engine", "service",
          "fet"}

# Auto-dumped flight recorder: latched by the first overload rejection.
with open(os.path.join(d, "recorder.json")) as f:
    dump = json.load(f)
assert dump["reason"] == "overloaded", dump["reason"]
assert dump["tenant"], "dump has no tenant attribution"
assert dump["events"], "dump captured no events"
assert dump["triggers"] >= 1 and dump["recorded"] >= len(dump["events"])
tail = dump["tenant_tail"]
assert tail, "no tenant tail in the auto-dump"
for ev in tail:
    assert ev["tenant"] == dump["tenant"], \
        f"tail event attributed to {ev['tenant']!r}, not {dump['tenant']!r}"
for ev in dump["events"]:
    assert ev["layer"] in LAYERS, f"unknown layer {ev['layer']!r}"
    assert ev["phase"] in {"begin", "end", "instant", "async-begin",
                           "async-end"}, ev["phase"]
trigger = [e for e in tail if e["name"] == "recorder-trigger"]
assert trigger and trigger[-1]["failed"], \
    "tenant tail is missing the failed trigger marker"
ts = [e["ts_ns"] for e in dump["events"]]
assert ts == sorted(ts), "dump events are not in timestamp order"
print(f"flight recorder: OK (tenant {dump['tenant']!r}, "
      f"{len(dump['events'])} events, tail {len(tail)}, "
      f"{dump['triggers']} triggers)")

# Introspection probes: healthy at start, degraded with a
# queue-saturation reason mid-incident, healthy again after the drain.
with open(os.path.join(d, "introspect.json")) as f:
    probes = json.load(f)
assert len(probes) == 3, f"expected 3 probes, got {len(probes)}"
states = [p["health"]["state"] for p in probes]
assert states == ["healthy", "degraded", "healthy"], states
reasons = {r["code"] for r in probes[1]["health"]["reasons"]}
assert "queue-saturation" in reasons, reasons
assert all(p["component"] == "service" for p in probes)
assert probes[1]["recorder"]["installed"] and \
    probes[1]["recorder"]["triggered"], probes[1]["recorder"]
assert probes[1]["rates"]["samples"] >= 1
print(f"introspection: OK (states {states}, incident reasons "
      f"{sorted(reasons)})")
PY
  echo "service smoke: OK"
}

run_e2e() {
  echo "=== [11/11] End-to-end benchmark: its own tests (quick mode) ==="
  # Neither the release stage nor CTest compiles e2ebench/; its tests
  # build it from src/ the way python3 e2ebench/run.py does, then check
  # the self-test binary, quick runs of every workload and the
  # BENCHMARK.json manifest.
  python3 e2ebench/test_e2ebench.py
}

case "${STAGE}" in
  lint)    run_stage lint    run_lint ;;
  format)  run_stage format  run_format ;;
  tidy)    run_stage tidy    run_tidy ;;
  release) run_stage release run_release ;;
  tsan)    run_stage tsan    run_tsan ;;
  ubsan)   run_stage ubsan   run_ubsan ;;
  asan)    run_stage asan    run_asan ;;
  perf)    run_stage perf    run_perf ;;
  obs)     run_stage obs     run_obs ;;
  service) run_stage service run_service ;;
  e2e)     run_stage e2e     run_e2e ;;
  all)     run_stage lint    run_lint
           run_stage format  run_format
           run_stage tidy    run_tidy
           run_stage release run_release
           run_stage tsan    run_tsan
           run_stage ubsan   run_ubsan
           run_stage asan    run_asan
           run_stage perf    run_perf
           run_stage obs     run_obs
           run_stage service run_service
           run_stage e2e     run_e2e ;;
  *) echo "usage: ci/check.sh [lint|format|tidy|release|tsan|ubsan|asan|perf|obs|service|e2e|all]" >&2
     exit 2 ;;
esac
print_summary
echo "CI checks passed."
