#!/bin/sh
# Tier-1 verification script: configure, build, and run the full ctest suite,
# then a serving-layer smoke test of the CLI (trace replay + metrics dump),
# then a fault-injected multi-farm smoke (3 farms, 20% fault rate: failover
# must absorb every fault with zero lost submissions), then a verdict-store
# restart smoke (serve, kill, re-serve the same --store-dir: recovery must
# replay records and the warmed cache must produce hits), then an ingest
# admission-latency smoke (mixed ~64KB/~8MB APKs through the chunked reader:
# the large bucket's Submit() p99 must stay within 2x of the small bucket's),
# then an overload-control storm smoke (shedding on against one small shard:
# bulk sheds, interactive never, the SLO holds, blobs spill, nothing lost),
# then a network-ingest gateway smoke (serve --listen driven by hostile
# `apichecker submit` clients: scripted stalls past the read deadline and a
# mid-upload SIGKILL, with the extended drain invariant
# uploads_accepted == completed + aborted asserted over the metrics dump),
# then a steady-state thread-count gate (the unified runtime keeps process
# threads O(cores): the peak thread gauge must stay flat as concurrent upload
# clients quadruple),
# then rebuild the concurrency-sensitive tests and the byte-path kernels
# under AddressSanitizer, the hostile-byte decoders under
# UndefinedBehaviorSanitizer, and — unless skipped —
# run the stress-labelled suites (farm-pool fault injection + the serve and
# store soak tests) and the rt::Runtime::ParallelFor callers (device farm,
# forest training) under ThreadSanitizer.
#
# Usage: sh tools/ci.sh [--no-asan] [--no-ubsan] [--no-tsan]
set -e

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ASAN=1
UBSAN=1
TSAN=1
for arg in "$@"; do
  [ "$arg" = "--no-asan" ] && ASAN=0
  [ "$arg" = "--no-ubsan" ] && UBSAN=0
  [ "$arg" = "--no-tsan" ] && TSAN=0
done

echo "=== tier-1: configure + build ==="
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j

echo "=== tier-1: ctest ==="
(cd "$ROOT/build" && ctest --output-on-failure -j)

echo "=== serve: CLI smoke (trace replay + metrics) ==="
SERVE_TMP=$(mktemp -d)
trap 'rm -rf "$SERVE_TMP"' EXIT
"$ROOT/build/tools/apichecker" study --apps 800 --apis 8000 \
  --model "$SERVE_TMP/model.bin" >/dev/null
"$ROOT/build/tools/apichecker" serve --apps 60 --apis 8000 \
  --model "$SERVE_TMP/model.bin" --metrics-out "$SERVE_TMP/metrics.json" \
  | grep "invariant accepted == resolved: OK"
for series in apichecker_serve_submissions_total apichecker_serve_batches_total \
              apichecker_serve_cache_hits_total apichecker_serve_model_swaps_total \
              apichecker_serve_e2e_latency_ms; do
  grep -q "$series" "$SERVE_TMP/metrics.json" || {
    echo "missing metric series: $series"; exit 1; }
done
echo "serve smoke OK (metrics dump carries the apichecker_serve_* series)"

echo "=== stress: fault-injected multi-farm serve smoke ==="
# 3 farms with a 20% per-batch fault rate: the pool must retry faulted batches
# on healthy farms (retries > 0 in the metrics dump) and still lose nothing
# (the CLI exits non-zero if accepted != resolved).
"$ROOT/build/tools/apichecker" serve --apps 160 --apis 8000 --batch 4 \
  --model "$SERVE_TMP/model.bin" --farms 3 --fault-rate 0.2 \
  --metrics-out "$SERVE_TMP/metrics-faulted.json" \
  | grep "invariant accepted == resolved: OK"
# Integer counters serialize bare in the JSON dump, so a nonzero value is
# simply a leading digit 1-9.
grep -q '"apichecker_serve_farm_faults_total": [1-9]' "$SERVE_TMP/metrics-faulted.json" || {
  echo "fault injection produced no farm faults"; exit 1; }
grep -q '"apichecker_serve_farm_retries_total": [1-9]' "$SERVE_TMP/metrics-faulted.json" || {
  echo "farm faults were not retried"; exit 1; }
grep -q '"apichecker_emu_farm_injected_faults_total": [1-9]' "$SERVE_TMP/metrics-faulted.json" || {
  echo "missing emu-level injected-fault accounting"; exit 1; }
echo "fault smoke OK (faults injected, failover retries observed, zero lost)"

echo "=== fabric: cross-process farm smoke (3 workers, one SIGKILLed mid-run) ==="
# The emulator tier runs as 3 `apichecker farm` child processes behind the
# fabric RPC transport; one is SIGKILLed mid-trace. The heartbeat-driven
# breaker must open for the dead worker (reason="connection_loss"), the
# remaining workers absorb the trace, and no acknowledged submission is lost:
# accepted == completed + expired + parse_errors + rejected_unhealthy.
"$ROOT/build/tools/apichecker" serve --apps 160 --apis 8000 --batch 4 \
  --model "$SERVE_TMP/model.bin" --fabric 3 --fabric-kill-one \
  --metrics-out "$SERVE_TMP/metrics-fabric.json" > "$SERVE_TMP/fabric-serve.out"
grep -q "invariant accepted == resolved: OK" "$SERVE_TMP/fabric-serve.out" || {
  echo "fabric serve lost submissions"; cat "$SERVE_TMP/fabric-serve.out"; exit 1; }
grep -q "SIGKILLed worker" "$SERVE_TMP/fabric-serve.out" || {
  echo "fabric smoke never killed a worker"; exit 1; }
python3 - "$SERVE_TMP/metrics-fabric.json" <<'PYEOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
def count(name):
    return int(counters.get(name, 0))
accepted = count("apichecker_serve_accepted_total")
resolved = (count("apichecker_serve_completed_total")
            + count("apichecker_serve_deadline_expired_total")
            + count("apichecker_serve_parse_errors_total")
            + count("apichecker_serve_farm_rejected_unhealthy_total")
            + count("apichecker_serve_shed_total"))
if accepted == 0:
    raise SystemExit("fabric smoke accepted nothing")
if accepted != resolved:
    raise SystemExit("lost acknowledged verdicts: accepted %d != resolved %d"
                     % (accepted, resolved))
conn_opens = sum(v for k, v in counters.items()
                 if k.startswith("apichecker_serve_farm_breaker_open_total{")
                 and 'reason="connection_loss"' in k)
if conn_opens < 1:
    raise SystemExit("SIGKILLed worker never opened a connection-loss breaker")
fault_opens = sum(v for k, v in counters.items()
                  if k.startswith("apichecker_serve_farm_breaker_open_total{")
                  and 'reason="fault"' in k)
for series in ["apichecker_fabric_handshakes_total",
               "apichecker_fabric_heartbeats_total",
               "apichecker_fabric_frames_sent_total",
               "apichecker_fabric_frames_received_total",
               "apichecker_fabric_model_syncs_total",
               "apichecker_fabric_disconnects_total"]:
    if count(series) <= 0:
        raise SystemExit("fabric metric %s missing or zero" % series)
print("fabric: %d accepted == %d resolved; breaker opens: %d connection-loss, "
      "%d fault; %d handshakes, %d heartbeats, %d disconnects"
      % (accepted, resolved, conn_opens, fault_opens,
         count("apichecker_fabric_handshakes_total"),
         count("apichecker_fabric_heartbeats_total"),
         count("apichecker_fabric_disconnects_total")))
PYEOF
echo "fabric smoke OK (worker killed mid-run, breaker opened on connection loss, zero lost)"

echo "=== store: restart smoke (persist, kill, warm start) ==="
# Run the serve trace twice against the same --store-dir. The second process
# must recover the first one's verdicts from the WAL and serve warm-start
# cache hits (the metric the restart exists to produce).
"$ROOT/build/tools/apichecker" serve --apps 60 --apis 8000 \
  --model "$SERVE_TMP/model.bin" --store-dir "$SERVE_TMP/store" \
  | grep "invariant accepted == resolved: OK"
"$ROOT/build/tools/apichecker" serve --apps 60 --apis 8000 \
  --model "$SERVE_TMP/model.bin" --store-dir "$SERVE_TMP/store" \
  --metrics-out "$SERVE_TMP/metrics-restart.json" \
  | grep "invariant accepted == resolved: OK"
grep -q '"apichecker_store_recovered_records_total": [1-9]' "$SERVE_TMP/metrics-restart.json" || {
  echo "restart recovered no records from the verdict store"; exit 1; }
grep -q '"apichecker_store_warm_start_hits_total": [1-9]' "$SERVE_TMP/metrics-restart.json" || {
  echo "warm-started cache produced no hits after restart"; exit 1; }
echo "store restart smoke OK (records recovered, warm-start hits observed)"

echo "=== ingest: admission-latency smoke (blob handles keep Submit flat) ==="
# Mix ~64KB synthetic APKs with every-3rd padded to ~8MB through the chunked
# streaming reader. Admission cost must not scale with APK size: the large
# bucket's Submit() p99 has to stay within 2x of the small bucket's (with a
# floor absorbing microsecond-scale jitter on near-zero p99s).
"$ROOT/build/tools/apichecker" serve --apps 48 --apis 8000 --batch 4 \
  --model "$SERVE_TMP/model.bin" --large-every 3 --large-kb 8192 --chunk-kb 128 \
  --metrics-out "$SERVE_TMP/metrics-ingest.json" \
  | grep "invariant accepted == resolved: OK"
for series in apichecker_ingest_blobs_total apichecker_ingest_bytes_streamed_total \
              apichecker_ingest_chunks_total apichecker_ingest_blob_pool_peak_bytes \
              apichecker_serve_hash_ops_total apichecker_ingest_parse_stage_ms; do
  grep -q "$series" "$SERVE_TMP/metrics-ingest.json" || {
    echo "missing metric series: $series"; exit 1; }
done
python3 - "$SERVE_TMP/metrics-ingest.json" <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
hist = metrics["histograms"]
def p99(bucket):
    series = hist['apichecker_serve_admission_latency_ms{size="%s"}' % bucket]
    if series["count"] == 0:
        raise SystemExit("no %s-bucket admission samples" % bucket)
    return series["quantiles"]["p99"], series["count"]
small, small_n = p99("small")
large, large_n = p99("large")
# Floor: sub-0.2ms p99s are all "instant"; the 2x bound only means something
# above scheduler-jitter scale.
bound = 2.0 * max(small, 0.2)
print("admission p99: small %.4f ms (n=%d), large %.4f ms (n=%d), bound %.4f ms"
      % (small, small_n, large, large_n, bound))
if large > bound:
    raise SystemExit("large-APK admission p99 %.4f ms exceeds 2x small (%.4f ms): "
                     "Submit() is scaling with APK size" % (large, bound))
PYEOF
echo "ingest smoke OK (large-APK admission p99 within 2x of small)"

echo "=== storm: overload control & QoS smoke (shed + SLO + spill) ==="
# Blast the CLI's mixed-priority trace (1/16 interactive, 1/16 rescan, rest
# bulk) at a single 40-deep shard with shedding on and a 16 KB spill
# threshold. The governor must shed bulk under pressure but NEVER interactive,
# interactive end-to-end p99 must hold its 10 s SLO, at least one blob must
# spill to disk, and the accepted == resolved invariant must extend over the
# shed class (shed submissions resolve visibly, they are not lost).
"$ROOT/build/tools/apichecker" serve --apps 240 --apis 8000 --batch 4 \
  --model "$SERVE_TMP/model.bin" --shards 1 --shard-capacity 40 --shed \
  --slo-ms 10000,0,0 --spill-threshold-kb 16 \
  --metrics-out "$SERVE_TMP/metrics-storm.json" \
  | grep "invariant accepted == resolved: OK"
python3 - "$SERVE_TMP/metrics-storm.json" <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
counters = metrics["counters"]
def count(name):
    return int(counters.get(name, 0))
shed_bulk = count('apichecker_serve_shed_total{class="bulk"}')
shed_interactive = count('apichecker_serve_shed_total{class="interactive"}')
if shed_bulk == 0:
    raise SystemExit("storm smoke: overload governor never shed bulk traffic")
if shed_interactive != 0:
    raise SystemExit("storm smoke: %d interactive submissions were shed"
                     % shed_interactive)
accepted = count("apichecker_serve_accepted_total")
resolved = (count("apichecker_serve_completed_total")
            + count("apichecker_serve_deadline_expired_total")
            + count("apichecker_serve_parse_errors_total")
            + count("apichecker_serve_farm_rejected_unhealthy_total")
            + count("apichecker_serve_shed_total"))
if accepted == 0 or accepted != resolved:
    raise SystemExit("storm smoke lost verdicts: accepted %d != resolved %d"
                     % (accepted, resolved))
interactive = metrics["histograms"].get(
    'apichecker_serve_e2e_latency_ms{class="interactive"}')
if not interactive or interactive["count"] == 0:
    raise SystemExit("storm smoke: no interactive e2e latency samples")
p99 = interactive["quantiles"]["p99"]
if p99 > 10000.0:
    raise SystemExit("storm smoke: interactive e2e p99 %.1f ms blew the "
                     "10000 ms SLO" % p99)
spilled = count("apichecker_ingest_blobs_spilled_total")
if spilled == 0:
    raise SystemExit("storm smoke: no blob spilled past the 16 KB threshold")
if count("apichecker_ingest_spill_failures_total") != 0:
    raise SystemExit("storm smoke: spill write failures on a healthy disk")
print("storm: %d accepted == %d resolved; shed bulk=%d rescan=%d "
      "interactive=%d; interactive p99 %.1f ms; %d blobs spilled"
      % (accepted, resolved, shed_bulk,
         count('apichecker_serve_shed_total{class="rescan"}'),
         shed_interactive, p99, spilled))
PYEOF
echo "storm smoke OK (bulk shed, interactive protected, SLO held, blobs spilled)"

echo "=== trace: end-to-end tracing + BENCH_serve.json schema smoke ==="
# Trace every submission through a store-backed serve run, then require (a)
# every fully-pipelined trace to carry all seven stages, (b) each trace's
# breakdown to sum to its end-to-end latency, and (c) the bench report to be
# schema-complete with finite, non-zero core values.
"$ROOT/build/tools/apichecker" serve --apps 40 --apis 8000 --batch 4 \
  --model "$SERVE_TMP/model.bin" --store-dir "$SERVE_TMP/trace-store" \
  --trace-out "$SERVE_TMP/traces.jsonl" --trace-sample 1 \
  --bench-out "$SERVE_TMP/BENCH_serve.json" \
  | grep "invariant accepted == resolved: OK"
python3 - "$SERVE_TMP/traces.jsonl" "$SERVE_TMP/BENCH_serve.json" <<'PYEOF'
import json, math, sys

STAGES = ["submit", "shard", "batch", "farm", "classify", "store", "resolve"]
full, checked = 0, 0
for line in open(sys.argv[1]):
    trace = json.loads(line)
    checked += 1
    total = trace["total_ms"]
    sum_ms = sum(trace["breakdown"].values())
    if abs(sum_ms - total) > max(0.05, 0.01 * total):
        raise SystemExit("trace %d breakdown sums to %.3f ms but total is %.3f ms"
                         % (trace["trace_id"], sum_ms, total))
    # Cache hits, parse errors, and rejections legitimately skip stages;
    # a fresh fully-emulated verdict must touch every stage.
    if trace["status"] != "ok" or trace["from_cache"]:
        continue
    seen = set(s["stage"] for s in trace["spans"]) | set(trace["breakdown"])
    missing = [s for s in STAGES if s not in seen]
    if missing:
        raise SystemExit("trace %d (status ok, fresh) misses pipeline stages %s"
                         % (trace["trace_id"], missing))
    full += 1
if full == 0:
    raise SystemExit("no fully-pipelined trace found in %d traces" % checked)
print("traces: %d checked, %d fully pipelined (all %d stages)"
      % (checked, full, len(STAGES)))

report = json.load(open(sys.argv[2]))
if report.get("schema") != "apichecker-bench-serve-v1":
    raise SystemExit("bad bench schema: %r" % report.get("schema"))
for key in ["bench", "git_rev", "submissions", "wall_s", "throughput_per_sec",
            "sample_rate", "traces_completed", "peak_rss_mb",
            "peak_blob_pool_mb", "stages"]:
    if key not in report:
        raise SystemExit("bench report missing key: %s" % key)
for key in ["submissions", "wall_s", "throughput_per_sec", "peak_rss_mb",
            "traces_completed"]:
    value = report[key]
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise SystemExit("bench report %s must be finite and non-zero, got %r"
                         % (key, value))
for stage in STAGES + ["admission", "e2e", "traced_e2e"]:
    if stage not in report["stages"]:
        raise SystemExit("bench report missing stage quantiles: %s" % stage)
    for q in ["p50_ms", "p99_ms", "count"]:
        if not math.isfinite(report["stages"][stage].get(q, float("nan"))):
            raise SystemExit("bench stage %s.%s not finite" % (stage, q))
print("bench report: schema OK, %d submissions at %.0f/sec, %d traces"
      % (report["submissions"], report["throughput_per_sec"],
         report["traces_completed"]))
PYEOF
# Overwrite protection: a rerun against the existing trace file must refuse
# without --force and succeed with it.
if "$ROOT/build/tools/apichecker" serve --apps 10 --apis 8000 \
  --model "$SERVE_TMP/model.bin" --trace-out "$SERVE_TMP/traces.jsonl" \
  >/dev/null 2>&1; then
  echo "trace-out overwrote an existing file without --force"; exit 1
fi
"$ROOT/build/tools/apichecker" serve --apps 10 --apis 8000 \
  --model "$SERVE_TMP/model.bin" --trace-out "$SERVE_TMP/traces.jsonl" --force \
  >/dev/null
echo "trace smoke OK (stage-complete traces, schema-valid bench report, overwrite guarded)"

echo "=== bench: serve throughput smoke (BENCH_serve.json trajectory) ==="
# Quick two-pass run (baseline vs 1% sampling) of the tracked perf bench; the
# report must land with the same schema the CLI emits.
(cd "$SERVE_TMP" && "$ROOT/build/bench/bench_serve_throughput" --quick --farms 2 \
  --bench-out "$SERVE_TMP/BENCH_serve_bench.json" >/dev/null)
python3 - "$SERVE_TMP/BENCH_serve_bench.json" <<'PYEOF'
import json, math, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "apichecker-bench-serve-v1", report["schema"]
for key in ["throughput_per_sec", "baseline_throughput_per_sec", "submissions"]:
    assert math.isfinite(report[key]) and report[key] > 0, (key, report[key])
assert math.isfinite(report["tracing_overhead_pct"])
# Pass-6 unified-runtime accounting: every pass dispatches through the shared
# runtime, so the task counter must be live and the derived fields finite.
for key in ["rt_tasks_total", "rt_tasks_per_sec", "rt_steal_ratio",
            "rt_timer_lag_p99_ms", "rt_process_threads_peak"]:
    assert key in report and math.isfinite(report[key]), (key, report.get(key))
assert report["rt_tasks_total"] > 0, "unified runtime ran zero tasks"
assert "rt_timer_lag" in report["stages"], "missing rt_timer_lag stage"
print("bench smoke: baseline %.0f/sec, traced %.0f/sec, overhead %.2f%%; "
      "rt %d tasks, steal ratio %.3f"
      % (report["baseline_throughput_per_sec"], report["throughput_per_sec"],
         report["tracing_overhead_pct"], report["rt_tasks_total"],
         report["rt_steal_ratio"]))
PYEOF
echo "bench smoke OK (two-pass BENCH_serve.json written and schema-valid)"

echo "=== gateway: network ingest smoke (hostile clients over a real socket) ==="
# Serve with --listen on a unix socket in the background, then drive it with
# `apichecker submit` clients: a clean batch, a scripted-stall batch whose
# 900 ms stall outlives the 400 ms read deadline (slow-loris eviction on
# attempt 1, clean retry resolves), and one throttled client SIGKILLed
# mid-upload. SIGTERM drains the gateway; the serve process itself exits
# non-zero unless the extended drain invariant
# (uploads accepted == completed + aborted) holds, and the metrics dump must
# show at least one slow-loris eviction.
# TCP with an ephemeral port: the bound endpoint is parsed from the serve
# banner, so the smoke exercises the same address family a real market
# frontend would.
"$ROOT/build/tools/apichecker" serve --apps 8 --apis 8000 \
  --model "$SERVE_TMP/model.bin" --listen "tcp:127.0.0.1:0" \
  --read-deadline-ms 400 --chunk-kb 4 \
  --metrics-out "$SERVE_TMP/metrics-gateway.json" \
  > "$SERVE_TMP/gateway-serve.out" 2>&1 &
GW_PID=$!
GW_ADDR=""
for _ in $(seq 1 100); do
  GW_ADDR=$(sed -n 's/.*listening on \(tcp:[0-9.:]*\).*/\1/p' \
    "$SERVE_TMP/gateway-serve.out" 2>/dev/null | head -n 1)
  [ -n "$GW_ADDR" ] && break
  sleep 0.1
done
[ -n "$GW_ADDR" ] || {
  echo "gateway never printed its bound endpoint"
  cat "$SERVE_TMP/gateway-serve.out"
  kill "$GW_PID" 2>/dev/null; exit 1; }
"$ROOT/build/tools/apichecker" submit --connect "$GW_ADDR" --apis 8000 \
  --uploads 4 --chunk-kb 4 > "$SERVE_TMP/submit-clean.out"
grep -q "4/4 resolved" "$SERVE_TMP/submit-clean.out" || {
  echo "clean submit batch did not fully resolve"
  cat "$SERVE_TMP/submit-clean.out"; exit 1; }
"$ROOT/build/tools/apichecker" submit --connect "$GW_ADDR" --apis 8000 \
  --uploads 2 --chunk-kb 2 --seed 7 --stall-at 2 --stall-ms 900 \
  > "$SERVE_TMP/submit-stall.out"
grep -q "2/2 resolved" "$SERVE_TMP/submit-stall.out" || {
  echo "stalled submit batch did not recover via retry"
  cat "$SERVE_TMP/submit-stall.out"; exit 1; }
# Mid-upload kill: throttled to ~2 KB/s so the client is reliably mid-body
# when the SIGKILL lands — the gateway must resolve the dead connection as a
# visible abort, not hang on it.
"$ROOT/build/tools/apichecker" submit --connect "$GW_ADDR" --apis 8000 \
  --uploads 1 --chunk-kb 1 --seed 9 --throttle-from 1 --throttle-bps 2048 \
  > "$SERVE_TMP/submit-killed.out" 2>&1 &
KILL_PID=$!
sleep 1
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
sleep 1  # Past the read deadline: the severed connection must resolve.
kill -TERM "$GW_PID"
wait "$GW_PID" || {
  echo "gateway serve exited non-zero (invariant violated?)"
  cat "$SERVE_TMP/gateway-serve.out"; exit 1; }
grep -q "gateway invariant accepted == completed + aborted: OK" \
  "$SERVE_TMP/gateway-serve.out" || {
  echo "gateway drain invariant line missing"
  cat "$SERVE_TMP/gateway-serve.out"; exit 1; }
python3 - "$SERVE_TMP/metrics-gateway.json" <<'PYEOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
def count(name):
    return int(counters.get(name, 0))
accepted = count("apichecker_gateway_uploads_accepted_total")
completed = count("apichecker_gateway_uploads_completed_total")
# The bare series is the total; reason-labelled siblings re-count by cause.
aborted = count("apichecker_gateway_uploads_aborted_total")
slow_loris = count("apichecker_gateway_slow_loris_disconnects_total")
if accepted == 0:
    raise SystemExit("gateway smoke accepted no uploads")
if accepted != completed + aborted:
    raise SystemExit("extended drain invariant violated: accepted %d != "
                     "completed %d + aborted %d" % (accepted, completed, aborted))
if slow_loris < 1:
    raise SystemExit("no slow-loris eviction despite a 900 ms stall against a "
                     "400 ms read deadline")
if aborted < 1:
    raise SystemExit("hostile clients produced no visible aborts")
for series in ["apichecker_gateway_connections_total",
               "apichecker_gateway_bytes_received_total",
               "apichecker_gateway_verdicts_sent_total"]:
    if count(series) <= 0:
        raise SystemExit("gateway metric %s missing or zero" % series)
print("gateway: %d accepted == %d completed + %d aborted; %d slow-loris "
      "evictions; %d connections, %d bytes in"
      % (accepted, completed, aborted, slow_loris,
         count("apichecker_gateway_connections_total"),
         count("apichecker_gateway_bytes_received_total")))
PYEOF
echo "gateway smoke OK (slow-loris evicted, mid-upload kill absorbed, drain invariant held)"

echo "=== rt: steady-state thread-count gate (threads O(cores), not O(connections)) ==="
# Two identical gateway rounds, 2 then 8 concurrent upload clients. The
# unified runtime fixes the process's thread complement at startup — every
# connection is a readiness-driven state machine, not a thread — so the peak
# thread gauge must stay flat (small jitter allowance) as clients quadruple.
for CLIENTS in 2 8; do
  "$ROOT/build/tools/apichecker" serve --apps 8 --apis 8000 \
    --model "$SERVE_TMP/model.bin" --listen "tcp:127.0.0.1:0" --chunk-kb 4 \
    --metrics-out "$SERVE_TMP/metrics-threads-$CLIENTS.json" \
    > "$SERVE_TMP/threads-serve-$CLIENTS.out" 2>&1 &
  RT_PID=$!
  RT_ADDR=""
  for _ in $(seq 1 100); do
    RT_ADDR=$(sed -n 's/.*listening on \(tcp:[0-9.:]*\).*/\1/p' \
      "$SERVE_TMP/threads-serve-$CLIENTS.out" 2>/dev/null | head -n 1)
    [ -n "$RT_ADDR" ] && break
    sleep 0.1
  done
  [ -n "$RT_ADDR" ] || {
    echo "thread-gate serve ($CLIENTS clients) never printed its endpoint"
    cat "$SERVE_TMP/threads-serve-$CLIENTS.out"
    kill "$RT_PID" 2>/dev/null; exit 1; }
  i=0; CLIENT_PIDS=""
  while [ "$i" -lt "$CLIENTS" ]; do
    "$ROOT/build/tools/apichecker" submit --connect "$RT_ADDR" --apis 8000 \
      --uploads 2 --chunk-kb 4 --seed $((100 + i)) \
      > "$SERVE_TMP/threads-client-$CLIENTS-$i.out" 2>&1 &
    CLIENT_PIDS="$CLIENT_PIDS $!"
    i=$((i + 1))
  done
  for pid in $CLIENT_PIDS; do
    wait "$pid" || {
      echo "thread-gate upload client failed ($CLIENTS-client round)"; exit 1; }
  done
  kill -TERM "$RT_PID"
  wait "$RT_PID" || {
    echo "thread-gate serve ($CLIENTS clients) exited non-zero"
    cat "$SERVE_TMP/threads-serve-$CLIENTS.out"; exit 1; }
done
python3 - "$SERVE_TMP/metrics-threads-2.json" "$SERVE_TMP/metrics-threads-8.json" <<'PYEOF'
import json, sys
def peak(path):
    gauges = json.load(open(path))["gauges"]
    value = gauges.get("apichecker_rt_process_threads_peak", 0)
    if value <= 0:
        raise SystemExit("%s: apichecker_rt_process_threads_peak missing or zero"
                         % path)
    return value
few, many = peak(sys.argv[1]), peak(sys.argv[2])
if many > few + 2:
    raise SystemExit("thread count scales with connections: peak %d threads at 8 "
                     "clients vs %d at 2 (allowance +2)" % (many, few))
print("thread gate: peak %d threads at 2 clients, %d at 8 — flat" % (few, many))
PYEOF
echo "thread gate OK (process thread peak flat as upload clients quadruple)"

if [ "$ASAN" = "1" ]; then
  echo "=== asan: build + run test_util test_rt test_obs test_apk test_ingest test_serve test_store test_farm_pool test_fabric test_gateway ==="
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DAPICHECKER_SANITIZE=address >/dev/null
  cmake --build "$ROOT/build-asan" -j --target test_util test_rt test_obs test_apk test_ingest \
    test_serve test_store test_farm_pool test_fabric test_gateway
  "$ROOT/build-asan/tests/test_util"
  "$ROOT/build-asan/tests/test_rt"
  "$ROOT/build-asan/tests/test_obs"
  "$ROOT/build-asan/tests/test_apk"
  "$ROOT/build-asan/tests/test_ingest"
  "$ROOT/build-asan/tests/test_serve"
  "$ROOT/build-asan/tests/test_store"
  "$ROOT/build-asan/tests/test_farm_pool"
  "$ROOT/build-asan/tests/test_fabric" --gtest_filter=-FabricSoak.*
  "$ROOT/build-asan/tests/test_gateway" --gtest_filter=-GatewaySoak.*
fi

if [ "$UBSAN" = "1" ]; then
  # The byte-path decoders hand out span views into hostile bytes and the
  # CRC/SHA-1 kernels do unaligned wide loads: undefined behaviour there would
  # not crash under ASan, so these suites also run with UBSan, halting on the
  # first report.
  echo "=== ubsan: build + run test_util test_apk test_ingest test_fabric test_store test_farm_pool test_emu ==="
  cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DAPICHECKER_SANITIZE=undefined >/dev/null
  cmake --build "$ROOT/build-ubsan" -j --target test_util test_apk test_ingest \
    test_fabric test_store test_farm_pool test_emu
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  "$ROOT/build-ubsan/tests/test_util"
  "$ROOT/build-ubsan/tests/test_emu"
  "$ROOT/build-ubsan/tests/test_apk"
  "$ROOT/build-ubsan/tests/test_ingest"
  "$ROOT/build-ubsan/tests/test_fabric" --gtest_filter=-FabricSoak.*
  "$ROOT/build-ubsan/tests/test_store"
  "$ROOT/build-ubsan/tests/test_farm_pool"
  unset UBSAN_OPTIONS
fi

if [ "$TSAN" = "1" ]; then
  echo "=== tsan: serve races + stress-labelled suites ==="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DAPICHECKER_SANITIZE=thread >/dev/null
  cmake --build "$ROOT/build-tsan" -j --target test_rt test_serve test_store \
    test_farm_pool test_ingest test_obs test_fabric test_gateway test_emu test_ml
  "$ROOT/build-tsan/tests/test_rt"
  "$ROOT/build-tsan/tests/test_serve"
  "$ROOT/build-tsan/tests/test_obs"
  # Both fan out on rt::Runtime::ParallelFor: per-app emulation, per-tree
  # forest training.
  "$ROOT/build-tsan/tests/test_emu"
  "$ROOT/build-tsan/tests/test_ml" --gtest_filter='RandomForest.*'
  # Stress label = the farm-pool fault suite, the multi-producer serve/store
  # soaks, the concurrent blob-release soak, the fabric connect/disconnect
  # churn soak, and the gateway hostile-client soak (tests/CMakeLists.txt tags
  # them), i.e. the heaviest concurrency paths.
  (cd "$ROOT/build-tsan" && ctest -L stress --output-on-failure)
fi

echo "CI OK"
