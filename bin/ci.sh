#!/bin/sh
# Local CI driver: the checks a change must pass before it lands.
#   bin/ci.sh            -- typecheck, build, tests (sequential + 8-domain)
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @check (typecheck) =="
dune build @check

echo "== dune build (full build) =="
dune build

echo "== dune runtest (PB_DOMAINS=1) =="
dune runtest

# The parallel evaluation layer must be invisible in test output: the
# same suite, same seed, run on an 8-domain pool has to produce the
# same results test-by-test. Run the built binary directly (no dune
# noise), normalise timings away, and fail on any difference.
echo "== determinism: test output identical at PB_DOMAINS=1 vs 8 =="
mkdir -p _build/ci
normalize() {
  sed -e 's/[0-9][0-9]*\.[0-9][0-9]*s/<time>/g' \
      -e "s/run has ID \`[A-Z0-9]*'/run has ID <id>/" "$1"
}
QCHECK_SEED=20260806 PB_DOMAINS=1 ./_build/default/test/test_main.exe \
  >_build/ci/run_d1.txt 2>&1
QCHECK_SEED=20260806 PB_DOMAINS=8 ./_build/default/test/test_main.exe \
  >_build/ci/run_d8.txt 2>&1
normalize _build/ci/run_d1.txt >_build/ci/run_d1.norm
normalize _build/ci/run_d8.txt >_build/ci/run_d8.norm
if ! diff -u _build/ci/run_d1.norm _build/ci/run_d8.norm; then
  echo "CI FAIL: test output differs between PB_DOMAINS=1 and PB_DOMAINS=8"
  exit 1
fi

# Storage-engine differential gate: the same scripted session (DDL, DML,
# duplicate rows, NULLs, scans, joins, grouped aggregates) replayed
# against a PB_STORE=row server and a PB_STORE=columnar server must
# produce byte-identical transcripts — the columnar engine is only
# allowed to be faster, never different. The columnar server also
# exposes /metrics, where the resident-bytes gauge must show the
# storage subsystem actually engaged (tables converted and cached).
echo "== storage differential (PB_STORE=row vs columnar transcripts) =="
ROW_LOG=_build/ci/store_row_server.log
COL_LOG=_build/ci/store_col_server.log
PB_STORE=row ./_build/default/bin/pb_server.exe --port 0 --size 80 \
  --seed 7 >"$ROW_LOG" 2>&1 &
ROW_PID=$!
PB_STORE=columnar ./_build/default/bin/pb_server.exe --port 0 --size 80 \
  --seed 7 --metrics-port 0 >"$COL_LOG" 2>&1 &
COL_PID=$!
for log in "$ROW_LOG" "$COL_LOG"; do
  i=0
  while [ $i -lt 100 ]; do
    grep -q "pb_server ready" "$log" 2>/dev/null && break
    i=$((i + 1))
    sleep 0.1
  done
done
ROW_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$ROW_LOG")
COL_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$COL_LOG")
if [ -z "$ROW_PORT" ] || [ -z "$COL_PORT" ]; then
  echo "CI FAIL: storage differential servers did not come up; logs follow"
  cat "$ROW_LOG" "$COL_LOG"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_client.exe --port "$ROW_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/store_row.txt 2>&1
./_build/default/bin/pb_client.exe --port "$COL_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/store_col.txt 2>&1
normalize _build/ci/store_row.txt >_build/ci/store_row.norm
normalize _build/ci/store_col.txt >_build/ci/store_col.norm
if ! diff -u _build/ci/store_row.norm _build/ci/store_col.norm; then
  echo "CI FAIL: PB_STORE=row and PB_STORE=columnar transcripts differ"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
fi
STORE_METRICS_PORT=$(sed -n \
  's|.*metrics on http://127.0.0.1:\([0-9]*\).*|\1|p' "$COL_LOG")
curl -sf "http://127.0.0.1:$STORE_METRICS_PORT/metrics" \
  >_build/ci/store_scrape.txt || {
  echo "CI FAIL: curl /metrics on the columnar server failed"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
}
STORE_BYTES=$(sed -n 's/^pb_store_bytes_resident \([0-9][0-9]*\).*/\1/p' \
  _build/ci/store_scrape.txt | head -n 1)
if [ -z "$STORE_BYTES" ] || [ "$STORE_BYTES" -lt 1 ]; then
  echo "CI FAIL: expected pb_store_bytes_resident > 0 on the columnar"
  echo "         server; /metrics reported: ${STORE_BYTES:-no gauge}"
  kill "$ROW_PID" "$COL_PID" 2>/dev/null || true
  exit 1
fi
kill -TERM "$ROW_PID" "$COL_PID"
STORE_EXIT=0
wait "$ROW_PID" || STORE_EXIT=$?
if [ "$STORE_EXIT" -ne 0 ]; then
  echo "CI FAIL: row-store pb_server exited $STORE_EXIT on SIGTERM (expected 0)"
  exit 1
fi
wait "$COL_PID" || STORE_EXIT=$?
if [ "$STORE_EXIT" -ne 0 ]; then
  echo "CI FAIL: columnar pb_server exited $STORE_EXIT on SIGTERM (expected 0)"
  exit 1
fi

# Serving-path smoke test: boot pb_server on an ephemeral port with a
# fixed synthetic workload, replay a scripted pb_client session, and
# diff the (timing-normalised) transcript against the checked-in
# expectation. Then SIGTERM the server and require a clean exit.
echo "== server smoke test (pb_server + scripted pb_client session) =="
SMOKE_LOG=_build/ci/smoke_server.log
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --metrics-port 0 >"$SMOKE_LOG" 2>&1 &
SMOKE_PID=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "pb_server ready" "$SMOKE_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.1
done
SMOKE_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SMOKE_LOG")
if [ -z "$SMOKE_PORT" ]; then
  echo "CI FAIL: pb_server did not come up; log follows"
  cat "$SMOKE_LOG"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_client.exe --port "$SMOKE_PORT" --echo \
  <test/smoke/session.txt >_build/ci/smoke_out.txt 2>&1
normalize _build/ci/smoke_out.txt >_build/ci/smoke_out.norm
if ! diff -u test/smoke/expected.txt _build/ci/smoke_out.norm; then
  echo "CI FAIL: pb_client session output differs from test/smoke/expected.txt"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
# The session above repeats a statement, so the server's prepared-plan
# cache must have registered at least one hit. Probe \metrics on a fresh
# connection (counter values are nondeterministic, so this stays out of
# the diffed transcript).
echo "== plan cache smoke (pb_sql_plan_cache_hits_total > 0) =="
printf '\\metrics\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$SMOKE_PORT" \
  >_build/ci/smoke_metrics.txt 2>&1
PLAN_HITS=$(sed -n 's/^pb_sql_plan_cache_hits_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/smoke_metrics.txt | head -n 1)
if [ -z "$PLAN_HITS" ] || [ "$PLAN_HITS" -lt 1 ]; then
  echo "CI FAIL: expected pb_sql_plan_cache_hits_total > 0 after a repeated"
  echo "         statement; \\metrics reported: ${PLAN_HITS:-no counter}"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi

# Pull-based exposition smoke: the sidecar HTTP endpoint must serve the
# Prometheus text format with the request counter advanced by the
# scripted session above, and /healthz must report an ok status with
# the admission limits.
echo "== metrics endpoint smoke (curl /metrics + /healthz) =="
METRICS_PORT=$(sed -n \
  's|.*metrics on http://127.0.0.1:\([0-9]*\).*|\1|p' "$SMOKE_LOG")
if [ -z "$METRICS_PORT" ]; then
  echo "CI FAIL: pb_server did not announce a metrics port; log follows"
  cat "$SMOKE_LOG"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
curl -sf "http://127.0.0.1:$METRICS_PORT/metrics" \
  >_build/ci/smoke_scrape.txt || {
  echo "CI FAIL: curl /metrics failed"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
}
# Exposition grammar: TYPE headers, and every sample line is
# "name[{labels}] value".
if ! grep -q '^# TYPE pb_net_requests_total counter' _build/ci/smoke_scrape.txt; then
  echo "CI FAIL: /metrics lacks the TYPE header for pb_net_requests_total"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
if grep -v '^#' _build/ci/smoke_scrape.txt | grep -q -v \
  '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\{0,1\} [0-9+.eE-]*$'; then
  echo "CI FAIL: /metrics sample line breaks the exposition grammar:"
  grep -v '^#' _build/ci/smoke_scrape.txt | grep -v \
    '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\{0,1\} [0-9+.eE-]*$' | head -n 3
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
NET_REQS=$(sed -n 's/^pb_net_requests_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/smoke_scrape.txt | head -n 1)
if [ -z "$NET_REQS" ] || [ "$NET_REQS" -lt 1 ]; then
  echo "CI FAIL: pb_net_requests_total did not advance over the scrape;"
  echo "         /metrics reported: ${NET_REQS:-no counter}"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi
curl -sf "http://127.0.0.1:$METRICS_PORT/healthz" \
  >_build/ci/smoke_health.txt || {
  echo "CI FAIL: curl /healthz failed"
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
}
if ! grep -q '"status":"ok"' _build/ci/smoke_health.txt || \
   ! grep -q '"max_inflight"' _build/ci/smoke_health.txt; then
  echo "CI FAIL: /healthz did not report an ok status with limits:"
  cat _build/ci/smoke_health.txt
  kill "$SMOKE_PID" 2>/dev/null || true
  exit 1
fi

kill -TERM "$SMOKE_PID"
SMOKE_EXIT=0
wait "$SMOKE_PID" || SMOKE_EXIT=$?
if [ "$SMOKE_EXIT" -ne 0 ]; then
  echo "CI FAIL: pb_server exited $SMOKE_EXIT on SIGTERM (expected 0)"
  exit 1
fi
if ! grep -q "pb_server stopped" "$SMOKE_LOG"; then
  echo "CI FAIL: pb_server did not log a graceful stop"
  exit 1
fi

# Admission + cancellation smoke: a deliberately starved server (one
# evaluation slot, one queue slot, 200ms deadline) hit by a burst of
# poison cross-join queries must (a) reject overflow with busy, (b)
# cooperatively cancel the poison it does admit, (c) still answer a
# fresh query immediately afterwards, and (d) end with exactly the fds it
# had before the burst: every connection, admitted or turned away busy,
# must be closed again.
echo "== saturation smoke (admission busy + cooperative cancellation) =="
POISON_LOG=_build/ci/poison_server.log
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --max-inflight 1 --max-queue 1 --deadline 0.2 >"$POISON_LOG" 2>&1 &
POISON_PID=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "pb_server ready" "$POISON_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.1
done
POISON_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$POISON_LOG")
if [ -z "$POISON_PORT" ]; then
  echo "CI FAIL: saturation pb_server did not come up; log follows"
  cat "$POISON_LOG"
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
POISON_FDS_BEFORE=""
if [ -d "/proc/$POISON_PID/fd" ]; then
  POISON_FDS_BEFORE=$(ls "/proc/$POISON_PID/fd" | wc -l)
else
  echo "note: /proc/$POISON_PID/fd absent; skipping the fd-leak check"
fi
./_build/default/bench/main.exe --loadgen --port "$POISON_PORT" \
  --clients 6 --requests 4 --workload bench/workloads/net_poison.txt \
  --label poison-burst --json-out _build/ci/poison.json \
  >_build/ci/poison_loadgen.txt 2>&1
BUSY=$(sed -n 's/.*"busy":\([0-9][0-9]*\).*/\1/p' _build/ci/poison.json)
if [ -z "$BUSY" ] || [ "$BUSY" -lt 1 ]; then
  echo "CI FAIL: expected >= 1 busy rejection past the admission queue;"
  echo "         loadgen reported: ${BUSY:-no busy field}"
  cat _build/ci/poison_loadgen.txt
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
printf '\\metrics\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$POISON_PORT" \
  >_build/ci/poison_metrics.txt 2>&1
NET_CANCELLED=$(sed -n 's/^pb_net_cancelled_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/poison_metrics.txt | head -n 1)
if [ -z "$NET_CANCELLED" ] || [ "$NET_CANCELLED" -lt 1 ]; then
  echo "CI FAIL: expected pb_net_cancelled_total > 0 after the poison burst;"
  echo "         \\metrics reported: ${NET_CANCELLED:-no counter}"
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
# The server must be healthy, not merely alive: a fresh query answers.
printf 'SELECT COUNT(*) FROM recipes\n\\quit\n' | \
  ./_build/default/bin/pb_client.exe --port "$POISON_PORT" \
  >_build/ci/poison_fresh.txt 2>&1
if ! grep -q "80" _build/ci/poison_fresh.txt; then
  echo "CI FAIL: server did not answer a fresh query after the poison burst"
  cat _build/ci/poison_fresh.txt
  kill "$POISON_PID" 2>/dev/null || true
  exit 1
fi
if [ -n "$POISON_FDS_BEFORE" ]; then
  # closes of the last clients' connections land within a poll interval
  i=0
  while [ $i -lt 50 ]; do
    POISON_FDS_AFTER=$(ls "/proc/$POISON_PID/fd" | wc -l)
    [ "$POISON_FDS_AFTER" -eq "$POISON_FDS_BEFORE" ] && break
    i=$((i + 1))
    sleep 0.1
  done
  if [ "$POISON_FDS_AFTER" -ne "$POISON_FDS_BEFORE" ]; then
    echo "CI FAIL: saturation pb_server holds $POISON_FDS_AFTER fds after the"
    echo "         poison burst, $POISON_FDS_BEFORE before (connection fd leak)"
    kill "$POISON_PID" 2>/dev/null || true
    exit 1
  fi
fi
kill -TERM "$POISON_PID"
POISON_EXIT=0
wait "$POISON_PID" || POISON_EXIT=$?
if [ "$POISON_EXIT" -ne 0 ]; then
  echo "CI FAIL: saturation pb_server exited $POISON_EXIT on SIGTERM (expected 0)"
  exit 1
fi

# SketchRefine serving smoke: a 100k-row server with a 10s request
# deadline must answer a package query evaluated with the sticky
# \strategy sketch-refine — a package plus objective and a
# sketch-refine footer, never a "(cancelled)" one: even when the
# deadline fires mid-refine, the anytime contract serves the current
# incumbent with status ok. The query goes out twice: the second run
# must reuse the first run's partitioning (reuse counter >= 1 in
# \metrics) and print the same objective.
echo "== sketch-refine smoke (100k rows through pb_server, 10s deadline) =="
SR_LOG=_build/ci/sr_server.log
./_build/default/bin/pb_server.exe --port 0 --size 100000 --seed 7 \
  --deadline 10 >"$SR_LOG" 2>&1 &
SR_PID=$!
i=0
while [ $i -lt 200 ]; do
  grep -q "pb_server ready" "$SR_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.2
done
SR_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SR_LOG")
if [ -z "$SR_PORT" ]; then
  echo "CI FAIL: sketch-refine pb_server did not come up; log follows"
  cat "$SR_LOG"
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
SR_QUERY='SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) BETWEEN 3 AND 5 AND SUM(P.calories) <= 3000 MAXIMIZE SUM(P.protein)'
printf '\\strategy sketch-refine\n%s\n%s\n\\metrics\n\\quit\n' \
  "$SR_QUERY" "$SR_QUERY" | \
  ./_build/default/bin/pb_client.exe --port "$SR_PORT" \
  >_build/ci/sr_smoke_out.txt 2>&1
if ! grep -q "strategy set to sketch-refine" _build/ci/sr_smoke_out.txt; then
  echo "CI FAIL: \\strategy sketch-refine was not accepted:"
  cat _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
if ! grep -q "^objective:" _build/ci/sr_smoke_out.txt || \
   ! grep -q "strategy: sketch-refine" _build/ci/sr_smoke_out.txt; then
  echo "CI FAIL: sketch-refine query did not return a package + objective:"
  tail -n 20 _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
if grep -q "(cancelled)" _build/ci/sr_smoke_out.txt; then
  echo "CI FAIL: sketch-refine run reported (cancelled) instead of serving"
  echo "         its anytime incumbent:"
  tail -n 20 _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
SR_OBJECTIVES=$(grep "^objective:" _build/ci/sr_smoke_out.txt | sort -u | wc -l)
if [ "$(grep -c "^objective:" _build/ci/sr_smoke_out.txt)" -ne 2 ] || \
   [ "$SR_OBJECTIVES" -ne 1 ]; then
  echo "CI FAIL: the repeated sketch-refine query must print the same"
  echo "         objective twice; got:"
  grep "^objective:" _build/ci/sr_smoke_out.txt
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
SR_REUSES=$(sed -n \
  's/^pb_engine_sketch_partition_reuses_total \([0-9][0-9]*\).*/\1/p' \
  _build/ci/sr_smoke_out.txt | head -n 1)
if [ -z "$SR_REUSES" ] || [ "$SR_REUSES" -lt 1 ]; then
  echo "CI FAIL: expected pb_engine_sketch_partition_reuses_total >= 1 after"
  echo "         a repeated sketch-refine query; \\metrics reported:"
  echo "         ${SR_REUSES:-no counter}"
  kill "$SR_PID" 2>/dev/null || true
  exit 1
fi
kill -TERM "$SR_PID"
SR_EXIT=0
wait "$SR_PID" || SR_EXIT=$?
if [ "$SR_EXIT" -ne 0 ]; then
  echo "CI FAIL: sketch-refine pb_server exited $SR_EXIT on SIGTERM (expected 0)"
  exit 1
fi

# Shared-nothing router differential: the same scripted session replayed
# against a single pb_server and against a pb_router fronting two hash
# partitions of the same seeded data must produce byte-identical
# transcripts (partial-aggregate merge and scan-pull are not allowed to
# change answers). The router's /healthz must aggregate per-shard health.
echo "== router differential (pb_router over 2 shards vs single node) =="
SH0_LOG=_build/ci/shard0_server.log
SH1_LOG=_build/ci/shard1_server.log
ONE_LOG=_build/ci/router_single.log
RT_LOG=_build/ci/router.log
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --shard 0/2 >"$SH0_LOG" 2>&1 &
SH0_PID=$!
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  --shard 1/2 >"$SH1_LOG" 2>&1 &
SH1_PID=$!
./_build/default/bin/pb_server.exe --port 0 --size 80 --seed 7 \
  >"$ONE_LOG" 2>&1 &
ONE_PID=$!
for log in "$SH0_LOG" "$SH1_LOG" "$ONE_LOG"; do
  i=0
  while [ $i -lt 100 ]; do
    grep -q "pb_server ready" "$log" 2>/dev/null && break
    i=$((i + 1))
    sleep 0.1
  done
done
SH0_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SH0_LOG")
SH1_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$SH1_LOG")
ONE_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$ONE_LOG")
if [ -z "$SH0_PORT" ] || [ -z "$SH1_PORT" ] || [ -z "$ONE_PORT" ]; then
  echo "CI FAIL: router-stage pb_servers did not come up; logs follow"
  cat "$SH0_LOG" "$SH1_LOG" "$ONE_LOG"
  kill "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_router.exe --port 0 \
  --shard "127.0.0.1:$SH0_PORT" --shard "127.0.0.1:$SH1_PORT" \
  --metrics-port 0 >"$RT_LOG" 2>&1 &
RT_PID=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "pb_router ready" "$RT_LOG" 2>/dev/null && break
  i=$((i + 1))
  sleep 0.1
done
RT_PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\) .*/\1/p' "$RT_LOG")
if [ -z "$RT_PORT" ]; then
  echo "CI FAIL: pb_router did not come up; log follows"
  cat "$RT_LOG"
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/pb_client.exe --port "$ONE_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/router_one.txt 2>&1
./_build/default/bin/pb_client.exe --port "$RT_PORT" --echo \
  <test/smoke/store_session.txt >_build/ci/router_rt.txt 2>&1
normalize _build/ci/router_one.txt >_build/ci/router_one.norm
normalize _build/ci/router_rt.txt >_build/ci/router_rt.norm
if ! diff -u _build/ci/router_one.norm _build/ci/router_rt.norm; then
  echo "CI FAIL: router transcript differs from the single-node transcript"
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
RT_METRICS_PORT=$(sed -n \
  's|.*metrics on http://127.0.0.1:\([0-9]*\).*|\1|p' "$RT_LOG")
curl -sf "http://127.0.0.1:$RT_METRICS_PORT/healthz" \
  >_build/ci/router_health.txt || {
  echo "CI FAIL: curl /healthz on pb_router failed"
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
}
if ! grep -q '"status":"ok"' _build/ci/router_health.txt || \
   ! grep -q '"shard":0' _build/ci/router_health.txt || \
   ! grep -q '"shard":1' _build/ci/router_health.txt; then
  echo "CI FAIL: router /healthz did not aggregate per-shard health:"
  cat _build/ci/router_health.txt
  kill "$RT_PID" "$SH0_PID" "$SH1_PID" "$ONE_PID" 2>/dev/null || true
  exit 1
fi
kill -TERM "$RT_PID"
RT_EXIT=0
wait "$RT_PID" || RT_EXIT=$?
if [ "$RT_EXIT" -ne 0 ]; then
  echo "CI FAIL: pb_router exited $RT_EXIT on SIGTERM (expected 0)"
  exit 1
fi
kill -TERM "$SH0_PID" "$SH1_PID" "$ONE_PID"
for pid in "$SH0_PID" "$SH1_PID" "$ONE_PID"; do
  SHARD_EXIT=0
  wait "$pid" || SHARD_EXIT=$?
  if [ "$SHARD_EXIT" -ne 0 ]; then
    echo "CI FAIL: router-stage pb_server exited $SHARD_EXIT on SIGTERM"
    exit 1
  fi
done

# The SQL micro-benchmark suite must keep running end to end. This is a
# smoke test at --quick sizes, not a timing gate: it checks only that
# the suite exits 0 and writes every case to its JSON file.
echo "== sql bench smoke (bench/main.exe --sql --quick) =="
if ! ./_build/default/bench/main.exe --sql --quick \
  --sql-json _build/ci/bench_sql.json >_build/ci/bench_sql.txt 2>&1; then
  echo "CI FAIL: bench/main.exe --sql --quick failed; output follows"
  cat _build/ci/bench_sql.txt
  exit 1
fi
if ! grep -q '"name":"prepared_repeat_x100"' _build/ci/bench_sql.json; then
  echo "CI FAIL: bench_sql.json is missing its last case:"
  cat _build/ci/bench_sql.json
  exit 1
fi

# The SketchRefine scaling suite must keep landing valid packages. This
# is a smoke test at --quick sizes (5k and 20k rows), not a timing gate:
# it checks only that the suite exits 0 and that every sketch_refine
# record in its JSON file has "valid_package":true.
echo "== paql-scale bench smoke (bench/main.exe --paql-scale --quick) =="
if ! ./_build/default/bench/main.exe --paql-scale --quick \
  --paql-json _build/ci/bench_paql.json >_build/ci/bench_paql.txt 2>&1; then
  echo "CI FAIL: bench/main.exe --paql-scale --quick failed; output follows"
  cat _build/ci/bench_paql.txt
  exit 1
fi
SR_RECORDS=$(grep -c '"name":"sketch_refine"' _build/ci/bench_paql.json || true)
SR_VALID=$(grep '"name":"sketch_refine"' _build/ci/bench_paql.json | \
  grep -c '"valid_package":true' || true)
if [ "$SR_RECORDS" -lt 1 ] || [ "$SR_VALID" -ne "$SR_RECORDS" ]; then
  echo "CI FAIL: $SR_VALID of $SR_RECORDS sketch_refine records in"
  echo "         bench_paql.json have a valid package:"
  cat _build/ci/bench_paql.json
  exit 1
fi

echo "CI OK"
