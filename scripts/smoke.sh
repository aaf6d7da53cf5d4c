#!/bin/sh
# smoke.sh — end-to-end smoke test of the placement daemon, as run by
# the CI "smoke" job (and `make smoke` locally): build cmd/placed,
# start it on the Table-I fabric's catalog, place the committed smoke
# request twice and require a cache miss then a byte-identical cache
# hit, then its committed explicit spelling with modules and shapes
# permuted and require a hit on the same digest, check liveness, the
# live /metrics scrape (span histograms counting every request) and the
# observability round trip (X-Trace-Id header, structured access-log
# line, span stream rendered by tracecat), run a stateful session round trip
# (create, place, release, defrag with priced moves, occupancy stats,
# delete), and shut down cleanly.
set -eu

PORT="${PORT:-18723}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
WORKDIR="$(mktemp -d)"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

go build -o "$WORKDIR/placed" ./cmd/placed
go build -o "$WORKDIR/tracecat" ./cmd/tracecat

"$WORKDIR/placed" -addr "$ADDR" -workers 2 -cache-entries 64 -max-inflight 16 \
    -trace "$WORKDIR/spans.jsonl" -access-log "$WORKDIR/access.log" &
DAEMON_PID=$!

# Wait for liveness.
i=0
until curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke: daemon never became healthy on $BASE" >&2
        exit 1
    fi
    sleep 0.1
done
echo "smoke: daemon healthy on $BASE"

# place NAME [REQUEST] posts REQUEST (default: the smoke request) and
# prints its X-Cache disposition.
place() {
    curl -sf -D "$WORKDIR/$1.headers" -o "$WORKDIR/$1.body" \
        -H 'Content-Type: application/json' \
        --data-binary @"${2:-cmd/placed/testdata/smoke-request.json}" \
        "$BASE/v1/place"
    grep -i '^x-cache:' "$WORKDIR/$1.headers" | tr -d '\r' | awk '{print $2}'
}

# digest_of NAME prints the digest field of a placement body.
digest_of() {
    sed -n 's/^{"digest":"\([0-9a-f]*\)".*/\1/p' "$WORKDIR/$1.body"
}

CACHE1="$(place first)"
if [ "$CACHE1" != "miss" ]; then
    echo "smoke: first placement X-Cache=$CACHE1, want miss" >&2
    exit 1
fi
CACHE2="$(place second)"
if [ "$CACHE2" != "hit" ]; then
    echo "smoke: second placement X-Cache=$CACHE2, want hit" >&2
    exit 1
fi
if ! cmp -s "$WORKDIR/first.body" "$WORKDIR/second.body"; then
    echo "smoke: cache hit is not byte-identical to the original response" >&2
    exit 1
fi
echo "smoke: miss then byte-identical hit"

# The explicit spelling lists the same batch with modules and shapes in
# another order: the same canonical instance, so a hit on the same
# digest, answered in the permuted request's own order.
CACHE3="$(place permuted cmd/placed/testdata/smoke-request-permuted.json)"
if [ "$CACHE3" != "hit" ]; then
    echo "smoke: permuted explicit placement X-Cache=$CACHE3, want hit" >&2
    exit 1
fi
DIGEST1="$(digest_of first)"
DIGEST3="$(digest_of permuted)"
if [ -z "$DIGEST1" ] || [ "$DIGEST1" != "$DIGEST3" ]; then
    echo "smoke: permuted spelling digest \"$DIGEST3\", want \"$DIGEST1\"" >&2
    exit 1
fi
echo "smoke: permuted explicit spelling hits digest $DIGEST1"

# The registry is served live: after the miss and the hit, the scrape
# carries the solver's per-propagator runs and exactly one solve.
curl -sf "$BASE/metrics" >"$WORKDIR/metrics.prom"
if ! grep -q '^solver_propagator_runs_total{' "$WORKDIR/metrics.prom"; then
    echo "smoke: /metrics has no solver_propagator_runs_total line" >&2
    cat "$WORKDIR/metrics.prom" >&2
    exit 1
fi
if ! grep -qx 'service_solves_total 1' "$WORKDIR/metrics.prom"; then
    echo "smoke: /metrics does not report service_solves_total 1" >&2
    cat "$WORKDIR/metrics.prom" >&2
    exit 1
fi
echo "smoke: /metrics serves the solver and service counters"

# Every span feeds a histogram: the request span is observed once per
# request, the canonicalize span once per /v1/place post (3 so far).
sample() {
    awk -v n="$1" '$1 == n { print $2 }' "$WORKDIR/metrics.prom"
}
REQUESTS="$(sample service_requests_total)"
REQUEST_SPANS="$(sample service_request_seconds_count)"
if [ -z "$REQUESTS" ] || [ "$REQUEST_SPANS" != "$REQUESTS" ]; then
    echo "smoke: service_request_seconds_count \"$REQUEST_SPANS\", service_requests_total \"$REQUESTS\"" >&2
    cat "$WORKDIR/metrics.prom" >&2
    exit 1
fi
if [ "$(sample service_canonicalize_seconds_count)" != 3 ]; then
    echo "smoke: service_canonicalize_seconds_count is not the 3 place posts" >&2
    cat "$WORKDIR/metrics.prom" >&2
    exit 1
fi
echo "smoke: span histograms count every request"

# Every response must carry a 32-hex X-Trace-Id.
TRACE_ID="$(grep -i '^x-trace-id:' "$WORKDIR/first.headers" | tr -d '\r' | awk '{print $2}')"
if ! echo "$TRACE_ID" | grep -Eq '^[0-9a-f]{32}$'; then
    echo "smoke: first placement X-Trace-Id=\"$TRACE_ID\", want 32-hex" >&2
    exit 1
fi
echo "smoke: X-Trace-Id $TRACE_ID"

# The traced request shows up in the in-memory trace rings.
if ! curl -sf "$BASE/debug/traces" | grep -q "$TRACE_ID"; then
    echo "smoke: /debug/traces does not contain trace $TRACE_ID" >&2
    exit 1
fi
echo "smoke: /debug/traces lists the request"

STATS="$(curl -sf "$BASE/v1/stats")"
echo "$STATS"
case "$STATS" in
*'"slo"'*) ;;
*)
    echo "smoke: /v1/stats carries no SLO section" >&2
    exit 1
    ;;
esac

# --- Stateful session round trip -------------------------------------

# clb_module NAME W H prints a single-shape all-CLB module spec.
clb_module() {
    _tiles=""
    _y=0
    while [ "$_y" -lt "$3" ]; do
        _x=0
        while [ "$_x" -lt "$2" ]; do
            _tiles="${_tiles}{\"x\":$_x,\"y\":$_y,\"kind\":\"CLB\"},"
            _x=$((_x + 1))
        done
        _y=$((_y + 1))
    done
    printf '{"name":"%s","shapes":[{"tiles":[%s]}]}' "$1" "${_tiles%,}"
}

SESSION="$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"fabric":"spartan-like-24x16","region":{"x":0,"y":0,"w":8,"h":12},"replan":{"stallNodes":200}}' \
    "$BASE/v1/sessions" | sed -n 's/.*"session":"\([0-9a-f]*\)".*/\1/p')"
if ! echo "$SESSION" | grep -Eq '^[0-9a-f]{32}$'; then
    echo "smoke: session create returned id \"$SESSION\", want 32-hex" >&2
    exit 1
fi
echo "smoke: session $SESSION created"

# session_place TASK W H places one module and requires placed:true
# plus an X-Trace-Id on the response.
session_place() {
    curl -sf -D "$WORKDIR/sess.headers" \
        -H 'Content-Type: application/json' \
        -d "{\"task\":$1,\"module\":$(clb_module "m$1" "$2" "$3")}" \
        "$BASE/v1/sessions/$SESSION/place" >"$WORKDIR/sess.body"
    if ! grep -q '"placed":true' "$WORKDIR/sess.body"; then
        echo "smoke: session place of task $1 failed: $(cat "$WORKDIR/sess.body")" >&2
        exit 1
    fi
    if ! grep -iq '^x-trace-id:' "$WORKDIR/sess.headers"; then
        echo "smoke: session place response lacks X-Trace-Id" >&2
        exit 1
    fi
}

session_place 1 8 4
session_place 2 4 4
session_place 3 4 4
session_place 4 4 4
echo "smoke: four modules resident"

RELEASE="$(curl -sf -X DELETE "$BASE/v1/sessions/$SESSION/modules/2")"
case "$RELEASE" in
*'"released":true'*) ;;
*)
    echo "smoke: release of task 2 failed: $RELEASE" >&2
    exit 1
    ;;
esac

DEFRAG="$(curl -sf -X POST "$BASE/v1/sessions/$SESSION/defrag")"
case "$DEFRAG" in
*'"moves":[{'*'"frames":'*) ;;
*)
    echo "smoke: defrag returned no priced moves: $DEFRAG" >&2
    exit 1
    ;;
esac
echo "smoke: defrag compacted the session"

SESS_STATS="$(curl -sf "$BASE/v1/sessions/$SESSION/stats")"
case "$SESS_STATS" in
*'"residents":3'*'"occupiedTiles":64'*) ;;
*)
    echo "smoke: session stats disagree with expected occupancy: $SESS_STATS" >&2
    exit 1
    ;;
esac
echo "smoke: session occupancy verified"

curl -sf -X DELETE "$BASE/v1/sessions/$SESSION" >/dev/null
if curl -sf "$BASE/v1/sessions/$SESSION/stats" >/dev/null 2>&1; then
    echo "smoke: deleted session still answers stats" >&2
    exit 1
fi
echo "smoke: session deleted"

kill "$DAEMON_PID"
wait "$DAEMON_PID" || {
    echo "smoke: daemon exited non-zero on SIGTERM" >&2
    exit 1
}
DAEMON_PID=""
echo "smoke: clean shutdown"

# One well-formed access-log line per request, correlated by trace id:
# 3 /v1/place requests plus the 10-request session round trip.
LINES="$(wc -l < "$WORKDIR/access.log")"
if [ "$LINES" -ne 13 ]; then
    echo "smoke: access log has $LINES lines after 13 requests" >&2
    cat "$WORKDIR/access.log" >&2
    exit 1
fi
FIRST_LINE="$(head -n 1 "$WORKDIR/access.log")"
case "$FIRST_LINE" in
*"\"traceId\":\"$TRACE_ID\""*) ;;
*)
    echo "smoke: access log line lacks traceId $TRACE_ID: $FIRST_LINE" >&2
    exit 1
    ;;
esac
case "$FIRST_LINE" in
*'"path":"/v1/place"'*'"status":200'*) ;;
*)
    echo "smoke: malformed access log line: $FIRST_LINE" >&2
    exit 1
    ;;
esac
echo "smoke: access log well-formed"

# The span stream renders: tracecat must find the request trace with
# its solve span.
if ! "$WORKDIR/tracecat" "$WORKDIR/spans.jsonl" | grep -q "trace $TRACE_ID"; then
    echo "smoke: tracecat did not render trace $TRACE_ID" >&2
    "$WORKDIR/tracecat" "$WORKDIR/spans.jsonl" >&2 || true
    exit 1
fi
echo "smoke: tracecat renders the span stream"
