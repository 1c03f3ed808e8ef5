#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke test for `mpa serve`: build the
# binary, start a daemon over a small generated archive, query it,
# revalidate a stored answer by its ETag, exercise the flight recorder
# (request-ID round-trip, /debug/requests, a per-request Chrome trace),
# stream one month of new data through the ingest path (SSE subscriber
# + `mpa nextmonth` + POST /v1/ingest), and assert a clean graceful
# shutdown on SIGINT. The single org is served
# as a registry of one named "default". A second phase starts a
# 2-org sharded daemon (`serve -orgs`) and checks tenant routing by
# path and header, cross-tenant 404s, fleet aggregates, and per-tenant
# metric series.
#
# Usage: scripts/serve-smoke.sh [port] (the sharded phase uses port+1)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
TMP="$(mktemp -d)" # the binary and every capture; removed on exit
BIN="$TMP/mpa"
trap 'rm -rf "$TMP"' EXIT

go build -o "$BIN" ./cmd/mpa

"$BIN" -networks 12 -months 3 -addr "127.0.0.1:$PORT" serve &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

# Wait for the daemon to load and listen (generation + inference).
for i in $(seq 1 120); do
    if curl -fsS "http://127.0.0.1:$PORT/healthz" >"$TMP/healthz.json" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "serve-smoke: daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.5
done

grep -q '"status": "ok"' "$TMP/healthz.json" || {
    echo "serve-smoke: /healthz did not report ok:" >&2
    cat "$TMP/healthz.json" >&2
    exit 1
}
echo "serve-smoke: /healthz ok"

# Fetch to a file first: `curl | grep -q` races SIGPIPE when grep
# matches inside the first chunk of a multi-chunk body.
curl -fsS "http://127.0.0.1:$PORT/v1/rank" >"$TMP/rank.json"
grep -q '"metric"' "$TMP/rank.json" || {
    echo "serve-smoke: /v1/rank missing ranked metrics" >&2
    exit 1
}
echo "serve-smoke: /v1/rank ok"

# Revalidation: a stored answer carries a strong ETag, and sending it
# back in If-None-Match answers 304 with no body.
ETAG="$(curl -fsS -D - -o /dev/null "http://127.0.0.1:$PORT/v1/rank" \
    | tr -d '\r' | awk -F': ' 'tolower($1) == "etag" {print $2}')"
[ -n "$ETAG" ] || {
    echo "serve-smoke: /v1/rank sent no ETag" >&2
    exit 1
}
CODE="$(curl -s -o "$TMP/rank-304.body" -w '%{http_code}' -H "If-None-Match: $ETAG" "http://127.0.0.1:$PORT/v1/rank")"
if [ "$CODE" != 304 ] || [ -s "$TMP/rank-304.body" ]; then
    echo "serve-smoke: /v1/rank If-None-Match $ETAG returned $CODE, want an empty 304" >&2
    exit 1
fi
echo "serve-smoke: /v1/rank ETag revalidation ok"

# Per-endpoint observability: the rank request above must show up in
# its own latency histogram and status-class counter on /metrics, and
# /debug/slo must summarize it with percentiles.
curl -fsS "http://127.0.0.1:$PORT/metrics" >"$TMP/metrics.txt"
for series in \
    'mpa_serve_latency_ns_rank_bucket{le=' \
    'mpa_serve_latency_ns_rank_count ' \
    'mpa_serve_tenant_default_latency_ns_rank_count ' \
    'mpa_serve_status_rank_2xx_total ' \
    'mpa_serve_streams_open '; do
    grep -qF "$series" "$TMP/metrics.txt" || {
        echo "serve-smoke: /metrics missing $series" >&2
        exit 1
    }
done
curl -fsS "http://127.0.0.1:$PORT/debug/slo" >"$TMP/slo.json"
grep -q '"rank"' "$TMP/slo.json" && grep -q '"p99"' "$TMP/slo.json" || {
    echo "serve-smoke: /debug/slo missing rank percentiles:" >&2
    cat "$TMP/slo.json" >&2
    exit 1
}
echo "serve-smoke: per-endpoint metrics and /debug/slo ok"

# A single-org daemon is a registry of one: the fleet aggregates are
# mounted too.
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/v1/fleet/rank")"
[ "$CODE" = 200 ] || {
    echo "serve-smoke: single-org /v1/fleet/rank returned $CODE, want 200" >&2
    exit 1
}
echo "serve-smoke: single-org /v1/fleet/rank ok"

# Flight recorder: a client-supplied X-Request-ID must round-trip back.
REQ_ID="smoke-$$"
GOT_ID="$(curl -fsS -D - -o /dev/null -H "X-Request-ID: $REQ_ID" \
    "http://127.0.0.1:$PORT/v1/causal?practice=no_change_events" \
    | tr -d '\r' | awk -F': ' 'tolower($1) == "x-request-id" {print $2}')"
if [ "$GOT_ID" != "$REQ_ID" ]; then
    echo "serve-smoke: X-Request-ID did not round-trip (sent $REQ_ID, got '$GOT_ID')" >&2
    exit 1
fi
echo "serve-smoke: X-Request-ID round-trip ok"

# The request must be findable in the recorder's ring by that ID.
curl -fsS "http://127.0.0.1:$PORT/debug/requests" >"$TMP/debug-requests.json"
grep -q "\"$REQ_ID\"" "$TMP/debug-requests.json" || {
    echo "serve-smoke: request $REQ_ID missing from /debug/requests:" >&2
    cat "$TMP/debug-requests.json" >&2
    exit 1
}
echo "serve-smoke: /debug/requests ok"

# And its per-request Chrome trace must be a well-formed trace file
# (traces of the slowest requests are always retained, and the first few
# requests trivially rank among the slowest).
curl -fsS "http://127.0.0.1:$PORT/debug/requests/$REQ_ID/trace" >"$TMP/request-trace.json"
grep -q '"traceEvents"' "$TMP/request-trace.json" && grep -q '"serve:causal"' "$TMP/request-trace.json" || {
    echo "serve-smoke: per-request trace malformed:" >&2
    cat "$TMP/request-trace.json" >&2
    exit 1
}
echo "serve-smoke: per-request trace ok"

# Streaming ingest: subscribe to the SSE feed, generate the next month
# with `mpa nextmonth` (prefix-stable, so it matches the daemon's
# organization), POST it, and assert the update both streamed out and
# became queryable in place.
curl -sN --max-time 30 "http://127.0.0.1:$PORT/v1/stream" >"$TMP/stream.log" &
CURL_PID=$!
for i in $(seq 1 40); do
    grep -q 'mpa ingest stream' "$TMP/stream.log" 2>/dev/null && break
    sleep 0.25
done
grep -q 'mpa ingest stream' "$TMP/stream.log" || {
    echo "serve-smoke: SSE stream never opened" >&2
    exit 1
}

"$BIN" -networks 12 -months 3 nextmonth >"$TMP/update.json"
curl -fsS -X POST --data-binary @"$TMP/update.json" \
    "http://127.0.0.1:$PORT/v1/ingest" >"$TMP/ingest.json"
grep -q '"new_month": true' "$TMP/ingest.json" || {
    echo "serve-smoke: ingest did not extend the window:" >&2
    cat "$TMP/ingest.json" >&2
    exit 1
}
NEW_MONTH="$(sed -n 's/.*"month": "\([0-9-]*\)".*/\1/p' "$TMP/ingest.json" | head -1)"
echo "serve-smoke: /v1/ingest applied $NEW_MONTH"

# The SSE subscriber must receive the per-network deltas and the
# refreshed ranking for that month.
for i in $(seq 1 40); do
    grep -q '^event: rank' "$TMP/stream.log" 2>/dev/null && break
    sleep 0.25
done
grep -q '^event: delta' "$TMP/stream.log" || {
    echo "serve-smoke: no delta events on /v1/stream:" >&2
    cat "$TMP/stream.log" >&2
    exit 1
}
grep -q '^event: rank' "$TMP/stream.log" || {
    echo "serve-smoke: no rank event on /v1/stream:" >&2
    cat "$TMP/stream.log" >&2
    exit 1
}
kill "$CURL_PID" 2>/dev/null || true
echo "serve-smoke: /v1/stream deltas ok ($(grep -c '^event: delta' "$TMP/stream.log") networks)"

# The daemon must answer for the new month without restarting.
curl -fsS "http://127.0.0.1:$PORT/healthz" >"$TMP/healthz2.json"
grep -q "\"window_end\": \"$NEW_MONTH\"" "$TMP/healthz2.json" || {
    echo "serve-smoke: window did not advance to $NEW_MONTH:" >&2
    cat "$TMP/healthz2.json" >&2
    exit 1
}
curl -fsS "http://127.0.0.1:$PORT/v1/rank" >"$TMP/rank2.json"
grep -q '"metric"' "$TMP/rank2.json" || {
    echo "serve-smoke: /v1/rank broken after ingest" >&2
    exit 1
}
echo "serve-smoke: post-ingest queries ok (window_end=$NEW_MONTH)"

# Graceful shutdown: SIGINT must drain and exit 0.
kill -INT "$PID"
if wait "$PID"; then
    echo "serve-smoke: clean shutdown"
else
    echo "serve-smoke: daemon exited non-zero on SIGINT" >&2
    exit 1
fi

# ---- Phase 2: multi-tenant sharded serve ----------------------------
# Two orgs of different sizes so the fleet totals are distinguishable
# from either org alone: acme has 6 networks, globex 5, both 2 months.
PORT2=$((PORT + 1))
"$BIN" -addr "127.0.0.1:$PORT2" -orgs "acme=1:6:2,globex=2:5:2" serve &
PID2=$!
trap 'kill "$PID2" 2>/dev/null || true; rm -rf "$TMP"' EXIT

for i in $(seq 1 120); do
    if curl -fsS "http://127.0.0.1:$PORT2/healthz" >"$TMP/fleet-healthz.json" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$PID2" 2>/dev/null; then
        echo "serve-smoke: sharded daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.5
done
grep -q '"status": "ok"' "$TMP/fleet-healthz.json" && grep -q '"acme"' "$TMP/fleet-healthz.json" || {
    echo "serve-smoke: fleet /healthz did not report ok with orgs:" >&2
    cat "$TMP/fleet-healthz.json" >&2
    exit 1
}
echo "serve-smoke: sharded daemon up (2 orgs)"

# Path-segment routing: each org answers under /v1/orgs/<name>/.
curl -fsS "http://127.0.0.1:$PORT2/v1/orgs/acme/healthz" >"$TMP/acme-healthz.json"
grep -q '"org": "acme"' "$TMP/acme-healthz.json" && grep -q '"networks": 6' "$TMP/acme-healthz.json" || {
    echo "serve-smoke: /v1/orgs/acme/healthz wrong:" >&2
    cat "$TMP/acme-healthz.json" >&2
    exit 1
}
curl -fsS "http://127.0.0.1:$PORT2/v1/orgs/acme/rank" >"$TMP/acme-rank.json"
grep -q '"metric"' "$TMP/acme-rank.json" || {
    echo "serve-smoke: /v1/orgs/acme/rank missing ranked metrics" >&2
    exit 1
}
echo "serve-smoke: path-segment routing ok"

# Header routing: X-MPA-Org selects the shard on the bare /v1 routes
# and must agree byte-for-byte with the path form.
curl -fsS -H 'X-MPA-Org: globex' "http://127.0.0.1:$PORT2/v1/rank" >"$TMP/globex-rank-hdr.json"
curl -fsS "http://127.0.0.1:$PORT2/v1/orgs/globex/rank" >"$TMP/globex-rank-path.json"
cmp -s "$TMP/globex-rank-hdr.json" "$TMP/globex-rank-path.json" || {
    echo "serve-smoke: header- and path-routed /v1/rank differ for globex" >&2
    exit 1
}
echo "serve-smoke: X-MPA-Org header routing ok"

# Tenant boundaries: unknown orgs are 404s, and a bare query against a
# multi-org daemon is a 400 naming the choices.
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT2/v1/orgs/nope/rank")"
[ "$CODE" = 404 ] || {
    echo "serve-smoke: /v1/orgs/nope/rank returned $CODE, want 404" >&2
    exit 1
}
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT2/v1/rank")"
[ "$CODE" = 400 ] || {
    echo "serve-smoke: org-less /v1/rank returned $CODE, want 400" >&2
    exit 1
}
echo "serve-smoke: cross-tenant 404 and org-less 400 ok"

# Fleet aggregates: totals must span both orgs (6+5 networks) and the
# merged ranking must cover all 28 practice metrics.
curl -fsS "http://127.0.0.1:$PORT2/v1/fleet/health" >"$TMP/fleet-health.json"
grep -q '"orgs": 2' "$TMP/fleet-health.json" && grep -q '"networks": 11' "$TMP/fleet-health.json" || {
    echo "serve-smoke: /v1/fleet/health totals wrong:" >&2
    cat "$TMP/fleet-health.json" >&2
    exit 1
}
curl -fsS "http://127.0.0.1:$PORT2/v1/fleet/rank" >"$TMP/fleet-rank.json"
RANKED="$(grep -c '"metric"' "$TMP/fleet-rank.json")"
[ "$RANKED" = 28 ] || {
    echo "serve-smoke: /v1/fleet/rank has $RANKED metric rows, want 28" >&2
    exit 1
}
echo "serve-smoke: fleet aggregates ok (11 networks, 28 metrics)"

# Per-tenant observability: the acme queries above must appear in
# tenant-prefixed series next to the fleet-wide ones, and /debug/slo
# must break endpoints down per org.
curl -fsS "http://127.0.0.1:$PORT2/metrics" >"$TMP/fleet-metrics.txt"
for series in \
    'mpa_serve_latency_ns_rank_count ' \
    'mpa_serve_tenant_acme_latency_ns_rank_count ' \
    'mpa_serve_tenant_globex_status_rank_2xx_total '; do
    grep -qF "$series" "$TMP/fleet-metrics.txt" || {
        echo "serve-smoke: /metrics missing $series" >&2
        exit 1
    }
done
curl -fsS "http://127.0.0.1:$PORT2/debug/slo" >"$TMP/fleet-slo.json"
grep -q '"tenants"' "$TMP/fleet-slo.json" && grep -q '"acme"' "$TMP/fleet-slo.json" || {
    echo "serve-smoke: /debug/slo missing per-tenant breakdown:" >&2
    cat "$TMP/fleet-slo.json" >&2
    exit 1
}
echo "serve-smoke: per-tenant metrics and /debug/slo ok"

kill -INT "$PID2"
if wait "$PID2"; then
    echo "serve-smoke: sharded clean shutdown"
else
    echo "serve-smoke: sharded daemon exited non-zero on SIGINT" >&2
    exit 1
fi
