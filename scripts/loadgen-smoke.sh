#!/usr/bin/env bash
# loadgen-smoke.sh — end-to-end smoke test of the load tooling and the
# daemon's own latency view: build `mpa` and `mpa-loadgen`, start a
# daemon over a small generated archive, drive a short deterministic
# open-loop load run, and check that the daemon's /metrics and
# /debug/slo describe it. A second phase repeats the run against a 2-org
# sharded daemon with a tenant-aware mix (-orgs) and checks the
# per-tenant series. The latencies themselves are judged against a base
# revision's by scripts/paired.sh, which runs the same two shapes.
#
# Usage: scripts/loadgen-smoke.sh [port] [out-manifest]
#        (the sharded phase uses port+1 and <out-manifest>.orgs)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18081}"
OUT="${2:-load-manifest.json}"
BINDIR="$(mktemp -d)"
trap 'rm -rf "$BINDIR"' EXIT

go build -o "$BINDIR/mpa" ./cmd/mpa
go build -o "$BINDIR/mpa-loadgen" ./cmd/mpa-loadgen

"$BINDIR/mpa" -networks 12 -months 3 -addr "127.0.0.1:$PORT" serve &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$BINDIR"' EXIT

for i in $(seq 1 120); do
    if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "loadgen-smoke: daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.5
done
echo "loadgen-smoke: daemon up"

# A short but real run: ~200 requests across the default read mix. The
# fixed seed makes the request schedule reproducible; only the measured
# latencies vary run to run.
"$BINDIR/mpa-loadgen" -addr "http://127.0.0.1:$PORT" \
    -rate 40 -duration 5s -conns 4 -seed 1 -out "$OUT"
echo "loadgen-smoke: load run complete"

# The daemon's own view must agree: per-endpoint series on /metrics and
# a populated /debug/slo summary.
curl -fsS "http://127.0.0.1:$PORT/metrics" >"$BINDIR/loadgen-metrics.txt"
for series in \
    'mpa_serve_latency_ns_rank_bucket{le=' \
    'mpa_serve_latency_ns_rank_count ' \
    'mpa_serve_status_rank_2xx_total ' \
    'mpa_serve_streams_open '; do
    grep -qF "$series" "$BINDIR/loadgen-metrics.txt" || {
        echo "loadgen-smoke: /metrics missing $series" >&2
        exit 1
    }
done
curl -fsS "http://127.0.0.1:$PORT/debug/slo" >"$BINDIR/loadgen-slo.json"
grep -q '"p99"' "$BINDIR/loadgen-slo.json" && grep -q '"rank"' "$BINDIR/loadgen-slo.json" || {
    echo "loadgen-smoke: /debug/slo missing per-endpoint percentiles:" >&2
    cat "$BINDIR/loadgen-slo.json" >&2
    exit 1
}
echo "loadgen-smoke: daemon-side series ok"

kill -INT "$PID"
if wait "$PID"; then
    echo "loadgen-smoke: clean shutdown"
else
    echo "loadgen-smoke: daemon exited non-zero on SIGINT" >&2
    exit 1
fi

# ---- Phase 2: tenant-aware load against a sharded daemon ------------
PORT2=$((PORT + 1))
"$BINDIR/mpa" -addr "127.0.0.1:$PORT2" -orgs "acme=1:6:2,globex=2:5:2" serve &
PID2=$!
trap 'kill "$PID2" 2>/dev/null || true; rm -rf "$BINDIR"' EXIT

for i in $(seq 1 120); do
    if curl -fsS "http://127.0.0.1:$PORT2/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$PID2" 2>/dev/null; then
        echo "loadgen-smoke: sharded daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.5
done
echo "loadgen-smoke: sharded daemon up (2 orgs)"

# The same plan shape, now drawing a tenant per request. Endpoint
# accounting spans tenants.
"$BINDIR/mpa-loadgen" -addr "http://127.0.0.1:$PORT2" -orgs "acme,globex" \
    -rate 40 -duration 5s -conns 4 -seed 1 -out "$OUT.orgs"
echo "loadgen-smoke: tenant-aware load run complete"

# Tenant traffic must land in per-org series alongside the fleet-wide
# ones, and /debug/slo must carry the per-tenant breakdown.
curl -fsS "http://127.0.0.1:$PORT2/metrics" >"$BINDIR/loadgen-fleet-metrics.txt"
for series in \
    'mpa_serve_latency_ns_rank_count ' \
    'mpa_serve_tenant_acme_latency_ns_rank_count ' \
    'mpa_serve_tenant_globex_latency_ns_rank_count '; do
    grep -qF "$series" "$BINDIR/loadgen-fleet-metrics.txt" || {
        echo "loadgen-smoke: /metrics missing $series" >&2
        exit 1
    }
done
curl -fsS "http://127.0.0.1:$PORT2/debug/slo" >"$BINDIR/loadgen-fleet-slo.json"
grep -q '"tenants"' "$BINDIR/loadgen-fleet-slo.json" || {
    echo "loadgen-smoke: /debug/slo missing per-tenant breakdown:" >&2
    cat "$BINDIR/loadgen-fleet-slo.json" >&2
    exit 1
}
echo "loadgen-smoke: per-tenant series ok"

kill -INT "$PID2"
if wait "$PID2"; then
    echo "loadgen-smoke: sharded clean shutdown"
else
    echo "loadgen-smoke: sharded daemon exited non-zero on SIGINT" >&2
    exit 1
fi
