#!/usr/bin/env bash
# bench.sh — run the pipeline stage benchmarks and record a JSON baseline.
#
# Usage:
#
#   scripts/bench.sh [count]
#
# Runs BenchmarkGenerate, BenchmarkInference, BenchmarkInferenceWarmCache
# (the restart path: a fresh engine reading every per-network analysis
# from a filled disk cache tier, ~6x faster than BenchmarkInference),
# BenchmarkIngestDecode (decoding one month's ~9.3 MB update body, the
# body perfbench's cold_start workload posts), BenchmarkIngestMonth (the
# streaming-ingest cost of one new month, decode excluded; each
# iteration ingests into a fresh framework that has never seen that
# month, as in a real stream), the per-dialect parse/diff stage
# benchmarks (BenchmarkParseSnapshot*, a full parse;
# BenchmarkParseNext*, the incremental parse of a snapshot given its
# predecessor; BenchmarkDiffPair*), BenchmarkTable3, BenchmarkSection61,
# the causal analyses BenchmarkTable7 and BenchmarkTable8, the two
# heaviest analyses, BenchmarkFigure8 and BenchmarkTable9,
# BenchmarkServeWarm/<endpoint> in internal/serve (one warm /v1 read of
# rank, network, predict, causal, report and manifest through the
# daemon's handler: instrumentation, routing, memo hit, JSON encoding),
# and the decision-tree kernel in internal/ml (BenchmarkTrainTree, one
# tree on a 480×28 fixture; BenchmarkAdaBoost, the paper's 15 boosting
# rounds on it), with -count (default 10) repetitions each and writes
# BENCH_<YYYY-MM-DD>.json in the repo root: one object per benchmark run
# with ns/op, B/op, and allocs/op, plus the host's CPU count and the
# GOMAXPROCS/worker setting in effect.
#
# This file's pattern and packages are also the benchmark set of the
# paired regression judgment (scripts/paired.sh, which sources this file
# for them and for the record format): a benchmark it names is judged on
# every CI run, and dropping one from the pattern is the only way to stop
# judging it.
#
# Benchmarks run at the process-default worker count (all CPUs). The
# paired judgment runs them at -cpu 1 (GOMAXPROCS 1: the pool's jobs
# share one core), so it sees single-core costs only: a change that fans
# an analysis out over the pool shows there only through its per-core
# work, and its multi-core speedup needs a -cpu 2 run. Set
# MPA_BENCH_ARGS to pass extra go-test flags, e.g.
# MPA_BENCH_ARGS='-cpuprofile cpu.out' (written by each package's run
# in turn, so the internal/serve profile is the one left). Set
# MPA_BENCH_OUT to override the output path.
set -euo pipefail

pattern='^(BenchmarkGenerate|BenchmarkInference|BenchmarkInferenceWarmCache|BenchmarkIngestDecode|BenchmarkIngestMonth|BenchmarkParseSnapshotCisco|BenchmarkParseSnapshotJunos|BenchmarkParseNextCisco|BenchmarkParseNextJunos|BenchmarkDiffPairCisco|BenchmarkDiffPairJunos|BenchmarkTable3|BenchmarkTable7|BenchmarkTable8|BenchmarkSection61|BenchmarkFigure8|BenchmarkTable9|BenchmarkServeWarm|BenchmarkTrainTree|BenchmarkAdaBoost)$'
pkgs='. ./internal/serve ./internal/ml'

# records turns go test -bench output into one JSON object per benchmark
# line, the format cmd/mpa-benchdiff reads.
records() {
    awk -v date="$(date -u +%FT%TZ)" '
      /^Benchmark/ {
          # The -N suffix go test appends to benchmark names is GOMAXPROCS.
          name = $1
          ncpu = 1
          if (match(name, /-[0-9]+$/)) {
              ncpu = substr(name, RSTART + 1)
              name = substr(name, 1, RSTART - 1)
          }
          printf "{\"date\":\"%s\",\"gomaxprocs\":%s,\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n",
              date, ncpu, name, $2, $3, $5, $7
      }
    ' "$@"
}

# Sourced for the definitions above: stop here.
if [ "${BASH_SOURCE[0]}" != "$0" ]; then
    return 0
fi

cd "$(dirname "$0")/.."

count="${1:-10}"
out="${MPA_BENCH_OUT:-BENCH_$(date +%F).json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running stage benchmarks (count=$count) ..." >&2
# One go test run per package, so that profile flags stay usable.
for pkg in $pkgs; do
    # shellcheck disable=SC2086  # MPA_BENCH_ARGS is intentionally word-split
    go test -run '^$' -bench "$pattern" -benchmem -count="$count" \
        ${MPA_BENCH_ARGS:-} "$pkg" | tee -a "$raw" >&2
done

records "$raw" > "$out"

n="$(wc -l < "$out")"
if [ "$n" -eq 0 ]; then
    echo "bench.sh: no benchmark lines parsed" >&2
    exit 1
fi
echo "wrote $n benchmark records to $out" >&2
