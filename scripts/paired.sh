#!/usr/bin/env bash
# paired.sh — judge the working tree against a base revision, both
# measured on this host at the same time.
#
# Usage: scripts/paired.sh BASE
#
# BASE is any git revision: CI passes the merge base with origin/main,
# or HEAD~1 on a push to main. The script checks BASE out in a temporary
# git worktree and builds, from each side, the test binaries of the
# scripts/bench.sh packages and an `mpa` daemon (with -trimpath, so two
# sides built from the same source are the same bytes); the working
# tree's mpa-loadgen drives both sides' daemons. It then runs rounds,
# each with the two sides side by side, so a neighbour that slows the
# host slows both. Where two CPUs are available (and taskset is), each
# side runs pinned to one of them, and the sides swap CPUs every round;
# the side started first alternates too. Half of each side's samples
# then come from each CPU and each start order, so a CPU that is slower
# than its sibling, or a head start, moves both sides alike:
#
#   - in BENCH_ROUNDS rounds, every benchmark of the working tree's
#     scripts/bench.sh pattern, once, at -cpu 1 and -benchtime BENCHTIME;
#   - in LOAD_ROUNDS rounds, two open-loop load phases, each against a
#     fresh daemon of that side: one org of 12 networks × 3 months, and
#     a 2-org daemon under a tenant-aware mix (the shapes of
#     scripts/loadgen-smoke.sh), at RATE requests/s for 5 s each; all
#     four load runs start together once all four daemons answer. An
#     endpoint's p99 in a 5 s run rests on 25–150 requests, so it is
#     nearly the run's maximum; its quartiles need twice the rounds the
#     benchmarks do.
#
# cmd/mpa-benchdiff then judges the change's records against the
# base's (its doc states the rule and its bounds), and its exit status
# is this script's: 0 pass, 2 a regression, 1 bad input. The run takes
# about four minutes on a 2-vCPU host.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_ROUNDS=8
LOAD_ROUNDS=16
BENCHTIME=100ms
RATE=100
PORT=18091 # base: PORT and PORT+1; change: PORT+2 and PORT+3

base_rev="${1:?usage: scripts/paired.sh BASE}"
# shellcheck source=bench.sh
. scripts/bench.sh # pattern, pkgs, records

work="$(mktemp -d)"
cleanup() {
    # Daemons and load runs a failed round left behind.
    pkill -f "$work/" 2>/dev/null || true
    git worktree remove --force "$work/base/tree" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/base/tree" "$base_rev"
mkdir -p "$work/change"
ln -s "$PWD" "$work/change/tree"

# The test binary of package dir pkg.
binary() { local n="${1#./}"; [ "$n" = . ] && n=root; echo "${n//\//_}.test"; }

echo "paired: building base $(git rev-parse --short "$base_rev") and the working tree" >&2
go build -o "$work/mpa-loadgen" ./cmd/mpa-loadgen
go build -o "$work/mpa-benchdiff" ./cmd/mpa-benchdiff
for side in base change; do
    mkdir -p "$work/$side/records"
    (
        cd "$work/$side/tree"
        go build -trimpath -o "$work/$side/mpa" ./cmd/mpa
        for pkg in $pkgs; do
            # A package the base does not have yet has no base records.
            [ -d "$pkg" ] || continue
            go test -c -trimpath -o "$work/$side/$(binary "$pkg")" "$pkg"
        done
    )
done

# The first two CPUs this process may run on; none when taskset is
# missing or may not pin.
cpus=()
if command -v taskset >/dev/null; then
    mapfile -t cpus < <(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' |
        while IFS=- read -r lo hi; do seq "$lo" "${hi:-$lo}"; done | head -2)
    taskset -c "${cpus[0]}" true 2>/dev/null || cpus=()
fi

# order sets, for a round, the sides in start order ($sides) and each
# side's CPU ($cpu_base, $cpu_change): odd rounds start base first with
# base on the first CPU, even rounds the reverse.
order() {
    if [ $(($1 % 2)) -eq 1 ]; then sides="base change"; else sides="change base"; fi
    if [ "${#cpus[@]}" -lt 2 ]; then
        cpu_base='' cpu_change=''
    elif [ $(($1 % 2)) -eq 1 ]; then
        cpu_base=${cpus[0]} cpu_change=${cpus[1]}
    else
        cpu_base=${cpus[1]} cpu_change=${cpus[0]}
    fi
}

# on runs a command of side on that side's CPU for the round, in place
# of the calling shell: call it in a subshell or in the background, so
# that $! is the command's own pid and a signal reaches it.
on() {
    local cpu="cpu_$1"
    shift
    if [ -n "${!cpu}" ]; then exec taskset -c "${!cpu}" "$@"; fi
    exec "$@"
}

# benches runs side's benchmarks once, each in its package directory as
# go test would, appending the output to the side's raw file.
benches() {
    local side="$1" pkg
    for pkg in $pkgs; do
        [ -x "$work/$side/$(binary "$pkg")" ] || continue
        (cd "$work/$side/tree/$pkg" && on "$side" "$work/$side/$(binary "$pkg")" -test.run '^$' \
            -test.bench "$pattern" -test.benchmem -test.count 1 -test.cpu 1 \
            -test.benchtime "$BENCHTIME") >>"$work/$side/bench.raw"
    done
}

# loads runs one round's load phases: both sides' daemons start, and
# once all four answer, all four load runs start together, so neither
# side's run overlaps the other side's start-up. A side's daemons and
# load runs share its CPU. round names the manifests.
loads() {
    local round="$1" daemons=() runs=() side port pid i
    for side in $sides; do
        port="$PORT"
        if [ "$side" = change ]; then port=$((PORT + 2)); fi
        on "$side" "$work/$side/mpa" -networks 12 -months 3 -addr "127.0.0.1:$port" serve \
            >>"$work/$side/daemon.log" 2>&1 &
        daemons+=($!)
        on "$side" "$work/$side/mpa" -orgs "acme=1:6:2,globex=2:5:2" -addr "127.0.0.1:$((port + 1))" serve \
            >>"$work/$side/daemon.log" 2>&1 &
        daemons+=($!)
    done
    for port in "$PORT" $((PORT + 1)) $((PORT + 2)) $((PORT + 3)); do
        for i in $(seq 1 300); do
            curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
            sleep 0.1
        done
    done
    for side in $sides; do
        port="$PORT"
        if [ "$side" = change ]; then port=$((PORT + 2)); fi
        on "$side" "$work/mpa-loadgen" -addr "http://127.0.0.1:$port" -out "$work/$side/records/load-$round.json" \
            -rate "$RATE" -duration 5s -conns 4 -seed 1 >/dev/null &
        runs+=($!)
        on "$side" "$work/mpa-loadgen" -addr "http://127.0.0.1:$((port + 1))" -orgs acme,globex \
            -out "$work/$side/records/load-orgs-$round.json" \
            -rate "$RATE" -duration 5s -conns 4 -seed 1 >/dev/null &
        runs+=($!)
    done
    for pid in "${runs[@]}"; do wait "$pid"; done
    kill -INT "${daemons[@]}"
    for pid in "${daemons[@]}"; do wait "$pid"; done
}

# both_benches runs both sides' benchmarks at once.
both_benches() {
    local side pids=() pid
    for side in $sides; do
        benches "$side" &
        pids+=($!)
    done
    for pid in "${pids[@]}"; do wait "$pid"; done
}

rounds=$((BENCH_ROUNDS > LOAD_ROUNDS ? BENCH_ROUNDS : LOAD_ROUNDS))
for round in $(seq 1 "$rounds"); do
    echo "paired: round $round/$rounds" >&2
    order "$round"
    if [ "$round" -le "$BENCH_ROUNDS" ]; then both_benches; fi
    if [ "$round" -le "$LOAD_ROUNDS" ]; then loads "$round"; fi
done

for side in base change; do
    records "$work/$side/bench.raw" >"$work/$side/records/bench.json"
done
"$work/mpa-benchdiff" "$work/base/records" "$work/change/records"
