#!/usr/bin/env bash
# End-to-end serving smoke against a real `ddb serve` daemon:
#
#   1. start the server on the examples catalog with --drain-on-stdin-close,
#      holding its stdin open on a pipe (the supervisor handshake);
#   2. parity: `ddb call` answers must be byte-identical — stdout AND
#      stderr (the oracle line, the `unknown` notice) — to the local CLI:
#      query, exists and models under all ten semantics, a CCWA partition
#      query, and a budget-tripped query;
#   3. chaos: malformed frames, oversized payloads, half-closes,
#      mid-request disconnects, concurrent cancellation (`ddb chaos`);
#   4. a deterministic fail-after sweep: every trip is a typed `unknown`
#      exiting 3, and the first un-tripped run matches the baseline;
#   5. drain by closing the server's stdin — the daemon must exit 0 and
#      report zero leaked sessions.
#
# Usage: scripts/serve_chaos.sh   (DDB overrides the binary path)
set -euo pipefail

DDB="${DDB:-./target/debug/ddb}"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    exec 9>&- 2>/dev/null || true
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== serve smoke"
mkfifo "$WORK/stdin"
printf 'a | b.\n' > "$WORK/ab.dl"
"$DDB" serve examples/vase.dl --db layers=examples/layers.dlv --db "ab=$WORK/ab.dl" \
    --workers 4 --queue 8 --drain-on-stdin-close \
    < "$WORK/stdin" > "$WORK/out" 2> "$WORK/err" &
SERVER_PID=$!
# Hold the write end of the server's stdin; closing fd 9 later is the
# drain signal. (Opening it also unblocks the server's open of the FIFO.)
exec 9> "$WORK/stdin"

for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on //p' "$WORK/out")"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" || { cat "$WORK/err"; echo "server died on startup"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never announced its address"; exit 1; }
echo "   listening on $ADDR"

# parity <op> <file> <db> <flags…>: the local command and `ddb call` must
# agree on stdout, stderr and the exit code.
parity() {
    local op="$1" file="$2" db="$3" rc_local=0 rc_served=0
    shift 3
    "$DDB" "$op" "$file" "$@" > "$WORK/local.out" 2> "$WORK/local.err" || rc_local=$?
    "$DDB" call --addr "$ADDR" --op "$op" --db "$db" "$@" \
        > "$WORK/served.out" 2> "$WORK/served.err" || rc_served=$?
    cmp "$WORK/local.out" "$WORK/served.out" \
        || { echo "stdout parity broke: $op $*"; exit 1; }
    cmp "$WORK/local.err" "$WORK/served.err" \
        || { echo "stderr parity broke: $op $*"; exit 1; }
    [ "$rc_local" -eq "$rc_served" ] \
        || { echo "exit parity broke: $op $* ($rc_local vs $rc_served)"; exit 1; }
}

echo "== parity: served answers byte-identical to the CLI, all ten semantics"
for sem in gcwa egcwa ccwa ecwa ddr pws perf icwa dsm pdsm; do
    parity query examples/vase.dl vase --semantics "$sem" --formula "-treat"
    parity exists examples/vase.dl vase --semantics "$sem"
done
for sem in gcwa dsm pdsm; do
    parity models examples/vase.dl vase --semantics "$sem"
done
parity query "$WORK/ab.dl" ab --semantics ccwa --partition-p a --literal -a
grep -qx inferred "$WORK/served.out" || { echo "partition query lost its partition"; exit 1; }
parity query examples/vase.dl vase --semantics gcwa --formula "-treat" --fail-after 3
grep -q '^unknown (fault_injection): interrupted' "$WORK/served.err" \
    || { echo "tripped query lost its unknown notice"; exit 1; }

echo "== chaos: malformed frames, disconnects, cancellation, fail-after sweep"
"$DDB" chaos --addr "$ADDR" --rounds 120 --fail-after-max 128

echo "== fail-after sweep: typed unknown (exit 3) at every interior checkpoint"
"$DDB" query examples/vase.dl --semantics gcwa --formula "-treat" \
    > "$WORK/base.out" 2> /dev/null
# The budget counts its checkpoints; sweep one past the total so the
# final iteration is the un-tripped run that must match the baseline.
total="$("$DDB" call --addr "$ADDR" --db vase --semantics gcwa --formula "-treat" --json \
    | sed -n 's/.*"checkpoints": *\([0-9]*\).*/\1/p')"
[ -n "$total" ] || { echo "could not read the checkpoint total"; exit 1; }
completed=""
for n in $(seq 1 $((total + 1))); do
    rc=0
    "$DDB" call --addr "$ADDR" --db vase --semantics gcwa --formula "-treat" \
        --fail-after "$n" > "$WORK/fa.out" 2> "$WORK/fa.err" || rc=$?
    if [ "$rc" -eq 0 ]; then
        cmp "$WORK/base.out" "$WORK/fa.out" \
            || { echo "un-tripped run at fail-after $n drifted from baseline"; exit 1; }
        completed="$n"
        break
    fi
    [ "$rc" -eq 3 ] || { echo "fail-after $n exited $rc, not 3"; cat "$WORK/fa.err"; exit 1; }
    grep -q '^unknown$' "$WORK/fa.out" \
        || { echo "fail-after $n trip is not a typed unknown"; cat "$WORK/fa.out"; exit 1; }
done
[ -n "$completed" ] || { echo "query never completed within the sweep"; exit 1; }
echo "   query completes at checkpoint $completed; every earlier trip was typed"

echo "== stats: serve.* counters exposed over the wire"
rc=0
"$DDB" call --addr "$ADDR" --op stats --json > "$WORK/stats.json" || rc=$?
[ "$rc" -eq 0 ] || { echo "stats op failed ($rc)"; exit 1; }
grep -q '"serve.requests"' "$WORK/stats.json" \
    || { echo "stats snapshot is missing serve.* counters"; exit 1; }

echo "== drain: closing the server's stdin must drain with zero leaks"
exec 9>&-
rc=0
wait "$SERVER_PID" || rc=$?
SERVER_PID=""
cat "$WORK/err"
[ "$rc" -eq 0 ] || { echo "server exited $rc"; exit 1; }
grep -q "leaked 0" "$WORK/err" || { echo "drain report leaked sessions"; exit 1; }
echo "== serve smoke ok"
