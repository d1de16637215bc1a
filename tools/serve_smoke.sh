#!/bin/sh
# serve_smoke.sh — end-to-end exercise of the sharded experiment
# service: a 4-worker daemon, 8 concurrent clients submitting
# overlapping sweeps, one worker SIGKILL'd mid-run.  Passes when
# every client completes, the fleet recovered, no distinct cell was
# simulated more than once, and the union of streamed rows is
# byte-identical to a single-process `oscache-bench
# --canonical-results` run of the same cells.
#
# usage: serve_smoke.sh SERVED SERVECTL BENCH SCRATCH_DIR

set -u

SERVED=$1
SERVECTL=$2
BENCH=$3
SCRATCH=$4

SOCK="/tmp/oscache-serve-smoke-$$.sock"
DAEMON_PID=""

fail()
{
    echo "serve-smoke: FAIL: $*" >&2
    if [ -f "$SCRATCH/daemon.log" ]; then
        echo "--- daemon log ---" >&2
        cat "$SCRATCH/daemon.log" >&2
    fi
    exit 1
}

cleanup()
{
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null
        # The daemon's workers die with it (its destructor sweeps),
        # but a SIGKILL'd daemon cannot; sweep any stragglers.
        pkill -9 -f "oscache-served --worker" 2>/dev/null
    fi
    rm -f "$SOCK"
}
trap cleanup EXIT INT TERM

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH" || fail "cannot create $SCRATCH"

"$SERVED" --socket "$SOCK" --workers 4 --store "$SCRATCH/store" \
    > "$SCRATCH/daemon.log" 2>&1 &
DAEMON_PID=$!

# Wait for the daemon to answer pings.
tries=0
until "$SERVECTL" --socket "$SOCK" --quiet ping; do
    tries=$((tries + 1))
    [ "$tries" -ge 100 ] && fail "daemon never came up"
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
    sleep 0.2
done

# 8 concurrent clients, overlapping sweeps: every distinct cell is
# requested by several clients, so claim/scheduler dedup is on the
# critical path, client 1's "all" makes the union the full smoke
# suite; client 8 adds the numa group.
i=1
for names in "all" "figures" "tables" "ablations" "figures" \
             "tables" "all" "figures tables numa"; do
    # shellcheck disable=SC2086
    "$SERVECTL" --socket "$SOCK" --quiet --smoke \
        --out "$SCRATCH/client$i.jsonl" submit $names &
    eval "CLIENT$i=$!"
    i=$((i + 1))
done

# Let the fleet pick up work, then SIGKILL one worker mid-run.  Its
# cells must be re-queued and the fleet must respawn a replacement.
sleep 1
status=$("$SERVECTL" --socket "$SOCK" status) \
    || fail "status query failed"
victim=$(printf '%s' "$status" | grep -o '"pid":[0-9]*' | head -1 |
    cut -d: -f2)
[ -n "$victim" ] || fail "no worker pid in status reply"
kill -9 "$victim" || fail "cannot SIGKILL worker $victim"
echo "serve-smoke: killed worker pid $victim mid-run"

# Every client must finish cleanly despite the crash.
i=1
while [ "$i" -le 8 ]; do
    eval "pid=\$CLIENT$i"
    wait "$pid" || fail "client $i failed"
    [ -s "$SCRATCH/client$i.jsonl" ] || fail "client $i got no rows"
    i=$((i + 1))
done

# Exactly-once accounting: each fresh simulation stores one result
# file and reports cached=false, so serve.cells.simulated must equal
# the number of result files — except a worker killed after the store
# but before the reply, whose retry answers from cache (bounded by
# the retry count).
status=$("$SERVECTL" --socket "$SOCK" status) \
    || fail "final status query failed"
counter()
{
    printf '%s' "$status" | grep -o "\"$1\":[0-9]*" | head -1 |
        cut -d: -f2
}
# The reply lists all eleven fleet counters, sorted by name.
expected="serve.backpressure.rejects serve.cells.failed
serve.cells.from_cache serve.cells.shared serve.cells.simulated
serve.frames.in serve.frames.malformed serve.frames.out
serve.jobs.completed serve.jobs.submitted serve.workers.respawned"
listed=$(printf '%s' "$status" | grep -o '"serve\.[a-z_.]*":[0-9]*' |
    cut -d'"' -f2)
[ "$(echo $listed)" = "$(echo $expected)" ] \
    || fail "status counters are not the eleven serve.* names in" \
            "order: $(echo $listed)"
simulated=$(counter "serve.cells.simulated")
retries=$(counter "retries")
respawned=$(counter "serve.workers.respawned")
files=$(ls "$SCRATCH/store/results" 2>/dev/null | wc -l)
echo "serve-smoke: simulated=$simulated result_files=$files" \
    "retries=$retries respawned=$respawned"
[ "$simulated" -le "$files" ] \
    || fail "more simulations ($simulated) than result files ($files)"
[ "$files" -le "$((simulated + retries))" ] \
    || fail "duplicate simulation: $files files, $simulated simulated," \
            " $retries retries"
[ "$respawned" -ge 1 ] || fail "fleet never respawned after SIGKILL"

# Graceful drain stops the daemon.
"$SERVECTL" --socket "$SOCK" --quiet drain || fail "drain failed"
wait "$DAEMON_PID" || fail "daemon exited non-zero after drain"
DAEMON_PID=""

# Byte-identical against the single-process driver on the same cells.
"$BENCH" --smoke --jobs 2 --quiet --canonical-results \
    --cache-dir "$SCRATCH/bench_cache" \
    --results "$SCRATCH/bench" all > /dev/null 2>&1 \
    || fail "oscache-bench reference run failed"
cat "$SCRATCH"/client*.jsonl | LC_ALL=C sort -u > "$SCRATCH/serve.sorted"
LC_ALL=C sort -u "$SCRATCH/bench.jsonl" > "$SCRATCH/bench.sorted"
cmp -s "$SCRATCH/serve.sorted" "$SCRATCH/bench.sorted" || {
    diff "$SCRATCH/bench.sorted" "$SCRATCH/serve.sorted" | head -20 >&2
    fail "served rows differ from single-process oscache-bench"
}

echo "serve-smoke: PASS"
exit 0
