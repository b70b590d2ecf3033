#!/usr/bin/env bash
# soak-smoke: closed-loop soak against a real, out-of-process server.
#
# profitgen writes a Dataset-I file; profitserve loads it in windowed
# mode with tight drift thresholds; TestSoakLiveServer (internal/simload)
# then replays the SAME generator world (its fixed 3000 transactions,
# 80 items and seed 5 reproduce the ground truth byte-for-byte) as
# sessionized synthetic users over real HTTP. Mid-run the generator's
# buy model collapses, sustained misses trip the server's drift
# detector, and its in-process windowed refresh must promote a new
# model version — all of which the test gates on (zero dropped
# outcomes, >=1 drift alarm, a /version bump within 15 s).
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-18090}"
BASE="http://$ADDR"
workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ]; then
        kill "$server_pid" 2>/dev/null || true
        # Reap the child so the listening port is actually released
        # before the next smoke run (or CI job) tries to bind it.
        wait "$server_pid" 2>/dev/null || true
        server_pid=""
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT
# An interrupted run must still kill the background server; re-raising
# through exit routes INT/TERM into the EXIT trap exactly once.
trap 'exit 130' INT
trap 'exit 143' TERM

fail() { echo "soak-smoke: FAIL: $*" >&2; exit 1; }

json_field() { # json_field <field> — first string value of "field" on stdin
    grep -o "\"$1\":\"[^\"]*\"" | head -n1 | cut -d'"' -f4
}

# One generator world, shared by file (server) and in memory (simulator);
# TestSoakLiveServer generates the same one.
TXNS=3000
ITEMS=80
SEED=5

echo "== generating dataset I (txns=$TXNS items=$ITEMS seed=$SEED)"
go run ./cmd/profitgen -dataset I -txns "$TXNS" -items "$ITEMS" -seed "$SEED" \
    -out "$workdir/data.pmjl"

echo "== starting windowed profitserve with tight drift thresholds"
go build -o "$workdir/profitserve" ./cmd/profitserve
# Drift config mirrors BenchmarkSoak's in-process stacks: small lambda and
# delta so the mid-run buy-model shock trips the detector within the
# short smoke horizon.
"$workdir/profitserve" -data "$workdir/data.pmjl" -minsup 0.01 \
    -window 2000 -slide 250 -addr "$ADDR" \
    -drift-lambda 8 -drift-delta 0.002 -drift-min 50 &
server_pid=$!

for i in $(seq 1 100); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    [ "$i" = 100 ] && fail "server never came up"
    sleep 0.2
done

hash1=$(curl -sf "$BASE/version" | json_field hash)
[ -n "$hash1" ] || fail "/version returned no hash"
echo "   serving $hash1 over the initial window"

echo "== driving the closed-loop soak over real HTTP"
PM_SOAK_URL=$BASE go test ./internal/simload -run '^TestSoakLiveServer$' -count=1 -v \
    || fail "soak gates failed against the live server"

hash2=$(curl -sf "$BASE/version" | json_field hash)
[ -n "$hash2" ] || fail "/version returned no hash after the soak"
[ "$hash2" != "$hash1" ] || fail "drift never promoted a refreshed model (still $hash1)"
echo "   drift refresh promoted $hash2"

curl -sf "$BASE/metrics" | grep -q '"latencyByEndpoint"' \
    || fail "/metrics lost the per-endpoint latency surface"

echo "== graceful drain on SIGTERM"
kill -TERM "$server_pid"
drained=1
for i in $(seq 1 50); do
    if ! kill -0 "$server_pid" 2>/dev/null; then drained=0; break; fi
    sleep 0.2
done
[ "$drained" = 0 ] || fail "server did not exit after SIGTERM"
wait "$server_pid" || fail "server exited nonzero on graceful shutdown"
server_pid=""

echo "soak-smoke: OK (promoted $hash1 -> $hash2 under synthetic load, gates passed)"
