#!/usr/bin/env bash
# serve-smoke: end-to-end proof of the model hot-swap lifecycle.
#
# Builds two sealed models from one dataset, starts profitserve -watch
# on the first, then overwrites the model file and polls GET /version
# until the new content hash is active (fails on timeout). Along the way
# it checks that traffic keeps flowing during the swap, that a corrupt
# candidate and a v2 JSON export (-save output, which nothing loads) are
# rejected while the old version keeps serving, that the feedback
# loop accepts outcome reports and accounts for them on
# /feedback/stats, and that SIGTERM drains cleanly. A second, windowed
# server then closes the maintenance loop end to end: sustained outcome
# divergence raises the drift alarm, the in-process delta refresh slides
# the window and stages a candidate, shadow traffic scores it, and the
# refreshed model auto-promotes with the drift detector reset.
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-18080}"
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

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

json_field() { # json_field <field> — first string value of "field" on stdin
    grep -o "\"$1\":\"[^\"]*\"" | head -n1 | cut -d'"' -f4
}

echo "== building two distinct sealed models (and a v2 export of the first)"
go run ./cmd/profitgen -dataset I -txns 4000 -items 80 -out "$workdir/data.pmjl"
go run ./cmd/profitminer -in "$workdir/data.pmjl" -minsup 0.01 \
    -seal "$workdir/m1.pma" -save "$workdir/m1-export.json" >/dev/null
go run ./cmd/profitminer -in "$workdir/data.pmjl" -minsup 0.004 -seal "$workdir/m2.pma" >/dev/null
cmp -s "$workdir/m1.pma" "$workdir/m2.pma" && fail "the two models are byte-identical; smoke needs distinct hashes"

echo "== starting profitserve -watch"
go build -o "$workdir/profitserve" ./cmd/profitserve
cp "$workdir/m1.pma" "$workdir/model.pma"
# The rejection legs below expect /admin/reload to be the first to see
# each bad candidate; a poll that lands between the write and the
# reload answers it first, and the reload then reports "unchanged". A
# 1s poll keeps that window small while the swap still promotes fast.
"$workdir/profitserve" -model "$workdir/model.pma" -watch -poll 1s -addr "$ADDR" \
    -feedback-dir "$workdir/feedback" &
server_pid=$!

for i in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && fail "server never came up"
    sleep 0.2
done

hash1=$(curl -sf "$BASE/version" | json_field hash)
[ -n "$hash1" ] || fail "/version returned no hash"
echo "   serving $hash1"

echo "== swapping the model file on disk"
cp "$workdir/m2.pma" "$workdir/model.pma"
hash2=""
for i in $(seq 1 60); do
    # Traffic must keep flowing while the watcher stages and promotes.
    curl -sf "$BASE/rules?limit=3" >/dev/null || fail "request dropped during swap"
    hash2=$(curl -sf "$BASE/version" | json_field hash)
    [ -n "$hash2" ] && [ "$hash2" != "$hash1" ] && break
    [ "$i" = 60 ] && fail "new model never promoted (still $hash1)"
    sleep 0.5
done
echo "   promoted $hash2"

echo "== corrupt candidate must be rejected with the old version serving"
echo '{"format":"garbage"' > "$workdir/model.pma"
out=$(curl -s -X POST "$BASE/admin/reload")
echo "$out" | grep -q '"outcome":"rejected"' || fail "corrupt reload not rejected: $out"
now=$(curl -sf "$BASE/version" | json_field hash)
[ "$now" = "$hash2" ] || fail "corrupt candidate disturbed serving: $now"

echo "== a v2 JSON export is not a loadable model: rejected, old version serving"
cp "$workdir/m1-export.json" "$workdir/model.pma"
out=$(curl -s -X POST "$BASE/admin/reload")
echo "$out" | grep -q '"outcome":"rejected"' || fail "v2 export reload not rejected: $out"
now=$(curl -sf "$BASE/version" | json_field hash)
[ "$now" = "$hash2" ] || fail "v2 export disturbed serving: $now"

echo "== closing the loop: outcome reports land in /feedback/stats"
rule_id=$(curl -sf "$BASE/rules?limit=1" | json_field id)
[ -n "$rule_id" ] || fail "/rules returned no stable rule ID"
echo "   reporting outcomes for $rule_id"
out=$(curl -s -X POST -H 'Content-Type: application/json' \
    -d "{\"requestID\":\"smoke-1\",\"ruleID\":\"$rule_id\",\"bought\":true}" "$BASE/outcome")
echo "$out" | grep -q '"seq":1' || fail "first outcome got no receipt: $out"
for i in 2 3; do
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"requestID\":\"smoke-$i\",\"ruleID\":\"$rule_id\"}" "$BASE/outcome" >/dev/null \
        || fail "outcome $i rejected"
done
stats=$(curl -sf "$BASE/feedback/stats")
echo "$stats" | grep -q '"outcomes":3' || fail "/feedback/stats did not account 3 outcomes: $stats"
echo "$stats" | grep -q '"conversions":1' || fail "/feedback/stats did not account the conversion: $stats"
echo "$stats" | grep -q '"drift":{' || fail "/feedback/stats carries no drift state: $stats"
curl -sf "$BASE/healthz" | grep -q '"drifting":' || fail "/healthz does not expose the drift flag"
curl -s -X POST -H 'Content-Type: application/json' \
    -d '{"ruleID":"r0000000000000000"}' "$BASE/outcome" | grep -q 'unknown rule' \
    || fail "unknown-rule outcome was not rejected"

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

echo "== windowed mode: drift alarm -> in-process delta refresh -> auto-promote"
ADDR_W="127.0.0.1:${SMOKE_PORT_WINDOWED:-18081}"
BASE_W="http://$ADDR_W"
# Tight drift thresholds so a short burst of misses trips the alarm;
# shadow fraction 1 with a floor of 3 so a handful of requests promotes.
"$workdir/profitserve" -data "$workdir/data.pmjl" -minsup 0.01 \
    -window 2000 -slide 500 -addr "$ADDR_W" -shadow 1 -shadow-samples 3 \
    -drift-lambda 1 -drift-delta 0.001 -drift-min 5 &
server_pid=$!
for i in $(seq 1 100); do
    curl -sf "$BASE_W/healthz" >/dev/null 2>&1 && break
    [ "$i" = 100 ] && fail "windowed server never came up"
    sleep 0.2
done
whash1=$(curl -sf "$BASE_W/version" | json_field hash)
[ -n "$whash1" ] || fail "windowed /version returned no hash"
echo "   serving $whash1 over the initial window"

wrule=$(curl -sf "$BASE_W/rules?limit=1" | json_field id)
[ -n "$wrule" ] || fail "windowed server exposes no rules"
for i in $(seq 1 10); do
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"requestID\":\"calib-$i\",\"ruleID\":\"$wrule\",\"bought\":true}" \
        "$BASE_W/outcome" >/dev/null || fail "calibration outcome $i rejected"
done
drifted=""
for i in $(seq 1 300); do
    out=$(curl -s -X POST -H 'Content-Type: application/json' \
        -d "{\"requestID\":\"miss-$i\",\"ruleID\":\"$wrule\"}" "$BASE_W/outcome")
    if echo "$out" | grep -q '"drifting":true'; then drifted=1; break; fi
done
[ -n "$drifted" ] || fail "sustained misses never raised the drift alarm"
echo "   drift alarm raised; shadow traffic must promote the delta refresh"

whash2=""
for i in $(seq 1 100); do
    # Shadowed recommend traffic scores the staged candidate; at the
    # sample floor the registry promotes it on its own.
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d '{"basket":[{"item":"item-0001","promoIx":0}]}' "$BASE_W/recommend" >/dev/null \
        || fail "recommend dropped while a candidate was staged"
    whash2=$(curl -sf "$BASE_W/version" | json_field hash)
    [ -n "$whash2" ] && [ "$whash2" != "$whash1" ] && break
    [ "$i" = 100 ] && fail "delta refresh never promoted a new model (still $whash1)"
    sleep 0.2
done
echo "   delta refresh promoted $whash2"
curl -sf "$BASE_W/healthz" | grep -q '"drifting":false' \
    || fail "promotion did not reset the drift detector"

kill -TERM "$server_pid"
wait "$server_pid" || fail "windowed server exited nonzero on graceful shutdown"
server_pid=""

echo "serve-smoke: OK (swapped $hash1 -> $hash2, corrupt and v2-export rejections safe, drift refresh promoted $whash2, drain clean)"
