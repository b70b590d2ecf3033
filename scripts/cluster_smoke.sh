#!/usr/bin/env bash
# cluster-smoke: end-to-end proof of the distributed serving tier.
#
# Stands up three model-less replicas and a coordinator distributing one
# sealed model, waits for content-hash sync to converge the fleet on the
# digest embedded in the image's header (computed here, outside the
# binary, so any hop that re-encoded the image would fail it), then
# SIGKILLs one replica under live /recommend + /recommend/batch +
# /outcome load through the coordinator — zero requests may fail, and
# no basket may degrade to an error, because hedged failover absorbs
# the loss. The killed replica restarts on its surviving WAL and
# re-ships; the coordinator's aggregate must converge to every acked
# outcome (exactly-once accounting) and the fleet must re-agree on the
# model hash. The coordinator itself is then restarted on its spool
# directory: /feedback/stats must come back byte-identical, proving the
# cluster fold is a pure function of the shipped segment set.
set -euo pipefail

COORD_ADDR="127.0.0.1:${SMOKE_CLUSTER_PORT:-18090}"
COORD="http://$COORD_ADDR"
R1_ADDR="127.0.0.1:$((${SMOKE_CLUSTER_PORT:-18090} + 1))"
R2_ADDR="127.0.0.1:$((${SMOKE_CLUSTER_PORT:-18090} + 2))"
R3_ADDR="127.0.0.1:$((${SMOKE_CLUSTER_PORT:-18090} + 3))"
REPLICAS="http://$R1_ADDR,http://$R2_ADDR,http://$R3_ADDR"

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "${pids[@]:-}"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    pids=()
    rm -rf "$workdir"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

json_field() { # json_field <field> — first string value of "field" on stdin
    grep -o "\"$1\":\"[^\"]*\"" | head -n1 | cut -d'"' -f4
}

wait_healthy() { # wait_healthy <url> <tries>
    for i in $(seq 1 "$2"); do
        curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    return 1
}

echo "== building a sealed model and the server binary"
go run ./cmd/profitgen -dataset I -txns 4000 -items 80 -out "$workdir/data.pmjl"
go run ./cmd/profitminer -in "$workdir/data.pmjl" -minsup 0.01 -seal "$workdir/model.pma" >/dev/null
go build -o "$workdir/profitserve" ./cmd/profitserve
# A sealed model's fleet identity is the checksum embedded in its
# header — sha256 of everything after the 48-byte header prefix — so
# the coordinator distributes the image verbatim and every replica
# stages it without re-encoding or re-hashing.
sealed_hash=$(tail -c +49 "$workdir/model.pma" | sha256sum | cut -d' ' -f1)
[ -n "$sealed_hash" ] || fail "could not hash the sealed image"

echo "== starting the coordinator and three model-less replicas"
"$workdir/profitserve" -role coordinator -addr "$COORD_ADDR" -replicas "$REPLICAS" \
    -model "$workdir/model.pma" -spool-dir "$workdir/spool" &
coord_pid=$!
pids+=("$coord_pid")

start_replica() { # start_replica <addr> <n> [<join-url>] — echoes the pid
    # The server's stdout/stderr must NOT be the substitution pipe, or
    # $(start_replica ...) would block until the server exits.
    "$workdir/profitserve" -role replica -join "${3:-$COORD}" -addr "$1" \
        -node-id "replica-$2" -feedback-dir "$workdir/fb$2" \
        >>"$workdir/replica$2.log" 2>&1 &
    echo $!
}
r1_pid=$(start_replica "$R1_ADDR" 1); pids+=("$r1_pid")
r2_pid=$(start_replica "$R2_ADDR" 2); pids+=("$r2_pid")
r3_pid=$(start_replica "$R3_ADDR" 3); pids+=("$r3_pid")

# Replicas boot 503 (no model) and flip healthy once the first sync
# pulls the distributed model through validation and promotion.
for base in "http://$R1_ADDR" "http://$R2_ADDR" "http://$R3_ADDR"; do
    wait_healthy "$base" 100 || fail "replica $base never synced a model"
done
wait_healthy "$COORD" 50 || fail "coordinator never reported a healthy fleet"

echo "== hash agreement: every replica serves the image's header digest"
coord_hash=$(curl -sf "$COORD/version" | json_field modelHash)
[ "$coord_hash" = "$sealed_hash" ] \
    || fail "coordinator distributes $coord_hash, file header says $sealed_hash"
for base in "http://$R1_ADDR" "http://$R2_ADDR" "http://$R3_ADDR"; do
    h=$(curl -sf "$base/version" | json_field hash)
    [ "$h" = "$sealed_hash" ] || fail "$base serves $h, sealed image is $sealed_hash"
done
curl -sf "$COORD/version" | grep -q '"skew":false' || fail "coordinator reports model skew on a converged fleet"
echo "   fleet converged on embedded header checksum $sealed_hash"

echo "== routed traffic works end to end"
rule_id=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"basket":[{"item":"item-0001","promoIx":0}],"k":1}' "$COORD/recommend" \
    | json_field ruleID)
[ -n "$rule_id" ] || fail "coordinator /recommend returned no recommendation"

batch_body='{"baskets":[{"basket":[{"item":"item-0001","promoIx":0}],"k":2},{"basket":[{"item":"item-0002","promoIx":0}]},{"basket":[{"item":"item-0003","promoIx":0}]}]}'
post_load() { # post_load <label> — one recommend, one batch, one outcome; all must succeed
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d '{"basket":[{"item":"item-0001","promoIx":0}],"k":1}' "$COORD/recommend" >/dev/null \
        || fail "recommend failed ($1)"
    out=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$batch_body" "$COORD/recommend/batch") \
        || fail "batch failed ($1)"
    echo "$out" | grep -q '"error"' && fail "a basket degraded to an error ($1): $out"
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"requestID\":\"$1\",\"ruleID\":\"$rule_id\",\"modelVersion\":1,\"bought\":true,\"qty\":1}" \
        "$COORD/outcome" >/dev/null || fail "outcome failed ($1)"
}

for i in $(seq 1 10); do post_load "pre-$i"; done

echo "== SIGKILL one replica under load: zero failed requests"
kill -KILL "$r2_pid" 2>/dev/null || true
wait "$r2_pid" 2>/dev/null || true
for i in $(seq 1 10); do post_load "kill-$i"; done
echo "   20 outcomes acked across the kill, no request failed"

echo "== restarted replica re-ships its WAL; aggregate converges to every acked outcome"
r2_pid=$(start_replica "$R2_ADDR" 2); pids+=("$r2_pid")
wait_healthy "http://$R2_ADDR" 100 || fail "restarted replica never came back healthy"
converged=""
for i in $(seq 1 100); do
    if curl -sf "$COORD/feedback/stats" | grep -q '"outcomes":20'; then converged=1; break; fi
    sleep 0.3
done
[ -n "$converged" ] || fail "cluster stats never converged to 20 outcomes: $(curl -sf "$COORD/feedback/stats")"
h=$(curl -sf "http://$R2_ADDR/version" | json_field hash)
[ "$h" = "$sealed_hash" ] || fail "restarted replica re-synced to $h, want $sealed_hash"
echo "   20/20 outcomes aggregated, hash re-agreed"

echo "== deterministic stats: double-GET and a coordinator restart are byte-identical"
s1=$(curl -sf "$COORD/feedback/stats")
s2=$(curl -sf "$COORD/feedback/stats")
[ "$s1" = "$s2" ] || fail "two reads of /feedback/stats differ"
kill -TERM "$coord_pid"
wait "$coord_pid" || fail "coordinator exited nonzero on graceful shutdown"
"$workdir/profitserve" -role coordinator -addr "$COORD_ADDR" -replicas "$REPLICAS" \
    -model "$workdir/model.pma" -spool-dir "$workdir/spool" &
coord_pid=$!
pids+=("$coord_pid")
wait_healthy "$COORD" 100 || fail "restarted coordinator never came up"
h=$(curl -sf "$COORD/version" | json_field modelHash)
[ "$h" = "$sealed_hash" ] || fail "restarted coordinator distributes $h, want $sealed_hash"
s3=$(curl -sf "$COORD/feedback/stats")
[ "$s1" = "$s3" ] || fail "stats changed across a coordinator restart from the same spool:
before: $s1
after:  $s3"
echo "   stats byte-identical across reads and a spool reload"

echo "cluster-smoke: OK (fleet converged on $sealed_hash, kill-one lost nothing, stats replay deterministic)"
