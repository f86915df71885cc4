#!/usr/bin/env bash
# cluster_smoke.sh — multi-process distributed-tier smoke in two phases.
#
# Phase 1 (availability): 3 partitioned mqserve backends (R=2 rotation
# placement) + the mqrouter coordinator, with a faultlink-scripted total
# outage of backend 2 in the middle of a closed-loop mqload run through the
# router. Passes when the run completes with 0 client-visible errors, the
# breaker-driven failover is visible in the router counters (failovers > 0),
# and no query was unroutable.
#
# Then, still in phase 1, a short read-only `mqload -planner` run through the
# same router: 0 errors and some queries answered fully at the client.
#
# Phase 2 (freshness): 3 fresh backends + a router with live routing-table
# refresh and the router-tier result cache, driven by the moving-vehicles
# workload with -readback: every acked move is immediately read back through
# the router, so vehicles crossing Hilbert range boundaries prove that
# cluster reads see fresh writes. Passes when the run checks > 0 moves and
# misses exactly 0 of them. -serverstats adds the router-tier result cache's
# hit rate, the traffic that write invalidation costs.
#
# Build flags come from $RACE (default -race), so CI exercises the whole
# fan-out path under the race detector.
#
# The outage window is relative to the backend's *listen* time (mqserve
# builds its dataset and index before arming the injector), so the schedule
# below holds regardless of how slow the -race build of the index is.
set -euo pipefail
cd "$(dirname "$0")/.."

# RACE may be set empty for a quick non-race run; unset means -race.
RACE=${RACE--race}
CONNS=${CONNS:-32}
DURATION=${DURATION:-30s}
OUTAGE=${OUTAGE:-10s+8s}
MOVE_DURATION=${MOVE_DURATION:-10s}

BIN=$(mktemp -d)
LOG=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$BIN"
  echo "logs in $LOG"
}
trap cleanup EXIT

echo "== build ($RACE)"
go build $RACE -o "$BIN" ./cmd/mqserve ./cmd/mqrouter ./cmd/mqload

P0=7081 P1=7082 P2=7083 RP=7171

echo "== start 3 backends (R=2; backend 2 scheduled outage $OUTAGE after listen)"
"$BIN/mqserve" -addr 127.0.0.1:$P0 -partition 0/3 -replicas 2 >"$LOG/be0.log" 2>&1 &
"$BIN/mqserve" -addr 127.0.0.1:$P1 -partition 1/3 -replicas 2 >"$LOG/be1.log" 2>&1 &
"$BIN/mqserve" -addr 127.0.0.1:$P2 -partition 2/3 -replicas 2 -fault "outage=$OUTAGE" >"$LOG/be2.log" 2>&1 &

wait_for() { # wait_for <logfile> <what>
  for _ in $(seq 1 180); do
    grep -q "listening" "$1" 2>/dev/null && return 0
    sleep 1
  done
  echo "FAIL: $2 did not start"; cat "$1" 2>/dev/null; exit 1
}
# mqload prints one report format for every workload (cmd/mqload/report.go;
# its test pins these lines): "  <key>   <number> ..." rows, plus the router
# block when the target is an mqrouter.
row() { awk -v key="$2" '$1 == key {print $2; exit}' "$1"; } # row <log> <key>
grab() { sed -n "s/.*$2.*/\\1/p" "$1" | head -1; }            # grab <log> <sed pattern with one \(group\)>

wait_for "$LOG/be0.log" "backend 0"
wait_for "$LOG/be1.log" "backend 1"
wait_for "$LOG/be2.log" "backend 2"

echo "== start router"
"$BIN/mqrouter" -addr 127.0.0.1:$RP \
  -backends 127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2 >"$LOG/router.log" 2>&1 &
wait_for "$LOG/router.log" "router"

echo "== mqload through the router ($CONNS workers, $DURATION, outage mid-run)"
"$BIN/mqload" -addr 127.0.0.1:$RP -conns "$CONNS" -duration "$DURATION" \
  -warmup 1s | tee "$LOG/load.log"

queries=$(row "$LOG/load.log" queries)
errors=$(row "$LOG/load.log" errors)
failovers=$(grab "$LOG/load.log" ' \([0-9]*\) failovers')
unroutable=$(grab "$LOG/load.log" ' \([0-9]*\) unroutable')

echo "== verdict: queries=$queries errors=$errors failovers=$failovers unroutable=$unroutable"
fail=0
[ -n "$queries" ] && [ "$queries" -gt 0 ] || { echo "FAIL: no queries completed"; fail=1; }
[ "$errors" = "0" ] || { echo "FAIL: $errors client-visible errors (want 0: R=2 must cover the outage)"; fail=1; }
[ -n "$failovers" ] && [ "$failovers" -gt 0 ] || { echo "FAIL: no failovers recorded — the outage never hit the run"; fail=1; }
[ "$unroutable" = "0" ] || { echo "FAIL: $unroutable queries unroutable"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "-- backend 2 log tail --"; tail -5 "$LOG/be2.log"
  echo "-- router log tail --"; tail -5 "$LOG/router.log"
  exit 1
fi
echo "PASS: outage covered by replicas with zero client-visible errors"

# The outage is over and nothing has written: a shipment cut through the
# router stays fresh, so the planner answers covered queries at the client
# and charges them from the price list, all under $RACE.
echo "== mqload -planner through the router (read-only, after the outage)"
"$BIN/mqload" -addr 127.0.0.1:$RP -planner -conns 4 -duration 3s \
  -warmup 500ms | tee "$LOG/planner.log"

perrors=$(row "$LOG/planner.log" errors)
local_answers=$(row "$LOG/planner.log" fully-client)

echo "== verdict: planner errors=$perrors fully-client=$local_answers"
[ "$perrors" = "0" ] || { echo "FAIL: $perrors planner errors"; exit 1; }
[ -n "$local_answers" ] && [ "$local_answers" -gt 0 ] || { echo "FAIL: no planner query answered at the client"; exit 1; }
echo "PASS: the planner answered through the router with zero errors"

kill $(jobs -p) 2>/dev/null || true
wait 2>/dev/null || true

M0=7084 M1=7085 M2=7086 MR=7172

echo "== phase 2: start 3 fresh backends (R=2)"
"$BIN/mqserve" -addr 127.0.0.1:$M0 -partition 0/3 -replicas 2 >"$LOG/mbe0.log" 2>&1 &
"$BIN/mqserve" -addr 127.0.0.1:$M1 -partition 1/3 -replicas 2 >"$LOG/mbe1.log" 2>&1 &
"$BIN/mqserve" -addr 127.0.0.1:$M2 -partition 2/3 -replicas 2 >"$LOG/mbe2.log" 2>&1 &
wait_for "$LOG/mbe0.log" "phase-2 backend 0"
wait_for "$LOG/mbe1.log" "phase-2 backend 1"
wait_for "$LOG/mbe2.log" "phase-2 backend 2"

echo "== start router (live refresh + result cache)"
"$BIN/mqrouter" -addr 127.0.0.1:$MR -refresh 50ms -qcache 32 \
  -backends 127.0.0.1:$M0,127.0.0.1:$M1,127.0.0.1:$M2 >"$LOG/mrouter.log" 2>&1 &
wait_for "$LOG/mrouter.log" "phase-2 router"

echo "== moving vehicles through the router with read-back ($MOVE_DURATION)"
"$BIN/mqload" -addr 127.0.0.1:$MR -moving -readback -vehicles 16 -conns 8 \
  -duration "$MOVE_DURATION" -warmup 1s -serverstats | tee "$LOG/moving.log"

checked=$(row "$LOG/moving.log" readback)
missed=$(grab "$LOG/moving.log" 'read back, \([0-9]*\) missed')
werrs=$(row "$LOG/moving.log" errors)

echo "== verdict: readback checked=$checked missed=$missed errors=$werrs"
fail=0
[ -n "$checked" ] && [ "$checked" -gt 0 ] || { echo "FAIL: no acked moves were read back"; fail=1; }
[ "$missed" = "0" ] || { echo "FAIL: $missed acked moves invisible to reads (want 0: routing must track writes)"; fail=1; }
[ "$werrs" = "0" ] || { echo "FAIL: $werrs write or read errors"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "-- phase-2 router log tail --"; tail -5 "$LOG/mrouter.log"
  exit 1
fi
echo "PASS: every acked move across the cluster was immediately readable"
