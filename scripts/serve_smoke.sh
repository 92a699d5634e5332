#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the bbserve daemon.
#
# Boots bbserve on an ephemeral port, then walks the contract a deployment
# cares about:
#   1. /healthz and /readyz answer;
#   2. POST /v1/solve on a chain-100 instance returns 200 with an optimal
#      mapping, a pattern hash and a ladder report of exactly one attempt,
#      and carries no breaker field;
#   3. a deliberately impossible deadline (deadline_ms=1) returns a
#      structured 504 with code "deadline";
#   4. POST /v1/sweep returns every requested point;
#   5. /debug/vars counts the requests and has no breaker block;
#   6. SIGTERM drains gracefully: /readyz flips to 503 and the process
#      exits 0.
#
# Requires: curl, jq. Run from the repository root:
#   ./scripts/serve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/bbserve" ./cmd/bbserve
go run ./cmd/bbgen -preset chain -n 100 -out "$workdir/chain100.json"

ADDR=127.0.0.1:18406
echo "== boot bbserve on $ADDR"
"$workdir/bbserve" -addr "$ADDR" -drain-timeout 30s >"$workdir/serve.log" 2>&1 &
SERVE_PID=$!
# The daemon prints its listening line after the socket is bound; wait for it.
for i in $(seq 1 100); do
    if grep -q "listening" "$workdir/serve.log"; then break; fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "bbserve died during startup:" >&2; cat "$workdir/serve.log" >&2; exit 1
    fi
    sleep 0.1
done

fail() { echo "FAIL: $*" >&2; cat "$workdir/serve.log" >&2; kill "$SERVE_PID" 2>/dev/null || true; exit 1; }

echo "== health endpoints"
curl -fsS "http://$ADDR/healthz" | jq -e '.status == "ok"' >/dev/null || fail "healthz"
curl -fsS "http://$ADDR/readyz" | jq -e '.status == "ready"' >/dev/null || fail "readyz"

echo "== solve chain-100"
jq -n --slurpfile cfg "$workdir/chain100.json" '{config: $cfg[0]}' >"$workdir/solve.json"
curl -fsS -X POST --data-binary @"$workdir/solve.json" "http://$ADDR/v1/solve" >"$workdir/solve_out.json" \
    || fail "solve request"
jq -e '.status == "optimal"' "$workdir/solve_out.json" >/dev/null || fail "solve not optimal: $(cat "$workdir/solve_out.json")"
jq -e '.mapping.budgets | length == 100' "$workdir/solve_out.json" >/dev/null || fail "mapping has wrong task count"
jq -e '.pattern | length == 16' "$workdir/solve_out.json" >/dev/null || fail "missing pattern hash"
jq -e '.report.recovered == false and (.report.attempts | length == 1)' "$workdir/solve_out.json" >/dev/null \
    || fail "want a one-attempt ladder report: $(jq -c .report "$workdir/solve_out.json")"
jq -e 'has("breaker") | not' "$workdir/solve_out.json" >/dev/null || fail "solve reply still has a breaker field"

echo "== impossible deadline is a structured 504"
jq -n --slurpfile cfg "$workdir/chain100.json" '{config: $cfg[0], deadline_ms: 1}' >"$workdir/late.json"
http_code=$(curl -sS -o "$workdir/late_out.json" -w '%{http_code}' -X POST \
    --data-binary @"$workdir/late.json" "http://$ADDR/v1/solve")
[ "$http_code" = "504" ] || fail "deadline_ms=1 returned HTTP $http_code, want 504"
jq -e '.error.code == "deadline"' "$workdir/late_out.json" >/dev/null || fail "504 body: $(cat "$workdir/late_out.json")"

echo "== sweep"
jq -n --slurpfile cfg "$workdir/chain100.json" '{config: $cfg[0], caps: [2, 4]}' >"$workdir/sweep.json"
curl -fsS -X POST --data-binary @"$workdir/sweep.json" "http://$ADDR/v1/sweep" >"$workdir/sweep_out.json" \
    || fail "sweep request"
jq -e '.completed == 2 and (.points | length == 2)' "$workdir/sweep_out.json" >/dev/null \
    || fail "sweep body: $(cat "$workdir/sweep_out.json")"

echo "== counters"
curl -fsS "http://$ADDR/debug/vars" >"$workdir/vars.json" || fail "debug vars request"
jq -e '.requests.accepted >= 3 and .cache.misses >= 1' "$workdir/vars.json" >/dev/null \
    || fail "debug vars: $(cat "$workdir/vars.json")"
jq -e 'has("breaker") | not' "$workdir/vars.json" >/dev/null || fail "debug vars still has a breaker block"

echo "== graceful drain on SIGTERM"
kill -TERM "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
[ "$rc" = "0" ] || fail "bbserve exited $rc after SIGTERM, want 0"
grep -q "drained cleanly" "$workdir/serve.log" || fail "no clean-drain log line"

echo "PASS: bbserve smoke"
