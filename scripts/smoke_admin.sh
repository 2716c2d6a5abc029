#!/bin/sh
# smoke_admin.sh — admin-plane smoke test, run by `make smoke`.
#
# Starts datacron with -admin on an ephemeral port (freshness SLO armed,
# every record traced), waits for the server address to appear on stdout,
# curls /metrics, /healthz, /slo, /statz, /readyz and /traces asserting the
# Prometheus exposition carries runtime self-metrics, the SLO standing
# decodes, the stats snapshot decodes with its summary, shard rows and SLO
# standing, the readiness probe reports its components, and a parent-linked
# span tree is reconstructable, then stops datacron with SIGTERM and expects
# a zero exit. With -admin, datacron keeps serving after the run completes
# until it is signalled, so the probes never race the end of the run: the
# SIGTERM either interrupts the run gracefully or stops the server of a
# completed one. Needs curl and jq.
set -eu

tmp=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT

go build -o "$tmp/datacron" ./cmd/datacron
"$tmp/datacron" -duration 12h -vessels 16 -admin 127.0.0.1:0 \
    -slo-lag 5s -slo-stage predict -trace-sample 1 >"$tmp/out.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^admin server listening on //p' "$tmp/out.log")
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke_admin: datacron exited before serving:" >&2
        cat "$tmp/out.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke_admin: admin address never appeared:" >&2
    cat "$tmp/out.log" >&2
    exit 1
fi

metrics=$(curl -fsS "http://$addr/metrics")
if [ -z "$metrics" ]; then
    echo "smoke_admin: /metrics returned an empty body" >&2
    exit 1
fi
echo "$metrics" | grep -q '^# TYPE ' || {
    echo "smoke_admin: /metrics is not Prometheus text exposition:" >&2
    echo "$metrics" | head -5 >&2
    exit 1
}
echo "$metrics" | grep -q 'runtime_goroutines' || {
    echo "smoke_admin: /metrics is missing the runtime self-metrics" >&2
    exit 1
}
curl -fsS "http://$addr/healthz" >/dev/null || {
    echo "smoke_admin: /healthz probe failed" >&2
    exit 1
}

slo=$(curl -fsS "http://$addr/slo")
echo "$slo" | grep -q '"family": "lag.predict.seconds"' || {
    echo "smoke_admin: /slo is missing the armed freshness objective:" >&2
    echo "$slo" >&2
    exit 1
}

# /statz is the pipeline's stats snapshot. Shard rows appear once the run
# has built its shard plane, so poll briefly for them.
statz_ok=""
for _ in $(seq 1 50); do
    statz=$(curl -fsS "http://$addr/statz" || true)
    if echo "$statz" | jq -e 'has("metrics") and has("summary") and (.shards | length > 0) and (.slo | length > 0)' >/dev/null 2>&1; then
        statz_ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$statz_ok" ]; then
    echo "smoke_admin: /statz never decoded with summary, shards and slo:" >&2
    echo "$statz" | head -20 >&2
    exit 1
fi

# /readyz answers 200 or 503 (the SLO may be violated) with the component
# report; the broker-depth component is gone.
code=$(curl -sS -o "$tmp/readyz.json" -w '%{http_code}' "http://$addr/readyz")
case "$code" in
200 | 503) ;;
*)
    echo "smoke_admin: /readyz answered $code" >&2
    exit 1
    ;;
esac
jq -e 'has("ready") and has("live") and (.components | length > 0) and all(.components[]; .component != "depth")' \
    "$tmp/readyz.json" >/dev/null || {
    echo "smoke_admin: /readyz body is not the component report:" >&2
    cat "$tmp/readyz.json" >&2
    exit 1
}

# Every record is traced (-trace-sample 1), so a complete parent-linked
# record tree appears in the flight recorder almost immediately; poll a few
# times in case the first curl beats the first completed record.
tree_ok=""
for _ in $(seq 1 50); do
    traces=$(curl -fsS "http://$addr/traces?span_tree=1" || true)
    if echo "$traces" | grep -q '"spanTrees"' && echo "$traces" | grep -q '"children"'; then
        tree_ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$tree_ok" ]; then
    echo "smoke_admin: /traces?span_tree=1 never showed a nested span tree:" >&2
    echo "$traces" | head -20 >&2
    exit 1
fi

# datacron is still running — mid-run or serving a completed run — so
# SIGTERM must reach it and end it with exit 0.
if ! kill -TERM "$pid"; then
    echo "smoke_admin: datacron exited before SIGTERM:" >&2
    cat "$tmp/out.log" >&2
    exit 1
fi
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "smoke_admin: datacron exited $status on SIGTERM:" >&2
    cat "$tmp/out.log" >&2
    exit 1
fi
if ! grep -q 'interrupt: shutting down gracefully' "$tmp/out.log" &&
    ! grep -q 'admin server still serving' "$tmp/out.log"; then
    echo "smoke_admin: neither graceful shutdown nor a served completed run in log:" >&2
    cat "$tmp/out.log" >&2
    exit 1
fi
echo "smoke_admin: OK ($addr)"
