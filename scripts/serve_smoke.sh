#!/bin/sh
# End-to-end smoke test of the HTTP serving layer: build smaserve and
# smaload, start the server on a random port, drive it with concurrent
# verified requests, require /metrics to have counted them, then SIGTERM
# and require a clean graceful exit. Run from the repository root (make
# check does).
set -eu

tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$tmp/smaserve" ./cmd/smaserve
go build -o "$tmp/smaload" ./cmd/smaload

echo "== start smaserve on a random port"
"$tmp/smaserve" -addr 127.0.0.1:0 -port-file "$tmp/port" \
    >"$tmp/smaserve.log" 2>&1 &
pid=$!

# Wait for the port file (the server writes it once listening).
i=0
while [ ! -s "$tmp/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "smaserve never wrote its port file" >&2
        cat "$tmp/smaserve.log" >&2
        exit 1
    fi
    sleep 0.1
done
port=$(cat "$tmp/port")
url="http://127.0.0.1:$port"
echo "   listening on $url"

echo "== readiness"
code=$(curl -fsS -o /dev/null -w '%{http_code}' "$url/readyz")
[ "$code" = "200" ] || { echo "readyz returned $code" >&2; exit 1; }

echo "== verified load (concurrency 8)"
"$tmp/smaload" -url "$url" -n 16 -c 8 -size 32 -verify -check-metrics \
    -bench-out "$tmp/BENCH_serve_smoke.json"

echo "== synthetic JSON track"
body=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"synthetic":{"scene":"shear","size":24,"seed":3}}' "$url/v1/track")
echo "$body" | grep -q '"mean_magnitude_px"' || {
    echo "track response missing motion field: $body" >&2
    exit 1
}

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "smaserve exited $rc after SIGTERM" >&2
    cat "$tmp/smaserve.log" >&2
    exit 1
fi
grep -q "drained" "$tmp/smaserve.log" || {
    echo "server log missing drain marker" >&2
    cat "$tmp/smaserve.log" >&2
    exit 1
}
pid=""

echo "serve smoke: OK"
