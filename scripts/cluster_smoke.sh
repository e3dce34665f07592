#!/bin/sh
# End-to-end smoke of the distributed job plane (docs/CLUSTER.md): build
# smaserve/smaload/smachaos/smabench, start a coordinator over two real
# worker processes, drive the cluster through multi-node load, injected
# node-fault rounds with exact Expect accounting, and a real
# SIGKILL-worker drill — every surviving job bit-identical to the clean
# reference — then run the scaling ladder (smabench -only cluster in
# process mode), which writes /tmp/BENCH_cluster.json and exits non-zero
# if ClusterScaling.Check fails. Ends with a graceful SIGTERM drain of
# the coordinator and the surviving worker. Run from the repository root
# (make check does).
set -eu

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do
        kill -KILL "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$tmp/smaserve" ./cmd/smaserve
go build -o "$tmp/smaload" ./cmd/smaload
go build -o "$tmp/smachaos" ./cmd/smachaos
go build -o "$tmp/smabench" ./cmd/smabench

wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "$2 never wrote its port file" >&2
            cat "$tmp"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    cat "$1"
}

echo "== start 2 workers"
"$tmp/smaserve" -worker -addr 127.0.0.1:0 -port-file "$tmp/w0.port" \
    >"$tmp/worker0.log" 2>&1 &
w0_pid=$!
pids="$pids $w0_pid"
"$tmp/smaserve" -worker -addr 127.0.0.1:0 -port-file "$tmp/w1.port" \
    >"$tmp/worker1.log" 2>&1 &
w1_pid=$!
pids="$pids $w1_pid"
w0="http://127.0.0.1:$(wait_port "$tmp/w0.port" worker0)"
w1="http://127.0.0.1:$(wait_port "$tmp/w1.port" worker1)"
echo "   workers at $w0 $w1"

echo "== start coordinator"
"$tmp/smaserve" -coordinator -worker-urls "$w0,$w1" -shard-pairs 2 \
    -addr 127.0.0.1:0 -port-file "$tmp/co.port" \
    >"$tmp/coordinator.log" 2>&1 &
co_pid=$!
pids="$pids $co_pid"
co="http://127.0.0.1:$(wait_port "$tmp/co.port" coordinator)"
echo "   coordinator at $co"

echo "== multi-node load (per-node split, bit-identity verified)"
"$tmp/smaload" -nodes "$w0,$w1" -n 8 -c 4 -size 32 -verify

echo "== injected node-fault rounds (exact Expect accounting, bit-identity)"
"$tmp/smachaos" -cluster -url "$co" -size 32 -frames 9 \
    -rounds 2 -seed 11 -out "$tmp/cluster_chaos.json"

echo "== SIGKILL worker 1 mid-drill (dead-on-arrival exact accounting)"
"$tmp/smachaos" -cluster -url "$co" -size 32 -frames 9 \
    -rounds 1 -seed 23 -kill-worker "$w1_pid" -kill-node 1

echo "== scaling ladder (process mode, GOMAXPROCS=1 workers)"
"$tmp/smabench" -only cluster -size 64 -cluster-bin "$tmp/smaserve" -out /tmp

echo "== graceful shutdown (SIGTERM coordinator, then surviving worker)"
for name in coordinator worker0; do
    case $name in
    coordinator) p=$co_pid ;;
    worker0) p=$w0_pid ;;
    esac
    kill -TERM "$p"
    rc=0
    wait "$p" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "$name exited $rc after SIGTERM" >&2
        cat "$tmp/$name.log" >&2
        exit 1
    fi
    grep -q "drained" "$tmp/$name.log" || {
        echo "$name log missing drain marker" >&2
        cat "$tmp/$name.log" >&2
        exit 1
    }
done
pids=""

echo "cluster smoke: OK"
