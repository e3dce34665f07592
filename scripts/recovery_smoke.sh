#!/bin/sh
# End-to-end smoke of the durable job plane (docs/ROBUSTNESS.md): start
# smaserve with -data-dir, submit a multi-pair job, kill the process
# dead (exit 137 via the deterministic SMA_CRASH point) mid-job,
# restart it over the same directory, and require the resumed job to
# finish byte-identical to an uninterrupted run. Then the cluster
# variant: smabench -only recovery crashes a real coordinator after a
# durable shard checkpoint, writes /tmp/BENCH_recovery.json and exits
# non-zero if Recovery.Check finds a violation (only unfinished shards
# re-dispatch, with the same bit-identity guarantee). Run from the
# repository root (make check does).
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

start_server() {
    # $1 = port file, $2 = log name, $3 = data dir, $4 = SMA_CRASH spec
    rm -f "$tmp/$1"
    if [ -n "$4" ]; then
        SMA_CRASH="$4" "$tmp/smaserve" -addr 127.0.0.1:0 \
            -port-file "$tmp/$1" -data-dir "$3" >"$tmp/$2.log" 2>&1 &
    else
        "$tmp/smaserve" -addr 127.0.0.1:0 \
            -port-file "$tmp/$1" -data-dir "$3" >"$tmp/$2.log" 2>&1 &
    fi
    pid=$!
}

job_body='{"retain":true,"synthetic":{"scene":"hurricane","size":32,"seed":5,"frames":7}}'

submit_job() {
    # $1 = base url; prints the job id
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$job_body" "$1/v1/jobs" |
        sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p'
}

wait_done() {
    # $1 = base url, $2 = job id
    i=0
    while :; do
        view=$(curl -fsS "$1/v1/jobs/$2")
        case $view in
        *'"status":"done"'*) break ;;
        *'"status":"failed"'* | *'"status":"cancelled"'*)
            echo "job $2 ended badly: $view" >&2
            exit 1
            ;;
        esac
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "job $2 never finished: $view" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "$view"
}

echo "== reference: uninterrupted durable run"
start_server ref.port ref "$tmp/ref-data" ""
ref_pid=$pid
url="http://127.0.0.1:$(wait_port "$tmp/ref.port" reference-server)"
ref_id=$(submit_job "$url")
[ -n "$ref_id" ] || { echo "reference job submit returned no id" >&2; exit 1; }
wait_done "$url" "$ref_id" >/dev/null
curl -fsS -o "$tmp/reference.smp" "$url/v1/jobs/$ref_id/result"
kill -TERM "$ref_pid" && wait "$ref_pid" || true
pid=""

echo "== crash run: kill -9 equivalent after the 2nd pair checkpoint"
start_server crash.port crash "$tmp/data" "server.pair:2"
url="http://127.0.0.1:$(wait_port "$tmp/crash.port" crashing-server)"
id=$(submit_job "$url")
[ -n "$id" ] || { echo "job submit returned no id" >&2; exit 1; }
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 137 ]; then
    echo "crashing server exited $rc, want 137" >&2
    cat "$tmp/crash.log" >&2
    exit 1
fi
echo "   server died with exit 137, job $id mid-flight"

echo "== restart over the same -data-dir and resume"
start_server resume.port resume "$tmp/data" ""
url="http://127.0.0.1:$(wait_port "$tmp/resume.port" resumed-server)"
grep -q "1 resumed" "$tmp/resume.log" || {
    echo "restart log missing the resumed job" >&2
    cat "$tmp/resume.log" >&2
    exit 1
}
view=$(wait_done "$url" "$id")
case $view in
*'"recovered":"resumed"'*) ;;
*)
    echo "resumed job view missing recovered=resumed: $view" >&2
    exit 1
    ;;
esac

echo "== job list shows the resumed job"
curl -fsS "$url/v1/jobs" | grep -q "\"$id\"" || {
    echo "GET /v1/jobs does not list job $id" >&2
    exit 1
}

echo "== byte-identity against the uninterrupted run"
curl -fsS -o "$tmp/resumed.smp" "$url/v1/jobs/$id/result"
cmp "$tmp/reference.smp" "$tmp/resumed.smp" || {
    echo "resumed result differs from the uninterrupted run" >&2
    exit 1
}
kill -TERM "$pid" && wait "$pid" || true
pid=""

echo "== cluster drill: SIGKILL the coordinator after a shard checkpoint"
"$tmp/smabench" -only recovery -recovery-bin "$tmp/smaserve" -out /tmp

echo "recovery smoke: OK"
