#!/usr/bin/env bash
# Runs every workload once, one process each, and prints every end-to-end
# metric with its unit. Exits non-zero if any run fails its output checks
# or its health gate.
#
# usage: e2ebench/run_all.sh [seconds] [seed]   (from the repository root)
set -uo pipefail
seconds=${1:-30}
seed=${2:-1}
status=0
for workload in oc3fo gen768 sweep10k; do
    result=$(cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    code=$?
    echo "$workload: $result"
    if [ "$code" -ne 0 ]; then
        echo "$workload: exit code $code" >&2
        status=1
    fi
done
exit "$status"
