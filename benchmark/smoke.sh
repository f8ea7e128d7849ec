#!/usr/bin/env bash
# Smoke: every workload, traced and untraced, two measured seconds, on a
# seed the committed numbers were not taken with. Fails on any correctness
# gate or on a run that prints no result.
#
#   benchmark/smoke.sh [seed]
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-20240607}"
cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/unidm-benchmark"
status=0
for workload in mix_batch lake_stream replay_warm store_churn serve_fleet; do
  for trace in 0 1; do
    if result="$("$bin" --workload "$workload" --seed "$seed" --seconds 2 --trace "$trace" | tail -n 1)" \
        && [[ "$result" == '{"correct": true,'* ]]; then
      echo "ok      $workload trace=$trace"
    else
      echo "FAILED  $workload trace=$trace: ${result:-no result}"
      status=1
    fi
  done
done
exit "$status"
