#!/usr/bin/env bash
# Runs all 25 experiment binaries (E01-E25) in release mode, then exits
# non-zero if any of them failed (a violated claim, or no claim named);
# every experiment runs either way. Logs land in target/exp_logs/, per-run
# metrics sidecars in target/exp_metrics/ (aggregated into
# EXPERIMENTS_METRICS.json), and JSONL traces in target/exp_traces/.
#
# The experiments are independent processes, so EXP_JOBS of them run
# concurrently (default: all cores). Each writes its own log and its
# own sidecar; logs are replayed in the fixed E01..E25 order after all
# runs finish, and the aggregate is sorted by experiment name, so the
# script's output and EXPERIMENTS_METRICS.json are identical at every
# job count. EXP_JOBS=1 reproduces the old sequential behaviour.
#
# E25 runs at 10^6 transactions here (the full 10^7 tier takes ~10 min
# of pure disk-backed streaming on one core — run it directly, without
# SHARD_E25_TXNS, to regenerate BENCH_outofcore.json at full scale).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p target/exp_logs
jobs_limit="${EXP_JOBS:-$(nproc)}"
experiments=(
  e01_worked_example e02_overbooking_bound e03_underbooking_bound
  e04_compensation e05_witness_bounds e06_centralization e07_fairness
  e08_thrashing e09_availability e10_k_distribution e11_undo_redo
  e12_banking e13_inventory e14_taxonomy e15_complete_prefix
  e16_partial_replication e17_gossip e18_crash_recovery e19_nameserver
  e20_gossip_partial e21_nemesis_chaos e22_stream_monitor e23_runtime
  e24_store_recovery e25_outofcore
)
export SHARD_E25_TXNS="${SHARD_E25_TXNS:-1000000}"

# Build everything once up front: concurrent `cargo run`s would contend
# on the build lock, so the job pool execs the release binaries directly.
cargo build -q --release -p shard-bench --bins
cargo build -q --release -p shard-cli --bin shard-trace

rm -f target/exp_logs/*.ok
for e in "${experiments[@]}"; do
  while (( $(jobs -rp | wc -l) >= jobs_limit )); do sleep 0.05; done
  (
    if "target/release/exp_$e" >"target/exp_logs/$e.txt" 2>&1; then
      : >"target/exp_logs/$e.ok"
    fi
  ) &
done
wait

failed=0
for e in "${experiments[@]}"; do
  echo "== exp_$e =="
  cat "target/exp_logs/$e.txt"
  if [ ! -e "target/exp_logs/$e.ok" ]; then
    echo "FAILED: exp_$e exited non-zero (log: target/exp_logs/$e.txt)" >&2
    failed=1
  fi
done
[ "$failed" -eq 0 ] || exit 1

echo
echo "== per-experiment wall time (from metrics sidecars) =="
for e in "${experiments[@]}"; do
  sidecar="target/exp_metrics/${e%%_*}.json"
  ms=$(sed -n 's/.*"wall_time_ms":\([0-9.]*\).*/\1/p' "$sidecar")
  printf '  %-24s %10.1f ms\n' "$e" "$ms"
done

echo
echo "== aggregate sidecars -> EXPERIMENTS_METRICS.json =="
target/release/shard-trace aggregate target/exp_metrics EXPERIMENTS_METRICS.json

echo
echo "== structured trace of E11's exp(80) runs =="
target/release/shard-trace summarize target/exp_traces/e11.jsonl

echo "ALL EXPERIMENTS PASSED"
