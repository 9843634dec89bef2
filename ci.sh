#!/usr/bin/env bash
# The full CI gate: release build, test suite, clippy with warnings
# denied, and formatting. Any step failing fails the script.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo "== $* =="
  "$@"
}

run cargo build --release --all-targets
run cargo test --workspace -q
run cargo test -q -p shard-pool
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q

# The benchmark gate: `benchmark/` is a package of its own (own
# workspace and lock file, path dependencies on crates/*), so nothing
# above compiles it and an API change in a crate could break the
# driver's command unnoticed. Build and unit-test it against this tree
# (into the same target/ run.sh uses), then run every workload once at
# 1/50 scale (< 20 s): the suite exits non-zero unless every workload's
# oracles hold with nothing failed.
run env CARGO_TARGET_DIR="$PWD/target" \
  cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
run benchmark/run.sh --smoke
# The smoke run is 1/50 scale, and `sim-partition` compares its redo
# volume with the recorded one (`RECORDED_SEED_1`) only at full scale
# and seed 1: one short full-scale pass, whose last line is the result.
echo "== benchmark/run.sh --workload sim-partition --seed 1 --seconds 2 --trace 0 =="
benchmark/run.sh --workload sim-partition --seed 1 --seconds 2 --trace 0 |
  tail -n 1 | grep -q '"correct":true' || {
  echo "FAILED: full-scale sim-partition did not report \"correct\":true" >&2
  exit 1
}

# Smoke-check the observability pipeline: a handful of experiments end
# to end — the worked example, the undo/redo sweep (E11: checkpoint
# intervals 1 … 100 000 through the merge log's repair, whose restore
# and re-records reuse the states an undo drops; ≈ 2 s), the bank's own
# experiment (E12; the one state kept as a flat array, not a `PMap`),
# the timestamp-ordered airline's thrashing comparison (E08; its update
# runs in place through the merge log), the exhaustive §4 taxonomy (E14;
# every checker over one state slice, ≈ 0.2 s),
# the two that read known sets back through `nth` / `missed_ranks` — the
# offline k distribution (E10, ≈ 1 s) and the online monitor that must
# equal the offline checkers (E22, ≈ 0.1 s), so a known set split
# between a `PMap` base and a shared tail is read end to end —
# plus one per propagation strategy (transitive flooding — gossip at
# each execution — E06, partial E16, gossip E17, composed
# gossip×partial E20) — then
# a pure-rust validation that each metrics sidecar is well-formed JSON
# carrying the schema's required keys. The kernel gossip smokes (E17,
# E20, and the E24 smoke below) are built first and then run under
# `timeout 120` — each takes about a second: the kernel's ticks stop on
# local facts (nothing but ticks queued, no node with unsent entries),
# and a regression of that rule must fail the gate, not hang it. Their
# sidecar checks also hold `sim.not_converged` — gossip runs that ended
# with some node lacking an entry it should hold — at zero.
run cargo run -q --release -p shard-bench --bin exp_e01_worked_example
run cargo run -q --release -p shard-bench --bin exp_e06_centralization
run cargo run -q --release -p shard-bench --bin exp_e08_thrashing
run cargo run -q --release -p shard-bench --bin exp_e10_k_distribution
run cargo run -q --release -p shard-bench --bin exp_e11_undo_redo
run cargo run -q --release -p shard-bench --bin exp_e12_banking
run cargo run -q --release -p shard-bench --bin exp_e14_taxonomy
run cargo run -q --release -p shard-bench --bin exp_e16_partial_replication
run cargo run -q --release -p shard-bench --bin exp_e22_stream_monitor
run cargo build -q --release -p shard-bench --bin exp_e17_gossip \
  --bin exp_e20_gossip_partial --bin exp_e24_store_recovery
run timeout 120 target/release/exp_e17_gossip
run timeout 120 target/release/exp_e20_gossip_partial
# The chaos search at CI scale: a 25-seed nemesis sweep. Its claims are
# only the always-theorems (prefix-subsequence, Cor 8, fault-free
# baselines), so the smoke run cannot flake; its sidecar goes through
# the same validation as the experiments'. The sweep runs once
# sequentially and once on a 4-thread pool into a separate sidecar
# directory; `shard-trace diff` then requires the two sidecars to agree
# on everything but wall time, spans and pool.* metrics — the pool's
# determinism guarantee, enforced end to end on every CI run.
run env SHARD_POOL_THREADS=1 \
  cargo run -q --release -p shard-bench --bin shard-chaos -- --seeds 25
run env SHARD_POOL_THREADS=4 EXP_METRICS_DIR=target/exp_metrics_par \
  cargo run -q --release -p shard-bench --bin shard-chaos -- --seeds 25
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  diff target/exp_metrics/chaos.json target/exp_metrics_par/chaos.json
# E10 reads its executions through prefixes and one forward fold of the
# actual states, neither of which asks a replay cache: a warm-up that
# creeps back in front of its sweeps would show as cache queries.
for sidecar in e01 e06 e08 e10 e11 e12 e14 e16 e17 e20 e22 chaos; do
  budget=()
  case "$sidecar" in
  e10) budget=("replay.queries<=0") ;;
  e17 | e20) budget=("sim.not_converged<=0") ;;
  esac
  run cargo run -q --release -p shard-cli --bin shard-trace -- \
    check "target/exp_metrics/$sidecar.json" \
    experiment ok wall_time_ms claims counters gauges histograms spans \
    "${budget[@]}"
done
# The streaming monitor gate: a monitored chaos sweep must find a
# violation, cut the run at it, and leave behind a replayed trace plus
# a certificate that the shared-nothing `shard-trace certify` validator
# accepts — while a mutated certificate (witness shifted off the end of
# the trace) must be rejected. This exercises the live monitor, the
# early abort, the trace tee and the certificate round-trip end to end.
run cargo run -q --release -p shard-bench --bin shard-chaos -- \
  --seeds 25 --monitor-window 8 \
  --trace-out target/monitored.jsonl --cert-out target/monitored.cert.json
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  certify target/monitored.jsonl target/monitored.cert.json
sed 's/"top":[0-9]*/"top":99999/' target/monitored.cert.json \
  > target/monitored.cert.bad.json
if cargo run -q --release -p shard-cli --bin shard-trace -- \
  certify target/monitored.jsonl target/monitored.cert.bad.json; then
  echo "FAILED: certify accepted a mutated certificate" >&2
  exit 1
fi
# The live-runtime gate: a small seeded threaded deployment (real OS
# threads, mpsc channels) in each propagation mode — all three go
# through the one `run_live`/`replay` pair — whose recorded schedule is
# replayed through the deterministic kernel; the binary exits non-zero
# on any fidelity mismatch, and `shard-trace diff` independently
# requires the live and replayed report documents to agree on
# everything but wall time (digest, transactions, messages, rounds).
# The eager leg also runs monitored and traced: the live trace — written
# by the replica step the kernel shares — must be one `shard-trace
# summarize` accepts, holding exactly one `monitor.final`. The binary is
# built once and each run sits under `timeout 120` (a run takes well
# under a second): a live run ends on one observation — everything
# executed, nothing in flight, nothing unsent — or on a dead node
# thread, and a regression of either must fail the gate, not hang it.
run cargo build -q --release -p shard-runtime --bin shard-runtime
for mode in eager gossip partial; do
  traced=""
  if [ "$mode" = eager ]; then
    traced="--monitor --trace target/runtime_live_eager.jsonl"
  fi
  run timeout 120 target/release/shard-runtime \
    --mode "$mode" --nodes 4 --txns 2000 --seed 7 --interval-us 500 \
    --out "target/runtime_live_$mode.json" \
    --replay-out "target/runtime_replay_$mode.json" $traced
  run cargo run -q --release -p shard-cli --bin shard-trace -- \
    diff "target/runtime_live_$mode.json" "target/runtime_replay_$mode.json"
done
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  summarize target/runtime_live_eager.jsonl
finals=$(grep -c '"event":"monitor.final"' target/runtime_live_eager.jsonl || true)
if [ "$finals" != 1 ]; then
  echo "FAILED: live trace holds $finals monitor.final lines, expected 1" >&2
  exit 1
fi
# The crash-recovery gate: E24 end to end at smoke scale (the replay
# perf phase shrunk to 2*10^4 entries). Each disk-backed sweep run is a
# CrashInjector schedule over a durable fleet — nodes lose their
# unsynced WAL tails mid-run and are rebuilt from disk — and the binary
# exits non-zero unless every §3 oracle holds: the execution verifies,
# transitivity and the Cor 8 bound survive the restarts, the recovered
# replicas re-converge, their final state diffs clean against the
# canonical serial replay, and the in-kernel monitor's certified
# verdicts equal the offline `par_check` fold. The sidecar check then
# re-asserts from the recorded counters that the *clean* phase
# (durability attached, nothing killed) truncated no torn WAL tails.
run env SHARD_E24_REPLAY=20000 timeout 120 target/release/exp_e24_store_recovery
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  check target/exp_metrics/e24.json \
  experiment ok wall_time_ms claims counters gauges histograms spans \
  "store.wal_torn_truncations_clean<=0" "sim.not_converged<=0"
# The out-of-core gate: E25 at smoke scale — 10^5 banking transactions
# through the store-backed streaming tier (DiskStore rows + spilled
# checkpoint anchors). The binary exits non-zero unless the streamed
# state equals both the in-memory merge and the serial replay, the
# online report (verdicts AND certificates) is byte-identical to the
# second pass off the store, every captured certificate re-validates
# through the certify path, and the peak resident state stays under
# 1/10 of the extrapolated in-memory footprint. The sidecar check
# re-asserts the memory claim from the recorded gauge: the streaming
# tier's resident state — hot anchors, reorder window and the online
# checker, 9 408 B on this run (576 + 4 608 + 4 224) — must stay under
# 100 KB, so a regression in the spilling tier, in the accounting or in
# the checker's retirement fails CI: a checker that stopped retiring
# would hold 6.2 MB of these 10^5 rows.
# Two more budgets hold the store to what ascending, append-once,
# read-in-order traffic needs. The run is single-threaded and the
# counts repeat exactly, so each budget sits just above its count. The
# WAL writes a buffer per call, not a record: 168 write calls (~100 000
# if it wrote per record). And the two key-order passes the run makes
# over its 10.2 MB row store (the re-check and the certify trace) ask
# the segment files for 22 367 402 bytes, 1.10x the rows a pass: a
# cursor refill that forgot where the last one stopped would read half
# a segment to get back there (118 399 816 bytes), a read block of
# 64 KiB instead of 16 re-reads more of each refill's last block
# (25 775 274).
run env SHARD_E25_TXNS=100000 \
  cargo run -q --release -p shard-bench --bin exp_e25_outofcore
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  check target/exp_metrics/e25.json \
  experiment ok wall_time_ms claims counters gauges histograms spans \
  "state.peak_resident_bytes<=100000" \
  "store.wal_writes<=2000" "store.wal_read_bytes<=23000000"
# The O(delta) state-layer gate: build + sweep the n=10^4 controlled-k
# airline execution and hold the replay engine's clone traffic under
# the pinned budget — >20x below what the pre-refactor engine (one
# full state materialised per replayed update) copied on the same run.
# The budget constant lives in exp_state_sweep.rs; the sidecar check
# re-asserts it from the recorded counters so a regression in either
# the engine or the accounting fails CI.
run cargo run -q --release -p shard-bench --bin exp_state_sweep
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  check target/exp_metrics/state_sweep.json \
  experiment ok wall_time_ms claims counters gauges histograms spans \
  "state.clone_bytes<=400000000"
echo "CI PASSED"
