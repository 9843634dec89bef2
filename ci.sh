#!/usr/bin/env bash
# The full CI gate: release build, test suite, clippy with warnings
# denied, and formatting. Any step failing fails the script.
set -euo pipefail
cd "$(dirname "$0")"

# The committed perf records (`BENCH_*.json`) come from full-scale runs;
# a smoke run below must leave every one of them byte for byte as it
# found it. Checked again at the end.
bench_sums=$(sha256sum BENCH_*.json)

run() {
  echo "== $* =="
  "$@"
}

run cargo build --release --all-targets
run cargo test --workspace -q
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q
# Every `pub fn` has traffic: one that only tests reach, as the compiler
# resolves calls, fails the gate (≈ 20–60 s; it works on a copy under
# target/pub_traffic and leaves the tree and target/release alone).
run ./pub_traffic.sh
# Every backticked CamelCase name in the docs names something in the
# code (matched by name; the script says what that misses).
run ./doc_names.sh

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
# the two that read known sets back from arrival counts, through the
# per-incarnation `Sweep` that `RunReport::timed_execution` and
# `RunReport::judge` share — the offline k distribution (E10, ≈ 1 s)
# and the streamed judge that must equal the offline checkers (E22, ≈ 0.1 s),
# so both readings of a known set run end to end —
# plus one per propagation strategy (transitive flooding — gossip at
# each execution — E06, partial E16, gossip E17, composed
# gossip×partial E20), plus every other theorem experiment that runs in
# under a second — the bounds E02 (Cor 8), E03 (Cor 10/11), E04
# (compensation), E09 (availability vs integrity), E13 (inventory), E15
# (§3.3 barrier), E18 (crash/recovery) and E19 (name server), ≈ 2.6 s
# together — and the two slower ones, E05 (witness bounds, ≈ 2.4 s) and
# E07 (fairness, ≈ 18 s: `is_transitive` and `min_delay_bound` on kernel
# runs) — then a pure-rust validation that each metrics sidecar is
# well-formed JSON carrying the schema's required keys. Every sidecar
# names its claims (`claims.list`); a run that names none fails. The kernel gossip smokes (E17,
# E20, and the E24 smoke below) are built first and then run under
# `timeout 120` — each takes about a second: the kernel's ticks stop on
# local facts (nothing but ticks queued, no node with unsent entries),
# and a regression of that rule must fail the gate, not hang it. Their
# sidecar checks also hold `sim.not_converged` — gossip runs that ended
# with some node lacking an entry it should hold — at zero.
# E21 (the nemesis search), E22's certificate and E23 (the live
# runtime) each carry a gate of their own below.
run cargo run -q --release -p shard-bench --bin exp_e01_worked_example
run cargo run -q --release -p shard-bench --bin exp_e02_overbooking_bound
run cargo run -q --release -p shard-bench --bin exp_e03_underbooking_bound
run cargo run -q --release -p shard-bench --bin exp_e04_compensation
run cargo run -q --release -p shard-bench --bin exp_e05_witness_bounds
run cargo run -q --release -p shard-bench --bin exp_e06_centralization
run cargo run -q --release -p shard-bench --bin exp_e07_fairness
run cargo run -q --release -p shard-bench --bin exp_e08_thrashing
run cargo run -q --release -p shard-bench --bin exp_e09_availability
run cargo run -q --release -p shard-bench --bin exp_e10_k_distribution
run cargo run -q --release -p shard-bench --bin exp_e11_undo_redo
run cargo run -q --release -p shard-bench --bin exp_e12_banking
run cargo run -q --release -p shard-bench --bin exp_e13_inventory
run cargo run -q --release -p shard-bench --bin exp_e14_taxonomy
run cargo run -q --release -p shard-bench --bin exp_e15_complete_prefix
run cargo run -q --release -p shard-bench --bin exp_e16_partial_replication
run cargo run -q --release -p shard-bench --bin exp_e18_crash_recovery
run cargo run -q --release -p shard-bench --bin exp_e19_nameserver
run cargo run -q --release -p shard-bench --bin exp_e22_stream_monitor
run cargo build -q --release -p shard-bench --bin exp_e17_gossip \
  --bin exp_e20_gossip_partial --bin exp_e23_runtime --bin exp_e24_store_recovery
run timeout 120 target/release/exp_e17_gossip
run timeout 120 target/release/exp_e20_gossip_partial
# The live-runtime gate: E23 at smoke scale, 2 000 transactions on real
# OS threads and per-node inboxes in each propagation mode — all three go
# through the one `run_live`/`replay` pair — whose recorded schedule is
# replayed through the deterministic kernel; the run fails unless the
# live and replayed report digests are equal in every mode (the digest
# covers every transaction, message count and round). A run takes well
# under a second, and it sits under `timeout 120`: a live run ends on
# one observation — everything executed, nothing in flight, nothing
# unsent — or on a dead node thread, and a regression of either must
# fail the gate, not hang it. At this size it leaves
# `BENCH_runtime.json` alone. (E23 runs unmonitored; a monitored, traced
# live run in all three modes, its one `monitor.final` and its `txn` and
# `monitor.window` lines equal to the replay's, is pinned by
# crates/runtime/tests/record_replay.rs.)
run env SHARD_E23_TXNS=2000 timeout 120 target/release/exp_e23_runtime
# The pool's determinism guarantee, end to end on every CI run: E21's
# 120-seed nemesis sweep runs once sequentially and once on a 4-thread
# pool (capped at the host's cores) into a separate sidecar directory;
# `shard-trace diff` then requires the two sidecars to agree on
# everything but wall time, spans and pool.* metrics —
# `chaos.outcome_hash`, the fingerprint of every verdict and shrunk
# schedule, included. The sweep is a pure function of its seeds, so its
# claims cannot flake.
run env SHARD_POOL_THREADS=1 \
  cargo run -q --release -p shard-bench --bin exp_e21_nemesis_chaos
run env SHARD_POOL_THREADS=4 EXP_METRICS_DIR=target/exp_metrics_par \
  cargo run -q --release -p shard-bench --bin exp_e21_nemesis_chaos
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  diff target/exp_metrics/e21.json target/exp_metrics_par/e21.json
# E10 reads its executions through prefixes and one forward fold of the
# actual states, neither of which asks a replay cache: a warm-up that
# creeps back in front of its sweeps would show as cache queries.
for sidecar in e01 e02 e03 e04 e05 e06 e07 e08 e09 e10 e11 e12 e13 e14 \
  e15 e16 e17 e18 e19 e20 e21 e22 e23; do
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
# The streaming monitor gate: E22's monitored chaos sweep (run above)
# must find a violation, stop at it, and leave behind the hit's
# replayed trace plus its certificate, which the shared-nothing
# `shard-trace certify` validator accepts — while a mutated certificate
# (witness shifted off the end of the trace) must be rejected. This
# exercises the post-run judge, the sweep's stop, the trace tee and the
# certificate round-trip end to end, out of process.
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  certify target/exp_traces/e22.hit.jsonl target/exp_traces/e22.hit.cert.json
sed 's/"top":[0-9]*/"top":99999/' target/exp_traces/e22.hit.cert.json \
  >target/e22.hit.cert.bad.json
if cargo run -q --release -p shard-cli --bin shard-trace -- \
  certify target/exp_traces/e22.hit.jsonl target/e22.hit.cert.bad.json; then
  echo "FAILED: certify accepted a mutated certificate" >&2
  exit 1
fi
# Hostile input files are refused with exit 1, not a crash or a false
# acceptance: a megabyte of `[` (the JSON parser caps nesting at 128
# levels; uncapped, it overflowed the stack and aborted with 134), and a
# delay-bound certificate claiming 0 for two rows 2⁶⁴ − 1 ticks apart
# (the implied bound saturates at u64::MAX; unsaturated, it wrapped to
# 0 and the forgery passed).
head -c 1000000 /dev/zero | tr '\0' '[' >target/deep.json
status=0
cargo run -q --release -p shard-cli --bin shard-trace -- \
  check target/deep.json || status=$?
if [ "$status" != 1 ]; then
  echo "FAILED: shard-trace check exited $status on deeply nested JSON, expected 1" >&2
  exit 1
fi
# A trace with no well-formed event line (six lines of base64) is
# refused like an empty one, not summarized as "6 lines, 6 malformed".
head -c 342 /dev/zero | base64 >target/b64.jsonl
status=0
cargo run -q --release -p shard-cli --bin shard-trace -- \
  summarize target/b64.jsonl || status=$?
if [ "$status" != 1 ]; then
  echo "FAILED: shard-trace summarize exited $status on a trace with no event, expected 1" >&2
  exit 1
fi
printf '%s\n' '{"event":"txn","i":0,"t":0,"missed":[]}' \
  '{"event":"txn","i":1,"t":18446744073709551615,"missed":[0]}' >target/late.jsonl
echo '{"schema":"shard-cert/v1","property":"delay_bound","seer":1,"missed":0,"bound":0}' \
  >target/late.cert.json
if cargo run -q --release -p shard-cli --bin shard-trace -- \
  certify target/late.jsonl target/late.cert.json; then
  echo "FAILED: certify accepted a wrapped delay bound" >&2
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
# The kernel runs bursts of one — a barrier right after each own update,
# none after a delivery — so the run's fsyncs repeat exactly: 5 315
# (barriers plus the fsync each segment rotation takes). The budget sits
# just above that count, as E25's do: a delivery that synced, or an
# execution that synced twice, fails it.
run env SHARD_E24_REPLAY=20000 timeout 120 target/release/exp_e24_store_recovery
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  check target/exp_metrics/e24.json \
  experiment ok wall_time_ms claims counters gauges histograms spans \
  "store.wal_torn_truncations_clean<=0" "sim.not_converged<=0" \
  "store.wal_fsyncs<=5330"
# The out-of-core gate: E25 at smoke scale — 10^5 banking transactions
# through the store-backed streaming tier (DiskStore rows). The binary exits non-zero unless the streamed
# state equals both the in-memory merge and the serial replay, the
# online report (verdicts AND certificates) is byte-identical to the
# second pass off the store, every captured certificate re-validates
# through the certify path, and the peak resident state stays under
# 1/10 of the extrapolated in-memory footprint. The sidecar check
# re-asserts the memory claim from the recorded gauge: the streaming
# tier's resident state — reorder window and the online checker,
# 6 760 B on this run (4 096 + 2 664) — must stay under 100 KB, so a
# regression in the accounting or in the checker's retirement fails CI:
# a checker that stopped retiring would hold 32 B for each of these
# 10^5 rows, 3.2 MB.
# Two more budgets hold the store to what ascending, append-once,
# read-in-order traffic needs. The run is single-threaded and the
# counts repeat exactly, so each budget sits just above its count. The
# WAL writes a buffer per call, not a record: 77 write calls (~100 000
# if it wrote per record). And the two key-order passes the run makes
# over its 4 761 079-byte row store (47.6 B a row: varint times and
# miss back-distances; the fixed-width rows took 10 310 052) — the
# re-check and the certify trace — are one scan each: 9 522 158 bytes,
# the rows exactly twice. A pass that went back to refilling a
# 1 024-record cursor would read more (each refill re-reads the tail of
# the last one's block); what a refill costs is pinned by
# crates/sim/tests/read_amplification.rs.
# Two budgets hold the checker passes. The run feeds the §3 checker
# exactly 200 000 rows, two passes over its 10^5, so a third pass — or a
# pass counting a row twice — fails. And a block-shuffled delivery
# stream is transitive by construction (a seen row was delivered before
# every missed one), so any violation is a false witness: the checker's
# near-map word path judged a row it should have cleared. The binary
# holds its own verdicts to an oracle; this holds the counted ones from
# outside the process.
run env SHARD_E25_TXNS=100000 \
  cargo run -q --release -p shard-bench --bin exp_e25_outofcore
run cargo run -q --release -p shard-cli --bin shard-trace -- \
  check target/exp_metrics/e25.json \
  experiment ok wall_time_ms claims counters gauges histograms spans \
  "state.peak_resident_bytes<=100000" \
  "store.wal_writes<=80" "store.wal_read_bytes<=9560000" \
  "stream.rows<=200000" "stream.violations<=0"
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
if [ "$(sha256sum BENCH_*.json)" != "$bench_sums" ]; then
  echo "FAILED: a smoke run rewrote a committed BENCH_*.json:" >&2
  sha256sum -c --quiet <<<"$bench_sums" >&2 || true
  exit 1
fi
echo "CI PASSED"
