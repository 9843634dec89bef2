#!/usr/bin/env bash
# Builds the benchmark and runs it. From anywhere:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat R]   every workload, both passes
#   benchmark/run.sh --smoke                                 the same at 1/50 scale, 1-second runs
#   benchmark/run.sh --agree [--seed N]                      the suite twice; fails unless they agree
#   benchmark/run.sh compare a.json b.json                   apply every bound to two result files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one pass of one workload
#
# The build reuses the repository's target/ unless CARGO_TARGET_DIR says
# otherwise. Results land in benchmark/out/, scratch stores in
# benchmark/out/tmp, which is removed on exit even when a run fails.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/shard-benchmark"
trap 'rm -rf benchmark/out/tmp' EXIT

case "${1:-}" in
  --smoke)
    shift
    "$bin" suite --seconds 1 --scale 0.02 --out benchmark/out/smoke.json "$@"
    ;;
  --agree)
    shift
    "$bin" suite --out benchmark/out/agree-a.json "$@"
    "$bin" suite --out benchmark/out/agree-b.json "$@"
    "$bin" compare benchmark/out/agree-a.json benchmark/out/agree-b.json --agree
    ;;
  compare | manifest)
    "$bin" "$@"
    ;;
  *)
    case " $* " in
      *" --workload "*) "$bin" "$@" ;;
      *) "$bin" suite "$@" ;;
    esac
    ;;
esac
