#!/usr/bin/env bash
# Who drives this path? Every `pub fn` must have a caller outside tests.
#
#   ./pub_traffic.sh            list each `pub fn` that no code but tests
#                               names; exit 1 if there is one
#   ./pub_traffic.sh NAME...    print every non-test line naming each NAME
#
# Traffic is the code that runs: each crate's `src/` (the experiment
# binaries and `shard-trace`), the facade's `src/`, the examples and the
# benchmark (`benchmark/src`). A test is not traffic: every file is cut
# at its first `#[cfg(test)]`, and `tests/` and `benches/` are left out.
#
# The match is by name, not by resolved path: a `pub fn` counts as called
# when its name appears as a word in that code anywhere but in an `fn`
# definition or a comment line. So a name that another item shares — a
# field, a string, another type's method (`TxnClassification.preserves`
# beside `FlyByNight::preserves`) — can hide a function nobody calls.
set -euo pipefail
cd "$(dirname "$0")"

stripped=$(mktemp -d)
trap 'rm -rf "$stripped"' EXIT
sources() {
  git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' \
    'examples/*.rs' 'benchmark/src/*.rs' 2>/dev/null ||
    find crates/*/src src examples benchmark/src -name '*.rs'
}
sources | sort -u | while read -r f; do
  mkdir -p "$stripped/$(dirname "$f")"
  # Comment lines are blanked, not dropped, so line numbers stay true.
  awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit} {print /^[[:space:]]*\/\// ? "" : $0}' \
    "$f" >"$stripped/$f"
done
cd "$stripped"

if [ "$#" -gt 0 ]; then
  for name in "$@"; do
    grep -rnw -- "$name" . | sed 's|^\./||' || echo "$name: no non-test line"
  done
  exit 0
fi

code=$(find . -name '*.rs' -exec cat {} +)
defined=$(grep -oP '\bpub\s+(const\s+)?(unsafe\s+)?fn\s+\K\w+' <<<"$code" | sort -u)
used=$(sed -E 's/\bfn\s+\w+//g' <<<"$code" | grep -oP '\b[A-Za-z_]\w*\b' | sort -u)
uncalled=$(comm -23 <(echo "$defined") <(echo "$used"))
if [ -n "$uncalled" ]; then
  echo "pub fn with no caller outside tests:" >&2
  for name in $uncalled; do
    grep -rnP "\bpub\s+(const\s+)?(unsafe\s+)?fn\s+$name\b" . | sed 's|^\./|  |' >&2
  done
  exit 1
fi
echo "every $(wc -l <<<"$defined") pub fn name has a caller outside tests"
