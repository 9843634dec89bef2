#!/usr/bin/env bash
# Who drives this path? Every `pub fn` must have a caller outside tests,
# and the compiler, not a name match, says whose call is whose.
#
#   ./pub_traffic.sh    list each `pub fn` that no code but tests reaches;
#                       exit 1 if there is one
#
# Traffic is the code that runs: the workspace's libraries, binaries (the
# experiments and `shard-trace`) and examples, and the benchmark package
# (`benchmark/`). A test is not traffic.
#
# On a copy of the tracked files (target/pub_traffic/tree, checked into
# its own target/pub_traffic/target), the script drops `pub` from every
# `pub fn` above its file's first `#[cfg(test)]` in the crates' `src/` and
# the facade's, and runs `cargo check` on the workspace's libs, bins and
# examples and on the unmodified benchmark package. Each privacy error
# points, by its span, at the definition of a function another crate
# calls: that one definition gets its `pub` back, and the check runs
# again until everything compiles. What rustc then calls never used is a
# `pub fn` that only tests reach. Restoring by span, not by name, is the
# point: one used `new` must not vouch for every other `new`.
set -euo pipefail
cd "$(dirname "$0")"

work=$PWD/target/pub_traffic
tree=$work/tree
rm -rf "$tree"
mkdir -p "$tree"
git ls-files --cached --others --exclude-standard |
  while read -r f; do [ -f "$f" ] && printf '%s\n' "$f"; done |
  tar -cf - -T - | tar -xf - -C "$tree"
cd "$tree"

# Drop `pub` above each file's first `#[cfg(test)]`. `names` lists each
# such definition as `file:line Type::name` (the type of the nearest
# `impl` above it with less indentation; none for a free function), and
# `stripped` the `file:line` of those still without their `pub`.
names=$work/names stripped=$work/stripped
: >"$names"
find crates/*/src src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" -v names="$names" '
    function indent(s) { match(s, /^[[:space:]]*/); return RLENGTH }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
    { line[NR] = $0 }
    !cut && /^[[:space:]]*pub (const |unsafe |async )*fn / {
      sub(/pub /, "")
      fn = $0; sub(/^[[:space:]]*(const |unsafe |async )*fn /, "", fn)
      sub(/[^A-Za-z0-9_].*/, "", fn)
      for (i = NR - 1; i > 0; i--)
        if (indent(line[i]) < indent($0) && line[i] ~ /^[[:space:]]*impl[[:space:]<]/) {
          t = line[i]; sub(/^[[:space:]]*impl/, "", t)
          if (t ~ /^</) { # skip the impl generics
            d = 0
            for (j = 1; j <= length(t); j++) {
              c = substr(t, j, 1); d += (c == "<") - (c == ">")
              if (d == 0) break
            }
            t = substr(t, j + 1)
          }
          sub(/^[[:space:]]*/, "", t); sub(/[^A-Za-z0-9_:].*/, "", t)
          fn = t "::" fn; break
        }
      print f ":" NR " " fn >>names
    }
    { print }' "$f" >"$f.tmp"
  mv "$f.tmp" "$f"
done
cut -d' ' -f1 "$names" >"$stripped"

# Exemptions, each with its reason:
# - `Replayer::{len, is_empty, stats}`: deleting `Replayer` is parked in
#   the ROADMAP, and `stats` is how tests/replay_equivalence.rs checks the
#   engine's work against a model.
# - an `is_empty` whose type's `len` is used: clippy's
#   `len_without_is_empty` asks for the pair.
exempt() {
  case $1 in
  Replayer::len | Replayer::is_empty | Replayer::stats) return 0 ;;
  *::is_empty) ! grep -qxF "${1%::is_empty}::len" <<<"$2" &&
    grep -q " ${1%::is_empty}::len\$" "$names" ;;
  *) return 1 ;;
  esac
}

check() {
  export CARGO_TARGET_DIR=$work/target
  cargo check --offline --keep-going --message-format=json -q \
    --workspace --lib --bins --examples || true
  cargo check --offline --keep-going --message-format=json -q \
    --manifest-path benchmark/Cargo.toml || true
}

# The `file:line` of each stripped definition that a diagnostic at
# `level` (and of `code`, if given) has a span on.
spans() {
  jq -r --arg level "$1" --arg code "${2:-}" --arg root "$tree/" '
    select(.reason == "compiler-message") | .message
    | select(.level == $level and ($code == "" or .code.code? == $code))
    | .. | objects | select(has("file_name") and has("line_start"))
    | "\(.file_name | ltrimstr($root) | ltrimstr("../")):\(.line_start)"' \
    "$work/out.json" | sort -u | grep -xFf "$stripped" || true
}

rounds=0
while :; do
  rounds=$((rounds + 1))
  check >"$work/out.json" 2>/dev/null
  restore=$(spans error)
  if [ -z "$restore" ]; then
    if jq -e 'select(.reason == "compiler-message"
        and .message.level == "error")' "$work/out.json" >/dev/null; then
      echo "pub_traffic: an error that no \`pub\` put back mends:" >&2
      jq -r 'select(.reason == "compiler-message" and .message.level == "error")
        | .message.rendered' "$work/out.json" >&2
      exit 2
    fi
    # Everything compiles: the dead definitions are the findings, less
    # the exempt ones, which get their `pub` back for one more round.
    dead=$(spans warning dead_code | awk 'NR == FNR { d[$1]; next } $1 in d' - "$names")
    uncalled=()
    while read -r at name; do
      [ -n "$at" ] || continue
      if exempt "$name" "$(cut -d' ' -f2 <<<"$dead")"; then
        restore+="$at"$'\n'
      else
        uncalled+=("${at%%:*}: $name")
      fi
    done <<<"$dead"
    [ -z "$restore" ] && break
  fi
  for at in $restore; do
    sed -i "${at#*:}s/^\([[:space:]]*\)/\1pub /" "${at%%:*}"
  done
  grep -vxFf <(printf '%s\n' "$restore") "$stripped" >"$stripped.tmp" || true
  mv "$stripped.tmp" "$stripped"
done

if [ "${#uncalled[@]}" -gt 0 ]; then
  echo "pub fn with no caller outside tests ($rounds checks):" >&2
  printf '  %s\n' "${uncalled[@]}" | sort >&2
  exit 1
fi
echo "no pub fn only tests reach: $(grep -c '' "$names") checked in $rounds checks"
