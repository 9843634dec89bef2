#!/usr/bin/env bash
# Do the docs name things that exist? Every backticked CamelCase name —
# `Type`, `Type::item` or `Type::item()` — in the prose documents must
# name something in the code.
#
#   ./doc_names.sh          list each backticked name that no code names;
#                           exit 1 if there is one
#
# The documents are DESIGN.md, README.md, EXPERIMENTS.md, docs/*.md and
# the verify skill's SKILL.md. The code is every `.rs` file under
# `crates src tests examples benchmark/src`, comment lines left out (a
# name that survives only in a stale comment does not count).
#
# The match is by name, not by resolved path (unlike `./pub_traffic.sh`,
# which asks the compiler): each `::`-separated part must appear as a
# word somewhere in that code. So `Type::item` passes when some other type has an `item` too, and a
# renamed type passes while any code still says its old name — a field,
# a local, a string. Backticked text that is not a bare path (generics,
# braces, arguments, spaces) is not checked.
set -euo pipefail
cd "$(dirname "$0")"

docs=(DESIGN.md README.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md)
words=$(find crates src tests examples benchmark/src -name '*.rs' -exec cat {} + |
  grep -v '^[[:space:]]*//' | grep -oP '\b[A-Za-z_]\w*\b' | sort -u)

names=$(grep -oP '`\K[A-Z]\w*[a-z]\w*(::[A-Za-z_]\w*)*(?=(\(\))?`)' "${docs[@]}" |
  sort -u)
missing=0
total=0
while IFS=: read -r file name; do
  total=$((total + 1))
  for part in ${name//::/ }; do
    if ! grep -qxF -- "$part" <<<"$words"; then
      echo "$file: \`$name\` — no code names \`$part\`" >&2
      missing=$((missing + 1))
      break
    fi
  done
done <<<"$names"
if [ "$missing" -gt 0 ]; then
  echo "$missing backticked name(s) in the docs match nothing in the code" >&2
  exit 1
fi
echo "every one of $total backticked names in the docs names something in the code"
