#!/usr/bin/env bash
# Net non-test lines of code per file under crates/, between a git
# revision and the working tree:
#
#   scripts/net_lines.sh [BASE]     # BASE defaults to HEAD
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (the whole file if it has none); files under a `tests/` directory are
# test code and not counted. Prints one `<delta>  <path>` line per
# changed file, most negative first, then the total. Untracked files
# count as added; files deleted since BASE count as removed. This is a
# reporting aid for CHANGES.md, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
git rev-parse --verify --quiet "$base^{commit}" > /dev/null \
  || { echo "net_lines.sh: unknown revision: $base" >&2; exit 2; }

# Lines before the first `#[cfg(test)]` on stdin. Reads to the end, so
# `git show | nontest` never dies of SIGPIPE under pipefail.
nontest() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

total=0
rows=""
while IFS= read -r f; do
  old=0
  new=0
  if git cat-file -e "$base:$f" 2> /dev/null; then
    old=$(git show "$base:$f" | nontest)
  fi
  if [ -f "$f" ]; then
    new=$(nontest < "$f")
  fi
  delta=$((new - old))
  total=$((total + delta))
  if [ "$delta" -ne 0 ]; then
    rows+="$delta $f"$'\n'
  fi
done < <(
  {
    git ls-tree -r --name-only "$base" -- crates
    git ls-files --cached --others --exclude-standard -- crates
  } | grep '\.rs$' | grep -v '/tests/' | sort -u
)

if [ -n "$rows" ]; then
  printf '%s' "$rows" | sort -n -k1,1 | while read -r delta f; do
    printf '%+6d  %s\n' "$delta" "$f"
  done
fi
printf '%+6d  total\n' "$total"
