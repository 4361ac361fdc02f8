#!/usr/bin/env bash
# Run every bench named in a verdict list once at --quick and check the
# verdict rows it writes against the list.
#
#   scripts/check_verdicts.sh <build-dir> <list>
#
# <list> (bench/verdicts.txt) has one `<bench> <id>` line per expected
# verdict; blank lines and `#` comments are ignored. Each listed bench runs
# as `<build-dir>/bench/<bench> --quick --json <rows>`, and each verdict()
# call in it appends one {"bench", "verdict", "pass", "value", "bound"} row.
# Exits 1 unless every listed id appears exactly once and passes, every
# bench exits 0, and no unlisted verdict id appears.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <list>" >&2
  exit 2
fi
build=$1
list=$2
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

status=0
for bench in $(awk '!/^[[:space:]]*(#|$)/ && !seen[$1]++ { print $1 }' "$list"); do
  echo "### $bench --quick"
  if ! "$build/bench/$bench" --quick --json "$rows"; then
    echo "check_verdicts: $bench exited non-zero"
    status=1
  fi
done

python3 - "$list" "$rows" <<'EOF' || status=1
import collections, json, sys

expected = []
for line in open(sys.argv[1]):
    fields = line.split("#", 1)[0].split()
    if fields:
        expected.append(tuple(fields))
seen = collections.Counter()
passed = {}
for line in open(sys.argv[2]):
    row = json.loads(line)
    if "verdict" in row:
        key = (row["bench"], row["verdict"])
        seen[key] += 1
        passed[key] = row["pass"] is True

errors = []
for key in expected:
    name = " ".join(key)
    if seen[key] == 0:
        errors.append(f"{name}: missing")
    elif seen[key] > 1:
        errors.append(f"{name}: reported {seen[key]} times")
    elif not passed[key]:
        errors.append(f"{name}: failed")
for key in seen:
    if key not in expected:
        errors.append(f"{' '.join(key)}: not in the list")
for e in errors:
    print(f"check_verdicts: {e}")
print(f"check_verdicts: {len(expected)} listed, {sum(seen.values())} reported,"
      f" {len(errors)} problems")
sys.exit(1 if errors else 0)
EOF
exit "$status"
