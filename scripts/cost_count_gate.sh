#!/usr/bin/env bash
# Deterministic cost-count gate against a base commit.
#
#   scripts/cost_count_gate.sh <base-ref> [work-dir]
#
# Builds the cost benchmark (costbench/) at <base-ref>, checked out in a
# temporary git worktree, and from the working tree; runs each workload in
# BENCHMARK.json once per side with `costbench/run.py --trace 0 --seconds 1`;
# and fails unless, on every workload, both runs are correct,
# events_per_request is equal and allocs_per_request is not higher at the
# head than at the base.
#
# Both counts are deterministic for a build on a host, but they follow the
# floating-point library (see summary_equivalence.sh), so both sides run
# here, on one machine, and no budget numbers are committed. Each side's
# costbench build lives in its own checkout's .bench_build/; the base
# worktree goes under <work-dir> (default: build-equivalence/ at the
# repository root) and is removed on exit.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <base-ref> [work-dir]" >&2
  exit 2
fi
repo=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$repo" rev-parse --verify "$1^{commit}")
work=$(mkdir -p "${2:-$repo/build-equivalence}" && cd "${2:-$repo/build-equivalence}" && pwd)
base_src="$work/count-gate-base"

remove_worktree() {
  git -C "$repo" worktree remove --force "$base_src" >/dev/null 2>&1 || true
  rm -rf "$base_src"
  git -C "$repo" worktree prune
}
trap remove_worktree EXIT
remove_worktree
git -C "$repo" worktree add --detach "$base_src" "$base_commit" >/dev/null

workloads=$(python3 "$repo/costbench/run.py" --print-benchmark-json |
  python3 -c 'import json, sys
for w in json.load(sys.stdin)["workloads"]: print(w["name"])')

status=0
for name in $workloads; do
  for side in base head; do
    src=$repo
    if [ "$side" = base ]; then src=$base_src; fi
    echo "running $name at $side" >&2
    python3 "$src/costbench/run.py" --workload "$name" --trace 0 \
      --seconds 1 > "$work/$name.counts.$side.out" 2> "$work/$name.counts.$side.log" ||
      true
  done
  python3 - "$name" "$work/$name.counts.base.out" "$work/$name.counts.head.out" <<'EOF' || status=1
import json, sys

name, base_out, head_out = sys.argv[1:]

def counts(path):
    lines = open(path).read().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not result.get("correct"):
        return None
    m = result["metrics"]
    return m["events_per_request"]["value"], m["allocs_per_request"]["value"]

base, head = counts(base_out), counts(head_out)
if base is None or head is None:
    side = "base" if base is None else "head"
    print(f"FAILED     {name}: the {side} run is not correct (see {side} log)")
    sys.exit(1)
(be, ba), (he, ha) = base, head
line = (f"{name}: events_per_request {be!r} -> {he!r}, "
        f"allocs_per_request {ba!r} -> {ha!r}")
if he != be:
    print(f"FAILED     {line} (events must not move)")
    sys.exit(1)
if ha > ba:
    print(f"FAILED     {line} (allocations must not rise)")
    sys.exit(1)
print(f"ok         {line}")
EOF
done
exit $status
