#!/usr/bin/env bash
# Same-behaviour oracle for simulator-kernel changes.
#
#   scripts/summary_equivalence.sh <base-ref> [work-dir]
#
# Builds `ntier_run` at <base-ref> (checked out in a temporary git worktree)
# and from the working tree, runs the costbench workloads' flag sets
# (costbench/run.py: fig6_baseline, kv_cache_stack, replay_flash_day) at
# seeds 42 and 1729, and requires the `--json` RunSummary of each pair to be
# byte-identical, and the `--csv` directory of each pair (tier series and,
# where telemetry is on, every per-window sketch in telemetry.csv) to match
# file for file and byte for byte. replay_flash_day replays a trace generated in-process with
# `--trace-gen` from the benchmark's own spec. One more cell, fig6_chaos,
# runs the fig6_baseline flags under `--chaos --chaos-seed 7`, so links whose
# latency changes mid-run (fault latency) and the other injected faults come
# under the same check. Exits 1 when any pair differs.
#
# Summaries are reproducible per host, not across hosts (floating-point
# library differences move the last digits), so both builds run here, on
# one machine, and no golden digests are kept. Build outputs go to
# <work-dir> (default: build-equivalence/ at the repository root).
# JOBS overrides the build parallelism (default: nproc).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <base-ref> [work-dir]" >&2
  exit 2
fi
repo=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$repo" rev-parse --verify "$1^{commit}")
work=$(mkdir -p "${2:-$repo/build-equivalence}" && cd "${2:-$repo/build-equivalence}" && pwd)
base_src="$work/base-src"
jobs=${JOBS:-$(nproc)}

remove_worktree() {
  git -C "$repo" worktree remove --force "$base_src" >/dev/null 2>&1 || true
  rm -rf "$base_src"
  git -C "$repo" worktree prune
}
trap remove_worktree EXIT
remove_worktree
git -C "$repo" worktree add --detach "$base_src" "$base_commit" >/dev/null

generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi
build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo "${generator[@]}" >/dev/null
  cmake --build "$2" --target ntier_run -j "$jobs" >/dev/null
}
echo "building ntier_run at $base_commit"
build "$base_src" "$work/base"
echo "building ntier_run from the working tree"
build "$repo" "$work/head"

# One line per workload: name, then its ntier_run flags, tab-separated. The
# replay trace the benchmark writes to a file is generated in-process here.
workloads=$(python3 - "$repo/costbench/run.py" <<'EOF'
import importlib.util, sys
spec = importlib.util.spec_from_file_location("costbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
for name, w in sorted(run.WORKLOADS.items()):
    flags = list(w["flags"])
    if "--replay-trace" in flags:
        i = flags.index("--replay-trace")
        flags[i:i + 2] = ["--trace-gen", w["trace_gen"]]
    print("\t".join([name] + flags))
    if name == "fig6_baseline":
        print("\t".join(["fig6_chaos"] + flags +
                        ["--chaos", "--chaos-seed", "7"]))
EOF
)

status=0
while IFS=$'\t' read -r -a row; do
  name=${row[0]}
  for seed in 42 1729; do
    flags=()
    for f in "${row[@]:1}"; do flags+=("${f//\{seed\}/$seed}"); done
    for side in base head; do
      rm -rf "$work/$name.$seed.$side.csv"
      "$work/$side/tools/ntier_run" "${flags[@]}" --seed "$seed" --quiet \
        --json "$work/$name.$seed.$side.json" \
        --csv "$work/$name.$seed.$side.csv"
    done
    if ! cmp -s "$work/$name.$seed.base.json" "$work/$name.$seed.head.json"; then
      echo "DIFFERENT  $name seed $seed (--json)"
      status=1
    elif ! diff -r -q "$work/$name.$seed.base.csv" \
        "$work/$name.$seed.head.csv" >/dev/null; then
      echo "DIFFERENT  $name seed $seed (--csv)"
      status=1
    else
      echo "identical  $name seed $seed"
    fi
  done
done <<< "$workloads"
exit $status
