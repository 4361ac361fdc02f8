#!/usr/bin/env bash
# Configure, build and run the whole test suite under sanitizers.
#
#   scripts/run_sanitized_tests.sh [sanitizers]
#
# `sanitizers` is a comma-separated -fsanitize= list; the default
# "address,undefined" catches the memory and UB classes the chaos tests are
# most likely to shake loose (the fault injector toggles capacity factors,
# drains waiter queues and crash/restarts servers mid-run). With
# "undefined" in the list, CMakeLists.txt also passes
# -fno-sanitize-recover=undefined, so any UB report aborts its test. Uses its
# own build directory (build-asan/) so the normal build stays untouched.
set -euo pipefail

cd "$(dirname "$0")/.."
SAN="${1:-address,undefined}"
DIR="build-asan"

cmake -B "$DIR" -S . -DNTIER_SANITIZE="$SAN" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$DIR" -j "$(nproc)"
ctest --test-dir "$DIR" -j "$(nproc)" --output-on-failure
