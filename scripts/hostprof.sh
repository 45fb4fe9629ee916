#!/usr/bin/env bash
# Host-clock profile of one perfbench workload, folded into simulator layers.
#
# Builds the perfbench program (perfbench/CMakeLists.txt) with gprof
# instrumentation into build-prof/, runs one untraced workload for the given
# number of seconds, and prints the gprof flat profile's top entries plus the
# self time summed per host layer: sector caches, coalescer, unified memory,
# warp operations, kernel bodies, baseline preprocessing (CuSha's G-Shards,
# Tigr's VST), serving, CPU reference, graph building.
# Time is host time (what the simulator costs to run), never simulated time.
#
#   scripts/hostprof.sh [workload] [seconds]
#
# workload defaults to table3_social (see perfbench/README.md), seconds to 5.
# gprof attributes inlined callees to their caller: SectorCache::Access is
# counted inside Device::ReadSectors/WriteSectors, hence one "sector caches"
# layer for the whole cache path. Likewise FindOrAppend is counted inside
# WarpCtx::CheckAndCoalesce (the fused bounds check and sector dedup of
# Gather/Scatter/atomics), which is folded into "coalescer" with
# CoalesceSectors and MaxLaneMultiplicity.
# gprof's -pg attribution is unreliable for these tiny, hot, inlined functions
# (it has charged 10% of table3_social to a copy constructor that workload
# barely runs): cross-check any speed claim with alternating timing pairs.
set -euo pipefail

WORKLOAD="${1:-table3_social}"
SECONDS_BUDGET="${2:-5}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$REPO_ROOT/build-prof"

if ! command -v gprof > /dev/null; then
  echo "hostprof.sh: gprof not found" >&2
  exit 2
fi

if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
  cmake -S "$REPO_ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer" -DCMAKE_EXE_LINKER_FLAGS="-pg" > /dev/null
fi
cmake --build "$BUILD" --target perfbench -j "$(nproc)" > /dev/null

cd "$BUILD"
rm -f gmon.out
./perfbench --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_BUDGET" --trace 0 |
  grep -E '^(perfbench|fingerprint|  host_wall_s)'
gprof -b -p ./perfbench gmon.out > flat.txt

echo
echo "top functions by self time:"
# One awk pass, not grep | head: head exiting early would kill grep with
# SIGPIPE, which pipefail turns into the script's exit status.
awk '/^ +[0-9]/ && ++n <= 15 { print substr($0, 1, 150) }' flat.txt

echo
echo "self time by host layer:"
grep -E '^ +[0-9]' flat.txt | awk '
  {
    self = $3
    # The function name: strip the numeric columns, then the argument list
    # (after renaming "(anonymous namespace)", whose parenthesis is not one).
    fn = $0
    sub(/^ *([0-9.]+ +)+/, "", fn)
    gsub(/\(anonymous namespace\)/, "anon", fn)
    sub(/\(.*/, "", fn)
    if (fn ~ /SectorCache|ReadSectors|WriteSectors/) layer = "sector caches"
    else if (fn ~ /CoalesceSectors|MaxLaneMultiplicity|CheckAndCoalesce|FindOrAppend/) layer = "coalescer"
    else if (fn ~ /UnifiedMemory|TouchManaged/) layer = "unified memory"
    else if (fn ~ /WarpCtx::/) layer = "warp operations"
    else if (fn ~ /Kernel|RelaxStep|::Run$/) layer = "kernel bodies"
    else if (fn ~ /eta::baselines::/) layer = "baselines"
    else if (fn ~ /eta::serve::/) layer = "serving"
    else if (fn ~ /eta::cpu::/) layer = "cpu reference"
    else if (fn ~ /eta::graph::/) layer = "graph build"
    else layer = "other"
    total[layer] += self
    all += self
  }
  END {
    for (l in total) printf "  %5.1f%%  %7.2f s  %s\n", 100 * total[l] / all, total[l], l
  }' | sort -n -r
