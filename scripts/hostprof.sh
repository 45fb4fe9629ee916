#!/usr/bin/env bash
# Host-clock profile of one perfbench workload, folded into simulator layers.
#
# Builds the perfbench program (perfbench/CMakeLists.txt) optimized, with
# debug info, into build-prof/, and the program-counter sampler
# scripts/hostprof_sampler.c beside it. Runs one untraced workload for the
# given number of seconds with the sampler preloaded (LD_PRELOAD), so
# neither perfbench/ nor the program changes. Every ~4 ms of CPU time
# (ITIMER_PROF ticks at the kernel's HZ) the sampler records where the
# program was. addr2line -f -i resolves each sample to its chain of inline
# frames, and the sample is folded into the layer of its innermost frame
# that names one: sector caches, coalescer, unified memory, warp
# operations, kernel bodies, baseline preprocessing (CuSha's G-Shards,
# Tigr's VST), serving, CPU reference, graph building. Prints the sample
# count, the top innermost functions, and the share of samples per layer.
# Time is host time (what the simulator costs to run), never simulated time.
#
#   scripts/hostprof.sh [workload] [seconds]
#
# workload defaults to table3_social (see perfbench/README.md), seconds to
# 10, which gives at least 2,000 samples. Sampling charges each sample to
# the code that was running, inlined callees included: SectorCache::Access
# folds into "sector caches" although it is inlined into
# Device::ReadSectors, and WarpCtx::CheckAndCoalesce (the fused bounds
# check, sector dedup and atomic depth of Gather/Scatter/atomics) folds into
# "coalescer" with the reference CoalesceSectors and MaxLaneMultiplicity;
# no FindOrAppend runs inside CheckAndCoalesce. WarpCtx::ForActive is a loop
# helper, so its samples go to the frame that called it. Shares are of
# samples, so cross-check any speed claim with alternating timing pairs.
set -euo pipefail

WORKLOAD="${1:-table3_social}"
SECONDS_BUDGET="${2:-10}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$REPO_ROOT/build-prof"

for tool in addr2line cc; do
  if ! command -v "$tool" > /dev/null; then
    echo "hostprof.sh: $tool not found" >&2
    exit 2
  fi
done

# -fno-ipa-icf: identical code folding would let one function's samples
# resolve to the name of another with the same machine code. The empty
# linker flags clear the -pg of an older gprof configuration of build-prof/.
cmake -S "$REPO_ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer -fno-ipa-icf" -DCMAKE_EXE_LINKER_FLAGS="" \
  > /dev/null
cmake --build "$BUILD" --target perfbench -j "$(nproc)" > /dev/null
cc -O2 -fPIC -shared -o "$BUILD/libhostprof.so" "$REPO_ROOT/scripts/hostprof_sampler.c" -ldl

cd "$BUILD"
rm -f samples.txt
HOSTPROF_OUT="$BUILD/samples.txt" LD_PRELOAD="$BUILD/libhostprof.so" \
  ./perfbench --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_BUDGET" --trace 0 |
  grep -E '^(perfbench|fingerprint|  host_wall_s)'

# One line per distinct program counter: "count exe addr" or "count lib
# object symbol", resolved below into one line per sample group:
# "count<TAB>innermost frame<TAB>layer".
sort samples.txt | uniq -c > counts.txt
awk '$2 == "exe" { print $3 }' counts.txt | addr2line -f -i -C -a -e ./perfbench > frames.txt
awk '
  # The function name of a frame: "(anonymous namespace)" renamed (its
  # parenthesis is not an argument list), then the argument list dropped.
  function Name(fn) {
    gsub(/\(anonymous namespace\)/, "anon", fn)
    sub(/\(.*/, "", fn)
    return fn
  }
  function Layer(fn) {
    if (fn ~ /ForActive</) return ""
    if (fn ~ /SectorCache|ReadSectors|WriteSectors/) return "sector caches"
    if (fn ~ /CoalesceSectors|MaxLaneMultiplicity|CheckAndCoalesce|FindOrAppend/) return "coalescer"
    if (fn ~ /UnifiedMemory|TouchManaged/) return "unified memory"
    if (fn ~ /WarpCtx::/) return "warp operations"
    if (fn ~ /Kernel|RelaxStep|::Run$/) return "kernel bodies"
    if (fn ~ /eta::baselines::/) return "baselines"
    if (fn ~ /eta::serve::/) return "serving"
    if (fn ~ /eta::cpu::/) return "cpu reference"
    if (fn ~ /eta::graph::/) return "graph build"
    return ""
  }
  function Flush(   i, layer, top) {
    if (frames == 0) return
    layer = "other"
    for (i = 1; i <= frames; ++i) {
      if (Layer(frame[i]) != "") {
        layer = Layer(frame[i])
        break
      }
    }
    # An inlined lambda names itself only "operator()": name its scope.
    top = frame[1]
    for (i = 2; top == "operator" && i <= frames; ++i) {
      if (frame[i] != "operator" && frame[i] !~ /ForActive</) top = "lambda in " frame[i]
    }
    printf "%d\t%s\t%s\n", count[block], top, layer
    frames = 0
  }
  FILENAME == "counts.txt" {
    if ($2 == "exe") count[++exe] = $1
    else printf "%d\t%s:%s\tshared libraries\n", $1, $3, $4
    next
  }
  /^0x[0-9a-f]+$/ { Flush(); ++block; odd = 1; next }
  { if (odd) frame[++frames] = Name($0); odd = !odd }
  END { Flush() }
' counts.txt frames.txt > folded.txt

awk -F '\t' '{ n += $1 } END { printf "\n%d samples\n", n }' folded.txt

echo
echo "top functions by samples (innermost frame):"
# awk, not head: head exiting early would kill sort with SIGPIPE, which
# pipefail turns into the script's exit status.
awk -F '\t' '{ n[$2] += $1; all += $1 }
  END { for (f in n) printf "  %5.1f%%  %s\n", 100 * n[f] / all, substr(f, 1, 130) }' folded.txt |
  sort -n -r | awk 'NR <= 15'

echo
echo "samples by host layer:"
awk -F '\t' '{ n[$3] += $1; all += $1 }
  END { for (l in n) printf "  %5.1f%%  %7d  %s\n", 100 * n[l] / all, n[l], l }' folded.txt |
  sort -n -r
