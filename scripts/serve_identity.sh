#!/usr/bin/env bash
# Byte-identity check for the serving fleet between two etagraph_serve
# binaries (e.g. a parent build and a change that must not move a byte).
#
#   scripts/serve_identity.sh OLD_BIN NEW_BIN [WORK_DIR]
#
# Runs one replay matrix on both binaries and `cmp`s every artifact each run
# writes: the stdout report, --replay-out, --metrics-out, --trace-json,
# --trace-request-out, --blackbox-out and --verify-json, plus the exit
# status. The matrix covers a sync single-shard replay, a sync multi-graph
# replay under --device-mem-budget (evictions and reloads), a faulted
# 3-shard fleet that rebuilds, opens breakers, autoscales and loses a shard,
# and an async 3-graph catalog under etaverify with the overload stack on.
# Both binaries run from the same working directory and share one dataset
# cache, so the paths their reports print are the same strings. Exits 0 iff
# every artifact matches; WORK_DIR (default: a fresh temp dir) keeps them.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 OLD_BIN NEW_BIN [WORK_DIR]" >&2
  exit 2
fi
OLD=$(realpath "$1")
NEW=$(realpath "$2")
for bin in "$OLD" "$NEW"; do
  [[ -x "$bin" ]] || { echo "serve_identity.sh: not an executable: $bin" >&2; exit 2; }
done
WORK=${3:-$(mktemp -d)}
mkdir -p "$WORK"
WORK=$(realpath "$WORK")
cd "$WORK"

# name|flags. Artifact flags are added per run from the features it enables.
RUNS=(
  "sync-single|--dataset=slashdot --scale=0.01 --requests=200 --mean-arrival=0.05
    --deadline=2 --queue-cap=16 --faults=seed=2,uecc=0.01,hang=0.01,watchdog=1
    --profile --trace-requests"
  "sync-catalog-budget|--dataset=slashdot --scale=0.01 --catalog=3 --shards=2
    --device-mem-budget=600000 --requests=200 --mean-arrival=0.02 --profile
    --trace-requests"
  "recovery|--dataset=slashdot --scale=0.01 --requests=200 --mean-arrival=0.02 --shards=3
    --faults=seed=5,uecc=0.02,hang=0.02,lost=0.005,watchdog=1 --breaker=2,2
    --retry-budget=200,4 --autoscale=1,0.5 --profile --trace-requests"
  "async-verify|--dataset=slashdot --scale=0.01 --catalog=3 --async --verify-dag --shards=2
    --queue-cap=24
    --arrivals=poisson:rate=40000,n=300,slo=1,gold=0.2,silver=0.3,cc=0.05,pr=0.02,seed=7
    --slo-shed --shed-backlog=2,4 --brownout=1,3 --edf --memo-window=5 --deadline=3
    --faults=seed=3,hang=0.01,watchdog=1 --profile"
)

FAILED=0
for entry in "${RUNS[@]}"; do
  name=${entry%%|*}
  read -r -a flags <<< "$(echo "${entry#*|}" | tr '\n' ' ')"
  artifacts=(replay.txt metrics.prom blackbox.txt)
  flags+=(--replay-out=out/replay.txt --metrics-out=out/metrics.prom
          --blackbox-out=out/blackbox.txt)
  if [[ " ${flags[*]} " == *" --profile "* ]]; then
    flags+=(--trace-json=out/trace.json)
    artifacts+=(trace.json)
  fi
  if [[ " ${flags[*]} " == *" --trace-requests "* ]]; then
    flags+=(--trace-request-out=out/requests.json)
    artifacts+=(requests.json)
  fi
  if [[ " ${flags[*]} " == *" --verify-dag "* ]]; then
    flags+=(--verify-json=out/verify.json)
    artifacts+=(verify.json)
  fi
  for side in old new; do
    bin=$OLD
    [[ "$side" == new ]] && bin=$NEW
    rm -rf out "$name.$side"
    mkdir out
    status=0
    "$bin" "${flags[@]}" > out/stdout.txt 2> out/stderr.txt || status=$?
    echo "$status" > out/status.txt
    mv out "$name.$side"
  done
  mismatched=()
  for artifact in status.txt stdout.txt "${artifacts[@]}"; do
    if ! cmp -s "$name.old/$artifact" "$name.new/$artifact"; then
      mismatched+=("$artifact")
    fi
  done
  if [[ ${#mismatched[@]} -eq 0 ]]; then
    echo "serve_identity.sh: $name: $((${#artifacts[@]} + 2)) artifacts identical" \
         "(exit $(cat "$name.new/status.txt"))"
  else
    echo "serve_identity.sh: $name: DIFFERS: ${mismatched[*]}" >&2
    FAILED=1
  fi
done

if [[ "$FAILED" != "0" ]]; then
  echo "serve_identity.sh: FAILED (artifacts in $WORK)" >&2
  exit 1
fi
echo "serve_identity.sh: every artifact byte-identical (artifacts in $WORK)"
