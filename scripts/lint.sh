#!/usr/bin/env bash
# Static analysis over the library, tool, bench, and test sources. Any
# diagnostic is fatal (exit nonzero) — scripts/check.sh gates on this.
#
#   scripts/lint.sh [build-dir]
#
# Preferred path: clang-tidy with the profile in .clang-tidy (bugprone-*,
# performance-*, concurrency-*, WarningsAsErrors '*'), driven by the
# compile database cmake writes into the build dir. When clang-tidy is not
# installed (the reproduction container ships only g++), falls back to a
# strict g++ re-parse of every translation unit:
#   -fsyntax-only -Wall -Wextra -Wpedantic -Wshadow -Werror
# which still catches shadowed locals, sign trouble, and pedantic-ISO
# violations the normal build (plain -Wall -Wextra) lets through.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

SOURCES=$(find src tools bench tests -name '*.cpp' | sort)

# JSON gates: every JSON document is written through util::JsonWriter
# (src/util/json.hpp). A printf-style JSON key ("key":%...) or an Appendf
# snprintf helper outside src/util/ means an emitter is being hand-rolled
# again, with its own escaping, comma placement and buffer sizing.
PRINTF_JSON=$(grep -rnE '\\"[A-Za-z_]+\\": ?%' src tools bench || true)
if [[ -n "$PRINTF_JSON" ]]; then
  echo "lint.sh: printf-formatted JSON; write it with util::JsonWriter:" >&2
  echo "$PRINTF_JSON" >&2
  exit 1
fi
APPENDF=$(grep -rnwE 'Appendf' src tools bench tests --include='*.cpp' --include='*.hpp' |
          grep -v '^src/util/' || true)
if [[ -n "$APPENDF" ]]; then
  echo "lint.sh: Appendf helper outside src/util/; use util::JsonWriter or std::string:" >&2
  echo "$APPENDF" >&2
  exit 1
fi

# Number gate: every number read from outside the process goes through
# util::ParseNumber (src/util/number.cpp), which checks the whole token,
# finiteness and the range before any cast. A raw strto*/sto*/ato*/sscanf/
# from_chars call anywhere else is a parser with its own rules again.
# src/util/json.cpp is exempt: its strtod runs on a slice the JSON grammar
# has already validated, and may return +-inf for JSON like 1e400.
RAW_NUMBERS=$(grep -rnwE 'strto[a-z]+|sto(i|l|ll|ul|ull|f|d|ld)|ato(i|l|ll|f)|sscanf|from_chars' \
                src tools bench examples --include='*.cpp' --include='*.hpp' |
              grep -vE '^src/util/(number|json)\.cpp:' || true)
if [[ -n "$RAW_NUMBERS" ]]; then
  echo "lint.sh: raw number conversion; parse with util::ParseNumber (util/number.hpp):" >&2
  echo "$RAW_NUMBERS" >&2
  exit 1
fi

# Relax gates: a label is relaxed in one place, core::RelaxStep
# (src/core/relax_step.hpp), under a semiring policy fixed per launch
# (core/traversal.hpp). A label (`labels`, or hybrid BFS's `levels`)
# AtomicMin/AtomicMax anywhere else is a hand-written relax loop again, and a Propagate/Improves call over a
# runtime Algo is a per-lane switch again.
LABEL_ATOMICS=$(grep -rnE 'Atomic(Min|Max)\([^,]*\b(labels|levels)\b' src tools bench examples \
                  --include='*.cpp' --include='*.hpp' |
                grep -v '^src/core/relax_step\.hpp:' || true)
if [[ -n "$LABEL_ATOMICS" ]]; then
  echo "lint.sh: label atomic outside core::RelaxStep (core/relax_step.hpp):" >&2
  echo "$LABEL_ATOMICS" >&2
  exit 1
fi
# Append gate: an EtaGraph kernel reserves cursor slots in one place,
# core::WarpAppend (src/core/warp_append.hpp), with one atomic per warp. An
# AtomicAdd into `cursors` or `counters` anywhere else in src/core is a
# per-lane append again. The baselines keep their per-lane appends as
# modelled (DESIGN.md §16).
CURSOR_ATOMICS=$(grep -rnE 'AtomicAdd\([^,]*\b(cursors|counters)\b' src/core \
                   --include='*.cpp' --include='*.hpp' |
                 grep -v '^src/core/warp_append\.hpp:' || true)
if [[ -n "$CURSOR_ATOMICS" ]]; then
  echo "lint.sh: cursor atomic outside core::WarpAppend (core/warp_append.hpp):" >&2
  echo "$CURSOR_ATOMICS" >&2
  exit 1
fi
RUNTIME_SEMIRING=$(grep -rnE '\b(Propagate|Improves)\((core::)?(Algo\b|[A-Za-z_.>-]*algo\b)' \
                     src tools bench examples tests --include='*.cpp' --include='*.hpp' || true)
if [[ -n "$RUNTIME_SEMIRING" ]]; then
  echo "lint.sh: Propagate/Improves over a runtime Algo; use a semiring policy via core::WithSemiring:" >&2
  echo "$RUNTIME_SEMIRING" >&2
  exit 1
fi

# Plant gates: the test plants (a dropped atomic, a short buffer, a DAG
# ordering bug) live in src/sim and are requested only through the keys of
# sim::FaultConfig (rmw, short, dag). A test-only hook in the core or serve
# options, or a flag of its own, is the old shape back; and src/core and
# src/serve only pass a FaultConfig along, never read a plant.
PLANT_HOOKS=$(grep -rnE '\.inject\b|DagPlant|drop_reach_atomic|shrink_frontier|\.plant\b' \
                src tools bench examples --include='*.cpp' --include='*.hpp' || true)
if [[ -n "$PLANT_HOOKS" ]]; then
  echo "lint.sh: test-only plant hook; request plants through sim::FaultConfig (--faults keys rmw, short, dag):" >&2
  echo "$PLANT_HOOKS" >&2
  exit 1
fi
PLANT_READS=$(grep -rnE 'rmw_buffer|short_buffer|unsynced_atomics|Dag::k' src/core src/serve \
                --include='*.cpp' --include='*.hpp' || true)
if [[ -n "$PLANT_READS" ]]; then
  echo "lint.sh: plant code outside src/sim; the device and stream scheduler own the plants:" >&2
  echo "$PLANT_READS" >&2
  exit 1
fi

if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "lint.sh: clang-tidy ($(clang-tidy --version | head -1))"
  # shellcheck disable=SC2086
  clang-tidy -p "$BUILD_DIR" --quiet $SOURCES
  echo "lint.sh: clang-tidy clean"
  exit 0
fi

echo "lint.sh: clang-tidy not found; strict g++ syntax pass"
# Mirror the include setup the build uses: library headers are found
# relative to src/, bench files include their own directory, and the tests
# pick up the environment's gtest from the default include path.
FLAGS=(-std=c++20 -fsyntax-only -Wall -Wextra -Wpedantic -Wshadow -Werror
       -Isrc -Ibench)
FAILED=0
for tu in $SOURCES; do
  if ! g++ "${FLAGS[@]}" "$tu"; then
    echo "lint.sh: FAILED on $tu" >&2
    FAILED=1
  fi
done
if [[ "$FAILED" != "0" ]]; then
  exit 1
fi
echo "lint.sh: $(echo "$SOURCES" | wc -l) translation units clean"
