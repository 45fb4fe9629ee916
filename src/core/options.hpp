// EtaGraph configuration knobs — the ablation axes of Fig 6 and Table III.
#pragma once

#include <cstdint>
#include <memory>

#include "core/retry_budget.hpp"
#include "sanitizer/config.hpp"
#include "sim/fault.hpp"
#include "sim/spec.hpp"

namespace eta::core {

enum class MemoryMode {
  /// Unified Memory with cudaMemPrefetchAsync (the paper's "EtaGraph").
  kUnifiedPrefetch,
  /// Unified Memory, fault-driven on-demand migration ("EtaGraph w/o UMP").
  kUnifiedOnDemand,
  /// cudaMalloc + cudaMemcpy, no UM at all (Fig 6's "w/o UM"). Cannot
  /// oversubscribe: graphs larger than device memory OOM.
  kExplicitCopy,
  /// GTS/Graphie-style fixed-size chunk streaming (the prior-work approach
  /// the paper's introduction critiques): before each iteration, every
  /// topology chunk that any active vertex touches is shipped *wholly*
  /// through a bounded device-side chunk buffer — transferring plenty of
  /// bytes the iteration never reads. Exists for the motivation bench.
  kChunkedStream,
};

const char* MemoryModeName(MemoryMode mode);

/// Maximum supported degree limit; bounds the per-warp scratch arrays that
/// stand in for the shared-memory partition (256 threads x K x 4B must also
/// fit the 48 KB scratchpad, which caps K at 48 for a weighted traversal).
inline constexpr uint32_t kMaxDegreeLimit = 48;

struct EtaGraphOptions {
  /// The Degree Limit K of the Unified Degree Cut (Definition 3). Also the
  /// per-thread shared-memory prefetch depth of SMP.
  uint32_t degree_limit = 16;
  /// Shared Memory Prefetch (Section V). Off = the "w/o SMP" bar of Fig 6.
  bool use_smp = true;
  MemoryMode memory_mode = MemoryMode::kUnifiedPrefetch;
  /// Chunk size for kChunkedStream (fixed, as in GTS — that fixedness is
  /// exactly what the paper criticizes).
  uint64_t stream_chunk_bytes = 1 << 20;
  sim::DeviceSpec spec{};
  uint32_t block_size = 256;
  /// Safety valve; traversals converge long before this.
  uint32_t max_iterations = 100000;
  /// etaprof per-launch profiling (DESIGN.md section 9). Off by default: no
  /// profiler is attached and the launch path does zero extra work. On, the
  /// device records one KernelProfile per launch (kernel name, geometry,
  /// start/end sim time, per-launch Counters delta, fault annotations) into
  /// RunReport::kernel_profiles. Recording is host-side only, so every
  /// simulated counter and timestamp stays bit-identical to an unprofiled
  /// run (bench_profiler_overhead enforces this).
  bool profile = false;
  /// etatrace per-request causal tracing (DESIGN.md section 14). Off by
  /// default: no tracer is attached and the serve/attempt paths do zero
  /// extra work beyond one untaken branch, so every simulated counter and
  /// timestamp stays bit-identical to an untraced run
  /// (bench_trace_overhead enforces this). On, the attempt loop records
  /// one AttemptRecord per device attempt into RunReport::attempts and
  /// the serving layer emits typed TraceEvents at each lifecycle edge.
  bool trace_requests = false;
  /// etacheck instrumentation (memcheck / racecheck / synccheck). Off by
  /// default: no observer is attached and every simulated counter and
  /// timestamp is identical to an unchecked run. Findings land in
  /// RunReport::check.
  sanitizer::Config check{};
  /// etaverify DAG logging (DESIGN.md section 12). Off by default: the
  /// stream scheduler records nothing and every simulated counter and
  /// timestamp is bit-identical to an unverified run. On, each stream op
  /// logs its program-order position, Record/Wait event edges, and buffer
  /// access set at enqueue time (host-side bookkeeping, zero simulated
  /// cost) for static happens-before verification by verify::VerifyDag.
  bool verify_dag = false;
  /// Hardware fault injection (DESIGN.md section 8). Off by default: no
  /// injector is attached and every simulated counter is bit-identical to a
  /// faultless run (bench_fault_overhead enforces this). When enabled, the
  /// session draws deterministic launch/alloc fates from faults.seed and
  /// recovers per `recovery`; the outcome lands in RunReport::faults.
  /// Its test plants (rmw/short buffers, dag) reach the session's device and
  /// stream schedulers without arming the injector.
  sim::FaultConfig faults{};
  /// Recovery policy for failed launches: bounded retries with exponential
  /// backoff charged to the simulated clock (delay = base * multiplier^i
  /// before retry i). A device loss is never retried in-session.
  struct Recovery {
    uint32_t max_retries = 3;
    double backoff_base_ms = 0.5;
    double backoff_multiplier = 2.0;
    /// Optional fleet-wide retry budget shared across sessions (copies of
    /// these options alias the same bucket). Before each in-session retry
    /// the attempt loop draws a token; denial ends recovery for that query
    /// as if retries were exhausted. nullptr = unbounded retries.
    std::shared_ptr<RetryBudget> budget{};
  } recovery{};
};

}  // namespace eta::core
