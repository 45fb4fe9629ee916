// Per-run result record shared by EtaGraph and the baseline frameworks.
// Everything the evaluation section consumes comes out of this struct:
// Table III (kernel_ms / total_ms / oom), Table IV (iterations, activated
// fraction), Table V + Fig 4 (migration sizes, timeline), Fig 2/5
// (iteration_stats), Fig 7 (counters).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/traversal.hpp"
#include "sanitizer/report.hpp"
#include "sim/profiler.hpp"
#include "sim/timeline.hpp"

namespace eta::core {

struct IterationStat {
  uint32_t iteration = 0;
  /// Vertices in the active set processed this iteration.
  uint64_t active_vertices = 0;
  /// Shadow (virtual) vertices generated from them, if the framework cuts
  /// degrees (0 otherwise).
  uint64_t shadow_vertices = 0;
  /// Simulated clock at the end of the iteration.
  double end_ms = 0;
  /// Cumulative activations so far (Fig 5's "visited vertices").
  uint64_t activated_cum = 0;
};

/// Outcome of the fault-injection/recovery machinery for one run
/// (DESIGN.md section 8). All-zero when no injector is attached.
struct FaultStats {
  uint64_t ecc_corrected = 0;      // correctable ECC events (logged only)
  uint64_t ecc_uncorrectable = 0;  // launches aborted by a UECC
  uint64_t hangs = 0;              // launches killed by the watchdog
  uint64_t launch_failures = 0;    // total failed launches (all classes)
  /// Failed launches retried: a hang resumes the query at the killed
  /// launch, a UECC restarts it on re-staged buffers.
  uint64_t retries = 0;
  uint64_t restaged_buffers = 0;   // buffers re-shipped from host shadows
  uint64_t restaged_bytes = 0;
  double backoff_ms = 0;           // simulated time burned backing off
  bool device_lost = false;        // device fell off the bus (sticky)
  bool exhausted = false;          // retry budget spent without success

  /// The query produced no result over the device path.
  bool Failed() const { return device_lost || exhausted; }

  void Merge(const FaultStats& other) {
    ecc_corrected += other.ecc_corrected;
    ecc_uncorrectable += other.ecc_uncorrectable;
    hangs += other.hangs;
    launch_failures += other.launch_failures;
    retries += other.retries;
    restaged_buffers += other.restaged_buffers;
    restaged_bytes += other.restaged_bytes;
    backoff_ms += other.backoff_ms;
    device_lost = device_lost || other.device_lost;
    exhausted = exhausted || other.exhausted;
  }
};

/// One device attempt of the retry loop (DESIGN.md section 8), recorded
/// only when EtaGraphOptions::trace_requests is on. The serving layer's
/// batcher converts these into per-request kFault/kRetry trace events so
/// a span tree can show exactly which fault class hit which attempt and
/// what backoff it was charged.
struct AttemptRecord {
  uint32_t attempt = 0;        // 0-based attempt index
  bool succeeded = false;      // this attempt produced the answer
  /// Fault class of a failed attempt: 0 = none/other, 1 = uncorrectable
  /// ECC, 2 = kernel timeout (hang), 3 = device lost. Matches
  /// trace::FaultClass.
  uint8_t fault = 0;
  double backoff_ms = 0;       // backoff charged before the next retry
  bool budget_denied = false;  // the fleet retry budget refused the retry
  bool restaged = false;       // corrupted buffers were re-shipped
};

struct RunReport {
  std::string framework;
  std::string dataset;
  Algo algo = Algo::kBfs;

  /// Out of device memory (Table III "O.O.M"): the run did not execute.
  bool oom = false;
  uint64_t oom_request_bytes = 0;

  /// Fault-injection outcome; faults.Failed() means the device path gave up
  /// (treat like oom: labels are not meaningful).
  FaultStats faults;

  /// The run produced no usable labels over the device path.
  bool DeviceFailed() const { return oom || faults.Failed(); }

  /// Sum of kernel roofline times over every launch the run paid for: a
  /// retried query's aborted launches included, a hung one at its whole
  /// watchdog window.
  double kernel_ms = 0;
  double total_ms = 0;   // simulated end-to-end: transfers + kernels + stalls
  /// Incremental simulated cost of this query alone. Equal to total_ms for
  /// a one-shot run; for a query served by a persistent ResidentGraph it
  /// excludes the graph-loading time and all earlier queries (total_ms is
  /// then the absolute session clock at completion). Summed from the
  /// query's individual charges (sim::Device::IntervalMs), so equal device
  /// work gives a bit-identical value whatever the session clock's base.
  double query_ms = 0;

  uint32_t iterations = 0;
  /// Hybrid BFS: how many of `iterations` ran bottom-up (pull mode); 0 for
  /// every other algorithm.
  uint32_t bottom_up_iterations = 0;
  uint64_t activated = 0;          // distinct vertices ever activated
  double activated_fraction = 0;   // Table IV "Act. %" (as a fraction)

  /// Per-source reachability attribution for multi-source runs executed
  /// with attribute_sources=true: per_source_reached[i] is the number of
  /// vertices reachable from sources[i] individually — bit-identical to a
  /// single-source run from sources[i]. Empty when attribution is off.
  std::vector<uint64_t> per_source_reached;

  std::vector<IterationStat> iteration_stats;

  sim::Counters counters;  // kernel-attributed counters (nvprof analog)
  /// This query's own counter delta (counters above are cumulative over the
  /// device's whole session for persistent-session runs; for a one-shot run
  /// the two are equal). Always filled — the serving layer's cost
  /// observations read elapsed_cycles from here.
  sim::Counters query_counters;
  sim::Timeline timeline;

  /// etaprof per-launch records for this query, in launch order; empty
  /// unless EtaGraphOptions::profile is on. Failed launches appear with
  /// their fault status and all-zero counters.
  std::vector<sim::KernelProfile> kernel_profiles;

  /// etatrace per-attempt records for this query's retry loop, in attempt
  /// order; empty unless EtaGraphOptions::trace_requests is on.
  std::vector<AttemptRecord> attempts;

  // Unified-memory migration record (empty for explicit-copy frameworks).
  std::vector<uint64_t> migration_sizes;
  uint64_t migrated_bytes = 0;

  uint64_t device_bytes_peak = 0;

  /// etacheck findings accumulated over the session so far; empty (and
  /// launches_checked == 0) unless EtaGraphOptions::check enabled a
  /// checker.
  sanitizer::SanitizerReport check;

  /// Final labels (host copy) for verification against CpuReference.
  std::vector<graph::Weight> labels;
  /// PageRank's final ranks (host copy; empty for every other algorithm).
  std::vector<float> ranks;
};

}  // namespace eta::core
