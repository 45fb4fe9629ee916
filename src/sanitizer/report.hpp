// Deterministic, machine-readable sanitizer findings — the analog of
// compute-sanitizer's per-error records, aggregated so a hazard that fires
// on every element of a large frontier produces one finding with an
// occurrence count instead of a million lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eta::sanitizer {

enum class Checker : uint8_t { kMemcheck, kRacecheck, kSynccheck, kLeakcheck };
enum class Severity : uint8_t { kError, kWarning };

enum class FindingKind : uint8_t {
  // memcheck
  kOobRead,
  kOobWrite,
  kUninitRead,
  kUseAfterFree,
  // racecheck — named <earlier access><later access>; the later access is
  // the one that trips the report.
  kRaceWriteWrite,   // plain store over another thread's plain store
  kRaceReadWrite,    // plain store over a value another thread already read
  kRaceAtomicWrite,  // plain store over another thread's atomic/relaxed store
  kRaceWriteAtomic,  // atomic/relaxed store over another thread's plain store
  kRaceWriteRead,    // read of another thread's plain store (often benign)
  // synccheck
  kBarrierDivergence,  // barrier reached under a mask narrower than the warp's
  kBarrierMismatch,    // warps of one block hit different barrier counts
  // leakcheck
  kLeakedBuffer,  // still allocated when the session's teardown sweep ran
};

const char* CheckerName(Checker checker);
const char* FindingKindName(FindingKind kind);
const char* SeverityName(Severity severity);
Checker FindingChecker(FindingKind kind);

/// kRaceWriteRead demotes to a warning: a read racing a plain store is the
/// publish side of single-writer protocols and torn 4-byte reads cannot
/// happen in the simulator, so it deserves eyes but not a failed gate.
/// Everything else is an error.
Severity FindingSeverity(FindingKind kind);

/// One distinct defect. Findings aggregate by (kind, kernel, buffer): the
/// first occurrence keeps the attribution fields below and later hits only
/// bump `occurrences`, which keeps reports small and their order stable.
struct Finding {
  static constexpr uint64_t kNoThread = ~uint64_t{0};

  FindingKind kind = FindingKind::kOobRead;
  std::string kernel;  // launch label; empty for host-side events
  std::string buffer;  // allocation name; empty for synccheck findings
  uint64_t elem_index = 0;  // first offending element (block id for kBarrierMismatch)
  uint64_t warp = 0;
  uint32_t lane = 0;
  /// Race peer: global thread id (warp * 32 + lane) of the other
  /// participant at first occurrence; kNoThread when not applicable.
  uint64_t other_thread = kNoThread;
  /// Instrumented-operation ordinal within the launch at first occurrence —
  /// the simulator's PC analog for "which access was it".
  uint64_t step = 0;
  uint64_t occurrences = 1;
  /// Extra attribution for findings the fixed fields can't express
  /// (barrier-count mismatches); rendered verbatim.
  std::string note;

  Severity SeverityLevel() const { return FindingSeverity(kind); }
  std::string Message() const;
};

struct SanitizerReport {
  /// Discovery order, which is deterministic because warps execute
  /// sequentially in the simulator.
  std::vector<Finding> findings;
  uint64_t launches_checked = 0;
  uint64_t accesses_checked = 0;

  uint64_t ErrorCount() const;
  uint64_t WarningCount() const;
  bool Clean() const { return ErrorCount() == 0; }

  /// Folds another report in (serve-layer aggregation across sessions),
  /// re-aggregating duplicate findings.
  void Merge(const SanitizerReport& other);

  /// compute-sanitizer-style text block; empty string when there is
  /// nothing to say and `verbose` is false.
  std::string Render(bool verbose = false) const;

  /// Machine-readable form for tools' --check-json.
  std::string Json() const;
};

}  // namespace eta::sanitizer
