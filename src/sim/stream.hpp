// Streams and events — the CUDA-style async work-queue layer over the
// simulated device (DESIGN.md section 11).
//
// A Stream is an ordered work queue; ops enqueued on one stream serialize.
// Ops on different streams may overlap, subject to the engine rules the
// paper's overlap analysis assumes (Fig 4): the device has one copy engine
// per direction (H2D, D2H) and one compute engine, each engine executes
// one op at a time, and each engine serves its ops in enqueue order (the
// hardware copy-queue FIFO — this is the fixed tiebreak that keeps the
// schedule deterministic). An Event records a point in a stream; other
// streams can Wait on it, forming the small DAGs the serving layer's
// dispatcher builds (stage on a copy stream -> event -> batch waves on the
// compute stream).
//
// Execution model: the simulator executes functionally at *enqueue* time,
// in program order, on the host thread — LaunchAsync runs its work functor
// (typically a Device::Launch, so counters, sanitizer events, and fault
// decisions are identical to the synchronous path) and MemcpyAsync runs
// its copy functor immediately. Only *timing* is asynchronous: each op's
// start is the earliest instant permitted by its stream tail, its engine
// tail, and any event waits, all computed on the single simulated clock.
// Because every dependency an op can have (stream order, engine FIFO
// order, waits on previously recorded events) points backward in program
// order, this eager schedule is exactly what an event-driven simulation of
// the same queues would produce — each enqueue is one scheduler step that
// advances the op to its start time. Two identical enqueue sequences yield
// byte-identical schedules.
//
// Fault semantics (DESIGN.md section 8, mapped onto streams): a failed
// launch marks its stream failed at the op's end time. Later ops enqueued
// on a failed stream are cancelled — zero duration, functors never run,
// engines never occupied. Events recorded on a failed stream still
// complete (at the failure time, carrying the failed flag) so waiters
// never deadlock; a Wait on a failed event fails the *waiting* stream too
// (dependent work cancels), while streams with no dependency on the fault
// keep running.
//
// Plants (DESIGN.md section 12, "Plants"): a scheduler built with a
// FaultConfig whose `dag` key is set reintroduces one ordering-bug class in
// every DAG it schedules — dropped waits, records held past their first
// wait, or an unordered duplicate of each recorded staging copy — while the
// caller's own clock, and so every answer, stays as it was.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/spec.hpp"
#include "sim/timeline.hpp"

namespace eta::sim {

class Device;
struct LaunchConfig;
class WarpCtx;

/// Opaque stream handle (cudaStream_t). Value-copyable; id is dense.
struct Stream {
  uint32_t id = 0;
  bool valid = false;

  bool operator==(const Stream& other) const {
    return id == other.id && valid == other.valid;
  }
};

/// Opaque event handle (cudaEvent_t). Value-copyable; id is dense.
struct Event {
  uint32_t id = 0;
  bool valid = false;

  bool operator==(const Event& other) const {
    return id == other.id && valid == other.valid;
  }
};

enum class StreamOpKind { kCopyH2D, kCopyD2H, kCompute, kRecord, kWait };
enum class StreamOpStatus { kDone, kFailed, kCancelled };

const char* StreamOpKindName(StreamOpKind kind);
const char* StreamOpStatusName(StreamOpStatus status);

/// One scheduled op, for introspection and trace export. Record/Wait ops
/// are bookkeeping points (zero duration, no engine occupancy).
struct StreamOp {
  StreamOpKind kind = StreamOpKind::kCompute;
  StreamOpStatus status = StreamOpStatus::kDone;
  uint32_t stream = 0;
  uint32_t event = UINT32_MAX;  // kRecord/kWait only
  std::string label;
  double start_ms = 0;
  double end_ms = 0;
  uint64_t bytes = 0;  // copy ops only
  /// Caller-attached identity (etatrace, DESIGN.md section 14): the serve
  /// dispatcher tags each launch wave with the head request id via
  /// TagLastOp, so a per-request span tree and an etaverify finding can
  /// name the same op — and the op can name its victim request. 0 = untagged.
  uint64_t tag = 0;

  double DurationMs() const { return end_ms - start_ms; }
};

/// One entry of an op's recorded buffer access set (etaverify, DESIGN.md
/// section 12): the op reads or writes `alloc`, a device allocation handle
/// from StreamScheduler::RegisterAlloc.
struct DagAccess {
  static constexpr uint32_t kNoAlloc = UINT32_MAX;

  uint32_t alloc = kNoAlloc;
  bool write = false;
};

/// One program-order entry of the DAG verification log. kOp nodes mirror
/// enqueued stream ops (including snapshot no-op waits, which never appear
/// in Ops()); kJoin nodes mark host-side synchronization points — the
/// instants the enqueueing code observed a stream's completion before
/// proceeding (the static analog of cudaStreamSynchronize).
struct DagNode {
  enum class Type : uint8_t { kOp, kJoin };
  static constexpr uint32_t kNoStream = UINT32_MAX;
  static constexpr uint32_t kNoEvent = UINT32_MAX;

  Type type = Type::kOp;
  StreamOpKind kind = StreamOpKind::kCompute;
  /// kOp: the op's stream. kJoin: the joined stream, kNoStream = join-all.
  uint32_t stream = kNoStream;
  uint32_t event = kNoEvent;  // kRecord/kWait only
  /// kWait only: the event had been recorded when the wait was enqueued
  /// (snapshot semantics — an unbound wait orders nothing at runtime).
  bool bound = false;
  /// The op was cancelled (its stream had failed); its functor never ran,
  /// so it carries no accesses the verifier should consider.
  bool cancelled = false;
  std::string label;
  std::vector<DagAccess> accesses;
};

class StreamScheduler {
 public:
  /// `spec` supplies the PCIe cost model for byte-sized MemcpyAsync ops;
  /// `faults` supplies the dag plant (its other keys are the device's).
  explicit StreamScheduler(DeviceSpec spec = {}, const FaultConfig& faults = {})
      : spec_(spec), plant_(faults.dag) {}

  /// What a LaunchAsync work functor reports back: how long the launch ran
  /// on the simulated device and whether it aborted at a fault boundary.
  struct LaunchOutcome {
    double duration_ms = 0;
    bool failed = false;
  };

  Stream CreateStream(std::string name = "");
  Event CreateEvent();

  /// Enqueues an async copy of `bytes` in direction `dir` (kCopyH2D or
  /// kCopyD2H), costed by the spec's PCIe model. `copy`, if given, performs
  /// the functional transfer and runs at enqueue (skipped when the stream
  /// has failed). `earliest_ms` floors the start time (the enqueue instant
  /// on an external clock, e.g. the serve clock).
  StreamOpStatus MemcpyAsync(Stream s, StreamOpKind dir, uint64_t bytes, bool pageable,
                             std::string label, const std::function<void()>& copy = {},
                             double earliest_ms = 0);

  /// Enqueues a copy-engine op with an explicit duration — the serving
  /// layer's session staging, whose cost (graph load + topology prefetch)
  /// is computed by the session device itself.
  StreamOpStatus CopyAsync(Stream s, StreamOpKind dir, double duration_ms,
                           std::string label, double earliest_ms = 0,
                           uint64_t bytes = 0);

  /// Enqueues a compute op. `work(start_ms)` runs at enqueue (program
  /// order) unless the stream has already failed; it returns the op's
  /// simulated duration and whether it failed. A failed op marks the
  /// stream failed at its end time: every later op on this stream is
  /// cancelled (zero duration, work never invoked).
  StreamOpStatus LaunchAsync(Stream s, std::string label,
                             const std::function<LaunchOutcome(double start_ms)>& work,
                             double earliest_ms = 0);

  /// Device-bound convenience: runs `kernel` through device.Launch — the
  /// functional execution, counters, sanitizer observer events, and fault
  /// decisions are exactly those of a synchronous launch; only the stream
  /// schedule re-times it. The device's own clock still advances serially
  /// (program order); the stream schedule is the overlapped view.
  StreamOpStatus LaunchAsync(Stream s, Device& device, std::string label,
                             LaunchConfig config,
                             const std::function<void(WarpCtx&)>& kernel,
                             double earliest_ms = 0);

  /// cudaEventRecord: the event completes when every op enqueued on `s` so
  /// far completes. Records on a failed stream complete at the failure
  /// time with the failed flag set. Re-recording overwrites.
  void Record(Stream s, Event e);

  /// cudaStreamWaitEvent, with snapshot semantics: waiting on an event
  /// never (yet) recorded is a no-op, not a future dependency. Waiting on
  /// a failed event fails the waiting stream (its successors cancel).
  void Wait(Stream s, Event e);

  /// cudaEventQuery at simulated instant `at_ms`: true iff the event has
  /// been recorded and its completion time has been reached.
  bool Complete(Event e, double at_ms) const;
  bool Recorded(Event e) const;
  /// Completion timestamp of a recorded event (0 if never recorded).
  double EventMs(Event e) const;
  /// True when the event was recorded after a fault on its stream.
  bool EventFailed(Event e) const;

  double StreamEndMs(Stream s) const;
  bool StreamFailed(Stream s) const;
  const std::string& StreamName(Stream s) const;

  /// cudaDeviceSynchronize: the makespan over every stream.
  double SynchronizeMs() const;
  /// Busy-until time of one engine queue (kCopyH2D, kCopyD2H, kCompute).
  double EngineEndMs(StreamOpKind dir) const;

  const std::vector<StreamOp>& Ops() const { return ops_; }

  /// --- DAG verification log (etaverify, DESIGN.md section 12) ----------
  ///
  /// Off by default: every hook below reduces to one untaken branch, no
  /// allocation happens, and the schedule — timestamps, engine tails,
  /// Ops() — is bit-identical with or without the log (recording is
  /// host-side bookkeeping only, mirroring the AccessObserver contract).
  void EnableDagLog();
  bool DagLogEnabled() const { return dag_ != nullptr; }

  /// Registers a device allocation for access tracking and returns its
  /// dense handle (DagAccess::kNoAlloc when the log is disabled). Each
  /// staging epoch of a graph is its own allocation: a buffer freed and
  /// re-staged later is a *different* allocation, so accesses to distinct
  /// epochs never conflict.
  uint32_t RegisterAlloc(std::string name);

  /// Attaches `accesses` to the most recently enqueued op. Call directly
  /// after the enqueue that produced the op; kNoAlloc entries are dropped,
  /// and the call is a no-op when the log is disabled.
  void AnnotateLastOp(const std::vector<DagAccess>& accesses);

  /// Tags the most recently enqueued op with a caller identity (request
  /// id). Pure host-side bookkeeping on the already-recorded op: no
  /// simulated cost, no effect on the schedule. Call directly after the
  /// enqueue that produced the op.
  void TagLastOp(uint64_t tag);

  /// Records that the enqueueing code observed stream `s` complete before
  /// proceeding (e.g. the serve loop dispatching only once free_at was
  /// reached): everything enqueued on `s` so far happens-before everything
  /// enqueued — on any stream — after this call.
  void HostJoin(Stream s);
  /// Records a device-wide synchronize: every op enqueued so far
  /// happens-before everything enqueued after this call.
  void HostJoinAll();

  /// The recorded log, program order. Empty unless EnableDagLog() ran.
  const std::vector<DagNode>& DagNodes() const;
  /// Registered allocation names, dense in handle order.
  const std::vector<std::string>& DagAllocs() const;

  /// Engine occupancy as a Timeline (copy ops as transfer spans, compute
  /// ops as compute spans). Per-kind spans never overlap (one op per
  /// engine), so Timeline's invariants hold; OverlapMs() is the
  /// copy/compute overlap the schedule actually achieved.
  const Timeline& EngineTimeline() const { return timeline_; }
  double OverlapMs() const { return timeline_.OverlapMs(); }

 private:
  struct StreamState {
    std::string name;
    double tail_ms = 0;  // completion time of the last op enqueued
    bool failed = false;
    double failed_at_ms = 0;
  };
  struct EventState {
    bool recorded = false;
    bool failed = false;
    double ready_ms = 0;
    Stream held{};  // late-record plant: the record not yet issued
  };

  struct DagLog {
    std::vector<DagNode> nodes;
    std::vector<std::string> allocs;
  };

  StreamState& Get(Stream s);
  const StreamState& Get(Stream s) const;
  double& EngineTail(StreamOpKind dir);

  /// Appends a cancelled op at the stream's failure time.
  StreamOpStatus Cancel(StreamState& st, Stream s, StreamOpKind kind,
                        std::string label, uint32_t event = DagNode::kNoEvent);

  /// Record and Wait as specified, without the dag plant.
  void RecordNow(Stream s, Event e);
  void WaitNow(Stream s, Event e);
  /// dup-copy plant: when the last op on `s` is an H2D copy, enqueues a
  /// zero-duration duplicate of it on a fresh stream, same access set.
  void DuplicateLastCopy(Stream s);

  /// DAG-log hook: records one kOp node when the log is enabled.
  void LogOp(StreamOpKind kind, uint32_t stream, const std::string& label,
             uint32_t event = DagNode::kNoEvent, bool bound = false,
             bool cancelled = false);

  DeviceSpec spec_;
  std::vector<StreamState> streams_;
  std::vector<EventState> events_;
  std::vector<StreamOp> ops_;
  double engine_tail_[3] = {0, 0, 0};  // h2d, d2h, compute
  Timeline timeline_;
  std::unique_ptr<DagLog> dag_;
  FaultConfig::Dag plant_ = FaultConfig::Dag::kNone;
};

}  // namespace eta::sim
