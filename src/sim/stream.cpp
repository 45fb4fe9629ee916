#include "sim/stream.hpp"

#include <algorithm>
#include <utility>

#include "sim/device.hpp"
#include "util/check.hpp"

namespace eta::sim {

const char* StreamOpKindName(StreamOpKind kind) {
  switch (kind) {
    case StreamOpKind::kCopyH2D: return "copy-h2d";
    case StreamOpKind::kCopyD2H: return "copy-d2h";
    case StreamOpKind::kCompute: return "compute";
    case StreamOpKind::kRecord: return "record";
    case StreamOpKind::kWait: return "wait";
  }
  return "?";
}

const char* StreamOpStatusName(StreamOpStatus status) {
  switch (status) {
    case StreamOpStatus::kDone: return "done";
    case StreamOpStatus::kFailed: return "failed";
    case StreamOpStatus::kCancelled: return "cancelled";
  }
  return "?";
}

Stream StreamScheduler::CreateStream(std::string name) {
  Stream s;
  s.id = static_cast<uint32_t>(streams_.size());
  s.valid = true;
  StreamState st;
  st.name = name.empty() ? "stream" + std::to_string(s.id) : std::move(name);
  streams_.push_back(std::move(st));
  return s;
}

Event StreamScheduler::CreateEvent() {
  Event e;
  e.id = static_cast<uint32_t>(events_.size());
  e.valid = true;
  events_.emplace_back();
  return e;
}

StreamScheduler::StreamState& StreamScheduler::Get(Stream s) {
  ETA_CHECK(s.valid && s.id < streams_.size());
  return streams_[s.id];
}

const StreamScheduler::StreamState& StreamScheduler::Get(Stream s) const {
  ETA_CHECK(s.valid && s.id < streams_.size());
  return streams_[s.id];
}

double& StreamScheduler::EngineTail(StreamOpKind dir) {
  switch (dir) {
    case StreamOpKind::kCopyH2D: return engine_tail_[0];
    case StreamOpKind::kCopyD2H: return engine_tail_[1];
    default: return engine_tail_[2];
  }
}

void StreamScheduler::EnableDagLog() {
  if (dag_ == nullptr) dag_ = std::make_unique<DagLog>();
}

uint32_t StreamScheduler::RegisterAlloc(std::string name) {
  if (dag_ == nullptr) return DagAccess::kNoAlloc;
  dag_->allocs.push_back(std::move(name));
  return static_cast<uint32_t>(dag_->allocs.size() - 1);
}

void StreamScheduler::AnnotateLastOp(const std::vector<DagAccess>& accesses) {
  if (dag_ == nullptr) return;
  ETA_CHECK(!dag_->nodes.empty() && dag_->nodes.back().type == DagNode::Type::kOp);
  for (const DagAccess& a : accesses) {
    if (a.alloc == DagAccess::kNoAlloc) continue;
    ETA_CHECK(a.alloc < dag_->allocs.size());
    dag_->nodes.back().accesses.push_back(a);
  }
}

void StreamScheduler::TagLastOp(uint64_t tag) {
  ETA_CHECK(!ops_.empty());
  ops_.back().tag = tag;
}

void StreamScheduler::HostJoin(Stream s) {
  if (dag_ == nullptr) return;
  ETA_CHECK(s.valid && s.id < streams_.size());
  DagNode node;
  node.type = DagNode::Type::kJoin;
  node.stream = s.id;
  dag_->nodes.push_back(std::move(node));
}

void StreamScheduler::HostJoinAll() {
  if (dag_ == nullptr) return;
  DagNode node;
  node.type = DagNode::Type::kJoin;
  node.stream = DagNode::kNoStream;
  dag_->nodes.push_back(std::move(node));
}

const std::vector<DagNode>& StreamScheduler::DagNodes() const {
  static const std::vector<DagNode> kEmpty;
  return dag_ != nullptr ? dag_->nodes : kEmpty;
}

const std::vector<std::string>& StreamScheduler::DagAllocs() const {
  static const std::vector<std::string> kEmpty;
  return dag_ != nullptr ? dag_->allocs : kEmpty;
}

void StreamScheduler::LogOp(StreamOpKind kind, uint32_t stream,
                            const std::string& label, uint32_t event, bool bound,
                            bool cancelled) {
  if (dag_ == nullptr) return;
  DagNode node;
  node.kind = kind;
  node.stream = stream;
  node.event = event;
  node.bound = bound;
  node.cancelled = cancelled;
  node.label = label;
  dag_->nodes.push_back(std::move(node));
}

StreamOpStatus StreamScheduler::Cancel(StreamState& st, Stream s, StreamOpKind kind,
                                       std::string label, uint32_t event) {
  LogOp(kind, s.id, label, event, /*bound=*/false, /*cancelled=*/true);
  StreamOp op;
  op.kind = kind;
  op.status = StreamOpStatus::kCancelled;
  op.stream = s.id;
  op.label = std::move(label);
  op.start_ms = st.failed_at_ms;
  op.end_ms = st.failed_at_ms;
  ops_.push_back(std::move(op));
  return StreamOpStatus::kCancelled;
}

StreamOpStatus StreamScheduler::MemcpyAsync(Stream s, StreamOpKind dir, uint64_t bytes,
                                            bool pageable, std::string label,
                                            const std::function<void()>& copy,
                                            double earliest_ms) {
  ETA_CHECK(dir == StreamOpKind::kCopyH2D || dir == StreamOpKind::kCopyD2H);
  const double duration =
      spec_.memcpy_latency_us / 1000.0 + spec_.PcieMsForBytes(bytes, pageable);
  StreamState& st = Get(s);
  if (st.failed) return Cancel(st, s, dir, std::move(label));
  if (copy) copy();
  return CopyAsync(s, dir, duration, std::move(label), earliest_ms, bytes);
}

StreamOpStatus StreamScheduler::CopyAsync(Stream s, StreamOpKind dir, double duration_ms,
                                          std::string label, double earliest_ms,
                                          uint64_t bytes) {
  ETA_CHECK(dir == StreamOpKind::kCopyH2D || dir == StreamOpKind::kCopyD2H);
  ETA_CHECK(duration_ms >= 0);
  StreamState& st = Get(s);
  if (st.failed) return Cancel(st, s, dir, std::move(label));
  LogOp(dir, s.id, label);
  double& engine = EngineTail(dir);
  StreamOp op;
  op.kind = dir;
  op.stream = s.id;
  op.bytes = bytes;
  op.start_ms = std::max({earliest_ms, st.tail_ms, engine});
  op.end_ms = op.start_ms + duration_ms;
  op.label = std::move(label);
  st.tail_ms = op.end_ms;
  engine = op.end_ms;
  timeline_.Add(dir == StreamOpKind::kCopyH2D ? SpanKind::kTransferH2D
                                              : SpanKind::kTransferD2H,
                op.start_ms, op.end_ms, op.label);
  ops_.push_back(std::move(op));
  return StreamOpStatus::kDone;
}

StreamOpStatus StreamScheduler::LaunchAsync(
    Stream s, std::string label,
    const std::function<LaunchOutcome(double start_ms)>& work, double earliest_ms) {
  StreamState& st = Get(s);
  if (st.failed) return Cancel(st, s, StreamOpKind::kCompute, std::move(label));
  LogOp(StreamOpKind::kCompute, s.id, label);
  double& engine = EngineTail(StreamOpKind::kCompute);
  const double start = std::max({earliest_ms, st.tail_ms, engine});
  // Functional execution happens now, in program order; `start` tells the
  // work where its span sits on the overlapped schedule.
  const LaunchOutcome outcome = work(start);
  ETA_CHECK(outcome.duration_ms >= 0);
  StreamOp op;
  op.kind = StreamOpKind::kCompute;
  op.status = outcome.failed ? StreamOpStatus::kFailed : StreamOpStatus::kDone;
  op.stream = s.id;
  op.start_ms = start;
  op.end_ms = start + outcome.duration_ms;
  op.label = std::move(label);
  st.tail_ms = op.end_ms;
  engine = op.end_ms;
  if (outcome.failed) {
    st.failed = true;
    st.failed_at_ms = op.end_ms;
  }
  timeline_.Add(SpanKind::kCompute, op.start_ms, op.end_ms, op.label);
  const StreamOpStatus status = op.status;
  ops_.push_back(std::move(op));
  return status;
}

StreamOpStatus StreamScheduler::LaunchAsync(Stream s, Device& device, std::string label,
                                            LaunchConfig config,
                                            const std::function<void(WarpCtx&)>& kernel,
                                            double earliest_ms) {
  const std::string kernel_label = label;
  return LaunchAsync(
      s, std::move(label),
      [&](double) -> LaunchOutcome {
        const LaunchResult r = device.Launch(kernel_label, config, kernel);
        return {r.end_ms - r.start_ms, !r.Ok()};
      },
      earliest_ms);
}

void StreamScheduler::Record(Stream s, Event e) {
  if (plant_ == FaultConfig::Dag::kLateRecord) {
    ETA_CHECK(s.valid && s.id < streams_.size() && e.valid && e.id < events_.size());
    events_[e.id].held = s;  // issued by the first Wait on e
    return;
  }
  RecordNow(s, e);
  if (plant_ == FaultConfig::Dag::kDupCopy) DuplicateLastCopy(s);
}

void StreamScheduler::Wait(Stream s, Event e) {
  if (plant_ == FaultConfig::Dag::kDropWait) return;
  WaitNow(s, e);
  const Stream held = std::exchange(events_[e.id].held, Stream{});
  if (held.valid) RecordNow(held, e);
}

void StreamScheduler::DuplicateLastCopy(Stream s) {
  // The record just issued is last in ops_ and in the log; the op before it
  // on `s` is the one it closes.
  const auto op = std::find_if(ops_.rbegin() + 1, ops_.rend(),
                               [&](const StreamOp& o) { return o.stream == s.id; });
  if (op == ops_.rend() || op->kind != StreamOpKind::kCopyH2D) return;
  std::vector<DagAccess> accesses;
  if (dag_ != nullptr) {
    const auto node =
        std::find_if(dag_->nodes.rbegin() + 1, dag_->nodes.rend(), [&](const DagNode& n) {
          return n.type == DagNode::Type::kOp && n.stream == s.id;
        });
    if (node != dag_->nodes.rend()) accesses = node->accesses;
  }
  // Read before the enqueue below appends to ops_.
  const std::string label = op->label + "-dup";
  const double start_ms = op->start_ms;
  CopyAsync(CreateStream(StreamName(s) + "-dup"), StreamOpKind::kCopyH2D, 0.0, label, start_ms);
  AnnotateLastOp(accesses);
}

void StreamScheduler::RecordNow(Stream s, Event e) {
  StreamState& st = Get(s);
  ETA_CHECK(e.valid && e.id < events_.size());
  LogOp(StreamOpKind::kRecord, s.id, "record", e.id);
  EventState& ev = events_[e.id];
  ev.recorded = true;
  ev.failed = st.failed;
  ev.ready_ms = st.failed ? st.failed_at_ms : st.tail_ms;
  StreamOp op;
  op.kind = StreamOpKind::kRecord;
  op.status = st.failed ? StreamOpStatus::kFailed : StreamOpStatus::kDone;
  op.stream = s.id;
  op.event = e.id;
  op.start_ms = ev.ready_ms;
  op.end_ms = ev.ready_ms;
  op.label = "record";
  ops_.push_back(std::move(op));
}

void StreamScheduler::WaitNow(Stream s, Event e) {
  StreamState& st = Get(s);
  ETA_CHECK(e.valid && e.id < events_.size());
  const EventState& ev = events_[e.id];
  // Snapshot semantics: a wait enqueued before the record binds to nothing.
  // The DAG log still sees it (bound=false) — an unbound wait is exactly
  // the ordering bug etaverify exists to catch.
  if (!ev.recorded) {
    LogOp(StreamOpKind::kWait, s.id, "wait", e.id, /*bound=*/false);
    return;
  }
  if (st.failed) {
    Cancel(st, s, StreamOpKind::kWait, "wait", e.id);
    return;
  }
  LogOp(StreamOpKind::kWait, s.id, "wait", e.id, /*bound=*/true);
  StreamOp op;
  op.kind = StreamOpKind::kWait;
  op.stream = s.id;
  op.event = e.id;
  st.tail_ms = std::max(st.tail_ms, ev.ready_ms);
  op.start_ms = st.tail_ms;
  op.end_ms = st.tail_ms;
  op.label = "wait";
  if (ev.failed) {
    // The dependency failed: this stream's successors cancel; streams with
    // no wait on the event are unaffected.
    op.status = StreamOpStatus::kFailed;
    st.failed = true;
    st.failed_at_ms = st.tail_ms;
  }
  ops_.push_back(std::move(op));
}

bool StreamScheduler::Recorded(Event e) const {
  ETA_CHECK(e.valid && e.id < events_.size());
  return events_[e.id].recorded;
}

bool StreamScheduler::Complete(Event e, double at_ms) const {
  ETA_CHECK(e.valid && e.id < events_.size());
  const EventState& ev = events_[e.id];
  return ev.recorded && ev.ready_ms <= at_ms;
}

double StreamScheduler::EventMs(Event e) const {
  ETA_CHECK(e.valid && e.id < events_.size());
  return events_[e.id].ready_ms;
}

bool StreamScheduler::EventFailed(Event e) const {
  ETA_CHECK(e.valid && e.id < events_.size());
  return events_[e.id].failed;
}

double StreamScheduler::StreamEndMs(Stream s) const { return Get(s).tail_ms; }

bool StreamScheduler::StreamFailed(Stream s) const { return Get(s).failed; }

const std::string& StreamScheduler::StreamName(Stream s) const { return Get(s).name; }

double StreamScheduler::SynchronizeMs() const {
  double makespan = 0;
  for (const StreamState& st : streams_) makespan = std::max(makespan, st.tail_ms);
  return makespan;
}

double StreamScheduler::EngineEndMs(StreamOpKind dir) const {
  switch (dir) {
    case StreamOpKind::kCopyH2D: return engine_tail_[0];
    case StreamOpKind::kCopyD2H: return engine_tail_[1];
    default: return engine_tail_[2];
  }
}

}  // namespace eta::sim
