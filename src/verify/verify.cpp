#include "verify/verify.hpp"

#include <map>
#include <set>
#include <utility>

#include "sim/stream.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace eta::verify {

namespace {

const char* KindDescription(DagFindingKind kind) {
  switch (kind) {
    case DagFindingKind::kRaceWriteWrite: return "unordered cross-stream writes to";
    case DagFindingKind::kRaceReadWrite: return "unordered cross-stream read/write of";
    case DagFindingKind::kUseBeforeReady: return "read with no ordered staging write of";
    case DagFindingKind::kWaitUnrecorded:
      return "wait on an event never recorded before it";
    case DagFindingKind::kWaitCycle:
      return "wait satisfiable only by a record ordered after it";
    case DagFindingKind::kOrphanStream:
      return "stream tail never observed by any host join";
  }
  return "?";
}

/// Dense bitset reachability over the DAG log. Every edge points backward
/// in log order, so one forward pass closes the relation: row i holds
/// every node that happens-before node i.
class Reach {
 public:
  explicit Reach(size_t n) : words_((n + 63) / 64), bits_(n * words_, 0) {}

  /// Declares `pred` (pred < node) a direct predecessor of `node`,
  /// folding in pred's already-closed ancestry.
  void AddPred(size_t node, size_t pred) {
    uint64_t* row = &bits_[node * words_];
    const uint64_t* pred_row = &bits_[pred * words_];
    for (size_t w = 0; w < words_; ++w) row[w] |= pred_row[w];
    row[pred / 64] |= uint64_t{1} << (pred % 64);
  }

  /// a happens-before b; callers ensure a < b in log order.
  bool Before(size_t a, size_t b) const {
    return ((bits_[b * words_ + a / 64] >> (a % 64)) & 1) != 0;
  }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
};

}  // namespace

const char* DagFindingKindName(DagFindingKind kind) {
  switch (kind) {
    case DagFindingKind::kRaceWriteWrite: return "race-write-write";
    case DagFindingKind::kRaceReadWrite: return "race-read-write";
    case DagFindingKind::kUseBeforeReady: return "use-before-ready";
    case DagFindingKind::kWaitUnrecorded: return "wait-unrecorded";
    case DagFindingKind::kWaitCycle: return "wait-cycle";
    case DagFindingKind::kOrphanStream: return "orphan-stream";
  }
  return "?";
}

std::string DagFinding::Message() const {
  std::string out = std::string("ERROR [etaverify] ") + DagFindingKindName(kind) + ": " +
                    KindDescription(kind);
  if (!buffer.empty()) out += " " + buffer;
  out += " in '" + op + "' on stream " + stream + " (op " + std::to_string(op_index) + ")";
  if (peer_index != kNoNode) {
    out += " vs '" + peer_op + "' on stream " + peer_stream + " (op " +
           std::to_string(peer_index) + ")";
  }
  if (occurrences > 1) out += " (x" + std::to_string(occurrences) + ")";
  if (!note.empty()) out += " — " + note;
  return out;
}

uint64_t DagReport::Count() const {
  uint64_t n = 0;
  for (const DagFinding& f : findings) n += f.occurrences;
  return n;
}

void DagReport::Merge(const DagReport& other) {
  ops_checked += other.ops_checked;
  streams_checked += other.streams_checked;
  allocs_checked += other.allocs_checked;
  events_checked += other.events_checked;
  for (const DagFinding& f : other.findings) {
    bool merged = false;
    for (DagFinding& mine : findings) {
      if (mine.kind == f.kind && mine.stream == f.stream && mine.op == f.op &&
          mine.buffer == f.buffer) {
        mine.occurrences += f.occurrences;
        merged = true;
        break;
      }
    }
    if (!merged) findings.push_back(f);
  }
}

std::string DagReport::Render(bool verbose) const {
  if (findings.empty() && !verbose) return "";
  std::string out = "========= etaverify: " + std::to_string(Count()) + " finding(s) over " +
                    std::to_string(ops_checked) + " op(s), " +
                    std::to_string(streams_checked) + " stream(s), " +
                    std::to_string(allocs_checked) + " alloc(s), " +
                    std::to_string(events_checked) + " event(s)\n";
  for (const DagFinding& f : findings) {
    out += "=========   " + f.Message() + "\n";
  }
  return out;
}

std::string DagReport::Json() const {
  util::JsonWriter w;
  w.BeginObject().Key("findings_total").Uint(Count()).Key("ops_checked").Uint(ops_checked);
  w.Key("streams_checked").Uint(streams_checked).Key("allocs_checked").Uint(allocs_checked);
  w.Key("events_checked").Uint(events_checked).Key("findings").BeginArray();
  for (const DagFinding& f : findings) {
    w.Newline().BeginObject().Key("kind").String(DagFindingKindName(f.kind));
    w.Key("stream").String(f.stream).Key("op").String(f.op).Key("op_index").Uint(f.op_index);
    w.Key("buffer").String(f.buffer);
    if (f.peer_index != DagFinding::kNoNode) {
      w.Key("peer_stream").String(f.peer_stream).Key("peer_op").String(f.peer_op);
      w.Key("peer_index").Uint(f.peer_index);
    }
    w.Key("occurrences").Uint(f.occurrences).EndObject();
  }
  return w.EndArray().EndObject().Take();
}

DagReport VerifyDag(const sim::StreamScheduler& streams) {
  using sim::DagNode;
  DagReport rep;
  const std::vector<DagNode>& nodes = streams.DagNodes();
  const std::vector<std::string>& allocs = streams.DagAllocs();
  rep.allocs_checked = allocs.size();
  const size_t n = nodes.size();
  if (n == 0) return rep;

  // --- Close happens-before over the log's backward-pointing edges. ----
  Reach reach(n);
  std::map<uint32_t, size_t> last_op;      // stream id -> latest kOp node
  std::map<uint32_t, size_t> last_record;  // event id -> latest record node
  std::set<uint32_t> events;
  std::vector<size_t> joins;
  size_t latest_join = DagFinding::kNoNode;

  for (size_t i = 0; i < n; ++i) {
    const DagNode& node = nodes[i];
    if (node.type == DagNode::Type::kJoin) {
      if (node.stream == DagNode::kNoStream) {
        for (const auto& [stream, idx] : last_op) reach.AddPred(i, idx);
      } else if (auto it = last_op.find(node.stream); it != last_op.end()) {
        reach.AddPred(i, it->second);
      }
      if (latest_join != DagFinding::kNoNode) reach.AddPred(i, latest_join);
      latest_join = i;
      joins.push_back(i);
      continue;
    }
    ++rep.ops_checked;
    if (auto it = last_op.find(node.stream); it != last_op.end()) {
      reach.AddPred(i, it->second);
    }
    if (latest_join != DagFinding::kNoNode) reach.AddPred(i, latest_join);
    if (node.kind == sim::StreamOpKind::kWait && node.bound) {
      auto it = last_record.find(node.event);
      ETA_CHECK(it != last_record.end());  // bound: a record preceded in log order
      reach.AddPred(i, it->second);
    }
    if (node.kind == sim::StreamOpKind::kRecord) last_record[node.event] = i;
    if (node.event != DagNode::kNoEvent) events.insert(node.event);
    last_op[node.stream] = i;
  }
  rep.streams_checked = last_op.size();
  rep.events_checked = events.size();

  auto stream_name = [&](uint32_t id) {
    sim::Stream s;
    s.id = id;
    s.valid = true;
    return streams.StreamName(s);
  };
  auto add_finding = [&](DagFinding f) {
    for (DagFinding& mine : rep.findings) {
      if (mine.kind == f.kind && mine.stream == f.stream && mine.op == f.op &&
          mine.buffer == f.buffer) {
        ++mine.occurrences;
        return;
      }
    }
    rep.findings.push_back(std::move(f));
  };
  auto attribute = [&](DagFinding& f, size_t node) {
    f.stream = stream_name(nodes[node].stream);
    f.op = nodes[node].label;
    f.op_index = node;
  };
  auto attribute_peer = [&](DagFinding& f, size_t node) {
    f.peer_stream = stream_name(nodes[node].stream);
    f.peer_op = nodes[node].label;
    f.peer_index = node;
  };

  // --- Per-allocation access lists (cancelled ops never ran — their
  // functors were skipped — so they contribute no accesses). -----------
  struct Access {
    size_t node = 0;
    bool write = false;
  };
  std::vector<std::vector<Access>> by_alloc(allocs.size());
  for (size_t i = 0; i < n; ++i) {
    const DagNode& node = nodes[i];
    if (node.type != DagNode::Type::kOp || node.cancelled) continue;
    for (const sim::DagAccess& a : node.accesses) {
      ETA_CHECK(a.alloc < allocs.size());
      by_alloc[a.alloc].push_back({i, a.write});
    }
  }

  // --- (a) Races: conflicting cross-stream accesses with no ordering. --
  for (size_t al = 0; al < by_alloc.size(); ++al) {
    const std::vector<Access>& accs = by_alloc[al];
    for (size_t x = 0; x < accs.size(); ++x) {
      for (size_t y = x + 1; y < accs.size(); ++y) {
        const Access& a = accs[x];  // log order: a.node <= b.node
        const Access& b = accs[y];
        if (!a.write && !b.write) continue;
        if (a.node == b.node) continue;  // one op's own accesses
        if (nodes[a.node].stream == nodes[b.node].stream) continue;
        if (reach.Before(a.node, b.node)) continue;
        DagFinding f;
        f.kind = (a.write && b.write) ? DagFindingKind::kRaceWriteWrite
                                      : DagFindingKind::kRaceReadWrite;
        attribute(f, b.node);
        f.buffer = allocs[al];
        attribute_peer(f, a.node);
        f.note = "no happens-before path between the accesses";
        add_finding(std::move(f));
      }
    }
  }

  // --- (b) Use-before-ready: a read no staging write is ordered before. -
  for (size_t al = 0; al < by_alloc.size(); ++al) {
    const std::vector<Access>& accs = by_alloc[al];
    for (const Access& a : accs) {
      if (a.write) continue;
      bool ready = false;
      for (const Access& w : accs) {
        if (!w.write) continue;
        if (w.node == a.node ||
            (w.node < a.node && reach.Before(w.node, a.node))) {
          ready = true;
          break;
        }
      }
      if (ready) continue;
      DagFinding f;
      f.kind = DagFindingKind::kUseBeforeReady;
      attribute(f, a.node);
      f.buffer = allocs[al];
      f.note = "the consumer may observe an unstaged buffer";
      add_finding(std::move(f));
    }
  }

  // --- (c)+(d) Unbound waits: silent no-ops, or deadlocks when the only
  // satisfying record is ordered after the wait. ------------------------
  for (size_t i = 0; i < n; ++i) {
    const DagNode& node = nodes[i];
    if (node.type != DagNode::Type::kOp || node.kind != sim::StreamOpKind::kWait ||
        node.bound || node.cancelled) {
      continue;
    }
    size_t later_record = DagFinding::kNoNode;
    bool ordered_after = false;
    for (size_t j = i + 1; j < n; ++j) {
      const DagNode& r = nodes[j];
      if (r.type != DagNode::Type::kOp || r.kind != sim::StreamOpKind::kRecord ||
          r.event != node.event) {
        continue;
      }
      later_record = j;
      ordered_after = reach.Before(i, j);
      break;
    }
    DagFinding f;
    attribute(f, i);
    if (later_record != DagFinding::kNoNode && ordered_after) {
      f.kind = DagFindingKind::kWaitCycle;
      attribute_peer(f, later_record);
      f.note = "event " + std::to_string(node.event) +
               ": a blocking wait here can never be satisfied";
    } else {
      f.kind = DagFindingKind::kWaitUnrecorded;
      if (later_record != DagFinding::kNoNode) {
        attribute_peer(f, later_record);
        f.note = "event " + std::to_string(node.event) +
                 " is recorded only later — likely a swapped Record/Wait pair; "
                 "snapshot semantics make this wait a no-op";
      } else {
        f.note = "event " + std::to_string(node.event) +
                 " is never recorded; this wait is a silent no-op";
      }
    }
    add_finding(std::move(f));
  }

  // --- (c) Orphan streams: tail work no host join ever observes. -------
  for (const auto& [stream, idx] : last_op) {
    bool joined = false;
    for (size_t j : joins) {
      if (j > idx && reach.Before(idx, j)) {
        joined = true;
        break;
      }
    }
    if (joined) continue;
    DagFinding f;
    f.kind = DagFindingKind::kOrphanStream;
    attribute(f, idx);
    f.note = "the host finishes without ever observing this stream complete";
    add_finding(std::move(f));
  }

  return rep;
}

}  // namespace eta::verify
