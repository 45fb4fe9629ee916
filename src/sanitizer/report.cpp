#include "sanitizer/report.hpp"

#include "util/json.hpp"

namespace eta::sanitizer {

const char* CheckerName(Checker checker) {
  switch (checker) {
    case Checker::kMemcheck: return "memcheck";
    case Checker::kRacecheck: return "racecheck";
    case Checker::kSynccheck: return "synccheck";
    case Checker::kLeakcheck: return "leakcheck";
  }
  return "?";
}

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kOobRead: return "oob-read";
    case FindingKind::kOobWrite: return "oob-write";
    case FindingKind::kUninitRead: return "uninit-read";
    case FindingKind::kUseAfterFree: return "use-after-free";
    case FindingKind::kRaceWriteWrite: return "race-write-write";
    case FindingKind::kRaceReadWrite: return "race-read-write";
    case FindingKind::kRaceAtomicWrite: return "race-atomic-write";
    case FindingKind::kRaceWriteAtomic: return "race-write-atomic";
    case FindingKind::kRaceWriteRead: return "race-write-read";
    case FindingKind::kBarrierDivergence: return "barrier-divergence";
    case FindingKind::kBarrierMismatch: return "barrier-mismatch";
    case FindingKind::kLeakedBuffer: return "leaked-buffer";
  }
  return "?";
}

const char* SeverityName(Severity severity) {
  return severity == Severity::kError ? "ERROR" : "WARNING";
}

Checker FindingChecker(FindingKind kind) {
  switch (kind) {
    case FindingKind::kOobRead:
    case FindingKind::kOobWrite:
    case FindingKind::kUninitRead:
    case FindingKind::kUseAfterFree:
      return Checker::kMemcheck;
    case FindingKind::kRaceWriteWrite:
    case FindingKind::kRaceReadWrite:
    case FindingKind::kRaceAtomicWrite:
    case FindingKind::kRaceWriteAtomic:
    case FindingKind::kRaceWriteRead:
      return Checker::kRacecheck;
    case FindingKind::kBarrierDivergence:
    case FindingKind::kBarrierMismatch:
      return Checker::kSynccheck;
    case FindingKind::kLeakedBuffer:
      return Checker::kLeakcheck;
  }
  return Checker::kMemcheck;
}

Severity FindingSeverity(FindingKind kind) {
  return kind == FindingKind::kRaceWriteRead ? Severity::kWarning : Severity::kError;
}

namespace {

const char* KindDescription(FindingKind kind) {
  switch (kind) {
    case FindingKind::kOobRead: return "read past the end of";
    case FindingKind::kOobWrite: return "write past the end of";
    case FindingKind::kUninitRead: return "read of uninitialized element in";
    case FindingKind::kUseAfterFree: return "access to freed buffer";
    case FindingKind::kRaceWriteWrite:
      return "plain store over another thread's plain store to";
    case FindingKind::kRaceReadWrite:
      return "plain store over a value another thread read from";
    case FindingKind::kRaceAtomicWrite:
      return "plain store over another thread's atomic to";
    case FindingKind::kRaceWriteAtomic:
      return "atomic over another thread's plain store to";
    case FindingKind::kRaceWriteRead:
      return "read of another thread's unsynchronized store to";
    case FindingKind::kBarrierDivergence: return "divergent barrier in";
    case FindingKind::kBarrierMismatch: return "barrier count mismatch in";
    case FindingKind::kLeakedBuffer: return "buffer still allocated at teardown:";
  }
  return "?";
}

}  // namespace

std::string Finding::Message() const {
  std::string out = std::string(SeverityName(SeverityLevel())) + " [" +
                    CheckerName(FindingChecker(kind)) + "] " + FindingKindName(kind) + ": " +
                    KindDescription(kind);
  if (kind == FindingKind::kLeakedBuffer) {
    out += " " + buffer;
  } else if (!buffer.empty()) {
    out += " " + buffer + "[" + std::to_string(elem_index) + "]";
  } else if (kind == FindingKind::kBarrierMismatch) {
    out += " block " + std::to_string(elem_index);
  }
  if (kind != FindingKind::kLeakedBuffer) {
    if (!kernel.empty()) out += " in '" + kernel + "'";
    out += " by warp " + std::to_string(warp) + " lane " + std::to_string(lane);
    if (other_thread != kNoThread) out += " (peer thread " + std::to_string(other_thread) + ")";
    out += " at step " + std::to_string(step);
  }
  if (occurrences > 1) out += " (x" + std::to_string(occurrences) + ")";
  if (!note.empty()) out += " — " + note;
  return out;
}

uint64_t SanitizerReport::ErrorCount() const {
  uint64_t n = 0;
  for (const Finding& f : findings) {
    if (f.SeverityLevel() == Severity::kError) n += f.occurrences;
  }
  return n;
}

uint64_t SanitizerReport::WarningCount() const {
  uint64_t n = 0;
  for (const Finding& f : findings) {
    if (f.SeverityLevel() == Severity::kWarning) n += f.occurrences;
  }
  return n;
}

void SanitizerReport::Merge(const SanitizerReport& other) {
  launches_checked += other.launches_checked;
  accesses_checked += other.accesses_checked;
  for (const Finding& f : other.findings) {
    bool merged = false;
    for (Finding& mine : findings) {
      if (mine.kind == f.kind && mine.kernel == f.kernel && mine.buffer == f.buffer) {
        mine.occurrences += f.occurrences;
        merged = true;
        break;
      }
    }
    if (!merged) findings.push_back(f);
  }
}

std::string SanitizerReport::Render(bool verbose) const {
  if (findings.empty() && !verbose) return "";
  std::string out = "========= etacheck: " + std::to_string(ErrorCount()) + " error(s), " +
                    std::to_string(WarningCount()) + " warning(s) over " +
                    std::to_string(launches_checked) + " launch(es), " +
                    std::to_string(accesses_checked) + " access(es)\n";
  for (const Finding& f : findings) {
    out += "=========   " + f.Message() + "\n";
  }
  return out;
}

std::string SanitizerReport::Json() const {
  util::JsonWriter w;
  w.BeginObject().Key("errors").Uint(ErrorCount()).Key("warnings").Uint(WarningCount());
  w.Key("launches_checked").Uint(launches_checked);
  w.Key("accesses_checked").Uint(accesses_checked).Key("findings").BeginArray();
  for (const Finding& f : findings) {
    w.Newline().BeginObject().Key("checker").String(CheckerName(FindingChecker(f.kind)));
    w.Key("kind").String(FindingKindName(f.kind));
    w.Key("severity").String(SeverityName(f.SeverityLevel()));
    w.Key("kernel").String(f.kernel).Key("buffer").String(f.buffer);
    w.Key("elem_index").Uint(f.elem_index).Key("warp").Uint(f.warp).Key("lane").Uint(f.lane);
    if (f.other_thread != Finding::kNoThread) w.Key("other_thread").Uint(f.other_thread);
    w.Key("step").Uint(f.step).Key("occurrences").Uint(f.occurrences).EndObject();
  }
  return w.EndArray().EndObject().Take();
}

}  // namespace eta::sanitizer
