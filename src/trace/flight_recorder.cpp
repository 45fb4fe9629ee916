#include "trace/flight_recorder.hpp"

#include <cstdarg>
#include <cstdio>

namespace eta::trace {

namespace {

/// Appends one printf-formatted line to `out`, however long it renders.
[[gnu::format(printf, 2, 3)]] void AppendLine(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  const int len = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (len < 0) {
    va_end(again);
    return;
  }
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(len) + 1);  // + the terminator vsnprintf writes
  std::vsnprintf(out->data() + at, static_cast<size_t>(len) + 1, format, again);
  va_end(again);
  out->resize(at + static_cast<size_t>(len));
}

}  // namespace

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    // Not yet wrapped: insertion order is oldest-to-newest.
    out = ring_;
  } else {
    // Wrapped: next_ points at the oldest slot.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::string FlightRecorder::Dump(const std::string& reason, double at_ms,
                                 uint64_t victim_request) const {
  std::string out;
  AppendLine(&out,
             "# flight-recorder dump: reason=%s at=%.4fms victim=%llu "
             "events=%zu recorded=%llu\n",
             reason.c_str(), at_ms, static_cast<unsigned long long>(victim_request),
             ring_.size(), static_cast<unsigned long long>(total_));
  for (const TraceEvent& e : Snapshot()) {
    const char* status = EventStatusName(e.kind, e.status);
    AppendLine(&out, "%12.4f req=%-8llu %-15s shard=%-3d a=%.4f b=%.4f c=%.4f op=%lld%s%s\n",
               e.at_ms, static_cast<unsigned long long>(e.request_id),
               EventKindName(e.kind), static_cast<int>(e.shard), e.a, e.b, e.c,
               static_cast<long long>(e.op_id), status[0] != '\0' ? " " : "", status);
  }
  return out;
}

}  // namespace eta::trace
