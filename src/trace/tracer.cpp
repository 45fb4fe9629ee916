#include "trace/tracer.hpp"

#include "util/json.hpp"

namespace eta::trace {

std::string RenderTraceEventJson(const TraceEvent& e) {
  util::JsonWriter w;
  w.BeginObject().Key("kind").String(EventKindName(e.kind));
  w.Key("at_ms").Double(e.at_ms, 4);
  const char* status = EventStatusName(e.kind, e.status);
  if (status[0] != '\0') w.Key("status").String(status);
  if (e.shard >= 0) w.Key("shard").Int(e.shard);
  w.Key("a").Double(e.a, 4).Key("b").Double(e.b, 4).Key("c").Double(e.c, 4);
  if (e.op_id >= 0) w.Key("op").Int(e.op_id);
  return w.EndObject().Take();
}

}  // namespace eta::trace
