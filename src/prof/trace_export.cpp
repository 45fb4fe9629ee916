#include "prof/trace_export.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace eta::prof {

namespace {

const char* TimelineThread(sim::SpanKind kind) {
  switch (kind) {
    case sim::SpanKind::kCompute: return "compute";
    case sim::SpanKind::kTransferH2D: return "copy-h2d";
    case sim::SpanKind::kTransferD2H: return "copy-d2h";
    case sim::SpanKind::kStall: return "stall";
  }
  return "?";
}

}  // namespace

void AppendTimelineSpans(const sim::Timeline& timeline, std::string_view process,
                         double offset_ms, std::vector<TraceSpan>* out) {
  AppendTimelineSpans(std::span<const sim::Span>(timeline.Spans()), process, offset_ms,
                      out);
}

void AppendTimelineSpans(std::span<const sim::Span> spans, std::string_view process,
                         double offset_ms, std::vector<TraceSpan>* out) {
  for (const sim::Span& span : spans) {
    TraceSpan t;
    t.track = std::string(process) + "/" + TimelineThread(span.kind);
    t.name = span.label;
    t.start_ms = span.start_ms + offset_ms;
    t.end_ms = span.end_ms + offset_ms;
    out->push_back(std::move(t));
  }
}

void AppendKernelSpans(std::span<const sim::KernelProfile> profiles,
                       std::string_view process, double offset_ms,
                       std::vector<TraceSpan>* out) {
  for (const sim::KernelProfile& p : profiles) {
    TraceSpan t;
    t.track = std::string(process) + "/kernels";
    t.name = p.name;
    t.start_ms = p.start_ms + offset_ms;
    t.end_ms = p.end_ms + offset_ms;
    t.args.push_back({"launch", std::to_string(p.launch_index), /*number=*/true});
    t.args.push_back({"grid_threads", std::to_string(p.grid_threads), true});
    t.args.push_back({"block_size", std::to_string(p.block_size), true});
    if (p.Ok()) {
      t.args.push_back(
          {"cycles", util::JsonWriter().Double(p.counters.elapsed_cycles, 3).Take(), true});
      t.args.push_back(
          {"warp_instructions", std::to_string(p.counters.warp_instructions), true});
    } else {
      t.args.push_back({"status", sim::LaunchStatusName(p.status), false});
      if (!p.fault_buffer.empty()) t.args.push_back({"fault_buffer", p.fault_buffer, false});
    }
    if (p.ecc_corrected > 0) {
      t.args.push_back({"ecc_corrected", std::to_string(p.ecc_corrected), true});
    }
    out->push_back(std::move(t));
  }
}

std::string RenderChromeTrace(
    const std::vector<TraceSpan>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  // pid per process, tid per track, both in first-appearance order so the
  // document is a pure function of the span list.
  std::vector<std::string> processes;
  std::vector<std::pair<std::string, std::string>> tracks;  // track -> process
  auto pid_of = [&](const std::string& process) {
    for (size_t i = 0; i < processes.size(); ++i) {
      if (processes[i] == process) return static_cast<int>(i + 1);
    }
    processes.push_back(process);
    return static_cast<int>(processes.size());
  };
  auto tid_of = [&](const std::string& track, std::string* process) {
    *process = track.substr(0, track.find('/'));
    std::string thread =
        track.find('/') == std::string::npos ? "main" : track.substr(track.find('/') + 1);
    for (size_t i = 0; i < tracks.size(); ++i) {
      if (tracks[i].first == track) return static_cast<int>(i + 1);
    }
    tracks.emplace_back(track, thread);
    return static_cast<int>(tracks.size());
  };

  struct Event {
    int pid = 0;
    int tid = 0;
    const TraceSpan* span = nullptr;
  };
  std::vector<Event> events;
  events.reserve(spans.size());
  for (const TraceSpan& span : spans) {
    std::string process;
    Event e;
    e.tid = tid_of(span.track, &process);
    e.pid = pid_of(process);
    e.span = &span;
    events.push_back(e);
  }

  util::JsonWriter w;
  w.BeginObject().Key("displayTimeUnit").String("ms");
  if (!metadata.empty()) {
    w.Key("otherData").BeginObject();
    for (const auto& [key, value] : metadata) w.Key(key).String(value);
    w.EndObject();
  }
  w.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < processes.size(); ++i) {
    w.BeginObject().Key("ph").String("M").Key("pid").Uint(i + 1).Key("tid").Uint(0);
    w.Key("name").String("process_name");
    w.Key("args").BeginObject().Key("name").String(processes[i]).EndObject().EndObject();
  }
  for (size_t i = 0; i < tracks.size(); ++i) {
    const std::string& track = tracks[i].first;
    int pid = 0;
    // Recompute the owning pid (already interned above).
    std::string proc = track.substr(0, track.find('/'));
    for (size_t j = 0; j < processes.size(); ++j) {
      if (processes[j] == proc) pid = static_cast<int>(j + 1);
    }
    w.BeginObject().Key("ph").String("M").Key("pid").Int(pid).Key("tid").Uint(i + 1);
    w.Key("name").String("thread_name");
    w.Key("args").BeginObject().Key("name").String(tracks[i].second).EndObject().EndObject();
  }
  for (const Event& e : events) {
    w.BeginObject().Key("ph").String("X").Key("pid").Int(e.pid).Key("tid").Int(e.tid);
    w.Key("name").String(e.span->name).Key("ts").Double(e.span->start_ms * 1000.0, 3);
    w.Key("dur").Double((e.span->end_ms - e.span->start_ms) * 1000.0, 3);
    if (!e.span->args.empty()) {
      w.Key("args").BeginObject();
      for (const TraceArg& arg : e.span->args) {
        w.Key(arg.key);
        if (arg.number) {
          w.Raw(arg.value);
        } else {
          w.String(arg.value);
        }
      }
      w.EndObject();
    }
    w.EndObject();
  }
  return w.EndArray().EndObject().Newline().Take();
}

}  // namespace eta::prof
