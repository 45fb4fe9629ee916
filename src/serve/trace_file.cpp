#include "serve/trace_file.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "util/number.hpp"

namespace eta::serve {
namespace {

constexpr double kMaxMs = std::numeric_limits<double>::max();
// Sources are vertex ids: kInvalidVertex is the "none" sentinel.
constexpr graph::VertexId kMaxSource = graph::kInvalidVertex - 1;

/// Parses `tok` as a T in [lo, hi] into *out; on failure returns false and
/// sets *why to "bad NAME 'TOK': <reason>".
template <typename T>
bool ParseField(const std::string& name, const std::string& tok, T lo, T hi, T* out,
                std::string* why) {
  const std::string reason = util::ParseInto(tok, lo, hi, out);
  if (!reason.empty()) *why = "bad " + name + " '" + tok + "': " + reason;
  return reason.empty();
}

/// The whitespace-separated fields of every line that has any, with its
/// 1-based line number; '#' starts a comment that runs to the line's end.
std::vector<std::pair<size_t, std::vector<std::string>>> FieldLines(std::string_view text) {
  std::vector<std::pair<size_t, std::vector<std::string>>> out;
  std::istringstream lines{std::string(text)};
  std::string line;
  for (size_t line_no = 1; std::getline(lines, line); ++line_no) {
    std::istringstream fields(line);
    std::vector<std::string> tok;
    for (std::string t; fields >> t && t[0] != '#';) tok.push_back(t);
    if (!tok.empty()) out.emplace_back(line_no, std::move(tok));
  }
  return out;
}

// The trace/replay spelling of each algo, indexed by core::Algo.
constexpr const char* kAlgoTokens[] = {"bfs", "sssp", "sswp", "cc", "pr"};

bool ParseAlgoTok(std::string tok, core::Algo* out) {
  for (char& c : tok) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const auto* it = std::find(std::begin(kAlgoTokens), std::end(kAlgoTokens), tok);
  if (it == std::end(kAlgoTokens)) return false;
  *out = static_cast<core::Algo>(it - std::begin(kAlgoTokens));
  return true;
}

std::optional<std::vector<Request>> Fail(std::string* error, size_t line_no,
                                         const std::string& what) {
  if (error != nullptr) {
    *error = "trace line " + std::to_string(line_no) + ": " + what;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::vector<Request>> ParseTraceText(std::string_view text,
                                                   std::string* error) {
  std::vector<Request> trace;
  for (const auto& [line_no, tok] : FieldLines(text)) {
    if (tok.size() < 3 || tok.size() > 5) {
      return Fail(error, line_no,
                  "expected 'arrival_ms algo source [deadline_ms] [priority]', got " +
                      std::to_string(tok.size()) + " field(s)");
    }

    Request r;
    r.id = trace.size();
    std::string why;
    if (!ParseField("arrival_ms", tok[0], 0.0, kMaxMs, &r.arrival_ms, &why)) {
      return Fail(error, line_no, why);
    }
    if (!ParseAlgoTok(tok[1], &r.algo)) {
      return Fail(error, line_no,
                  "unknown algo '" + tok[1] + "' (want bfs, sssp, sswp, cc, or pr)");
    }
    if (!ParseField("source", tok[2], graph::VertexId{0}, kMaxSource, &r.source, &why) ||
        (tok.size() >= 4 &&
         !ParseField("deadline_ms", tok[3], 0.0, kMaxMs, &r.deadline_ms, &why)) ||
        (tok.size() == 5 && !ParseField("priority", tok[4], std::numeric_limits<int32_t>::min(),
                                        std::numeric_limits<int32_t>::max(), &r.priority,
                                        &why))) {
      return Fail(error, line_no, why);
    }
    if (r.deadline_ms == 0) r.deadline_ms = kNoDeadline;  // an explicit 0 means none
    if (!trace.empty() && r.arrival_ms < trace.back().arrival_ms) {
      return Fail(error, line_no,
                  "arrival_ms goes backwards (" + tok[0] + " after " +
                      std::to_string(trace.back().arrival_ms) + ")");
    }
    trace.push_back(r);
  }
  return trace;
}

std::string RenderReplayText(const std::vector<QueryResult>& results) {
  std::string out = "# id status algo source reached batch start_ms finish_ms\n";
  char buf[160];
  for (const QueryResult& q : results) {
    std::snprintf(buf, sizeof(buf),
                  "%llu %s %s %llu %llu %u %.4f %.4f\n",
                  static_cast<unsigned long long>(q.id), QueryStatusName(q.status),
                  kAlgoTokens[static_cast<size_t>(q.algo)],
                  static_cast<unsigned long long>(q.source),
                  static_cast<unsigned long long>(q.reached_vertices), q.batch_size,
                  q.start_ms, q.finish_ms);
    out += buf;
  }
  return out;
}

std::optional<std::vector<QueryResult>> ParseReplayText(std::string_view text,
                                                        std::string* error) {
  std::vector<QueryResult> results;
  for (const auto& [line_no, tok] : FieldLines(text)) {
    auto fail = [&](const std::string& what) -> std::optional<std::vector<QueryResult>> {
      if (error != nullptr) *error = "replay line " + std::to_string(line_no) + ": " + what;
      return std::nullopt;
    };
    if (tok.size() != 8) {
      return fail("expected 8 fields 'id status algo source reached batch "
                  "start_ms finish_ms', got " +
                  std::to_string(tok.size()));
    }
    QueryResult q;
    std::string why;
    if (!ParseField("id", tok[0], uint64_t{0}, std::numeric_limits<uint64_t>::max(), &q.id,
                    &why)) {
      return fail(why);
    }
    std::optional<QueryStatus> status = ParseQueryStatus(tok[1]);
    if (!status.has_value()) return fail("unknown status '" + tok[1] + "'");
    q.status = *status;
    if (!ParseAlgoTok(tok[2], &q.algo)) return fail("unknown algo '" + tok[2] + "'");
    if (!ParseField("source", tok[3], graph::VertexId{0}, kMaxSource, &q.source, &why) ||
        !ParseField("reached", tok[4], uint64_t{0}, std::numeric_limits<uint64_t>::max(),
                    &q.reached_vertices, &why) ||
        !ParseField("batch", tok[5], 0u, std::numeric_limits<uint32_t>::max(), &q.batch_size,
                    &why) ||
        !ParseField("start_ms", tok[6], 0.0, kMaxMs, &q.start_ms, &why) ||
        !ParseField("finish_ms", tok[7], q.start_ms, kMaxMs, &q.finish_ms, &why)) {
      return fail(why);
    }
    results.push_back(q);
  }
  return results;
}

std::optional<std::vector<Request>> LoadTraceFile(const std::string& path,
                                                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open trace file '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseTraceText(text.str(), error);
}

}  // namespace eta::serve
