#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log) {
  Span span;
  span.name = std::move(name);
  span.phase = log_.phase_;
  span.parent = log_.open_.empty() ? -1 : static_cast<int64_t>(log_.open_.back());
  index_ = log_.spans_.size();
  log_.spans_.push_back(std::move(span));
  log_.open_.push_back(index_);
  log_.spans_[index_].start_s = HostSeconds();
}

SpanLog::Scope::~Scope() {
  log_.spans_[index_].end_s = HostSeconds();
  log_.open_.pop_back();
}

std::map<std::string, double> SpanLog::MedianSelfSeconds(
    const std::string& phase_prefix) const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, std::map<std::string, double>> by_phase;  // phase -> name -> s
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].phase.rfind(phase_prefix, 0) != 0) continue;
    by_phase[spans_[i].phase][spans_[i].name] += self[i];
  }
  std::map<std::string, std::vector<double>> samples;
  for (const auto& [phase, names] : by_phase) {
    for (const auto& [name, s] : names) samples[name];
  }
  for (auto& [name, values] : samples) {
    for (const auto& [phase, names] : by_phase) {
      auto it = names.find(name);
      values.push_back(it == names.end() ? 0 : it->second);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples) out[name] = Median(values);
  return out;
}

std::string SpanLog::Json() const {
  const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
  std::string out = "{\"run_id\":\"" + run_id_ + "\",\"spans\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%zu,\"parent\":%lld,\"phase\":\"%s\",\"name\":\"%s\","
                  "\"start_s\":%.9f,\"end_s\":%.9f}",
                  i == 0 ? "" : ",\n", i, static_cast<long long>(s.parent),
                  s.phase.c_str(), s.name.c_str(), s.start_s - t0, s.end_s - t0);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
