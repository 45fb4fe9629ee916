#include "trace/alerts.hpp"

#include <algorithm>
#include <limits>

#include "util/number.hpp"

namespace eta::trace {
namespace {

/// Bad fraction over the trailing window (t - window, t], divided by the
/// error budget. Two-pointer scan: `begin` is advanced by the caller.
double BurnAt(const std::vector<AlertSample>& samples, size_t begin, size_t end_inclusive,
              double budget) {
  uint64_t n = 0, bad = 0;
  for (size_t i = begin; i <= end_inclusive; ++i) {
    ++n;
    if (!samples[i].good) ++bad;
  }
  if (n == 0) return 0;
  const double bad_fraction = static_cast<double>(bad) / static_cast<double>(n);
  return budget <= 0 ? (bad_fraction > 0 ? 1e9 : 0) : bad_fraction / budget;
}

size_t WindowBegin(const std::vector<AlertSample>& samples, size_t begin, size_t at,
                   double window_ms) {
  const double cutoff = samples[at].at_ms - window_ms;
  while (begin < at && samples[begin].at_ms <= cutoff) ++begin;
  return begin;
}

}  // namespace

AlertSeries EvaluateBurnRate(const std::string& name, const std::vector<AlertSample>& samples,
                             const AlertOptions& options) {
  AlertSeries out;
  out.name = name;
  out.samples = samples.size();
  const double budget = 1.0 - options.objective;
  bool firing = false;
  size_t fast_begin = 0, slow_begin = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].good) ++out.bad;
    fast_begin = WindowBegin(samples, fast_begin, i, options.fast_window_ms);
    slow_begin = WindowBegin(samples, slow_begin, i, options.slow_window_ms);
    const double fast = BurnAt(samples, fast_begin, i, budget);
    const double slow = BurnAt(samples, slow_begin, i, budget);
    out.max_fast_burn = std::max(out.max_fast_burn, fast);
    const bool should_fire = fast >= options.burn_threshold && slow >= options.burn_threshold;
    if (should_fire != firing) {
      firing = should_fire;
      if (firing) ++out.fired;
      out.transitions.push_back({samples[i].at_ms, firing, fast, slow});
    }
  }
  out.firing_at_end = firing;
  return out;
}

bool ParseAlertSpec(const std::string& spec, AlertOptions* options, std::string* error) {
  options->enabled = true;
  if (spec.empty()) return true;
  if (!util::ParseDoubleList(spec,
                             {&options->objective, &options->fast_window_ms,
                              &options->slow_window_ms, &options->burn_threshold},
                             util::kAboveZero, std::numeric_limits<double>::max(), error)) {
    *error += " (want objective[,fast_ms[,slow_ms[,burn]]])";
    return false;
  }
  // Every field is now positive and finite.
  if (options->objective >= 1) {
    *error = "objective must be in (0,1)";
    return false;
  }
  if (options->fast_window_ms > options->slow_window_ms) {
    *error = "windows must satisfy 0 < fast <= slow";
    return false;
  }
  return true;
}

}  // namespace eta::trace
