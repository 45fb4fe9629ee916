#include "sim/fault.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "util/number.hpp"

namespace eta::sim {

namespace {

// Stream tags; stable so fault schedules survive refactors.
constexpr uint64_t kLaunchStream = 0xfa017;
constexpr uint64_t kAllocStream = 0xfa02a;
constexpr uint64_t kVictimStream = 0xfa03b;

// dag plant values, in FaultConfig::Dag order after kNone.
constexpr std::string_view kDagValues[] = {"drop-wait", "late-record", "dup-copy"};

// Words a UECC event flips; the flip loop runs once per word, so the bound
// keeps one event cheap (a real double-bit error touches a handful).
constexpr uint32_t kMaxCorruptWords = 1u << 20;

}  // namespace

const char* LaunchStatusName(LaunchStatus status) {
  switch (status) {
    case LaunchStatus::kOk: return "ok";
    case LaunchStatus::kEccUncorrectable: return "ecc-uncorrectable";
    case LaunchStatus::kKernelTimeout: return "kernel-timeout";
    case LaunchStatus::kDeviceLost: return "device-lost";
  }
  return "?";
}

std::optional<FaultConfig> FaultConfig::Parse(std::string_view spec, std::string* error) {
  // Rates are probabilities; the seed and the one-shots take any uint64.
  static constexpr std::pair<std::string_view, double FaultConfig::*> kRates[] = {
      {"ecc", &FaultConfig::ecc_correctable_rate},
      {"uecc", &FaultConfig::ecc_uncorrectable_rate},
      {"hang", &FaultConfig::hang_rate},
      {"lost", &FaultConfig::device_loss_rate},
      {"alloc", &FaultConfig::alloc_fail_rate},
  };
  static constexpr std::pair<std::string_view, uint64_t FaultConfig::*> kCounts[] = {
      {"seed", &FaultConfig::seed},
      {"ecc_at", &FaultConfig::ecc_at},
      {"uecc_at", &FaultConfig::uecc_at},
      {"hang_at", &FaultConfig::hang_at},
      {"lost_at", &FaultConfig::lost_at},
      {"alloc_at", &FaultConfig::alloc_fail_at},
  };
  FaultConfig config;
  for (std::string_view item : util::Split(spec, ',')) {
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) *error = "expected key=value, got '" + std::string(item) + "'";
      return std::nullopt;
    }
    std::string_view key = item.substr(0, eq);
    std::string_view val = item.substr(eq + 1);
    std::optional<std::string> why;  // unset: unknown key; empty: parsed
    for (const auto& [name, field] : kRates) {
      if (key == name) why = util::ParseInto(val, 0.0, 1.0, &(config.*field));
    }
    for (const auto& [name, field] : kCounts) {
      if (key == name) {
        why = util::ParseInto(val, uint64_t{0}, std::numeric_limits<uint64_t>::max(),
                              &(config.*field));
      }
    }
    if (key == "rmw" || key == "short") {
      (key == "rmw" ? config.rmw_buffer : config.short_buffer) = val;
      why = val.empty() ? "needs a buffer name" : "";
    } else if (key == "dag") {
      const auto* it = std::find(std::begin(kDagValues), std::end(kDagValues), val);
      config.dag = static_cast<Dag>(it - std::begin(kDagValues) + 1);
      why = it != std::end(kDagValues)
                ? ""
                : "must be drop-wait, late-record or dup-copy (got '" + std::string(val) + "')";
    } else if (key == "watchdog") {
      why = util::ParseInto(val, util::kAboveZero, std::numeric_limits<double>::max(),
                            &config.watchdog_ms);
    } else if (key == "words") {
      why = util::ParseInto(val, 1u, kMaxCorruptWords, &config.corrupt_words);
    }
    if (why && why->empty()) continue;
    if (error != nullptr) {
      *error = why ? "--faults key '" + std::string(key) + "' " + *why
                   : "unknown --faults key '" + std::string(key) + "'";
    }
    return std::nullopt;
  }
  return config;
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config),
      launch_rng_(util::SplitMix64::Stream(config.seed, kLaunchStream)),
      alloc_rng_(util::SplitMix64::Stream(config.seed, kAllocStream)),
      victim_rng_(util::SplitMix64::Stream(config.seed, kVictimStream)) {}

LaunchFault FaultInjector::NextLaunch() {
  ++launches_;
  LaunchFault fault;
  // One draw per class per launch, always consumed, so the schedule of one
  // class never shifts when another class's rate changes.
  double d_ecc = launch_rng_.NextDouble();
  double d_uecc = launch_rng_.NextDouble();
  double d_hang = launch_rng_.NextDouble();
  double d_lost = launch_rng_.NextDouble();
  uint64_t v1 = victim_rng_.Next();
  uint64_t v2 = victim_rng_.Next();

  if (config_.ecc_at == launches_ || d_ecc < config_.ecc_correctable_rate) {
    fault.ecc_corrected = 1;
  }
  // Severity order: losing the device trumps a hang trumps a UECC abort.
  if (config_.lost_at == launches_ || d_lost < config_.device_loss_rate) {
    fault.status = LaunchStatus::kDeviceLost;
  } else if (config_.hang_at == launches_ || d_hang < config_.hang_rate) {
    fault.status = LaunchStatus::kKernelTimeout;
  } else if (config_.uecc_at == launches_ || d_uecc < config_.ecc_uncorrectable_rate) {
    fault.status = LaunchStatus::kEccUncorrectable;
    fault.victim_entropy = v1;
    fault.offset_entropy = v2;
  }
  return fault;
}

bool FaultInjector::NextAllocFails() {
  ++allocs_;
  double d = alloc_rng_.NextDouble();
  return config_.alloc_fail_at == allocs_ || d < config_.alloc_fail_rate;
}

}  // namespace eta::sim
