// Fleet-wide retry budget (DESIGN.md section 13): a deterministic token
// bucket on the simulated clock that caps how much *extra* work fault
// recovery may inject per simulated second. Without it, a sticky-fault storm
// multiplies offered load exactly when capacity drops — every queued query
// on a corrupted shard pays max_retries re-stage attempts. With it, each
// fault retry and each session rebuild first draws a token; a denied draw
// terminates recovery for that query (the serving layer answers it via the
// CPU fallback instead of hammering the device).
//
// Lives in core (not serve) because ResidentGraph's attempt loop is the
// innermost consumer; the serving engine creates one bucket per fleet and
// shares it into every shard's EtaGraphOptions. Refills are driven
// explicitly via Advance(now_ms) from whoever owns the clock — the bucket
// itself never reads time, so double runs replay bit-identically.
#pragma once

#include <algorithm>
#include <cstdint>

namespace eta::core {

class RetryBudget {
 public:
  struct Config {
    /// Token refill rate per simulated second. <= 0 means the budget is
    /// disabled: every draw is granted and nothing is counted.
    double tokens_per_s = 0;
    /// Bucket depth (burst allowance); also the initial fill.
    double burst = 8.0;
  };

  struct Stats {
    uint64_t retries_granted = 0;
    uint64_t retries_denied = 0;
    uint64_t rebuilds_granted = 0;
    uint64_t rebuilds_denied = 0;
    uint64_t Granted() const { return retries_granted + rebuilds_granted; }
    uint64_t Denied() const { return retries_denied + rebuilds_denied; }
  };

  explicit RetryBudget(Config config)
      : config_(config), tokens_(std::max(0.0, config.burst)) {}

  bool Enabled() const { return config_.tokens_per_s > 0; }
  const Config& config() const { return config_; }

  /// Refill up to `now_ms` on the simulated clock. Monotone: an older
  /// timestamp is a no-op, so interleaved callers cannot double-refill.
  void Advance(double now_ms) {
    if (!Enabled()) return;
    if (now_ms <= last_refill_ms_) return;
    tokens_ = std::min(config_.burst,
                       tokens_ + (now_ms - last_refill_ms_) * config_.tokens_per_s / 1000.0);
    last_refill_ms_ = now_ms;
  }

  /// Draw one token for a fault retry. Returns false — and counts the
  /// denial — when the bucket is dry. (The re-stage after an uncorrectable
  /// ECC error runs whether or not the retry is granted.)
  bool TryAcquireRetry() { return TryAcquire(&stats_.retries_granted, &stats_.retries_denied); }

  /// Draw one token for a session rebuild (teardown + full re-stage).
  bool TryAcquireRebuild() {
    return TryAcquire(&stats_.rebuilds_granted, &stats_.rebuilds_denied);
  }

  double TokensAvailable() const { return tokens_; }
  const Stats& stats() const { return stats_; }

 private:
  bool TryAcquire(uint64_t* granted, uint64_t* denied) {
    if (!Enabled()) return true;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      ++*granted;
      return true;
    }
    ++*denied;
    return false;
  }

  Config config_;
  double tokens_ = 0;
  double last_refill_ms_ = 0;
  Stats stats_;
};

}  // namespace eta::core
