// Deterministic fault injection for the simulated GPU.
//
// A FaultInjector attached to a sim::Device decides, from seeded RNG
// streams, whether each kernel launch or device allocation fails and how.
// Four fault classes are modeled (DESIGN.md section 8):
//
//   - ECC correctable:   transient bit flip scrubbed by hardware; the launch
//                        succeeds and the event is only counted.
//   - ECC uncorrectable: a double-bit flip in a live device allocation; the
//                        launch aborts with kEccUncorrectable and the chosen
//                        victim buffer's backing bytes are actually corrupted
//                        (so recovery code must verify/re-stage, not just
//                        retry).
//   - Kernel hang:       the launch never retires; the watchdog kills it
//                        after `watchdog_ms` of simulated time.
//   - Device loss:       the device falls off the bus mid-launch; every
//                        subsequent operation fails until the device object
//                        is rebuilt.
//
// Determinism contract: decisions are drawn from SplitMix64 streams keyed by
// (seed, fault class) and consumed one draw per launch / per allocation, so
// two runs with the same config, graph and request stream inject byte-for-
// byte identical fault schedules. A failed launch executes no warps and has
// no functional effect other than the declared corruption, which keeps
// retry-from-scratch sound.
//
// With no injector attached (the default) the device's fault hooks reduce to
// one untaken branch per launch/alloc: every simulated counter is
// bit-identical to a build without this file (enforced by
// bench_fault_overhead, like the etacheck zero-cost contract).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace eta::sim {

/// Terminal status of a kernel launch. Anything other than kOk means the
/// kernel executed no warps and produced no functional effects (beyond the
/// declared ECC corruption for kEccUncorrectable).
enum class LaunchStatus : uint8_t {
  kOk,
  kEccUncorrectable,  // double-bit ECC error; a live buffer was corrupted
  kKernelTimeout,     // hang killed by the watchdog after watchdog_ms
  kDeviceLost,        // device fell off the bus; sticky until rebuild
};

const char* LaunchStatusName(LaunchStatus status);

/// Injection knobs. Rates are per-decision probabilities in [0,1]; the
/// `*_at` fields script a one-shot fault at the Nth decision (1-based,
/// 0 = disabled) for deterministic tests. Parsed from the tools' --faults
/// flag, e.g.:
///   --faults=seed=7,ecc=0.05,uecc=0.02,hang=0.01,lost=0.005,alloc=0.05
///   --faults=uecc_at=3,watchdog=40
struct FaultConfig {
  uint64_t seed = 1;
  double ecc_correctable_rate = 0;    // per launch; logged only
  double ecc_uncorrectable_rate = 0;  // per launch; corrupts + aborts
  double hang_rate = 0;               // per launch; watchdog timeout
  double device_loss_rate = 0;        // per launch; sticky device loss
  double alloc_fail_rate = 0;         // per allocation; throws OomError
  double watchdog_ms = 25.0;          // simulated time burned by a hang
  uint32_t corrupt_words = 4;         // 32-bit words flipped per UECC event

  // Scripted one-shots (1-based decision index; 0 = off). These compose
  // with the rates: a decision fires if either the script or the draw says
  // so, scripts taking precedence for attribution.
  uint64_t ecc_at = 0;
  uint64_t uecc_at = 0;
  uint64_t hang_at = 0;
  uint64_t lost_at = 0;
  uint64_t alloc_fail_at = 0;

  // Test plants (DESIGN.md section 12, "Plants"): each reintroduces one bug
  // class etacheck or etaverify exists to catch, in the layer whose
  // contract it breaks, so the gates can assert exact reports against the
  // shipping code. No plant makes Enabled() true: a plant arms no injector,
  // draws no RNG and takes no recovery path.

  /// rmw=<buffer>: every warp atomic on the buffer of that name runs as an
  /// unsynchronized Gather plus Scatter (the dropped atomic racecheck
  /// flags). Decided at Device::Alloc and carried on the buffer.
  std::string rmw_buffer;
  /// short=<buffer>: Device::Alloc makes the buffer of that name one
  /// element short (the off-by-one sizing memcheck flags).
  std::string short_buffer;
  /// dag=<bug>: one ordering bug in every StreamScheduler the config
  /// reaches (the classes etaverify flags).
  enum class Dag : uint8_t {
    kNone,
    kDropWait,    // drop-wait: each Wait is dropped
    kLateRecord,  // late-record: each Record is held until just after the
                  // first Wait on its event, which thus binds to nothing
    kDupCopy,     // dup-copy: each Record that closes an H2D copy is followed
                  // by a zero-duration duplicate of that copy, with the same
                  // access set, on a fresh stream ordered by nothing
  };
  Dag dag = Dag::kNone;

  /// True when any fault can ever fire; frameworks only attach an injector
  /// (and thus leave the zero-cost fast path) when this holds.
  bool Enabled() const {
    return ecc_correctable_rate > 0 || ecc_uncorrectable_rate > 0 || hang_rate > 0 ||
           device_loss_rate > 0 || alloc_fail_rate > 0 || ecc_at != 0 || uecc_at != 0 ||
           hang_at != 0 || lost_at != 0 || alloc_fail_at != 0;
  }

  /// True when a test plant is set. Planted() never implies Enabled().
  bool Planted() const {
    return !rmw_buffer.empty() || !short_buffer.empty() || dag != Dag::kNone;
  }

  /// Parses a comma-separated spec ("key=value,..."); keys: seed, ecc, uecc,
  /// hang, lost, alloc, watchdog, words, ecc_at, uecc_at, hang_at, lost_at,
  /// alloc_at, and the plants rmw, short, dag; empty items are skipped.
  /// Rates lie in [0,1], watchdog is > 0, words in [1, 2^20]; seed and the
  /// *_at keys are uint64 decimals; rmw and short take a non-empty buffer
  /// name, dag one of drop-wait, late-record, dup-copy.
  /// Returns nullopt (with a message in *error) on a bad spec.
  static std::optional<FaultConfig> Parse(std::string_view spec, std::string* error);
};

/// One launch's injected fate, decided before any warp executes.
struct LaunchFault {
  LaunchStatus status = LaunchStatus::kOk;
  uint32_t ecc_corrected = 0;  // correctable events logged on this launch
  // Entropy for deterministic UECC victim selection (the device maps these
  // onto its live allocation table).
  uint64_t victim_entropy = 0;
  uint64_t offset_entropy = 0;
};

/// Seeded decision source. One instance per device session; the device
/// consults it once per launch and once per allocation. Streams for launch
/// and allocation decisions are independent, so adding an allocation never
/// perturbs the launch fault schedule.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  const FaultConfig& Config() const { return config_; }

  /// Fate of the next kernel launch.
  LaunchFault NextLaunch();

  /// True if the next device allocation should fail.
  bool NextAllocFails();

  uint64_t LaunchesDecided() const { return launches_; }
  uint64_t AllocsDecided() const { return allocs_; }

 private:
  FaultConfig config_;
  util::SplitMix64 launch_rng_;
  util::SplitMix64 alloc_rng_;
  util::SplitMix64 victim_rng_;
  uint64_t launches_ = 0;
  uint64_t allocs_ = 0;
};

}  // namespace eta::sim
