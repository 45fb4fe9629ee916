// Simulated device specification.
//
// Geometry and throughput numbers follow the paper's evaluation GPU (an
// NVIDIA GTX 1080Ti: 28 SMs @ 1.48 GHz, 48 KB L1/SM, 2.75 MB L2, 484 GB/s
// GDDR5X, PCIe 3.0 x16) with two deliberate departures, both documented in
// DESIGN.md:
//   1. device_memory_bytes is scaled from 11 GB to 144 MB — the same ~1/76
//      factor as the stand-in datasets — so out-of-memory behaviour
//      (Table III) reproduces from real allocation arithmetic;
//   2. cache capacities are scaled so the cache:working-set ratio matches
//      the original (the paper's L2 read hit rate of ~19% for Tigr is a
//      ratio effect, not an absolute-size effect).
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace eta::sim {

struct DeviceSpec {
  // --- Execution geometry -------------------------------------------------
  uint32_t num_sms = 28;
  uint32_t warp_size = 32;
  uint32_t max_resident_warps_per_sm = 64;
  double clock_ghz = 1.48;
  /// Warp instructions each SM can issue per cycle.
  double issue_width = 1.0;
  /// Cap on how many in-flight warps' memory latency can overlap per SM
  /// (memory-level parallelism bound; real SMs run out of MSHRs well below
  /// the resident-warp limit).
  uint32_t latency_hiding_warps = 5;

  // --- Memory hierarchy ----------------------------------------------------
  uint32_t sector_bytes = 32;  // coalescer / cache-line request granularity
  uint64_t l1_bytes = 48 * util::kKiB;  // per SM (unified L1 + texture)
  uint32_t l1_ways = 4;
  /// Contention model: resident warps on an SM share the L1, so a single
  /// simulated warp sees capacity / interleave_factor. See DESIGN.md.
  uint32_t l1_interleave_factor = 48;
  /// Scaled (see header comment): 256 sets x 8 ways x 32 B sectors. A
  /// SectorCache rounds its set count down to a power of two, so this is
  /// exactly the capacity it models.
  uint64_t l2_bytes = 64 * util::kKiB;
  uint32_t l2_ways = 8;

  uint64_t device_memory_bytes = 144 * util::kMiB;  // scaled from 11 GB

  // --- Latencies (cycles) --------------------------------------------------
  uint32_t lat_l1 = 30;
  uint32_t lat_l2 = 190;
  uint32_t lat_dram = 400;
  uint32_t lat_shared = 24;
  uint32_t lat_atomic = 160;   // L2-resident atomic
  /// Pipelined back-to-back transaction interval for unrolled (SMP-style)
  /// batched loads: after paying one full latency the remaining misses
  /// stream at this interval.
  uint32_t lat_pipelined = 8;

  // --- Bandwidths ----------------------------------------------------------
  double dram_bytes_per_cycle = 327.0;   // 484 GB/s @ 1.48 GHz
  double l2_bytes_per_cycle = 1100.0;
  /// Host<->device interconnect (PCIe 3.0 x16 effective, pinned/UM path).
  double pcie_gb_per_s = 12.0;
  /// cudaMemcpy from pageable host memory runs well below the pinned rate
  /// (staging copy); baseline frameworks pay this on their bulk uploads.
  double pageable_bw_factor = 0.85;

  // --- Fixed overheads -----------------------------------------------------
  // Scaled with the datasets: at 1/30 graph scale a real-hardware launch
  // overhead would swamp the (proportionally shrunken) kernels, distorting
  // every many-iteration comparison.
  double kernel_launch_us = 1.5;
  /// GPU page-fault handling cost per migration operation (fault capture,
  /// driver round trip) on top of the transfer itself.
  double page_fault_us = 6.0;
  double memcpy_latency_us = 2.5;

  // --- Unified memory ------------------------------------------------------
  uint64_t page_bytes = 4 * util::kKiB;       // system page size (Table V min)
  uint64_t max_migration_bytes = 2 * util::kMiB;  // driver merge limit
  /// Fraction of on-demand migration time that overlaps with compute when a
  /// kernel is running (SM multithreading keeps other warps busy while some
  /// wait on faults); Fig 4 reports 60-80% overlap.
  double fault_overlap_fraction = 0.75;

  double CyclesToMs(double cycles) const { return cycles / (clock_ghz * 1e6); }
  double PcieMsForBytes(uint64_t bytes, bool pageable = false) const {
    double bw = pcie_gb_per_s * (pageable ? pageable_bw_factor : 1.0);
    return static_cast<double>(bytes) / (bw * 1e6);
  }
};

}  // namespace eta::sim
