// core::RelaxStep — the one label relax shared by EtaGraph's TraverseKernel,
// hybrid BFS's top-down claim, Gunrock's advance and Tigr's kernel. It is the
// only place a kernel applies a label atomic (scripts/lint.sh enforces it).
#pragma once

#include "core/traversal.hpp"
#include "sim/device.hpp"

namespace eta::core {

/// Relaxes `labels[u_idx[lane]]` towards `cand[lane]` for every lane of
/// `mask` under semiring S: gather the current labels, keep the lanes whose
/// candidate Improves them, charge the compare (two ALU ops on `mask`),
/// apply S's label atomic on the improving lanes, and re-check each against
/// the value its atomic saw. Returns the lanes whose atomic actually
/// improved the label — a lane beaten by an earlier write, including one
/// from the same warp, drops out.
template <class S>
uint32_t RelaxStep(sim::WarpCtx& w, sim::Buffer<graph::Weight>& labels,
                   const sim::LaneArray<uint64_t>& u_idx,
                   const sim::LaneArray<graph::Weight>& cand, uint32_t mask) {
  // `cur` and `old` are written under their masks before any read under
  // them, so they skip the zero-fill (the hot path's convention).
  sim::LaneArray<graph::Weight> cur;
  w.Gather(labels, u_idx, mask, cur);
  uint32_t imask = 0;
  sim::WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (S::Improves(cand[lane], cur[lane])) imask |= 1u << lane;
  });
  w.ChargeAlu(2, mask);
  if (!imask) return 0;

  sim::LaneArray<graph::Weight> old;
  if constexpr (S::kAtomic == LabelAtomic::kMax) {
    w.AtomicMax(labels, u_idx, cand, imask, old);
  } else {
    w.AtomicMin(labels, u_idx, cand, imask, old);
  }
  uint32_t cmask = 0;
  sim::WarpCtx::ForActive(imask, [&](uint32_t lane) {
    if (S::Improves(cand[lane], old[lane])) cmask |= 1u << lane;
  });
  return cmask;
}

}  // namespace eta::core
