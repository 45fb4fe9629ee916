// Unit tests of the shared traversal-label algebra (core/traversal.hpp) —
// the single source of truth for what BFS/SSSP/SSWP/CC mean across all four
// frameworks and the CPU references — and of the one warp relax step that
// applies it (core/relax_step.hpp).
#include <gtest/gtest.h>

#include <array>
#include <type_traits>

#include "core/options.hpp"
#include "core/relax_step.hpp"
#include "core/traversal.hpp"
#include "cpu/reference.hpp"
#include "util/units.hpp"

namespace eta::core {
namespace {

TEST(Labels, InitValues) {
  EXPECT_EQ(InitLabel(Algo::kBfs, true), 0u);
  EXPECT_EQ(InitLabel(Algo::kBfs, false), kInf);
  EXPECT_EQ(InitLabel(Algo::kSssp, true), 0u);
  EXPECT_EQ(InitLabel(Algo::kSssp, false), kInf);
  // SSWP maximizes: the source has infinite bottleneck, others none.
  EXPECT_EQ(InitLabel(Algo::kSswp, true), kInf);
  EXPECT_EQ(InitLabel(Algo::kSswp, false), 0u);
}

TEST(Labels, PropagateBfsIgnoresWeight) {
  EXPECT_EQ(BfsLevel::Propagate(3, 999), 4u);
}

TEST(Labels, PropagateSsspAddsWeight) {
  EXPECT_EQ(MinPlus::Propagate(3, 7), 10u);
}

TEST(Labels, PropagateSswpTakesMin) {
  EXPECT_EQ(MaxMin::Propagate(9, 4), 4u);
  EXPECT_EQ(MaxMin::Propagate(2, 8), 2u);
  EXPECT_EQ(MaxMin::Propagate(kInf, 8), 8u);  // source bottleneck
}

TEST(Labels, PropagateCcCopiesLabel) {
  EXPECT_EQ(CopyMin::Propagate(3, 999), 3u);
  EXPECT_EQ(CopyMin::Propagate(0, 0), 0u);
}

TEST(Labels, ImprovesDirection) {
  EXPECT_TRUE(BfsLevel::Improves(2, 5));
  EXPECT_FALSE(BfsLevel::Improves(5, 2));
  EXPECT_FALSE(BfsLevel::Improves(5, 5));  // strict
  EXPECT_TRUE(MaxMin::Improves(5, 2));
  EXPECT_FALSE(MaxMin::Improves(2, 5));
  EXPECT_FALSE(MaxMin::Improves(5, 5));
  EXPECT_TRUE(MinPlus::Improves(2, 5));
  EXPECT_TRUE(CopyMin::Improves(2, 5));
  EXPECT_FALSE(CopyMin::Improves(5, 2));
  EXPECT_FALSE(CopyMin::Improves(5, 5));
}

TEST(Labels, ReachedConventions) {
  EXPECT_TRUE(BfsLevel::Reached(0));
  EXPECT_FALSE(BfsLevel::Reached(kInf));
  EXPECT_TRUE(MaxMin::Reached(1));
  EXPECT_FALSE(MaxMin::Reached(0));
  EXPECT_TRUE(CopyMin::Reached(0));  // component label 0 is vertex 0's
  EXPECT_FALSE(CopyMin::Reached(kInf));
}

TEST(Labels, WeightedPredicate) {
  EXPECT_FALSE(IsWeighted(Algo::kBfs));
  EXPECT_TRUE(IsWeighted(Algo::kSssp));
  EXPECT_TRUE(IsWeighted(Algo::kSswp));
  EXPECT_FALSE(IsWeighted(Algo::kCc));
  static_assert(!BfsLevel::kWeighted && MinPlus::kWeighted && MaxMin::kWeighted &&
                !CopyMin::kWeighted);
}

// WithSemiring is the only runtime switch over Algo on the traversal path;
// the policy it picks must agree with the host-side predicates.
TEST(Labels, SemiringOfEachAlgo) {
  for (Algo algo : {Algo::kBfs, Algo::kSssp, Algo::kSswp, Algo::kCc}) {
    WithSemiring(algo, [&]<class S>(S) {
      EXPECT_EQ(S::kWeighted, IsWeighted(algo)) << AlgoName(algo);
      EXPECT_EQ(S::kAtomic == LabelAtomic::kMax, IsWidest(algo)) << AlgoName(algo);
      for (graph::Weight label : {0u, 1u, kInf}) {
        EXPECT_EQ(S::Reached(label), cpu::CountReached({label}, IsWidest(algo)) == 1)
            << AlgoName(algo);
      }
    });
  }
  auto picks = []<class Want>(Algo algo, Want) {
    return WithSemiring(algo, []<class S>(S) { return std::is_same_v<S, Want>; });
  };
  EXPECT_TRUE(picks(Algo::kBfs, BfsLevel{}));
  EXPECT_TRUE(picks(Algo::kSssp, MinPlus{}));
  EXPECT_TRUE(picks(Algo::kSswp, MaxMin{}));
  EXPECT_TRUE(picks(Algo::kCc, CopyMin{}));
}

TEST(Names, AlgoAndModeNames) {
  EXPECT_STREQ(AlgoName(Algo::kBfs), "BFS");
  EXPECT_STREQ(AlgoName(Algo::kSssp), "SSSP");
  EXPECT_STREQ(AlgoName(Algo::kSswp), "SSWP");
  EXPECT_STREQ(AlgoName(Algo::kCc), "CC");
  EXPECT_STREQ(MemoryModeName(MemoryMode::kUnifiedPrefetch), "um+prefetch");
  EXPECT_STREQ(MemoryModeName(MemoryMode::kUnifiedOnDemand), "um");
  EXPECT_STREQ(MemoryModeName(MemoryMode::kExplicitCopy), "explicit");
}

// Monotonicity property: repeated propagation along any path can only make
// a label "worse or equal" than its prefix, so Improves(Propagate(x), x)
// must never hold with weights >= 1 — the invariant that guarantees
// traversal termination.
TEST(Labels, PropagationNeverImprovesOnItself) {
  auto check = [&]<class S>(S, const char* name) {
    for (graph::Weight label : {0u, 1u, 5u, 1000u, kInf - 100}) {
      for (graph::Weight w : {1u, 2u, 63u}) {
        graph::Weight next = S::Propagate(label, w);
        EXPECT_FALSE(S::Improves(next, label)) << name << " label=" << label << " w=" << w;
      }
    }
  };
  check(BfsLevel{}, "BFS");
  check(MinPlus{}, "SSSP");
  check(MaxMin{}, "SSWP");
  check(CopyMin{}, "CC");
}

// --- RelaxStep ---------------------------------------------------------------

/// Candidates for one warp: lanes 0 and 1 aim at vertex 0 (lane 0 first),
/// lane 2 offers vertex 0 a label no better than its current one, lane 3
/// improves vertex 1.
struct RelaxCase {
  std::array<graph::Weight, 2> init;
  graph::Weight best, second, not_better, other;
};

struct RelaxResult {
  uint32_t changed = 0;
  std::array<graph::Weight, 2> labels{};
};

template <class S>
RelaxResult RunRelax(const RelaxCase& c, graph::Weight lane0, graph::Weight lane1) {
  sim::DeviceSpec spec;
  spec.device_memory_bytes = 16 * util::kMiB;
  sim::Device device(spec);
  auto labels = device.Alloc<graph::Weight>(2, sim::MemKind::kDevice, "labels");
  device.CopyToDevice(labels, std::span<const graph::Weight>(c.init));
  RelaxResult result;
  device.Launch("relax", {4}, [&](sim::WarpCtx& w) {
    sim::LaneArray<uint64_t> u_idx{};
    u_idx[3] = 1;
    sim::LaneArray<graph::Weight> cand{};
    cand[0] = lane0;
    cand[1] = lane1;
    cand[2] = c.not_better;
    cand[3] = c.other;
    result.changed = RelaxStep<S>(w, labels, u_idx, cand, w.ActiveMask());
  });
  result.labels = {labels.HostSpan()[0], labels.HostSpan()[1]};
  return result;
}

/// Both contended lanes improve vertex 0's starting label. Best first: lane
/// 1's atomic sees lane 0's better value, so only lanes 0 and 3 changed a
/// label. Best last: every improving lane changed it in turn. Either way
/// vertex 0 ends at the best candidate.
template <class S>
void ExpectRelaxKeepsBest(const RelaxCase& c) {
  ASSERT_TRUE(S::Improves(c.second, c.init[0]));
  ASSERT_TRUE(S::Improves(c.best, c.second));
  ASSERT_FALSE(S::Improves(c.not_better, c.init[0]));
  ASSERT_TRUE(S::Improves(c.other, c.init[1]));

  const RelaxResult best_first = RunRelax<S>(c, c.best, c.second);
  EXPECT_EQ(best_first.labels[0], c.best);
  EXPECT_EQ(best_first.labels[1], c.other);
  EXPECT_EQ(best_first.changed, 0b1001u);

  const RelaxResult best_last = RunRelax<S>(c, c.second, c.best);
  EXPECT_EQ(best_last.labels[0], c.best);
  EXPECT_EQ(best_last.labels[1], c.other);
  EXPECT_EQ(best_last.changed, 0b1011u);
}

TEST(RelaxStep, BfsLevelKeepsBestLabel) {
  ExpectRelaxKeepsBest<BfsLevel>({.init = {5, kInf}, .best = 2, .second = 3,
                                  .not_better = 5, .other = 4});
}

TEST(RelaxStep, MinPlusKeepsBestLabel) {
  ExpectRelaxKeepsBest<MinPlus>({.init = {100, kInf}, .best = 10, .second = 40,
                                 .not_better = 170, .other = 7});
}

TEST(RelaxStep, MaxMinKeepsBestLabel) {
  ExpectRelaxKeepsBest<MaxMin>({.init = {5, 0}, .best = 9, .second = 6,
                                .not_better = 3, .other = 1});
}

TEST(RelaxStep, CopyMinKeepsBestLabel) {
  ExpectRelaxKeepsBest<CopyMin>({.init = {8, 6}, .best = 1, .second = 3,
                                 .not_better = 8, .other = 2});
}

}  // namespace
}  // namespace eta::core
