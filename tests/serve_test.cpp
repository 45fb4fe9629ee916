// Tests for the query-serving layer: per-source attribution exactness,
// persistent-session reuse, the scheduler, and — on a one-shard fleet —
// batching equivalence, deadline/overflow handling, and report
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/batcher.hpp"
#include "serve/router.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"

namespace eta::serve {
namespace {

graph::Csr RandomGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

uint64_t CountReached(core::Algo algo, const std::vector<graph::Weight>& labels) {
  return cpu::CountReached(labels, core::IsWidest(algo));
}

/// Replays `trace` on a one-shard fleet — the plain single-device server.
ServeReport ServeOneShard(const ServeOptions& options, const graph::Csr& csr,
                          const std::vector<Request>& trace) {
  ShardedOptions fleet;
  fleet.base = options;
  fleet.shards = 1;
  return ShardedEngine(fleet).Serve(csr, trace);
}

// --- Per-source attribution (the batcher's demux primitive) -------------------

class AttributionTest : public ::testing::TestWithParam<core::Algo> {};

TEST_P(AttributionTest, MatchesSequentialSingleSourceRuns) {
  const core::Algo algo = GetParam();
  graph::Csr csr = RandomGraph(11);
  std::vector<graph::VertexId> sources = {0, 97, 350, 501};

  core::EtaGraph engine;
  auto batched = engine.RunMultiSource(csr, algo, sources, /*attribute_sources=*/true);
  ASSERT_FALSE(batched.oom);
  ASSERT_EQ(batched.per_source_reached.size(), sources.size());

  // Unreached is kInf for the minimizing traversals and 0 for the widest
  // path, so the merged label is the min (resp. max) over the sources.
  std::vector<graph::Weight> expected_merge(csr.NumVertices(), core::InitLabel(algo, false));
  for (size_t i = 0; i < sources.size(); ++i) {
    auto single = engine.Run(csr, algo, sources[i]);
    ASSERT_FALSE(single.oom);
    // Demuxed per-source reachability is bit-identical to running alone.
    EXPECT_EQ(batched.per_source_reached[i], CountReached(algo, single.labels))
        << "source " << sources[i];
    for (size_t v = 0; v < single.labels.size(); ++v) {
      expected_merge[v] = core::IsWidest(algo) ? std::max(expected_merge[v], single.labels[v])
                                               : std::min(expected_merge[v], single.labels[v]);
    }
  }
  // Attribution must not perturb the merged labels.
  EXPECT_EQ(batched.labels, expected_merge);
}

INSTANTIATE_TEST_SUITE_P(BfsAndSssp, AttributionTest,
                         ::testing::Values(core::Algo::kBfs, core::Algo::kSssp));
INSTANTIATE_TEST_SUITE_P(Sswp, AttributionTest, ::testing::Values(core::Algo::kSswp));

// A zero-width edge is traversed but reaches nothing under the widest path:
// the reach mask must not cross it, or a source would be credited with
// vertices its own run leaves at width 0.
TEST(Attribution, SswpMasksStopAtZeroWidthEdges) {
  graph::Csr csr = RandomGraph(21);
  std::vector<graph::Weight> weights(csr.Weights().begin(), csr.Weights().end());
  for (size_t e = 0; e < weights.size(); e += 3) weights[e] = 0;
  csr.SetWeights(std::move(weights));
  const std::vector<graph::VertexId> sources = {0, 97, 350, 501};

  core::EtaGraph engine;
  auto batched =
      engine.RunMultiSource(csr, core::Algo::kSswp, sources, /*attribute_sources=*/true);
  ASSERT_FALSE(batched.oom);
  ASSERT_EQ(batched.per_source_reached.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    auto single = engine.Run(csr, core::Algo::kSswp, sources[i]);
    ASSERT_FALSE(single.oom);
    const uint64_t cpu =
        CountReached(core::Algo::kSswp, core::CpuReference(csr, core::Algo::kSswp, sources[i]));
    EXPECT_EQ(batched.per_source_reached[i], CountReached(core::Algo::kSswp, single.labels))
        << "source " << sources[i];
    EXPECT_EQ(batched.per_source_reached[i], cpu) << "source " << sources[i];
  }
}

// --- Persistent sessions ------------------------------------------------------

TEST(GraphSession, ReusesResidentGraphAcrossQueries) {
  graph::Csr csr = RandomGraph(12);
  auto one_shot = core::EtaGraph().Run(csr, core::Algo::kBfs, 5);
  ASSERT_FALSE(one_shot.oom);

  GraphSession session(csr);
  ASSERT_TRUE(session.Loaded());

  auto first = session.RunQuery(core::Algo::kBfs, 5);
  auto second = session.RunQuery(core::Algo::kBfs, 5);
  ASSERT_FALSE(first.oom);
  ASSERT_FALSE(second.oom);
  // Same answers as a cold one-shot run...
  EXPECT_EQ(first.labels, one_shot.labels);
  EXPECT_EQ(second.labels, one_shot.labels);
  // ...but repeat queries skip staging: cheaper than the cold total.
  EXPECT_LT(second.query_ms, one_shot.total_ms);
  EXPECT_EQ(session.QueriesServed(), 2u);
}

TEST(GraphSession, ExplicitCopyStagingIsChargedOnceUpFront) {
  graph::Csr csr = RandomGraph(12);
  core::EtaGraphOptions options;
  options.memory_mode = core::MemoryMode::kExplicitCopy;
  auto one_shot = core::EtaGraph(options).Run(csr, core::Algo::kBfs, 5);
  ASSERT_FALSE(one_shot.oom);

  GraphSession session(csr, options);
  ASSERT_TRUE(session.Loaded());
  // Explicit mode pays the topology transfer at load time, not per query.
  EXPECT_GT(session.LoadMs(), 0.0);
  auto first = session.RunQuery(core::Algo::kBfs, 5);
  auto second = session.RunQuery(core::Algo::kBfs, 5);
  EXPECT_EQ(first.labels, one_shot.labels);
  EXPECT_EQ(second.labels, one_shot.labels);
  EXPECT_LT(second.query_ms, one_shot.total_ms);
}

TEST(GraphSession, ServesMixedAlgorithms) {
  graph::Csr csr = RandomGraph(13);
  GraphSession session(csr);
  ASSERT_TRUE(session.Loaded());
  for (core::Algo algo :
       {core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp}) {
    auto report = session.RunQuery(algo, 7);
    ASSERT_FALSE(report.oom);
    EXPECT_EQ(report.labels, core::CpuReference(csr, algo, 7));
  }
}

// --- Scheduler ----------------------------------------------------------------

TEST(QueryScheduler, PriorityThenFifoOrder) {
  QueryScheduler sched(8);
  Request a{.id = 1, .priority = 0};
  Request b{.id = 2, .priority = 1};
  Request c{.id = 3, .priority = 1};
  ASSERT_TRUE(sched.Admit(a));
  ASSERT_TRUE(sched.Admit(b));
  ASSERT_TRUE(sched.Admit(c));
  EXPECT_EQ(sched.PopNext()->id, 2u);  // highest priority, admitted first
  EXPECT_EQ(sched.PopNext()->id, 3u);
  EXPECT_EQ(sched.PopNext()->id, 1u);
  EXPECT_FALSE(sched.PopNext().has_value());
}

TEST(QueryScheduler, RejectsWhenFullAndExpiresDeadlines) {
  QueryScheduler sched(2);
  Request a{.id = 1, .arrival_ms = 0, .deadline_ms = 1.0};
  Request b{.id = 2, .arrival_ms = 0, .deadline_ms = 100.0};
  Request c{.id = 3};
  EXPECT_TRUE(sched.Admit(a));
  EXPECT_TRUE(sched.Admit(b));
  EXPECT_FALSE(sched.Admit(c));  // full
  auto expired = sched.ExpireDeadlines(5.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(sched.Depth(), 1u);
}

// EDF-off contract (DESIGN.md section 15): the comparator never reads the
// EDF key, so pop order on a randomized deep trace is byte-identical to the
// legacy (priority desc, seq asc) total order — even when callers pass
// service estimates at admission.
TEST(QueryScheduler, EdfOffPopOrderMatchesPrioritySeqOnRandomizedTrace) {
  constexpr size_t kDepth = 4608;
  QueryScheduler sched(kDepth, /*edf=*/false);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next_rand = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  struct Key {
    int32_t priority;
    uint64_t id;
  };
  std::vector<Key> expected;
  expected.reserve(kDepth);
  for (uint64_t i = 0; i < kDepth; ++i) {
    Request r;
    r.id = i;
    r.priority = static_cast<int32_t>(next_rand() % 5);
    r.deadline_ms =
        next_rand() % 3 == 0 ? kNoDeadline : static_cast<double>(next_rand() % 1000);
    ASSERT_TRUE(sched.Admit(r, static_cast<double>(next_rand() % 50)));
    expected.push_back({r.priority, i});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Key& a, const Key& b) { return a.priority > b.priority; });
  for (const Key& k : expected) {
    auto popped = sched.PopNext();
    ASSERT_TRUE(popped.has_value());
    ASSERT_EQ(popped->id, k.id);
  }
  EXPECT_FALSE(sched.PopNext().has_value());
}

TEST(QueryScheduler, EdfPopsEarliestEffectiveDeadlineWithinPriority) {
  QueryScheduler sched(8, /*edf=*/true);
  // Same priority class: effective deadline (StartDeadline - estimate),
  // frozen at admission, orders the pops.
  ASSERT_TRUE(sched.Admit({.id = 1, .arrival_ms = 0, .deadline_ms = 100.0}, 10.0));  // 90
  ASSERT_TRUE(sched.Admit({.id = 2, .arrival_ms = 0, .deadline_ms = 50.0}, 10.0));   // 40
  ASSERT_TRUE(sched.Admit({.id = 3, .arrival_ms = 0, .deadline_ms = 60.0}, 30.0));   // 30
  // Deadline-free: an infinite key, FIFO behind every deadlined peer.
  ASSERT_TRUE(sched.Admit({.id = 4}));
  // A higher priority class preempts every earlier-deadline peer below —
  // gold never starves behind an earlier-deadline bronze.
  ASSERT_TRUE(sched.Admit({.id = 5, .priority = 1}));
  EXPECT_EQ(sched.PeekNext()->id, 5u);  // peek agrees with pop order
  EXPECT_EQ(sched.PopNext()->id, 5u);
  EXPECT_EQ(sched.PopNext()->id, 3u);
  EXPECT_EQ(sched.PopNext()->id, 2u);
  EXPECT_EQ(sched.PopNext()->id, 1u);
  EXPECT_EQ(sched.PopNext()->id, 4u);
  EXPECT_FALSE(sched.PopNext().has_value());
}

TEST(QueryScheduler, PopCompatibleFiltersByAlgorithm) {
  QueryScheduler sched(8);
  sched.Admit({.id = 1, .algo = core::Algo::kBfs});
  sched.Admit({.id = 2, .algo = core::Algo::kSssp});
  sched.Admit({.id = 3, .algo = core::Algo::kBfs});
  auto batch = sched.PopCompatible(core::Algo::kBfs, /*graph_id=*/0, 8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 3u);
  EXPECT_EQ(sched.Depth(), 1u);
}

TEST(QueryScheduler, PopCompatibleFiltersByGraph) {
  // A folded batch must stay on one topology: same algorithm, different
  // catalog graph is not compatible.
  QueryScheduler sched(8);
  sched.Admit({.id = 1, .algo = core::Algo::kBfs, .graph_id = 0});
  sched.Admit({.id = 2, .algo = core::Algo::kBfs, .graph_id = 1});
  sched.Admit({.id = 3, .algo = core::Algo::kBfs, .graph_id = 1});
  auto batch = sched.PopCompatible(core::Algo::kBfs, /*graph_id=*/1, 8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_EQ(batch[1].id, 3u);
  EXPECT_EQ(sched.Depth(), 1u);
  EXPECT_EQ(sched.PopNext()->id, 1u);
}

TEST(QueryScheduler, DeadlineExactlyAtNowStaysDispatchable) {
  // Boundary rule (Request::ExpiredAt): a request expires only when the
  // clock has passed its start deadline, so deadline == now still serves.
  QueryScheduler sched(8);
  Request r{.id = 1, .arrival_ms = 2.0, .deadline_ms = 3.0};
  ASSERT_TRUE(sched.Admit(r));
  EXPECT_FALSE(r.ExpiredAt(5.0));
  EXPECT_TRUE(sched.ExpireDeadlines(5.0).empty());  // == StartDeadline()
  EXPECT_EQ(sched.Depth(), 1u);
  EXPECT_TRUE(r.ExpiredAt(5.0 + 1e-9));
  auto expired = sched.ExpireDeadlines(5.0 + 1e-9);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(sched.Depth(), 0u);
}

TEST(QueryScheduler, ExpiryPreservesPriorityOrderAmongSurvivors) {
  QueryScheduler sched(8);
  ASSERT_TRUE(sched.Admit({.id = 1, .deadline_ms = 1.0, .priority = 0}));
  ASSERT_TRUE(sched.Admit({.id = 2, .deadline_ms = kNoDeadline, .priority = 5}));
  ASSERT_TRUE(sched.Admit({.id = 3, .deadline_ms = kNoDeadline, .priority = 0}));
  ASSERT_TRUE(sched.Admit({.id = 4, .deadline_ms = 1.0, .priority = 5}));
  auto expired = sched.ExpireDeadlines(2.0);
  ASSERT_EQ(expired.size(), 2u);
  // Expiry reports in admission order, regardless of priority...
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(expired[1].id, 4u);
  // ...and survivors still pop in priority-then-FIFO order.
  EXPECT_EQ(sched.PopNext()->id, 2u);
  EXPECT_EQ(sched.PopNext()->id, 3u);
}

TEST(QueryScheduler, PoppedRequestsAreNeverReportedExpired) {
  QueryScheduler sched(8);
  ASSERT_TRUE(sched.Admit({.id = 1, .deadline_ms = 1.0}));
  ASSERT_EQ(sched.PopNext()->id, 1u);
  // Once dispatched, the request is the batcher's problem; a later sweep
  // must not double-report it.
  EXPECT_TRUE(sched.ExpireDeadlines(100.0).empty());
  EXPECT_EQ(sched.Depth(), 0u);
}

TEST(QueryScheduler, NoDeadlineNeverExpires) {
  QueryScheduler sched(8);
  Request r{.id = 1, .arrival_ms = 0.0, .deadline_ms = kNoDeadline};
  ASSERT_TRUE(sched.Admit(r));
  EXPECT_FALSE(r.ExpiredAt(1e12));
  EXPECT_TRUE(sched.ExpireDeadlines(1e12).empty());
}

namespace {

/// The original scan-and-erase scheduler, kept as the semantic reference:
/// every pop scans for the best (priority desc, seq asc) entry and erases
/// it from the middle of a vector. The production scheduler replaced this
/// with tombstoned per-lane heaps; the deep-queue test below proves the
/// pop/expiry sequences stayed byte-identical.
class ReferenceScheduler {
 public:
  explicit ReferenceScheduler(size_t capacity) : capacity_(capacity) {}

  bool Admit(const Request& r) {
    if (queue_.size() >= capacity_) return false;
    queue_.push_back({r, next_seq_++});
    return true;
  }
  size_t Depth() const { return queue_.size(); }

  std::vector<Request> ExpireDeadlines(double now_ms) {
    // The original stable_partition + sort-by-seq reduces to: expired in
    // admission order, survivors keep their relative order.
    std::vector<Request> expired;
    std::vector<Entry> kept;
    for (const Entry& e : queue_) {
      if (e.r.ExpiredAt(now_ms)) {
        expired.push_back(e.r);
      } else {
        kept.push_back(e);
      }
    }
    queue_ = std::move(kept);
    return expired;
  }

  std::optional<Request> PopNext() { return PopBest([](const Request&) { return true; }); }

  std::vector<Request> PopCompatible(core::Algo algo, uint32_t graph_id,
                                     uint32_t max_count) {
    std::vector<Request> out;
    while (out.size() < max_count) {
      auto r = PopBest([&](const Request& q) {
        return q.algo == algo && q.graph_id == graph_id;
      });
      if (!r.has_value()) break;
      out.push_back(*r);
    }
    return out;
  }

 private:
  struct Entry {
    Request r;
    uint64_t seq;
  };

  template <typename Pred>
  std::optional<Request> PopBest(Pred pred) {
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (!pred(queue_[i].r)) continue;
      if (best == SIZE_MAX ||
          queue_[i].r.priority > queue_[best].r.priority ||
          (queue_[i].r.priority == queue_[best].r.priority &&
           queue_[i].seq < queue_[best].seq)) {
        best = i;
      }
    }
    if (best == SIZE_MAX) return std::nullopt;
    Request r = queue_[best].r;
    queue_.erase(queue_.begin() + static_cast<long>(best));
    return r;
  }

  size_t capacity_;
  uint64_t next_seq_ = 0;
  std::vector<Entry> queue_;
};

}  // namespace

TEST(QueryScheduler, DeepQueueReplayMatchesScanEraseReference) {
  // Satellite regression for the quadratic-dispatch fix: at depth >= 4096,
  // an interleaved admit/pop/fold/expire replay must produce the exact
  // operation-by-operation output the original scan-and-erase scheduler
  // produced (the engine's replay bytes are a pure function of this
  // sequence).
  constexpr size_t kDepth = 4608;
  QueryScheduler sched(kDepth);
  ReferenceScheduler ref(kDepth);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto rnd = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const core::Algo algos[] = {core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp};
  uint64_t next_id = 0;
  auto make_request = [&](double arrival) {
    Request r;
    r.id = next_id++;
    r.algo = algos[rnd() % 3];
    r.source = static_cast<graph::VertexId>(rnd() % 512);
    r.graph_id = static_cast<uint32_t>(rnd() % 2);
    r.arrival_ms = arrival;
    r.deadline_ms = (rnd() % 4 == 0) ? static_cast<double>(rnd() % 50) : kNoDeadline;
    r.priority = static_cast<int32_t>(rnd() % 5);
    return r;
  };

  double now = 0;
  for (size_t i = 0; i < kDepth; ++i) {
    Request r = make_request(now);
    ASSERT_EQ(sched.Admit(r), ref.Admit(r));
  }
  ASSERT_EQ(sched.Depth(), kDepth);

  size_t steps = 0;
  while ((ref.Depth() > 0 || sched.Depth() > 0) && steps < 100000) {
    ++steps;
    ASSERT_EQ(sched.Depth(), ref.Depth());
    switch (rnd() % 5) {
      case 0: {
        auto a = sched.PopNext();
        auto b = ref.PopNext();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          ASSERT_EQ(a->id, b->id);
        }
        break;
      }
      case 1: {
        const core::Algo algo = algos[rnd() % 3];
        const uint32_t graph = static_cast<uint32_t>(rnd() % 2);
        const uint32_t max = static_cast<uint32_t>(1 + rnd() % 40);
        auto a = sched.PopCompatible(algo, graph, max);
        auto b = ref.PopCompatible(algo, graph, max);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i].id, b[i].id);
        break;
      }
      case 2: {
        now += static_cast<double>(rnd() % 8);
        auto a = sched.ExpireDeadlines(now);
        auto b = ref.ExpireDeadlines(now);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i].id, b[i].id);
        break;
      }
      default: {
        Request r = make_request(now);
        ASSERT_EQ(sched.Admit(r), ref.Admit(r));
        break;
      }
    }
  }
  EXPECT_EQ(sched.Depth(), 0u);
  EXPECT_EQ(ref.Depth(), 0u);
}

// --- One-shard fleet end-to-end ------------------------------------------------

TEST(SingleShardServe, BatchedResultsMatchSequentialSession) {
  graph::Csr csr = RandomGraph(14);
  TraceOptions trace_options;
  trace_options.num_requests = 32;
  // Arrivals closer together than a query's service time, so requests
  // queue behind the busy shard and the dispatcher has something to fold.
  trace_options.mean_interarrival_ms = 0.01;
  auto trace = GenerateTrace(csr.NumVertices(), trace_options);

  ServeOptions sequential;
  sequential.max_batch = 1;
  ServeOptions batched;
  auto seq_report = ServeOneShard(sequential, csr, trace);
  auto bat_report = ServeOneShard(batched, csr, trace);

  ASSERT_EQ(seq_report.completed, trace.size());
  ASSERT_EQ(bat_report.completed, trace.size());
  // Folding must actually happen on this trace...
  EXPECT_GT(bat_report.batch_occupancy.Max(), 1u);
  // ...and must not change any request's answer.
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(bat_report.results[i].id, seq_report.results[i].id);
    EXPECT_EQ(bat_report.results[i].status, QueryStatus::kOk);
    EXPECT_EQ(bat_report.results[i].reached_vertices,
              seq_report.results[i].reached_vertices)
        << "request " << i;
  }
}

TEST(SingleShardServe, ExpiredDeadlinesBecomeTimeouts) {
  graph::Csr csr = RandomGraph(15);
  // All requests arrive while the graph is still loading; the impatient
  // ones can never be dispatched before their start deadline.
  std::vector<Request> trace;
  for (uint64_t i = 0; i < 4; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = static_cast<graph::VertexId>(i);
    r.arrival_ms = 0;
    r.deadline_ms = i == 0 ? kNoDeadline : 1e-6;
    trace.push_back(r);
  }
  ServeOptions options;
  options.max_batch = 1;
  auto report = ServeOneShard(options, csr, trace);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.timed_out, 3u);
  EXPECT_EQ(report.results[0].status, QueryStatus::kOk);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(report.results[i].status, QueryStatus::kTimedOut);
  }
}

// EDF tentpole claim (DESIGN.md section 15): on a constructed mixed-deadline
// burst, EDF-on meets strictly more deadlines than the legacy FIFO+priority
// order, and no request is ever lost either way.
TEST(SingleShardServe, EdfMeetsStrictlyMoreDeadlinesOnMixedBurst) {
  graph::Csr csr = RandomGraph(21);
  ServeOptions options;
  options.max_batch = 1;
  options.queue_capacity = 64;

  // Probe replay: learn the first-dispatch time, the cold (first-touch)
  // service time, and the warm service time for this source on this graph.
  std::vector<Request> probe_trace;
  for (uint64_t i = 0; i < 2; ++i) {
    probe_trace.push_back(
        {.id = i, .algo = core::Algo::kBfs, .source = 1, .arrival_ms = 0});
  }
  ServeReport probe = ServeOneShard(options, csr, probe_trace);
  ASSERT_EQ(probe.results.size(), 2u);
  const double start0 = probe.results[0].start_ms;
  const double cold_ms = probe.results[0].finish_ms - probe.results[0].start_ms;
  const double warm_ms = probe.results[1].finish_ms - probe.results[1].start_ms;
  ASSERT_GT(warm_ms, 0.0);

  // One t=0 burst of 16 identical queries: ids 0..7 deadline-free, ids
  // 8..15 sharing a tight deadline that fits the first dispatch plus ~9.5
  // warm services. FIFO admits in id order, so the deadlined tail waits
  // behind the deadline-free head and part of it must expire; EDF pops the
  // deadlined half first (deadline-free requests carry an infinite key) and
  // meets every deadline.
  const double tight = start0 + cold_ms + 9.5 * warm_ms;
  std::vector<Request> trace;
  for (uint64_t i = 0; i < 16; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = 1;
    r.arrival_ms = 0;
    if (i >= 8) r.deadline_ms = tight;
    trace.push_back(r);
  }

  ServeReport fifo = ServeOneShard(options, csr, trace);
  options.edf = true;
  ServeReport edf = ServeOneShard(options, csr, trace);

  EXPECT_GT(fifo.timed_out, 0u);
  EXPECT_EQ(edf.timed_out, 0u);
  EXPECT_GT(edf.completed, fifo.completed);
  // No request lost under either order.
  EXPECT_EQ(fifo.results.size(), trace.size());
  EXPECT_EQ(edf.results.size(), trace.size());
  // Every served answer is bit-identical across orders (same source).
  for (const QueryResult& q : edf.results) {
    if (q.status == QueryStatus::kOk) {
      EXPECT_EQ(q.reached_vertices, probe.results[0].reached_vertices);
    }
  }
}

TEST(SingleShardServe, OverflowingQueueRejectsExplicitly) {
  graph::Csr csr = RandomGraph(16);
  std::vector<Request> trace;
  for (uint64_t i = 0; i < 4; ++i) {
    trace.push_back({.id = i, .algo = core::Algo::kBfs,
                     .source = static_cast<graph::VertexId>(i), .arrival_ms = 0});
  }
  ServeOptions options;
  options.max_batch = 1;
  options.queue_capacity = 1;
  auto report = ServeOneShard(options, csr, trace);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.rejected, 3u);
  EXPECT_EQ(report.results[0].status, QueryStatus::kOk);
}

TEST(ExecuteBatch, WaveSplitsPastAttributionCap) {
  // A folded batch wider than the 32-bit attribution mask executes as
  // successive launch waves; every request still gets its exact answer.
  // Every per-source traversal folds, the widest path included.
  graph::Csr csr = RandomGraph(18);
  for (core::Algo algo : {core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp}) {
    SCOPED_TRACE(core::AlgoName(algo));
    GraphSession session(csr);
    ASSERT_TRUE(session.Loaded());
    constexpr size_t kRequests = 40;  // 32 + 8: two waves
    Batch batch;
    batch.algo = algo;
    for (uint64_t i = 0; i < kRequests; ++i) {
      Request r;
      r.id = i;
      r.algo = algo;
      r.source = static_cast<graph::VertexId>((i * 13) % csr.NumVertices());
      batch.requests.push_back(r);
    }
    BatchOutcome out = ExecuteBatch(session, batch, /*start_ms=*/1.0);
    ASSERT_FALSE(out.device_failed);
    ASSERT_TRUE(out.unserved.empty());
    ASSERT_EQ(out.results.size(), kRequests);
    for (size_t i = 0; i < kRequests; ++i) {
      const QueryResult& q = out.results[i];
      EXPECT_EQ(q.batch_size, i < 32 ? 32u : 8u) << "request " << i;
      auto labels = core::CpuReference(csr, algo, batch.requests[i].source);
      EXPECT_EQ(q.reached_vertices, CountReached(algo, labels)) << "request " << i;
    }
    // The waves tile [start, start + duration]: wave 1 starts where wave 0
    // finished.
    EXPECT_DOUBLE_EQ(out.results[0].start_ms, 1.0);
    EXPECT_DOUBLE_EQ(out.results[32].start_ms, out.results[0].finish_ms);
    EXPECT_DOUBLE_EQ(out.results[39].finish_ms, 1.0 + out.duration_ms);
  }
}

TEST(SingleShardServe, MaxBatchBeyondAttributionCapWaveSplitsWithExactAnswers) {
  // Regression: --max-batch 64 used to drive RunBatch into the
  // kMaxAttributedSources ETA_CHECK abort. A 48-request fold must serve as
  // attribution-cap-sized launch waves and answer every request exactly as
  // max_batch = 32 (two separate dispatches) does.
  graph::Csr csr = RandomGraph(19);
  std::vector<Request> trace;
  for (uint64_t i = 0; i < 48; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = static_cast<graph::VertexId>((i * 17) % csr.NumVertices());
    r.arrival_ms = 0;
    trace.push_back(r);
  }
  ServeOptions wide;
  wide.queue_capacity = 64;
  wide.max_batch = 64;
  ServeOptions capped = wide;
  capped.max_batch = 32;
  auto wide_report = ServeOneShard(wide, csr, trace);
  auto capped_report = ServeOneShard(capped, csr, trace);
  ASSERT_EQ(wide_report.completed, trace.size());
  ASSERT_EQ(capped_report.completed, trace.size());
  EXPECT_EQ(wide_report.batches, 1u);
  EXPECT_EQ(capped_report.batches, 2u);
  for (size_t i = 0; i < trace.size(); ++i) {
    const QueryResult& q = wide_report.results[i];
    EXPECT_EQ(q.status, QueryStatus::kOk);
    EXPECT_LE(q.batch_size, core::ResidentGraph::kMaxAttributedSources);
    EXPECT_EQ(q.reached_vertices, capped_report.results[i].reached_vertices)
        << "request " << i;
    EXPECT_EQ(q.reached_vertices,
              CountReached(q.algo, core::CpuReference(csr, q.algo, q.source)))
        << "request " << i;
  }
}

TEST(SingleShardServe, ReportIsDeterministic) {
  graph::Csr csr = RandomGraph(17);
  TraceOptions trace_options;
  trace_options.num_requests = 24;
  trace_options.deadline_ms = 50.0;
  auto trace = GenerateTrace(csr.NumVertices(), trace_options);

  ServeOptions options;  // folding on by default
  auto first = ServeOneShard(options, csr, trace);
  auto second = ServeOneShard(options, csr, trace);
  EXPECT_EQ(first.Render("replay"), second.Render("replay"));
  EXPECT_EQ(first.Json(), second.Json());
  ASSERT_EQ(first.results.size(), second.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].status, second.results[i].status);
    EXPECT_EQ(first.results[i].reached_vertices, second.results[i].reached_vertices);
    EXPECT_DOUBLE_EQ(first.results[i].finish_ms, second.results[i].finish_ms);
  }
}

}  // namespace
}  // namespace eta::serve
