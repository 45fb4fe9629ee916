#include "core/framework.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/relax_step.hpp"
#include "core/shadow_edges.hpp"
#include "core/udc.hpp"
#include "core/warp_append.hpp"
#include "cpu/reference.hpp"
#include "sanitizer/sanitizer.hpp"
#include "sim/device.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace eta::core {

namespace {

using graph::EdgeId;
using graph::VertexId;
using graph::Weight;
using sim::Buffer;
using sim::kWarpSize;
using sim::LaneArray;
using sim::WarpCtx;

const char* ModeNameImpl(MemoryMode mode) {
  switch (mode) {
    case MemoryMode::kUnifiedPrefetch: return "um+prefetch";
    case MemoryMode::kUnifiedOnDemand: return "um";
    case MemoryMode::kExplicitCopy: return "explicit";
    case MemoryMode::kChunkedStream: return "chunked";
  }
  return "?";
}

/// GTS-style fixed-chunk streaming state: which chunks of the adjacency
/// (and weight) arrays currently sit in the device-side window buffer.
struct ChunkStream {
  uint64_t chunk_bytes = 1 << 20;
  uint64_t window_chunks = 0;           // capacity of the device buffer
  std::vector<uint8_t> resident;        // per chunk of col[] (+ wts[] mirrored)
  std::vector<uint32_t> fifo;           // eviction order
  size_t fifo_head = 0;
  uint64_t transferred_bytes = 0;

  uint64_t ResidentCount() const { return fifo.size() - fifo_head; }
};

/// kChunkedStream's staging window: half of whatever device memory remains
/// after the resident structures (estimated; GTS dedicates a fixed staging
/// area), at least two chunks of col[] (and of wts[] alongside).
struct ChunkWindow {
  uint64_t chunks, words;  // words: the window buffer's uint32 count
};

ChunkWindow SizeChunkWindow(const EtaGraphOptions& options, VertexId n, bool stage_weights) {
  const uint64_t chunk_bytes = options.stream_chunk_bytes;
  const uint64_t arrays = stage_weights ? 2 : 1;
  const uint64_t reserve = uint64_t{n} * 40 + (1 << 20);
  const uint64_t avail = options.spec.device_memory_bytes > reserve
                             ? options.spec.device_memory_bytes - reserve
                             : chunk_bytes;
  const uint64_t chunks = std::max<uint64_t>(2, avail / 2 / (arrays * chunk_bytes));
  return {chunks, chunks * arrays * chunk_bytes / sizeof(uint32_t)};
}

/// Stages a topology array from its host copy: in place through HostSpan
/// (managed or host-staged memory: pages migrate on demand, chunks stream
/// per iteration), or by cudaMemcpy into device memory.
template <class T>
void StageArray(sim::Device& device, Buffer<T>& buf, std::span<const T> host, bool in_place) {
  if (!in_place) {
    device.CopyToDevice(buf, host);
    return;
  }
  std::copy(host.begin(), host.end(), buf.HostSpan().begin());
  // The device cannot see a HostSpan write; tell an attached checker the
  // bytes are defined.
  device.MarkHostInitialized(buf);
}

/// All device-side state of one resident graph.
struct DeviceState {
  Buffer<EdgeId> row;
  Buffer<VertexId> col;
  Buffer<Weight> wts;
  Buffer<Weight> labels;
  Buffer<uint32_t> stamp;      // last iteration each vertex was appended
  Buffer<VertexId> act_set;
  /// The three append cursors of one iteration, reset together by one H2D:
  /// [kFullCursor] and [kPartCursor] count the full and partial shadows the
  /// UDC kernel emits, [kActCursor] the next active set's vertices.
  Buffer<uint32_t> cursors;
  /// The dual virtual active set the UDC kernel fills (core/udc.hpp).
  VirtualActiveSet vas;
  /// Per-vertex source bitmask for attributed multi-source runs; allocated
  /// lazily on the first attributed query and resident thereafter.
  Buffer<uint32_t> reach_mask;
};

/// The next active set's append cursor, after UDC's two (core/udc.hpp).
constexpr uint64_t kActCursor = 2;
constexpr uint32_t kNumCursors = 3;

/// One warp's lanes of a virtual active set: each shadow's vertex (as a
/// gather index), first edge and degree.
struct ShadowLanes {
  LaneArray<uint64_t> id_idx{};
  LaneArray<EdgeId> start{};
  LaneArray<uint32_t> deg{};
};

/// Loads the warp's shadow vertices from the full (degree == k) or the
/// partial virtual active set.
ShadowLanes LoadShadows(WarpCtx& w, const DeviceState& d, bool full_set, uint32_t k,
                        uint32_t mask) {
  const uint64_t base = w.WarpId() * kWarpSize;
  ShadowLanes s;
  LaneArray<VertexId> id{};
  LaneArray<EdgeId> end{};
  if (full_set) {
    w.GatherContiguous(d.vas.full_id, base, mask, id);
    w.GatherContiguous(d.vas.full_start, base, mask, s.start);
    WarpCtx::ForActive(mask, [&](uint32_t lane) { end[lane] = s.start[lane] + k; });
    w.ChargeAlu(1, mask);
  } else {
    w.GatherContiguous(d.vas.part_id, base, mask, id);
    w.GatherContiguous(d.vas.part_start, base, mask, s.start);
    w.GatherContiguous(d.vas.part_end, base, mask, end);
  }
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    s.id_idx[lane] = id[lane];
    // Shadow bounds are device-resident, so after an uncorrectable ECC hit
    // they can be arbitrary — including inverted. Clamp to the build
    // invariant (end >= start, degree <= k): the shared-memory stand-in has
    // exactly k slots per lane, and an unclamped degree would index past it.
    s.deg[lane] = end[lane] > s.start[lane] ? std::min(end[lane] - s.start[lane], k) : 0;
  });
  return s;
}

struct TraverseParams {
  bool use_smp = true;
  bool full_set = true;  // which virtual active set this launch processes
  uint32_t k = 16;
  uint32_t iteration = 1;
  /// Attributed multi-source mode: propagate per-vertex source bitmasks
  /// alongside the labels, reactivating vertices whose mask grows.
  bool attribute = false;
};

/// The traversal kernel of Procedure 1: one thread per shadow vertex.
/// With SMP it first bulk-fetches its (at most K) neighbor IDs (and
/// weights) into the shared-memory partition with unrolled loads, then
/// relaxes each neighbor from the scratchpad; without SMP it loads
/// neighbors one by one from global memory (the paper's strawman). S is the
/// label semiring (core/traversal.hpp), fixed per launch.
template <class S>
void TraverseKernel(WarpCtx& w, DeviceState& d, const TraverseParams& p) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  const ShadowLanes s = LoadShadows(w, d, p.full_set, p.k, mask);
  LaneArray<Weight> src_label{};
  w.Gather(d.labels, s.id_idx, mask, src_label);
  LaneArray<uint32_t> src_mask{};
  if (p.attribute) w.Gather(d.reach_mask, s.id_idx, mask, src_mask);

  LaneArray<uint32_t> iter_val{};
  iter_val.fill(p.iteration);

  auto relax = [&](uint32_t jmask, const LaneArray<VertexId>& u, const LaneArray<Weight>& ew) {
    LaneArray<uint64_t> u_idx;
    LaneArray<Weight> cand;
    WarpCtx::ForActive(jmask, [&](uint32_t lane) {
      u_idx[lane] = u[lane];
      cand[lane] = S::Propagate(src_label[lane], ew[lane]);
    });

    // Attribution: reach masks flow along every traversed edge whose
    // candidate label still marks its destination reached, not only along
    // label-improving ones; a destination whose mask gains bits re-enters
    // the frontier so the masks converge to the exact per-source
    // reachability fixpoint (the union of |sources| traversals). The flow
    // mask is every lane for BFS and SSSP; for SSWP it drops zero-width
    // edges, which carry a width-0 (unreached) candidate.
    uint32_t gmask = 0;
    if (p.attribute) {
      uint32_t fmask = 0;
      WarpCtx::ForActive(jmask, [&](uint32_t lane) {
        if (S::Reached(cand[lane])) fmask |= 1u << lane;
      });
      if (fmask) {
        LaneArray<uint32_t> old_mask;
        w.AtomicOr(d.reach_mask, u_idx, src_mask, fmask, old_mask);
        WarpCtx::ForActive(fmask, [&](uint32_t lane) {
          if (src_mask[lane] & ~old_mask[lane]) gmask |= 1u << lane;
        });
      }
    }

    const uint32_t cmask = RelaxStep<S>(w, d.labels, u_idx, cand, jmask);
    const uint32_t amask = cmask | gmask;
    if (!amask) return;

    // Append to the next active set, deduplicated per iteration by the
    // stamp array (one entry per vertex per iteration).
    LaneArray<uint32_t> prev_stamp;
    w.AtomicMax(d.stamp, u_idx, iter_val, amask, prev_stamp);
    uint32_t nmask = 0;
    WarpCtx::ForActive(amask, [&](uint32_t lane) {
      if (prev_stamp[lane] < p.iteration) nmask |= 1u << lane;
    });
    if (!nmask) return;

    LaneArray<uint32_t> slot;
    WarpAppend(w, d.cursors, kActCursor, nmask, slot);
    LaneArray<uint64_t> slot_idx;
    WarpCtx::ForActive(nmask, [&](uint32_t lane) { slot_idx[lane] = slot[lane]; });
    w.Scatter(d.act_set, slot_idx, u, nmask);
  };
  ForEachShadowEdge<S::kWeighted>(w, d.col, d.wts, s.start, s.deg, mask, p.k, p.use_smp,
                                  relax);
}

/// PageRank's per-query buffers: ResidentGraph::RunPageRank allocates them
/// before the first attempt and frees them after the last.
struct PrBuffers {
  Buffer<float> rank;
  Buffer<float> next;
  Buffer<float> inv_deg;  // 1/out_degree, 0 for sinks
  Buffer<float> delta;    // single-cell max-|next - rank| reduction target
};

/// PageRank's push over the static virtual active set (the partial-shadow
/// buffers): each shadow adds damping * rank / out_degree of its vertex to
/// `next` of each of its neighbours.
void PrPushKernel(WarpCtx& w, DeviceState& d, PrBuffers& pr, uint32_t k, bool use_smp,
                  float damping) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  const ShadowLanes s = LoadShadows(w, d, /*full_set=*/false, k, mask);
  LaneArray<float> rank{}, inv{};
  w.Gather(pr.rank, s.id_idx, mask, rank);
  w.Gather(pr.inv_deg, s.id_idx, mask, inv);
  LaneArray<float> share{};
  WarpCtx::ForActive(mask,
                     [&](uint32_t lane) { share[lane] = damping * rank[lane] * inv[lane]; });
  w.ChargeAlu(2, mask);
  ForEachShadowEdge<false>(
      w, d.col, d.wts, s.start, s.deg, mask, k, use_smp,
      [&](uint32_t jmask, const LaneArray<VertexId>& u, const LaneArray<Weight>&) {
        LaneArray<uint64_t> u_idx{};
        WarpCtx::ForActive(jmask, [&](uint32_t lane) { u_idx[lane] = u[lane]; });
        LaneArray<float> old{};
        w.AtomicAdd(pr.next, u_idx, share, jmask, old);
      });
}

/// Hybrid BFS's per-query buffers: ResidentGraph::RunHybridBfs allocates
/// them before the first attempt and frees them after the last.
struct HybridBuffers {
  /// The host transpose trow/tcol were staged from; RestageCorrupted checks
  /// them against it.
  const graph::Csr* transpose = nullptr;
  Buffer<EdgeId> trow;  // in-edges, in the memory kind of row/col
  Buffer<VertexId> tcol;
  Buffer<VertexId> frontier_out;  // top-down append side; act_set is the other
};

}  // namespace

const char* MemoryModeName(MemoryMode mode) { return ModeNameImpl(mode); }

/// Device plus resident buffers of one session; lives for the session's
/// whole lifetime so UM residency, cache state, and the chunk window carry
/// across queries.
struct ResidentGraph::State {
  /// Declared before the device: the device holds a raw observer pointer
  /// into the checker, so the checker must be destroyed last.
  std::unique_ptr<sanitizer::Sanitizer> checker;
  /// Same lifetime rule as the checker: the device holds a raw pointer.
  std::unique_ptr<sim::FaultInjector> injector;
  /// Same lifetime rule again (raw pointer in the device).
  std::unique_ptr<sim::LaunchProfiler> profiler;
  sim::Device device;
  DeviceState d;
  ChunkStream stream;
  Buffer<uint32_t> stream_window;  // the staging buffer (kDevice)
  PrBuffers pr;                    // valid only during RunPageRank
  HybridBuffers hybrid;            // valid only during RunHybridBfs

  State(const sim::DeviceSpec& spec, const sim::FaultConfig& faults)
      : device(spec, faults) {}
};

uint64_t ResidentGraph::EstimateDeviceBytes(const graph::Csr& csr,
                                            const EtaGraphOptions& options) {
  return EstimateDeviceBytes(csr, options, csr.HasWeights());
}

uint64_t ResidentGraph::EstimateDeviceBytes(const graph::Csr& csr,
                                            const EtaGraphOptions& options,
                                            bool stage_weights) {
  const VertexId n = csr.NumVertices();
  const EdgeId m = csr.NumEdges();
  const bool chunked = options.memory_mode == MemoryMode::kChunkedStream;
  const bool unified = options.memory_mode == MemoryMode::kUnifiedPrefetch ||
                       options.memory_mode == MemoryMode::kUnifiedOnDemand;
  const uint64_t page = std::max<uint64_t>(options.spec.page_bytes, 1);
  // DeviceMemory::Allocate page-rounds every allocation and only kDevice
  // allocations count against capacity; mirror both rules.
  auto paged = [&](uint64_t count, uint64_t elem) {
    return (std::max<uint64_t>(count * elem, 1) + page - 1) / page * page;
  };
  uint64_t total = 0;
  if (!unified) total += paged(uint64_t{n} + 1, sizeof(EdgeId));  // row_offsets
  if (!unified && !chunked) {
    total += paged(m, sizeof(VertexId));  // col_indices
    if (stage_weights) total += paged(m, sizeof(Weight));
  }
  if (chunked) total += paged(SizeChunkWindow(options, n, stage_weights).words, sizeof(uint32_t));
  total += paged(n, sizeof(Weight));    // labels
  total += paged(n, sizeof(uint32_t));  // stamp
  total += paged(n, sizeof(VertexId));  // act_set
  total += paged(kNumCursors, sizeof(uint32_t));  // cursors
  const uint64_t shadow_cap = ShadowCapacity(csr, options.degree_limit) + 1;
  total += paged(shadow_cap, sizeof(VertexId));  // full_id
  total += paged(shadow_cap, sizeof(EdgeId));    // full_start
  total += paged(shadow_cap, sizeof(VertexId));  // part_id
  total += paged(shadow_cap, sizeof(EdgeId));    // part_start
  total += paged(shadow_cap, sizeof(EdgeId));    // part_end
  total += paged(n, sizeof(uint32_t));           // reach_mask (lazy)
  return total;
}

ResidentGraph::ResidentGraph(const graph::Csr& csr, EtaGraphOptions options)
    : ResidentGraph(csr, options, csr.HasWeights()) {}

ResidentGraph::ResidentGraph(const graph::Csr& csr, EtaGraphOptions options,
                             bool stage_weights)
    : csr_(csr), options_(options), weights_staged_(stage_weights) {
  ETA_CHECK(!weights_staged_ || csr.HasWeights());
  ETA_CHECK(options_.degree_limit >= 1 && options_.degree_limit <= kMaxDegreeLimit);

  const VertexId n = csr.NumVertices();
  const EdgeId m = csr.NumEdges();
  const uint32_t k = options_.degree_limit;
  const bool chunked = options_.memory_mode == MemoryMode::kChunkedStream;
  const bool unified = options_.memory_mode == MemoryMode::kUnifiedPrefetch ||
                       options_.memory_mode == MemoryMode::kUnifiedOnDemand;
  // Chunk streaming keeps row offsets and labels resident but ships the
  // adjacency (and weights) through a bounded staging window.
  const sim::MemKind adj_kind = chunked   ? sim::MemKind::kHostStaged
                                : unified ? sim::MemKind::kUnified
                                          : sim::MemKind::kDevice;
  const sim::MemKind row_kind =
      chunked ? sim::MemKind::kDevice
              : (unified ? sim::MemKind::kUnified : sim::MemKind::kDevice);

  state_ = std::make_unique<State>(options_.spec, options_.faults);
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  ChunkStream& stream = state_->stream;
  if (options_.check.Enabled()) {
    // Attach before any allocation so the checker shadows every buffer.
    state_->checker = std::make_unique<sanitizer::Sanitizer>(options_.check);
    device.SetObserver(state_->checker.get());
  }
  if (options_.faults.Enabled()) {
    // Attach before any allocation so staging is already under injection;
    // a session rebuilt from the same config replays the same schedule.
    state_->injector = std::make_unique<sim::FaultInjector>(options_.faults);
    device.SetFaultInjector(state_->injector.get());
  }
  if (options_.profile) {
    state_->profiler = std::make_unique<sim::LaunchProfiler>();
    device.SetProfiler(state_->profiler.get());
  }
  try {
    d.row = device.Alloc<EdgeId>(n + 1, row_kind, "row_offsets");
    d.col = device.Alloc<VertexId>(m, adj_kind, "col_indices");
    if (weights_staged_) d.wts = device.Alloc<Weight>(m, adj_kind, "weights");
    if (chunked) {
      stream.chunk_bytes = options_.stream_chunk_bytes;
      uint64_t num_chunks =
          (uint64_t{m} * sizeof(VertexId) + stream.chunk_bytes - 1) / stream.chunk_bytes;
      stream.resident.assign(num_chunks, 0);
      const ChunkWindow window = SizeChunkWindow(options_, n, weights_staged_);
      stream.window_chunks = window.chunks;
      state_->stream_window = device.Alloc<uint32_t>(window.words, sim::MemKind::kDevice,
                                                     "stream_window");
    }
    d.labels = device.Alloc<Weight>(n, sim::MemKind::kDevice, "labels");
    d.stamp = device.Alloc<uint32_t>(n, sim::MemKind::kDevice, "stamp");
    d.act_set = device.Alloc<VertexId>(n, sim::MemKind::kDevice, "act_set");
    d.cursors = device.Alloc<uint32_t>(kNumCursors, sim::MemKind::kDevice, "cursors");
    uint64_t shadow_cap = ShadowCapacity(csr, k) + 1;
    d.vas.full_id = device.Alloc<VertexId>(shadow_cap, sim::MemKind::kDevice, "full_id");
    d.vas.full_start = device.Alloc<EdgeId>(shadow_cap, sim::MemKind::kDevice, "full_start");
    d.vas.part_id = device.Alloc<VertexId>(shadow_cap, sim::MemKind::kDevice, "part_id");
    d.vas.part_start = device.Alloc<EdgeId>(shadow_cap, sim::MemKind::kDevice, "part_start");
    d.vas.part_end = device.Alloc<EdgeId>(shadow_cap, sim::MemKind::kDevice, "part_end");
  } catch (const sim::OomError& e) {
    oom_ = true;
    oom_request_bytes_ = e.requested_bytes;
    return;
  }
  device_bytes_peak_ = device.Mem().DeviceBytesUsed();

  // --- Stage topology ------------------------------------------------------
  const bool in_place = unified || chunked;
  StageArray(device, d.row, csr.RowOffsets(), in_place);
  StageArray(device, d.col, csr.ColIndices(), in_place);
  if (weights_staged_) StageArray(device, d.wts, csr.Weights(), in_place);
  if (chunked) {
    // Row offsets are resident device data in GTS mode: explicit upload.
    device.ChargeHostToDevice((uint64_t{n} + 1) * sizeof(EdgeId), /*pageable=*/false,
                              "row-upload");
  }
  // The stamp array relies on the allocator's zero-fill (stamp 0 = "never
  // appended") plus host-side scattered seeding in Execute.
  device.MarkHostInitialized(d.stamp);
  load_ms_ = device.NowMs();
}

ResidentGraph::~ResidentGraph() { Shutdown(); }

void ResidentGraph::Shutdown() {
  if (shutdown_ || state_ == nullptr) return;
  shutdown_ = true;
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  device.Free(d.row);
  device.Free(d.col);
  device.Free(d.wts);
  device.Free(d.labels);
  device.Free(d.stamp);
  device.Free(d.act_set);
  device.Free(d.cursors);
  device.Free(d.vas.full_id);
  device.Free(d.vas.full_start);
  device.Free(d.vas.part_id);
  device.Free(d.vas.part_start);
  device.Free(d.vas.part_end);
  device.Free(d.reach_mask);
  device.Free(state_->stream_window);
  // Everything the session owns is gone; anything still live is a leak the
  // sweep hands to an attached leakcheck observer.
  device.ReportLeaks();
}

double ResidentGraph::NowMs() const { return state_->device.NowMs(); }

bool ResidentGraph::PrefetchOnce() {
  if (prefetched_ || options_.memory_mode != MemoryMode::kUnifiedPrefetch) return false;
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  device.PrefetchAsync(d.row);
  device.PrefetchAsync(d.col);
  if (weights_staged_) device.PrefetchAsync(d.wts);
  prefetched_ = true;
  return true;
}

double ResidentGraph::PrefetchTopology() {
  if (shutdown_ || oom_ || device_lost_) return 0;
  sim::Device& device = state_->device;
  const double before = device.NowMs();
  if (!PrefetchOnce()) return 0;
  // The caller charges this op to a copy stream as one block, so the pages
  // must be landed (not merely scheduled) before the clock delta is read.
  device.Synchronize();
  return device.NowMs() - before;
}

RunReport ResidentGraph::Run(Algo algo, VertexId source) {
  const VertexId sources[1] = {source};
  return RunMultiSource(algo, sources);
}

RunReport ResidentGraph::RunMultiSource(Algo algo, std::span<const VertexId> sources,
                                        bool attribute_sources) {
  ETA_CHECK(!sources.empty());
  ETA_CHECK(!attribute_sources || sources.size() <= kMaxAttributedSources);
  std::vector<Weight> init_labels(csr_.NumVertices(), InitLabel(algo, false));
  for (VertexId s : sources) {
    ETA_CHECK(s < csr_.NumVertices());
    init_labels[s] = InitLabel(algo, true);
  }
  // The per-vertex reach mask is allocated by the first attributed query
  // and stays resident.
  auto alloc_reach_mask = [&] {
    DeviceState& d = state_->d;
    if (!attribute_sources || d.reach_mask.Valid()) return;
    sim::Device& device = state_->device;
    d.reach_mask = device.Alloc<uint32_t>(csr_.NumVertices(), sim::MemKind::kDevice,
                                          "reach_mask");
    device_bytes_peak_ = std::max(device_bytes_peak_, device.Mem().DeviceBytesUsed());
  };
  return Execute(algo, alloc_reach_mask,
                 [&](QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure) {
                   TraversalAttempt(algo, init_labels, sources, attribute_sources, cursor,
                                    faults, failure);
                 });
}

RunReport ResidentGraph::RunConnectedComponents() {
  const VertexId n = csr_.NumVertices();
  std::vector<Weight> init_labels(n);
  std::vector<VertexId> sources(n);
  for (VertexId v = 0; v < n; ++v) {
    init_labels[v] = v;
    sources[v] = v;
  }
  return Execute(Algo::kCc, [] {},
                 [&](QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure) {
                   TraversalAttempt(Algo::kCc, init_labels, sources,
                                    /*attribute_sources=*/false, cursor, faults, failure);
                 });
}

RunReport ResidentGraph::RunPageRank(const PageRankOptions& pr) {
  ETA_CHECK(options_.memory_mode != MemoryMode::kChunkedStream);
  ETA_CHECK(csr_.NumVertices() > 0);
  const VertexId n = csr_.NumVertices();
  sim::Device& device = state_->device;
  PrBuffers& b = state_->pr;
  auto alloc = [&] {
    b.rank = device.Alloc<float>(n, sim::MemKind::kDevice, "rank");
    b.next = device.Alloc<float>(n, sim::MemKind::kDevice, "next");
    b.inv_deg = device.Alloc<float>(n, sim::MemKind::kDevice, "inv_deg");
    b.delta = device.Alloc<float>(1, sim::MemKind::kDevice, "delta");
    device_bytes_peak_ = std::max(device_bytes_peak_, device.Mem().DeviceBytesUsed());
  };
  // The static virtual active set: UDC of every vertex, built once on the
  // host and uploaded as part of the input, like any preprocessed worklist.
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  const std::vector<ShadowVertex> shadows = TransformActiveSet(csr_, all, options_.degree_limit);
  RunReport report = Execute(
      Algo::kPr, alloc, [&](QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure) {
        PageRankAttempt(pr, shadows, cursor, faults, failure);
      });
  device.Free(b.rank);
  device.Free(b.next);
  device.Free(b.inv_deg);
  device.Free(b.delta);
  return report;
}

RunReport ResidentGraph::RunHybridBfs(VertexId source, const HybridBfsOptions& hybrid) {
  ETA_CHECK(options_.memory_mode != MemoryMode::kChunkedStream);
  ETA_CHECK(source < csr_.NumVertices());
  // Preprocessing (untimed, like every framework's format conversion).
  const graph::Csr transpose = csr_.Transpose();
  sim::Device& device = state_->device;
  HybridBuffers& b = state_->hybrid;
  b.transpose = &transpose;
  auto alloc = [&] {
    const sim::MemKind topology_kind = state_->d.row.raw.kind;
    b.trow = device.Alloc<EdgeId>(transpose.NumVertices() + 1, topology_kind, "trow");
    b.tcol = device.Alloc<VertexId>(transpose.NumEdges(), topology_kind, "tcol");
    b.frontier_out =
        device.Alloc<VertexId>(csr_.NumVertices(), sim::MemKind::kDevice, "frontier_out");
    device_bytes_peak_ = std::max(device_bytes_peak_, device.Mem().DeviceBytesUsed());
    const bool in_place = topology_kind != sim::MemKind::kDevice;
    StageArray(device, b.trow, transpose.RowOffsets(), in_place);
    StageArray(device, b.tcol, transpose.ColIndices(), in_place);
  };
  RunReport report = Execute(
      Algo::kBfs, alloc, [&](QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure) {
        HybridBfsAttempt(source, hybrid, cursor, faults, failure);
      });
  device.Free(b.trow);
  device.Free(b.tcol);
  device.Free(b.frontier_out);
  b = HybridBuffers{};
  return report;
}

bool ResidentGraph::AttemptFailure::Launched(const sim::LaunchResult& r, QueryCursor* cursor,
                                             FaultStats* faults) {
  faults->ecc_corrected += r.ecc_corrected;
  // A hung launch holds the device for its whole watchdog window.
  cursor->report.kernel_ms +=
      r.status == sim::LaunchStatus::kKernelTimeout ? r.wall_ms : r.compute_ms;
  if (r.Ok()) return true;
  failed = true;
  status = r.status;
  return false;
}

template <class Alloc, class Attempt>
RunReport ResidentGraph::Execute(Algo algo, Alloc&& alloc, Attempt&& run_attempt) {
  ETA_CHECK(!shutdown_);
  RunReport report;
  report.framework = std::string("EtaGraph[") + ModeNameImpl(options_.memory_mode) +
                     (options_.use_smp ? "" : ",no-smp") + "]";
  report.algo = algo;
  if (oom_) {
    report.oom = true;
    report.oom_request_bytes = oom_request_bytes_;
    return report;
  }
  if (device_lost_) {
    report.faults.device_lost = true;
    return report;
  }
  ETA_CHECK(!IsWeighted(algo) || weights_staged_);

  sim::Device& device = state_->device;
  ChunkStream& stream = state_->stream;
  const bool chunked = options_.memory_mode == MemoryMode::kChunkedStream;

  device.StartInterval();
  const uint64_t migrated_start =
      chunked ? stream.transferred_bytes : device.Um().TotalMigratedBytes();
  const size_t migration_ops_start = device.Um().MigrationSizes().Values().size();
  const sim::Counters counters_start = device.TotalCounters();
  const size_t profile_start =
      state_->profiler != nullptr ? state_->profiler->Launches().size() : 0;

  try {
    alloc();
  } catch (const sim::OomError& e) {
    report.oom = true;
    report.oom_request_bytes = e.requested_bytes;
    return report;
  }

  // --- Attempt/retry loop (DESIGN.md section 8) ----------------------------
  // A failed launch executes no warps. After a hang nothing on the device
  // changed, so the next attempt resumes at the cursor and relaunches the
  // killed kernel. After a UECC, verify/re-stage the resident topology from
  // its host shadows and restart the query from scratch. Either way, charge
  // exponential backoff to the simulated clock first. Device loss is
  // terminal for the session.
  FaultStats faults;
  QueryCursor cursor;
  // etatrace: per-attempt records, filled only under trace_requests (the
  // vector stays empty and untouched otherwise — zero-cost contract).
  std::vector<AttemptRecord> attempt_log;
  const bool trace = options_.trace_requests;
  const uint32_t max_attempts = 1 + options_.recovery.max_retries;
  for (uint32_t attempt = 0;; ++attempt) {
    AttemptFailure failure;
    run_attempt(&cursor, &faults, &failure);
    if (!failure.failed) {
      if (trace) {
        AttemptRecord rec;
        rec.attempt = attempt;
        rec.succeeded = true;
        attempt_log.push_back(rec);
      }
      break;
    }
    AttemptRecord rec;  // written only when trace is on
    rec.attempt = attempt;
    ++faults.launch_failures;
    switch (failure.status) {
      case sim::LaunchStatus::kEccUncorrectable:
        ++faults.ecc_uncorrectable;
        rec.fault = 1;
        break;
      case sim::LaunchStatus::kKernelTimeout:
        ++faults.hangs;
        rec.fault = 2;
        break;
      case sim::LaunchStatus::kDeviceLost:
        faults.device_lost = true;
        rec.fault = 3;
        break;
      case sim::LaunchStatus::kOk: break;
    }
    if (failure.status == sim::LaunchStatus::kDeviceLost) {
      device_lost_ = true;
      if (trace) attempt_log.push_back(rec);
      break;
    }
    // Repair a UECC before deciding whether to retry: the corruption is in
    // resident buffers every later query reads, so even a query that gives
    // up here must leave the session clean behind it.
    if (failure.status == sim::LaunchStatus::kEccUncorrectable) {
      const uint64_t restaged_before = faults.restaged_buffers;
      RestageCorrupted(&faults);
      rec.restaged = faults.restaged_buffers > restaged_before;
    }
    // Give up when the attempts are spent or the fleet-wide retry budget
    // (one token per retry) is dry. A dry bucket ends recovery exactly like
    // exhausting max_retries — the caller's degraded path takes over — so a
    // sticky-fault storm cannot multiply offered load.
    const bool attempts_left = attempt + 1 < max_attempts;
    if (!attempts_left ||
        (options_.recovery.budget != nullptr && !options_.recovery.budget->TryAcquireRetry())) {
      faults.exhausted = true;
      // The abandoned body may have stamped vertices up to its failing
      // iteration; start the next query's epoch above them so stale stamps
      // never suppress appends.
      stamp_base_ += cursor.iter + 2;
      if (trace) {
        rec.budget_denied = attempts_left;
        attempt_log.push_back(rec);
      }
      break;
    }
    const double delay = options_.recovery.backoff_base_ms *
                         std::pow(options_.recovery.backoff_multiplier, attempt);
    device.ChargeDelay(delay, "fault-backoff");
    faults.backoff_ms += delay;
    ++faults.retries;
    if (trace) {
      rec.backoff_ms = delay;
      attempt_log.push_back(rec);
    }
    if (failure.status == sim::LaunchStatus::kEccUncorrectable) {
      // Start over on the re-staged buffers; the kernel time the aborted
      // attempt ran stays charged to the query.
      const double kernel_ms = cursor.report.kernel_ms;
      cursor = QueryCursor{};
      cursor.report.kernel_ms = kernel_ms;
    }
  }

  cursor.report.framework = std::move(report.framework);
  cursor.report.algo = algo;
  report = std::move(cursor.report);
  report.faults = faults;
  if (trace) report.attempts = std::move(attempt_log);
  report.device_bytes_peak = device_bytes_peak_;
  report.total_ms = device.NowMs();
  report.query_ms = device.IntervalMs();
  report.counters = device.TotalCounters();
  report.query_counters = device.TotalCounters().Since(counters_start);
  if (state_->profiler != nullptr) {
    const auto& launches = state_->profiler->Launches();
    report.kernel_profiles.assign(launches.begin() + static_cast<long>(profile_start),
                                  launches.end());
  }
  report.timeline = device.GetTimeline();
  const auto& sizes = device.Um().MigrationSizes().Values();
  report.migration_sizes.assign(sizes.begin() + static_cast<long>(migration_ops_start),
                                sizes.end());
  report.migrated_bytes =
      (chunked ? stream.transferred_bytes : device.Um().TotalMigratedBytes()) -
      migrated_start;
  if (state_->checker != nullptr) report.check = state_->checker->Report();
  ++queries_served_;
  return report;
}

void ResidentGraph::TraversalAttempt(Algo algo, const std::vector<Weight>& init_labels,
                                     std::span<const VertexId> initial_active,
                                     bool attribute_sources, QueryCursor* cursor,
                                     FaultStats* faults, AttemptFailure* failure) {
  QueryCursor& c = *cursor;
  RunReport& report = c.report;
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  ChunkStream& stream = state_->stream;
  const VertexId n = csr_.NumVertices();
  const uint32_t k = options_.degree_limit;
  const bool chunked = options_.memory_mode == MemoryMode::kChunkedStream;

  if (c.iter == 0) {
    // --- Init labels and the active set ------------------------------------
    // The active count stays on the host, where it bounds the UDC launch;
    // the device's count is a cursor, zeroed by every iteration's reset.
    device.CopyToDevice(d.labels, std::span<const Weight>(init_labels));
    device.CopyToDeviceRange(d.act_set, 0, initial_active, /*pageable=*/false);
    // Seed stamps for the initial set: functionally scattered writes, charged
    // as one |sources|-sized upload (a real implementation memsets or ships a
    // prepared stamp array). Stamps are offset by stamp_base_ so stale values
    // from earlier session queries never suppress appends.
    std::vector<uint32_t> stamp_upload(initial_active.size(), stamp_base_ + 1);
    device.CopyToDeviceRange(d.stamp, 0, std::span<const uint32_t>(stamp_upload), false);
    for (VertexId s : initial_active) d.stamp.HostSpan()[s] = stamp_base_ + 1;

    if (attribute_sources) {
      std::vector<uint32_t> init_masks(n, 0);
      for (size_t i = 0; i < initial_active.size(); ++i) {
        init_masks[initial_active[i]] |= 1u << i;
      }
      device.CopyToDevice(d.reach_mask, std::span<const uint32_t>(init_masks));
    }

    // Topology prefetch is a load-time cost: only the session's first query
    // pays it; afterwards the managed pages are already resident.
    PrefetchOnce();
    c.iter = 1;
    c.act_count = static_cast<uint32_t>(initial_active.size());
    c.activated_cum = c.act_count;
  }

  // --- Main loop (Procedure 1) ----------------------------------------------
  // Each iteration pays one H2D and two D2H: a single reset of all three
  // cursors (the UDC kernel does not read the active cursor, since the host
  // holds the count as its launch bound), then the shadow counts after the
  // UDC launch and the next active count after the traversal launches.
  const uint32_t zeros[kNumCursors] = {0, 0, 0};
  for (; c.act_count > 0 && c.iter <= options_.max_iterations; ++c.iter, c.step = 0) {
    const uint64_t prev_active = c.act_count;
    if (c.step == 0) {
      device.CopyToDevice(d.cursors, std::span<const uint32_t>(zeros), false);
      c.step = 1;
    }
    if (c.step == 1) {
      auto udc = device.Launch("udc", {c.act_count, options_.block_size},
                               [&](WarpCtx& w) {
                                 UdcKernel(w, d.row, d.col.count, d.act_set, d.cursors, d.vas, k);
                               });
      if (!failure->Launched(udc, cursor, faults)) return;
      c.step = 2;

      device.CopyToHost(std::span<uint32_t>(c.shadows), d.cursors, false);
      // Shadow counts come back from device memory; a fault-corrupted count
      // must never launch a grid bigger than the staging arrays it indexes.
      // Only hardware faults can corrupt them, so the clamp is keyed on
      // faults.Enabled(): a fault-free run (plants included) launches the
      // exact counts, and etacheck observes any raw overflow.
      if (options_.faults.Enabled()) {
        c.shadows[0] = static_cast<uint32_t>(std::min<uint64_t>(c.shadows[0], d.vas.full_id.count));
        c.shadows[1] = static_cast<uint32_t>(std::min<uint64_t>(c.shadows[1], d.vas.part_id.count));
      }

      if (chunked) {
        // GTS-style staging: ship every fixed-size chunk that any active
        // vertex's adjacency touches, wholly, before the traversal kernels.
        // Multi-stream pipelining hides part of the copy (overlap below),
        // but a mostly-idle chunk still costs its full bytes — the waste the
        // paper's introduction calls out. The resident-chunk window persists
        // across session queries (a warm window, like UM residency).
        auto act_host = d.act_set.HostSpan();
        uint64_t new_bytes = 0;
        for (uint64_t i = 0; i < prev_active; ++i) {
          VertexId v = act_host[i];
          // Active-set entries are device data: skip ids a fault pushed out
          // of range instead of indexing the host CSR with them.
          if (v >= csr_.NumVertices() || csr_.OutDegree(v) == 0) continue;
          uint64_t first =
              uint64_t{csr_.RowStart(v)} * sizeof(VertexId) / stream.chunk_bytes;
          uint64_t last =
              (uint64_t{csr_.RowEnd(v)} * sizeof(VertexId) - 1) / stream.chunk_bytes;
          for (uint64_t ch = first; ch <= last; ++ch) {
            if (stream.resident[ch]) continue;
            while (stream.ResidentCount() >= stream.window_chunks) {
              stream.resident[stream.fifo[stream.fifo_head++]] = 0;
            }
            stream.resident[ch] = 1;
            stream.fifo.push_back(static_cast<uint32_t>(ch));
            new_bytes += stream.chunk_bytes * (weights_staged_ ? 2 : 1);
          }
        }
        if (new_bytes > 0) {
          device.ChargeHostToDevice(new_bytes, /*pageable=*/false, "chunk-stream",
                                    /*overlap=*/0.6);
          stream.transferred_bytes += new_bytes;
        }
      }
    }

    TraverseParams params;
    params.use_smp = options_.use_smp;
    params.k = k;
    params.iteration = stamp_base_ + c.iter + 1;  // stamps compare against the *next* set
    params.attribute = attribute_sources;
    auto traverse = [&](const char* label, uint32_t shadows) {
      return WithSemiring(algo, [&]<class S>(S) {
        return device.Launch(label, {shadows, options_.block_size},
                             [&](WarpCtx& w) { TraverseKernel<S>(w, d, params); });
      });
    };
    if (c.step == 2) {
      if (c.shadows[0] > 0) {
        params.full_set = true;
        if (!failure->Launched(traverse("traverse_full", c.shadows[0]), cursor, faults)) return;
      }
      c.step = 3;
    }
    if (c.shadows[1] > 0) {
      params.full_set = false;
      if (!failure->Launched(traverse("traverse_part", c.shadows[1]), cursor, faults)) return;
    }

    uint32_t counts[kNumCursors] = {0, 0, 0};
    device.CopyToHost(std::span<uint32_t>(counts), d.cursors, false);
    c.act_count = counts[kActCursor];
    // Same contract as the shadow counts above: the next launch bound and
    // the host-side chunk walk must stay inside the active-set allocation.
    if (options_.faults.Enabled()) {
      c.act_count = static_cast<uint32_t>(std::min<uint64_t>(c.act_count, d.act_set.count));
    }
    c.activated_cum += c.act_count;
    report.iteration_stats.push_back({c.iter, prev_active,
                                      uint64_t{c.shadows[0]} + c.shadows[1], device.NowMs(),
                                      c.activated_cum});
  }

  // --- Results back ----------------------------------------------------------
  device.Synchronize();
  report.labels.resize(n);
  device.CopyToHost(std::span<Weight>(report.labels), d.labels);

  if (attribute_sources) {
    std::vector<uint32_t> masks(n);
    device.CopyToHost(std::span<uint32_t>(masks), d.reach_mask);
    report.per_source_reached.assign(initial_active.size(), 0);
    for (uint32_t m : masks) {
      while (m) {
        report.per_source_reached[std::countr_zero(m)]++;
        m &= m - 1;
      }
    }
  }

  report.iterations = static_cast<uint32_t>(report.iteration_stats.size());
  report.activated = cpu::CountReached(report.labels, IsWidest(algo));
  report.activated_fraction = n ? static_cast<double>(report.activated) / n : 0;

  stamp_base_ += report.iterations + 1;
}

void ResidentGraph::PageRankAttempt(const PageRankOptions& pr,
                                    std::span<const ShadowVertex> shadows, QueryCursor* cursor,
                                    FaultStats* faults, AttemptFailure* failure) {
  QueryCursor& c = *cursor;
  RunReport& report = c.report;
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  const VertexId n = csr_.NumVertices();
  const uint32_t k = options_.degree_limit;
  const uint64_t num_shadows = shadows.size();

  PrBuffers b = state_->pr;
  if (c.iter == 0) {
    std::vector<float> inv(n, 0.f), rank0(n, 1.0f / static_cast<float>(n));
    for (VertexId v = 0; v < n; ++v) {
      if (EdgeId deg = csr_.OutDegree(v); deg > 0) inv[v] = 1.0f / static_cast<float>(deg);
    }
    device.CopyToDevice(b.inv_deg, std::span<const float>(inv));
    device.CopyToDevice(b.rank, std::span<const float>(rank0));
    std::vector<VertexId> ids(num_shadows);
    std::vector<EdgeId> starts(num_shadows), ends(num_shadows);
    for (uint64_t i = 0; i < num_shadows; ++i) {
      ids[i] = shadows[i].id;
      starts[i] = shadows[i].start;
      ends[i] = shadows[i].end;
    }
    device.CopyToDevice(d.vas.part_id, std::span<const VertexId>(ids));
    device.CopyToDevice(d.vas.part_start, std::span<const EdgeId>(starts));
    device.CopyToDevice(d.vas.part_end, std::span<const EdgeId>(ends));
    PrefetchOnce();
    // delta relies on alloc-time zero fill: the first iteration's AtomicMax
    // reads it before any host write reaches it. Its value is only ever read
    // back and discarded (convergence uses host_delta), so a restarted query
    // needs no reset.
    device.MarkHostInitialized(b.delta);
    c.iter = 1;
  }
  // Every completed iteration swapped rank and next (a pointer swap on the
  // device), so iteration `iter` finds them swapped iter - 1 times.
  if (c.iter % 2 == 0) std::swap(b.rank, b.next);

  const float base_rank = (1.0f - static_cast<float>(pr.damping)) / static_cast<float>(n);
  const auto damping = static_cast<float>(pr.damping);

  for (; c.iter <= pr.max_iterations; ++c.iter, c.step = 0) {
    if (c.step == 0) {
      // --- init kernel: next[v] = (1-d)/n ---------------------------------
      auto init = device.Launch("pr_init", {n, options_.block_size}, [&](WarpCtx& w) {
        uint32_t mask = w.ActiveMask();
        if (!mask) return;
        uint64_t base = w.WarpId() * kWarpSize;
        LaneArray<uint64_t> slot{};
        LaneArray<float> val{};
        WarpCtx::ForActive(mask, [&](uint32_t lane) {
          slot[lane] = base + lane;
          val[lane] = base_rank;
        });
        w.Scatter(b.next, slot, val, mask);
      });
      if (!failure->Launched(init, cursor, faults)) return;
      c.step = 1;
    }

    if (c.step == 1) {
      auto push =
          device.Launch("pr_push", {num_shadows, options_.block_size}, [&](WarpCtx& w) {
            PrPushKernel(w, d, b, k, options_.use_smp, damping);
          });
      if (!failure->Launched(push, cursor, faults)) return;
      c.step = 2;
    }

    // --- delta kernel: max |next - rank|, then swap -------------------------
    float host_delta = 0;
    auto reduce = device.Launch("pr_delta", {n, options_.block_size}, [&](WarpCtx& w) {
      uint32_t mask = w.ActiveMask();
      if (!mask) return;
      uint64_t base = w.WarpId() * kWarpSize;
      LaneArray<float> a{}, cv{};
      w.GatherContiguous(b.rank, base, mask, a);
      w.GatherContiguous(b.next, base, mask, cv);
      w.ChargeAlu(2, mask);
      float warp_max = 0;
      WarpCtx::ForActive(mask, [&](uint32_t lane) {
        warp_max = std::max(warp_max, std::abs(a[lane] - cv[lane]));
      });
      host_delta = std::max(host_delta, warp_max);
      LaneArray<uint64_t> zero_idx{};
      LaneArray<float> val{};
      val.fill(warp_max);
      LaneArray<float> old{};
      w.AtomicMax(b.delta, zero_idx, val, 1u, old);
    });
    if (!failure->Launched(reduce, cursor, faults)) return;

    std::swap(b.rank, b.next);

    float delta_readback = 0;
    device.CopyToHost(std::span<float>(&delta_readback, 1), b.delta, false);
    const float zero = 0;
    device.CopyToDevice(b.delta, std::span<const float>(&zero, 1), false);
    report.iterations = c.iter;
    if (host_delta < pr.epsilon) break;
  }

  device.Synchronize();
  report.ranks.resize(n);
  device.CopyToHost(std::span<float>(report.ranks), b.rank);
}

void ResidentGraph::HybridBfsAttempt(VertexId source, const HybridBfsOptions& hybrid,
                                     QueryCursor* cursor, FaultStats* faults,
                                     AttemptFailure* failure) {
  QueryCursor& c = *cursor;
  RunReport& report = c.report;
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  const HybridBuffers& b = state_->hybrid;
  const VertexId n = csr_.NumVertices();

  if (c.iter == 0) {
    std::vector<Weight> init(n, kInf);
    init[source] = 0;
    device.CopyToDevice(d.labels, std::span<const Weight>(init));
    const VertexId src_val[1] = {source};
    device.CopyToDeviceRange(d.act_set, 0, std::span<const VertexId>(src_val), false);
    PrefetchOnce();
    c.iter = 1;
    c.act_count = 1;
  }
  // Every completed top-down iteration swapped the two frontiers (a pointer
  // swap on the device), so iteration `iter` finds them swapped once per
  // top-down iteration before it.
  Buffer<VertexId> frontier_in = d.act_set;
  Buffer<VertexId> frontier_out = b.frontier_out;
  if ((c.iter - 1 - report.bottom_up_iterations) % 2 == 1) std::swap(frontier_in, frontier_out);

  const uint32_t zero[1] = {0};
  for (; c.act_count > 0 && c.iter <= options_.max_iterations; ++c.iter, c.step = 0) {
    const uint32_t frontier = c.act_count;
    if (c.step == 0) {
      // Beamer's direction heuristic on frontier size.
      c.step = 2;
      if (!c.bottom_up && frontier > n / hybrid.alpha) {
        c.bottom_up = true;
        // The first pull phase prefetches the transpose, under PrefetchOnce's
        // mode rule.
        if (report.bottom_up_iterations == 0 &&
            options_.memory_mode == MemoryMode::kUnifiedPrefetch) {
          device.PrefetchAsync(b.trow);
          device.PrefetchAsync(b.tcol);
        }
      } else if (c.bottom_up && frontier < n / hybrid.beta) {
        c.bottom_up = false;
        device.CopyToDevice(d.cursors, std::span<const uint32_t>(zero), false);
        c.step = 1;
      }
    }
    if (c.step == 1) {
      // Rebuild the worklist from the levels.
      auto compact = device.Launch("bfs_compact", {n, options_.block_size}, [&](WarpCtx& w) {
        CompactKernel(w, d.labels, frontier_in, d.cursors, c.iter - 1);
      });
      if (!failure->Launched(compact, cursor, faults)) return;
      uint32_t rebuilt = 0;
      device.CopyToHost(std::span<uint32_t>(&rebuilt, 1), d.cursors, false);
      ETA_CHECK(rebuilt == frontier);
      c.step = 2;
    }
    if (c.step == 2) {
      device.CopyToDevice(d.cursors, std::span<const uint32_t>(zero), false);
      c.step = 3;
    }
    const sim::LaunchResult step =
        c.bottom_up
            ? device.Launch("bfs_bottom_up", {n, options_.block_size},
                            [&](WarpCtx& w) {
                              BottomUpKernel(w, b.trow, b.tcol, d.labels, d.cursors, c.iter);
                            })
            : device.Launch("bfs_top_down", {frontier, options_.block_size}, [&](WarpCtx& w) {
                TopDownKernel(w, d.row, d.col, d.labels, frontier_in, frontier_out, d.cursors,
                              c.iter, options_.use_smp, options_.degree_limit);
              });
    if (!failure->Launched(step, cursor, faults)) return;
    if (c.bottom_up) ++report.bottom_up_iterations;
    device.CopyToHost(std::span<uint32_t>(&c.act_count, 1), d.cursors, false);
    // The frontier size comes back from device memory: under hardware faults
    // keep the next launch bound inside the frontier allocations.
    if (options_.faults.Enabled()) c.act_count = std::min(c.act_count, n);
    if (!c.bottom_up) std::swap(frontier_in, frontier_out);
    report.iterations = c.iter;
  }

  device.Synchronize();
  report.labels.resize(n);
  device.CopyToHost(std::span<Weight>(report.labels), d.labels);
  report.activated = cpu::CountReached(report.labels, /*widest_path=*/false);
  report.activated_fraction = n ? static_cast<double>(report.activated) / n : 0;
}

void ResidentGraph::RestageCorrupted(FaultStats* faults) {
  sim::Device& device = state_->device;
  DeviceState& d = state_->d;
  ChunkStream& stream = state_->stream;

  auto restage = [&](auto& buf, auto host, const char* label) {
    if (!buf.Valid()) return;
    auto dev = buf.HostSpan();
    if (std::equal(host.begin(), host.end(), dev.begin())) return;
    if (buf.raw.kind == sim::MemKind::kDevice) {
      device.CopyToDevice(buf, host, /*pageable=*/false);
    } else if (buf.raw.kind == sim::MemKind::kUnified) {
      // Restore the backing pages and charge their re-migration.
      std::copy(host.begin(), host.end(), dev.begin());
      device.ChargeHostToDevice(host.size_bytes(), /*pageable=*/false,
                                std::string(label) + ":restage");
      device.MarkHostInitialized(buf);
    } else {
      // kHostStaged: the host storage is the functional truth; fixing it
      // costs nothing here, and the streamed window is dropped below so the
      // chunks re-ship through the normal (charged) path.
      std::copy(host.begin(), host.end(), dev.begin());
      device.MarkHostInitialized(buf);
    }
    ++faults->restaged_buffers;
    faults->restaged_bytes += host.size_bytes();
  };

  restage(d.row, csr_.RowOffsets(), "row");
  const uint64_t before_adj = faults->restaged_buffers;
  restage(d.col, csr_.ColIndices(), "col");
  if (weights_staged_) restage(d.wts, csr_.Weights(), "wts");
  if (options_.memory_mode == MemoryMode::kChunkedStream &&
      faults->restaged_buffers != before_adj) {
    std::fill(stream.resident.begin(), stream.resident.end(), 0);
    stream.fifo.clear();
    stream.fifo_head = 0;
  }
  HybridBuffers& hybrid = state_->hybrid;
  if (hybrid.transpose != nullptr) {
    restage(hybrid.trow, hybrid.transpose->RowOffsets(), "trow");
    restage(hybrid.tcol, hybrid.transpose->ColIndices(), "tcol");
  }

  // The stamp array is the one piece of dynamic state a retry does not fully
  // rewrite, and it has no host shadow to verify against: re-zero it
  // (charged) and restart the stamp epoch.
  const VertexId n = csr_.NumVertices();
  std::vector<uint32_t> zeros(n, 0);
  device.CopyToDevice(d.stamp, std::span<const uint32_t>(zeros), /*pageable=*/false);
  ++faults->restaged_buffers;
  faults->restaged_bytes += uint64_t{n} * sizeof(uint32_t);
  stamp_base_ = 0;
}

const sanitizer::SanitizerReport* ResidentGraph::CheckReport() const {
  return state_ != nullptr && state_->checker != nullptr ? &state_->checker->Report()
                                                         : nullptr;
}

const sim::LaunchProfiler* ResidentGraph::Profiler() const {
  return state_ != nullptr ? state_->profiler.get() : nullptr;
}

const sim::Timeline& ResidentGraph::SessionTimeline() const {
  return state_->device.GetTimeline();
}

namespace {

/// One-shot epilogue: tear the session down (running the leakcheck sweep)
/// and re-copy the checker report so teardown findings reach the caller.
RunReport FinishOneShot(ResidentGraph& session, RunReport report) {
  session.Shutdown();
  if (const sanitizer::SanitizerReport* check = session.CheckReport()) {
    report.check = *check;
  }
  return report;
}

}  // namespace

RunReport EtaGraph::Run(const graph::Csr& csr, Algo algo, VertexId source) const {
  ResidentGraph session(csr, options_, /*stage_weights=*/IsWeighted(algo));
  return FinishOneShot(session, session.Run(algo, source));
}

RunReport EtaGraph::RunMultiSource(const graph::Csr& csr, Algo algo,
                                   std::span<const VertexId> sources,
                                   bool attribute_sources) const {
  ResidentGraph session(csr, options_, /*stage_weights=*/IsWeighted(algo));
  return FinishOneShot(session, session.RunMultiSource(algo, sources, attribute_sources));
}

RunReport EtaGraph::RunConnectedComponents(const graph::Csr& csr) const {
  ResidentGraph session(csr, options_, /*stage_weights=*/false);
  return FinishOneShot(session, session.RunConnectedComponents());
}

RunReport EtaGraph::RunPageRank(const graph::Csr& csr, const PageRankOptions& pr) const {
  ResidentGraph session(csr, options_, /*stage_weights=*/false);
  return FinishOneShot(session, session.RunPageRank(pr));
}

RunReport EtaGraph::RunHybridBfs(const graph::Csr& csr, VertexId source,
                                 const HybridBfsOptions& hybrid) const {
  ResidentGraph session(csr, options_, /*stage_weights=*/false);
  return FinishOneShot(session, session.RunHybridBfs(source, hybrid));
}

}  // namespace eta::core
