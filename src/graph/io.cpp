#include "graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "graph/builder.hpp"
#include "util/check.hpp"
#include "util/number.hpp"

namespace eta::graph {

namespace {

// Vertices an edge-list line may imply: ids far beyond the edge count are a
// corrupt file, and each implied vertex costs a row offset even when empty.
constexpr uint64_t kMaxVerticesPerEdge = 64;

void WriteRaw(std::ofstream& out, const void* data, size_t bytes) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  ETA_CHECK(out.good());
}

bool ReadRaw(std::ifstream& in, void* data, size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  return in.good();
}

}  // namespace

void WriteGaloisGr(const Csr& csr, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ETA_CHECK(out.is_open());

  const uint64_t version = 1;
  const uint64_t edge_data_size = csr.HasWeights() ? sizeof(Weight) : 0;
  const uint64_t num_nodes = csr.NumVertices();
  const uint64_t num_edges = csr.NumEdges();
  WriteRaw(out, &version, 8);
  WriteRaw(out, &edge_data_size, 8);
  WriteRaw(out, &num_nodes, 8);
  WriteRaw(out, &num_edges, 8);

  // Galois stores *end* offsets (row_offsets[1..n]) as 64-bit values.
  for (uint64_t v = 0; v < num_nodes; ++v) {
    uint64_t end = csr.RowEnd(static_cast<VertexId>(v));
    WriteRaw(out, &end, 8);
  }
  WriteRaw(out, csr.ColIndices().data(), num_edges * sizeof(VertexId));
  if (num_edges % 2 == 1) {
    // Destination array is padded to an 8-byte boundary.
    const uint32_t pad = 0;
    WriteRaw(out, &pad, 4);
  }
  if (csr.HasWeights()) {
    WriteRaw(out, csr.Weights().data(), num_edges * sizeof(Weight));
  }
}

std::optional<Csr> ReadGaloisGr(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<Csr> {
    if (error != nullptr) *error = path + ": " + message;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return fail("cannot open file");
  const uint64_t file_bytes = static_cast<uint64_t>(in.tellg());
  in.seekg(0);

  uint64_t header[4] = {};
  if (file_bytes < sizeof(header) || !ReadRaw(in, header, sizeof(header))) {
    return fail("truncated header (" + std::to_string(file_bytes) + " bytes)");
  }
  const auto [version, edge_data_size, num_nodes, num_edges] = header;
  if (version != 1) return fail("unsupported .gr version " + std::to_string(version));
  if (edge_data_size != 0 && edge_data_size != sizeof(Weight)) {
    return fail("unsupported edge data size " + std::to_string(edge_data_size));
  }
  if (num_nodes > std::numeric_limits<VertexId>::max() ||
      num_edges > std::numeric_limits<EdgeId>::max()) {
    return fail("header claims " + std::to_string(num_nodes) + " nodes and " +
                std::to_string(num_edges) + " edges, beyond 32-bit ids");
  }
  // Every section's size follows from the header, so the file size is
  // checked before any array is sized from it.
  const uint64_t expected_bytes = sizeof(header) + 8 * num_nodes +
                                  sizeof(VertexId) * (num_edges + num_edges % 2) +
                                  edge_data_size * num_edges;
  if (file_bytes != expected_bytes) {
    return fail("header claims " + std::to_string(num_nodes) + " nodes and " +
                std::to_string(num_edges) + " edges (" + std::to_string(expected_bytes) +
                " bytes) but the file has " + std::to_string(file_bytes) + " bytes");
  }

  std::vector<EdgeId> offsets(num_nodes + 1, 0);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    uint64_t end = 0;
    if (!ReadRaw(in, &end, 8)) return fail("read error in the offset array");
    if (end < offsets[v] || end > num_edges) {
      return fail("row end offset " + std::to_string(end) + " of node " + std::to_string(v) +
                  " out of order or beyond " + std::to_string(num_edges) + " edges");
    }
    offsets[v + 1] = static_cast<EdgeId>(end);
  }
  if (offsets.back() != num_edges) {
    return fail("last row ends at " + std::to_string(offsets.back()) + ", not at edge " +
                std::to_string(num_edges));
  }
  std::vector<VertexId> targets(num_edges);
  if (!ReadRaw(in, targets.data(), num_edges * sizeof(VertexId))) {
    return fail("read error in the destination array");
  }
  for (VertexId dst : targets) {
    if (dst >= num_nodes) return fail("edge target " + std::to_string(dst) + " out of range");
  }
  if (num_edges % 2 == 1) {
    uint32_t pad = 0;
    if (!ReadRaw(in, &pad, 4)) return fail("read error in the padding");
  }
  Csr csr(std::move(offsets), std::move(targets));
  if (edge_data_size != 0) {
    std::vector<Weight> weights(num_edges);
    if (!ReadRaw(in, weights.data(), num_edges * sizeof(Weight))) {
      return fail("read error in the edge data");
    }
    csr.SetWeights(std::move(weights));
  }
  return csr;
}

void WriteEdgeListText(const Csr& csr, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  ETA_CHECK(out.is_open());
  out << "# directed edge list: " << csr.NumVertices() << " vertices, "
      << csr.NumEdges() << " edges\n";
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    auto neighbors = csr.Neighbors(v);
    auto weights = csr.Weights();
    for (size_t i = 0; i < neighbors.size(); ++i) {
      out << v << ' ' << neighbors[i];
      if (csr.HasWeights()) out << ' ' << weights[csr.RowStart(v) + i];
      out << '\n';
    }
  }
  ETA_CHECK(out.good());
}

std::optional<Csr> ReadEdgeListText(const std::string& path, std::string* error) {
  size_t line_no = 0;
  auto fail = [&](const std::string& message) -> std::optional<Csr> {
    if (error != nullptr) {
      *error = line_no > 0 ? path + ":" + std::to_string(line_no) : path;
      *error += ": " + message;
    }
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in.is_open()) return fail("cannot open file");
  std::vector<Edge> edges;
  std::vector<Weight> weights;
  std::optional<bool> weighted;  // set by the first edge line
  uint64_t max_id = 0;
  size_t max_id_line = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    std::string token;
    uint64_t value[3] = {};
    size_t count = 0;
    while (fields >> token) {
      if (count == 3) return fail("more than three fields in '" + line + "'");
      const util::Parsed<uint64_t> parsed = util::ParseNumber<uint64_t>(token);
      if (!parsed) {
        return fail("expected 'src dst [weight]' in unsigned decimals, got '" + line + "'");
      }
      value[count++] = parsed.value;
    }
    if (count == 0) continue;  // whitespace only
    if (count == 1) return fail("expected 'src dst [weight]', got '" + line + "'");
    if (value[0] >= kInvalidVertex || value[1] >= kInvalidVertex) {
      return fail("vertex id beyond " + std::to_string(kInvalidVertex - 1) + " in '" + line + "'");
    }
    if (weighted.has_value() && *weighted != (count == 3)) {
      return fail("weighted and unweighted lines mixed");
    }
    weighted = count == 3;
    if (count == 3 && (value[2] == 0 || value[2] > std::numeric_limits<Weight>::max())) {
      return fail("weight " + std::to_string(value[2]) + " outside 1.." +
                  std::to_string(std::numeric_limits<Weight>::max()));
    }
    edges.push_back({static_cast<VertexId>(value[0]), static_cast<VertexId>(value[1])});
    if (count == 3) weights.push_back(static_cast<Weight>(value[2]));
    if (std::max(value[0], value[1]) > max_id) {
      max_id = std::max(value[0], value[1]);
      max_id_line = line_no;
    }
  }
  if (max_id + 1 > kMaxVerticesPerEdge * (edges.size() + 1)) {
    line_no = max_id_line;
    return fail("vertex id " + std::to_string(max_id) + " implies " +
                std::to_string(max_id + 1) + " vertices for " + std::to_string(edges.size()) +
                " edges");
  }
  if (!weighted.value_or(false)) {
    return BuildCsr(std::move(edges),
                    {.remove_self_loops = false, .remove_duplicates = false});
  }
  // Weighted path: keep weights attached through the (stable) rebuild.
  // Build CSR without dedup so the parallel weight array stays aligned.
  const auto n = static_cast<VertexId>(max_id + 1);
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(edges.size());
  std::vector<Weight> out_weights(edges.size());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    EdgeId slot = cursor[edges[i].src]++;
    targets[slot] = edges[i].dst;
    out_weights[slot] = weights[i];
  }
  Csr csr(std::move(offsets), std::move(targets));
  csr.SetWeights(std::move(out_weights));
  return csr;
}

}  // namespace eta::graph
