// Graph I/O tests: Galois .gr binary round trips, text edge lists, and the
// dataset cache built on top of them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"

namespace eta::graph {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("eta_io_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

Csr RandomGraph(uint64_t seed, bool weighted) {
  RmatParams params;
  params.scale = 9;
  params.num_edges = 3000;
  params.seed = seed;
  Csr csr = BuildCsr(GenerateRmat(params));
  if (weighted) csr.DeriveWeights(seed);
  return csr;
}

/// Reads a .gr file (or, for any other extension, a text edge list) that
/// must load; fails the test otherwise.
Csr Load(const std::string& path) {
  std::string error;
  std::optional<Csr> csr = path.ends_with(".gr") ? ReadGaloisGr(path, &error)
                                                 : ReadEdgeListText(path, &error);
  EXPECT_TRUE(csr.has_value()) << error;
  return csr.value_or(Csr());
}

void WriteBytes(const std::string& path, const void* data, size_t bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void ExpectCsrEqual(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_TRUE(std::equal(a.RowOffsets().begin(), a.RowOffsets().end(),
                         b.RowOffsets().begin()));
  EXPECT_TRUE(std::equal(a.ColIndices().begin(), a.ColIndices().end(),
                         b.ColIndices().begin()));
  ASSERT_EQ(a.HasWeights(), b.HasWeights());
  if (a.HasWeights()) {
    EXPECT_TRUE(std::equal(a.Weights().begin(), a.Weights().end(), b.Weights().begin()));
  }
}

TEST_F(IoTest, GaloisRoundTripUnweighted) {
  Csr csr = RandomGraph(1, false);
  WriteGaloisGr(csr, Path("g.gr"));
  ExpectCsrEqual(csr, Load(Path("g.gr")));
}

TEST_F(IoTest, GaloisRoundTripWeighted) {
  Csr csr = RandomGraph(2, true);
  WriteGaloisGr(csr, Path("g.gr"));
  ExpectCsrEqual(csr, Load(Path("g.gr")));
}

TEST_F(IoTest, GaloisOddEdgeCountPadding) {
  // An odd |E| exercises the 8-byte padding path.
  Csr csr = BuildCsr(std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}});
  ASSERT_EQ(csr.NumEdges() % 2, 1u);
  WriteGaloisGr(csr, Path("odd.gr"));
  ExpectCsrEqual(csr, Load(Path("odd.gr")));
}

TEST_F(IoTest, GaloisHeaderLayout) {
  Csr csr = BuildCsr(std::vector<Edge>{{0, 1}});
  WriteGaloisGr(csr, Path("h.gr"));
  std::ifstream in(Path("h.gr"), std::ios::binary);
  uint64_t header[4];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  EXPECT_EQ(header[0], 1u);  // version
  EXPECT_EQ(header[1], 0u);  // no edge data
  EXPECT_EQ(header[2], 2u);  // nodes
  EXPECT_EQ(header[3], 1u);  // edges
}

TEST_F(IoTest, GaloisHugeHeaderIsAnErrorNotAnAllocation) {
  // A bare 32-byte header claiming 2^48 nodes: rejected from the file size
  // before any vector is sized.
  const uint64_t header[4] = {1, 0, uint64_t{1} << 48, 10};
  WriteBytes(Path("huge.gr"), header, sizeof(header));
  std::string error;
  EXPECT_FALSE(ReadGaloisGr(Path("huge.gr"), &error).has_value());
  EXPECT_NE(error.find("281474976710656 nodes"), std::string::npos) << error;

  // Counts within 32 bits but far beyond the file's 32 bytes.
  const uint64_t big[4] = {1, 4, 1u << 30, 1u << 31};
  WriteBytes(Path("big.gr"), big, sizeof(big));
  EXPECT_FALSE(ReadGaloisGr(Path("big.gr"), &error).has_value());
  EXPECT_NE(error.find("but the file has 32 bytes"), std::string::npos) << error;
}

TEST_F(IoTest, GaloisTruncatedFileIsAnError) {
  Csr csr = RandomGraph(5, true);
  WriteGaloisGr(csr, Path("g.gr"));
  const std::string bytes = ReadBytes(Path("g.gr"));
  for (size_t keep : {size_t{0}, size_t{20}, size_t{32}, bytes.size() / 2, bytes.size() - 1}) {
    WriteBytes(Path("t.gr"), bytes.data(), keep);
    std::string error;
    EXPECT_FALSE(ReadGaloisGr(Path("t.gr"), &error).has_value()) << keep;
    EXPECT_FALSE(error.empty()) << keep;
  }
  // One extra trailing byte is malformed too.
  WriteBytes(Path("t.gr"), (bytes + '\0').data(), bytes.size() + 1);
  EXPECT_FALSE(ReadGaloisGr(Path("t.gr"), nullptr).has_value());
}

TEST_F(IoTest, GaloisBadVersionIsAnError) {
  Csr csr = RandomGraph(6, false);
  WriteGaloisGr(csr, Path("g.gr"));
  std::string bytes = ReadBytes(Path("g.gr"));
  const uint64_t version = 2;
  std::memcpy(bytes.data(), &version, sizeof(version));
  WriteBytes(Path("v2.gr"), bytes.data(), bytes.size());
  std::string error;
  EXPECT_FALSE(ReadGaloisGr(Path("v2.gr"), &error).has_value());
  EXPECT_NE(error.find("unsupported .gr version 2"), std::string::npos) << error;
}

TEST_F(IoTest, GaloisBadContentsAreErrors) {
  std::string error;
  EXPECT_FALSE(ReadGaloisGr(Path("missing.gr"), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  Csr csr = BuildCsr(std::vector<Edge>{{0, 1}, {1, 2}});
  WriteGaloisGr(csr, Path("g.gr"));
  const std::string good = ReadBytes(Path("g.gr"));
  // Layout: 32-byte header, 3 row ends (8 bytes each), 2 targets.
  std::string bad = good;
  const uint32_t far_target = 7;
  std::memcpy(bad.data() + 32 + 24, &far_target, 4);
  WriteBytes(Path("bad.gr"), bad.data(), bad.size());
  EXPECT_FALSE(ReadGaloisGr(Path("bad.gr"), &error).has_value());
  EXPECT_NE(error.find("edge target 7 out of range"), std::string::npos) << error;

  bad = good;
  const uint64_t backwards = 0;
  std::memcpy(bad.data() + 32 + 8, &backwards, 8);  // row 1 ends before row 0
  WriteBytes(Path("bad.gr"), bad.data(), bad.size());
  EXPECT_FALSE(ReadGaloisGr(Path("bad.gr"), &error).has_value());
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
}

TEST_F(IoTest, TextRoundTripUnweighted) {
  Csr csr = RandomGraph(3, false);
  WriteEdgeListText(csr, Path("g.txt"));
  ExpectCsrEqual(csr, Load(Path("g.txt")));
}

TEST_F(IoTest, TextRoundTripWeighted) {
  Csr csr = RandomGraph(4, true);
  WriteEdgeListText(csr, Path("g.txt"));
  ExpectCsrEqual(csr, Load(Path("g.txt")));
}

TEST_F(IoTest, TextSkipsComments) {
  std::ofstream out(Path("c.txt"));
  out << "# SNAP-style comment\n% matrix-market comment\n0 1\n1 2\n";
  out.close();
  Csr csr = Load(Path("c.txt"));
  EXPECT_EQ(csr.NumEdges(), 2u);
  EXPECT_EQ(csr.NumVertices(), 3u);
}

TEST_F(IoTest, TextRejectsMalformedInput) {
  const std::pair<const char*, const char*> cases[] = {
      {"0 1\n1 x\n", "unsigned decimals"},
      {"0 1\n2\n", "expected 'src dst [weight]'"},
      {"0 1 2 3\n", "more than three fields"},
      {"-1 2\n", "unsigned decimals"},
      {"4294967295 0 5\n", "vertex id beyond"},
      {"0 4294967295\n", "vertex id beyond"},
      {"0 99999999999999999999\n", "unsigned decimals"},
      {"0 1 4294967296\n", "weight 4294967296 outside"},
      {"0 1 0\n", "weight 0 outside"},
      {"0 1 3\n1 2\n", "mixed"},
      {"0 1\n1 2 3\n", "mixed"},
  };
  for (const auto& [text, expected] : cases) {
    std::ofstream(Path("bad.txt"), std::ios::trunc) << text;
    std::string error;
    EXPECT_FALSE(ReadEdgeListText(Path("bad.txt"), &error).has_value()) << text;
    EXPECT_NE(error.find(expected), std::string::npos) << text << " -> " << error;
    EXPECT_NE(error.find("bad.txt:"), std::string::npos) << error;  // names file and line
  }
  EXPECT_FALSE(ReadEdgeListText(Path("bad.txt"), nullptr).has_value());
}

TEST_F(IoTest, TextRejectsMissingFile) {
  std::string error;
  EXPECT_FALSE(ReadEdgeListText(Path("missing.txt"), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST_F(IoTest, TextRejectsIdsFarBeyondTheEdgeCount) {
  // The largest id sizes the row offsets, so one edge may imply at most
  // 64 * (1 + 1) vertices; a stray id would otherwise size millions of rows
  // (or 16 GiB for an id near 2^32).
  std::ofstream(Path("far.txt"), std::ios::trunc) << "0 127\n";
  EXPECT_EQ(Load(Path("far.txt")).NumVertices(), 128u);
  std::ofstream(Path("far.txt"), std::ios::trunc) << "# one edge\n0 10000000\n";
  std::string error;
  EXPECT_FALSE(ReadEdgeListText(Path("far.txt"), &error).has_value());
  EXPECT_NE(error.find("far.txt:2: vertex id 10000000 implies 10000001 vertices for 1 edges"),
            std::string::npos)
      << error;
}

TEST_F(IoTest, TextAcceptsLargestIdAndWeight) {
  std::ofstream(Path("edge.txt"), std::ios::trunc) << "  \n0 3 4294967295\n3 0 1\r\n";
  Csr csr = Load(Path("edge.txt"));
  EXPECT_EQ(csr.NumVertices(), 4u);
  ASSERT_TRUE(csr.HasWeights());
  EXPECT_EQ(csr.Weights()[0], 4294967295u);
}

TEST_F(IoTest, DatasetCacheHitSkipsGeneration) {
  std::string cache = (dir_ / "cache").string();
  Csr first = BuildDatasetCached("slashdot", cache, /*scale=*/0.05);
  ASSERT_TRUE(fs::exists(fs::path(cache)));
  Csr second = BuildDatasetCached("slashdot", cache, /*scale=*/0.05);
  ExpectCsrEqual(first, second);
}

TEST_F(IoTest, DatasetCacheRebuildsTruncatedFile) {
  std::string cache = (dir_ / "cache").string();
  BuildDatasetCached("slashdot", cache, /*scale=*/0.05);
  std::vector<fs::path> files;
  for (auto& entry : fs::directory_iterator(cache)) files.push_back(entry.path());
  ASSERT_EQ(files.size(), 1u);  // the renamed file, no temporary left behind
  const uintmax_t full_size = fs::file_size(files[0]);
  fs::resize_file(files[0], full_size / 3);

  Csr rebuilt = BuildDatasetCached("slashdot", cache, 0.05);
  ExpectCsrEqual(BuildDataset("slashdot", 0.05), rebuilt);
  EXPECT_EQ(fs::file_size(files[0]), full_size);  // rewritten in place
  ExpectCsrEqual(rebuilt, Load(files[0].string()));
}

TEST_F(IoTest, DatasetCacheKeyedByScale) {
  std::string cache = (dir_ / "cache").string();
  BuildDatasetCached("slashdot", cache, 0.05);
  BuildDatasetCached("slashdot", cache, 0.10);
  // Both round to the same thousandth; each must still get its own graph.
  Csr fine = BuildDatasetCached("slashdot", cache, 0.0011);
  Csr finer = BuildDatasetCached("slashdot", cache, 0.0009);
  size_t files = 0;
  for (auto& entry : fs::directory_iterator(cache)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 4u);
  ExpectCsrEqual(BuildDatasetCached("slashdot", cache, 0.0011), fine);
  ExpectCsrEqual(BuildDatasetCached("slashdot", cache, 0.0009), finer);
  ExpectCsrEqual(finer, BuildDataset("slashdot", 0.0009));
  EXPECT_NE(fine.NumEdges(), finer.NumEdges());
}

TEST(Datasets, RegistryComplete) {
  EXPECT_EQ(AllDatasets().size(), 7u);
  EXPECT_TRUE(FindDataset("uk2005").has_value());
  EXPECT_FALSE(FindDataset("nope").has_value());
  EXPECT_EQ(FindDataset("rmat")->paper_name, "RMAT25");
}

TEST(Datasets, BuildDeterministic) {
  Csr a = BuildDataset("slashdot", 0.05);
  Csr b = BuildDataset("slashdot", 0.05);
  ExpectCsrEqual(a, b);
}

/// FNV-1a over a CSR's shape, offsets, columns and weights, word by word.
uint64_t CsrDigest(const Csr& csr) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::span<const uint32_t> words) {
    h = (h ^ words.size()) * 0x100000001b3ULL;
    for (uint32_t w : words) h = (h ^ w) * 0x100000001b3ULL;
  };
  fold(csr.RowOffsets());
  fold(csr.ColIndices());
  fold(csr.Weights());
  return h;
}

TEST(Datasets, AllBuildableAtSmokeScale) {
  // A builder, generator or recipe change that moves one bit of any
  // stand-in shows here, and must also bump kDatasetGeneratorVersion.
  const std::map<std::string, uint64_t> kDigests = {
      {"slashdot", 0x89b3687941cc2b28},    {"livejournal", 0xee7d4de79543bc96},
      {"orkut", 0x04dad394cae12caf},       {"rmat", 0xbfd536ee4bef33e5},
      {"uk2005", 0x27c72f000398c192},      {"sk2005", 0x6e33f4ef0217f8c6},
      {"uk2006", 0x5d01a1cb934b74fd},
  };
  for (const auto& info : AllDatasets()) {
    Csr csr = BuildDataset(info.name, /*scale=*/0.03);
    EXPECT_EQ(CsrDigest(csr), kDigests.at(info.name)) << info.name;
    EXPECT_GT(csr.NumEdges(), 0u) << info.name;
    EXPECT_TRUE(csr.Validate()) << info.name;
    EXPECT_TRUE(csr.HasWeights()) << info.name;
    // The query source must reach something on every dataset.
    auto reach = ComputeReachability(csr, kQuerySource);
    EXPECT_GT(reach.visited, 1u) << info.name;
  }
}

}  // namespace
}  // namespace eta::graph
